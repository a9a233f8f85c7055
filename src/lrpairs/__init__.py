"""Littlewood-Richardson fillings as exact matrix-pair invariants over the
discrete valuation ring of rational functions regular at t = 0.

The package realizes a filling as a factored matrix pair (realize), reduces
an arbitrary full-rank pair to mu-generic form by randomized admissible
transformations (generic), and reads the filling back off minor orders
(extract) — all in exact arithmetic.
"""

from .errors import (GenericityError, InputError, LRPairsError, NotInRingError,
                     PrincipalMinorError, RankError, RetriesExhaustedError,
                     VerificationError)
from .ring import INFINITY, ONE, T, ZERO, RingElem, random_unit, residue
from .matrix import (RMatrix, det, diag_from_partition, invariant_partition,
                     inverse, is_mu_admissible, lu_decompose, mat_mul,
                     minor_order_table, times_inverse)
from .tableaux import (Filling, Partition, as_partition, count_fillings,
                       enumerate_fillings, random_partition,
                       sequence_from_filling, validate_filling)
from .realize import FactoredRealization, build_factor, random_filling, realize
from .generic import (GroupElement, MatrixPair, MuGenericCertificate,
                      VerificationReport, act, diagonalize_first,
                      genericity_stats, reset_genericity_stats, to_mu_generic,
                      triangularize_right, verify_mu_generic)
from .extract import (ExtractionResult, counterexample_demo, extract_filling,
                      extract_from_pair)

__version__ = "0.1.0"

__all__ = [
    "GenericityError", "InputError", "LRPairsError", "NotInRingError",
    "PrincipalMinorError", "RankError", "RetriesExhaustedError",
    "VerificationError",
    "INFINITY", "ONE", "T", "ZERO", "RingElem", "random_unit", "residue",
    "RMatrix", "det", "diag_from_partition", "invariant_partition",
    "inverse", "is_mu_admissible", "lu_decompose", "mat_mul",
    "minor_order_table", "times_inverse",
    "Filling", "Partition", "as_partition", "count_fillings",
    "enumerate_fillings", "random_partition", "sequence_from_filling",
    "validate_filling",
    "FactoredRealization", "build_factor", "random_filling", "realize",
    "GroupElement", "MatrixPair", "MuGenericCertificate", "VerificationReport",
    "act", "diagonalize_first", "genericity_stats", "reset_genericity_stats",
    "to_mu_generic", "triangularize_right", "verify_mu_generic",
    "ExtractionResult", "counterexample_demo", "extract_filling",
    "extract_from_pair",
    "__version__",
]
