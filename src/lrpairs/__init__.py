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
from .ring import INFINITY, ONE, T, ZERO, RingElem, random_unit, residue, valuation
from .matrix import (RMatrix, det, diag_from_partition, invariant_partition,
                     invariant_partition_oracle, inverse, is_mu_admissible,
                     lu_decompose, mat_mul, minor, minor_order,
                     minor_order_table, smith_transforms)
from .tableaux import (Filling, FillingReport, LRSequence, Partition,
                       as_partition, count_fillings, enumerate_fillings,
                       iter_partitions, random_partition, render_skew,
                       sequence_from_filling, validate_filling)
from .realize import FactoredRealization, build_factor, random_filling, realize
from .generic import (GroupElement, MatrixPair, MuGenericCertificate,
                      VerificationReport, act, corner_invariant_check,
                      diagonalize_first, genericity_stats,
                      reset_genericity_stats, to_mu_generic,
                      triangularize_right, verify_mu_generic)
from .extract import (ExtractionResult, counterexample_demo, extract_filling,
                      extract_from_pair, row_sum_check)

__version__ = "0.1.0"

__all__ = [
    "GenericityError", "InputError", "LRPairsError", "NotInRingError",
    "PrincipalMinorError", "RankError", "RetriesExhaustedError",
    "VerificationError",
    "INFINITY", "ONE", "T", "ZERO", "RingElem", "random_unit", "residue",
    "valuation",
    "RMatrix", "det", "diag_from_partition", "invariant_partition",
    "invariant_partition_oracle", "inverse", "is_mu_admissible",
    "lu_decompose", "mat_mul", "minor", "minor_order", "minor_order_table",
    "smith_transforms",
    "Filling", "FillingReport", "LRSequence", "Partition", "as_partition",
    "count_fillings", "enumerate_fillings", "iter_partitions",
    "random_partition", "render_skew", "sequence_from_filling",
    "validate_filling",
    "FactoredRealization", "build_factor", "random_filling", "realize",
    "GroupElement", "MatrixPair", "MuGenericCertificate", "VerificationReport",
    "act", "corner_invariant_check", "diagonalize_first", "genericity_stats",
    "reset_genericity_stats", "to_mu_generic", "triangularize_right",
    "verify_mu_generic",
    "ExtractionResult", "counterexample_demo", "extract_filling",
    "extract_from_pair", "row_sum_check",
    "__version__",
]
