"""Read the LR filling off a mu-generic matrix through minor orders.

Every query is a right-justified minor: rows i_1 < ... < i_s paired with the
rightmost s columns.  Writing O(p, q) for the order of the minor that omits
the consecutive rows max(1, p)..q (no omission when p > q or q < 1, so the
full determinant), the entries of the filling fall out as second differences

    k_ij = [O(j-i, j-1) - O(j-i+1, j)] - [O(j-i+1, j-1) - O(j-i+2, j)].

The result is validated as an LR filling; failure means the input was not
actually mu-generic and the caller should resample upstream.  On a
certificate its content and shape are nu and lam (see ``_read_filling``).
The module also reproduces the two worked pairs that share a filling
without sharing an orbit, certified through the residue-field linear system.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import GenericityError, InputError
from .generic import (MatrixPair, MuGenericCertificate, to_mu_generic,
                      verify_mu_generic)
from .matrix import (RMatrix, _fitted, diag_from_partition, det,
                     invariant_partition, mat_mul, minor_order_table)
from .ring import INFINITY, ZERO, RingElem, residue
from .tableaux import Filling, Partition, sequence_from_filling, validate_filling


def extract_filling(n_star: RMatrix, mu):
    """The filling encoded in a mu-generic matrix, validated before return.
    A mu with more parts than n_star has rows raises InputError."""
    return _read_filling(minor_order_table(n_star), _fitted(mu, n_star.r), n_star.r)


def _read_filling(table: dict, mu: Partition, r: int) -> Filling:
    """``extract_filling`` on the minor-order table of n_star.

    Every query has lo = max(1, p) <= q + 1, and lo = q + 1 keeps every row.
    The second differences telescope: with A(b) = O(b-i, b-1) -
    O(b-i+1, b-1) and C_b(s) = O(b-s, b-1) - O(b-s+1, b), k_ib = A(b) -
    A(b+1) and k_sb = C_b(s) - C_b(s-1), where A(i) = C_b(0) = 0 as each
    names one minor twice.  So the row-sum identities hold on the finite
    orders read here; k_ii + ... + k_ir = O(r-i+2, r) - O(r-i+1, r) steps
    between top-right corners, and k_1j + ... + k_jj = O(0, j-1) - O(1, j)
    between bottom-right ones.  On a certificate's table the corner checks
    nu_corner_minors and lambda_corner_minors matched those corners with
    the tail sums of nu and of lam - mu, so the content is nu and the
    shape, mu plus the row sums, is lam.
    """
    rows = tuple(range(1, r + 1))

    def o(p, q):
        lo = max(1, p)
        v = table[rows[:lo - 1] + rows[q:], rows[q - lo + 1:]]
        if v is INFINITY:
            raise GenericityError(
                f"right-justified minor omitting rows {lo}..{q} vanishes; "
                "matrix is not mu-generic")
        return v

    k = [[(o(j - i, j - 1) - o(j - i + 1, j)) - (o(j - i + 1, j - 1) - o(j - i + 2, j))
          for i in range(1, j + 1)] for j in rows]
    try:
        filling = Filling(k)
        nu = Partition(filling.content())
        lam = sequence_from_filling(filling, mu)[r]
    except InputError as exc:
        raise GenericityError(f"extracted array is not an LR filling: {exc}") from exc
    failure = validate_filling(filling, mu, nu, lam)
    if failure:
        raise GenericityError(f"extracted array fails validation: {failure}")
    return filling


class ExtractionResult(NamedTuple):
    filling: Filling
    mu: Partition
    nu: Partition
    lam: Partition
    certificate: MuGenericCertificate


def extract_from_pair(pair: MatrixPair, rng, max_retries: int = 20) -> ExtractionResult:
    """Reduce to mu-generic form and read the filling off the certificate's
    minor-order table; its content and shape are the certificate's nu and
    lam (see ``_read_filling``)."""
    cert = to_mu_generic(pair, rng, max_retries=max_retries)
    filling = _read_filling(cert.minor_orders, cert.mu, cert.n_star.r)
    return ExtractionResult(filling, cert.mu, cert.nu, cert.lam, cert)


# ---------------------------------------------------------------------------
# the shared-filling, distinct-orbit demonstration


def _counterexample_matrices():
    t = RingElem.t_pow
    mu = Partition((6, 3, 1))
    n = RMatrix([
        [t(8), t(7), t(4)],
        [ZERO, t(9), RingElem.const(2) * t(6)],
        [ZERO, ZERO, t(7)],
    ])
    n_prime = RMatrix([
        [t(8), t(7), t(4)],
        [ZERO, t(9), RingElem.const(4) * t(6)],
        [ZERO, ZERO, RingElem.const(3) * t(7)],
    ])
    return mu, n, n_prime


# Residues of the diagonal of an equivalence Q would have to solve this
# homogeneous system; its determinant is nonzero, so only the zero solution
# exists — impossible for an invertible Q.  Hence the two pairs below share
# their filling and all three invariant partitions without sharing an orbit.
_RESIDUE_SYSTEM = ((1, -1, 0), (1, -2, 1), (0, -1, 2))


def counterexample_demo() -> dict:
    """Two pairs, one filling, two orbits: the full deterministic report."""
    mu, n, n_prime = _counterexample_matrices()
    d_mu = diag_from_partition(mu, 3)

    fill = extract_filling(n, mu)
    fill_prime = extract_filling(n_prime, mu)

    gap = verify_mu_generic(n, mu)
    gap_prime = verify_mu_generic(n_prime, mu)

    nu = invariant_partition(n)
    nu_prime = invariant_partition(n_prime)
    lam = invariant_partition(mat_mul(d_mu, n))
    lam_prime = invariant_partition(mat_mul(d_mu, n_prime))

    system = RMatrix([[RingElem.const(c) for c in row] for row in _RESIDUE_SYSTEM])
    system_det = residue(det(system))

    return {
        "mu": mu.to_json(),
        "n": n.to_json(),
        "n_prime": n_prime.to_json(),
        "filling": fill.to_json(),
        "filling_prime": fill_prime.to_json(),
        "fillings_equal": fill == fill_prime,
        "nu": nu.to_json(),
        "lambda": lam.to_json(),
        "invariants_equal": nu == nu_prime and lam == lam_prime,
        "mu_generic_reports": {"n": gap.to_json(), "n_prime": gap_prime.to_json()},
        "residue_system": [list(row) for row in _RESIDUE_SYSTEM],
        "residue_determinant": str(Fraction(system_det)),
        "only_trivial_solution": system_det != 0,
        "pairs_equivalent": system_det == 0,
    }
