"""Read the LR filling off a mu-generic matrix through minor orders.

Every query is a right-justified minor: rows i_1 < ... < i_s paired with the
rightmost s columns.  Writing O(p, q) for the order of the minor that omits
the consecutive rows max(1, p)..q (no omission when p > q or q < 1, so the
full determinant), the entries of the filling fall out as second differences

    k_ij = [O(j-i, j-1) - O(j-i+1, j)] - [O(j-i+1, j-1) - O(j-i+2, j)].

The result is validated as an LR filling; failure means the input was not
actually mu-generic and the caller should resample upstream.  The module also
reproduces the two worked pairs that share a filling without sharing an
orbit, certified through the residue-field linear system.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import GenericityError, InputError
from .generic import (CheckResult, MatrixPair, MuGenericCertificate,
                      VerificationReport, to_mu_generic, verify_mu_generic)
from .matrix import (RMatrix, diag_from_partition, det, invariant_partition,
                     mat_mul, minor_order_table)
from .ring import INFINITY, ZERO, RingElem, residue
from .tableaux import (Filling, Partition, as_partition,
                       sequence_from_filling, validate_filling)


def _block_orders(table: dict, r: int) -> dict:
    """The order of each right-justified minor the readers ask for, keyed
    by its omitted block of rows (lo, q), 1 <= lo <= q <= r, and by None
    for the whole determinant, read off the minor-order table of an r x r
    matrix; ``_omitting`` reads it."""
    rows = tuple(range(1, r + 1))
    orders = {None: table[rows, rows]}
    for q in rows:
        for lo in range(1, q + 1):
            kept = rows[:lo - 1] + rows[q:]
            orders[lo, q] = table[kept, rows[q - lo + 1:]]
    return orders


def _omitting(orders: dict, p: int, q: int):
    """O(p, q): omit the consecutive rows max(1, p)..q, none when p > q."""
    return orders.get((max(1, p), q), orders[None])


def extract_filling(n_star: RMatrix, mu):
    """The filling encoded in a mu-generic matrix, validated before return."""
    r = n_star.r
    return _read_filling(_block_orders(minor_order_table(n_star), r), as_partition(mu), r)


def _read_filling(orders: dict, mu: Partition, r: int) -> Filling:
    """``extract_filling`` on the block-order map of n_star."""

    def o(p, q):
        v = _omitting(orders, p, q)
        if v is INFINITY:
            raise GenericityError(
                f"right-justified minor omitting rows {max(1, p)}..{q} vanishes; "
                "matrix is not mu-generic")
        return v

    rows = []
    for j in range(1, r + 1):
        row = []
        for i in range(1, j + 1):
            k = (o(j - i, j - 1) - o(j - i + 1, j)) - (o(j - i + 1, j - 1) - o(j - i + 2, j))
            row.append(k)
        rows.append(row)

    try:
        filling = Filling(rows)
        nu = Partition(filling.content())
        lam = sequence_from_filling(filling, mu).stage(r)
    except InputError as exc:
        raise GenericityError(f"extracted array is not an LR filling: {exc}") from exc
    report = validate_filling(filling, mu, nu, lam)
    if not report.valid:
        raise GenericityError(
            f"extracted array fails validation: {report.failure_summary()}")
    return filling


def _row_sums(filling: Filling, orders: dict) -> VerificationReport:
    """The two telescoping identities tying partial sums of the filling to
    omitted-rows orders, on the block-order map of a matrix of the
    filling's size:
      sum over columns j..l of (k_1b + ... + k_ib) = O(j-i, j-1) - O(l-i+1, l)
      k_ii + ... + k_ij = O(j-i+2, j) - O(j-i+1, j)
    """
    r = filling.r
    block_fail = ""
    prefix_fail = ""
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            want = sum(filling.entry(i, b) for b in range(i, j + 1))
            got = _omitting(orders, j - i + 2, j) - _omitting(orders, j - i + 1, j)
            if want != got and not prefix_fail:
                prefix_fail = f"i={i} j={j}: {want} vs {got}"
            for lcol in range(j, r + 1):
                want = sum(filling.entry(s, b)
                           for b in range(j, lcol + 1)
                           for s in range(1, min(i, b) + 1))
                got = _omitting(orders, j - i, j - 1) - _omitting(orders, lcol - i + 1, lcol)
                if want != got and not block_fail:
                    block_fail = f"i={i} j={j} l={lcol}: {want} vs {got}"
    checks = (
        CheckResult("block_sum_identity", not block_fail, block_fail),
        CheckResult("row_prefix_identity", not prefix_fail, prefix_fail),
    )
    return VerificationReport(checks)


class ExtractionResult(NamedTuple):
    filling: Filling
    mu: Partition
    nu: Partition
    lam: Partition
    certificate: MuGenericCertificate


def extract_from_pair(pair: MatrixPair, rng, max_retries: int = 20) -> ExtractionResult:
    """Reduce to mu-generic form, extract, and cross-check the result."""
    cert = to_mu_generic(pair, rng, max_retries=max_retries)
    r = cert.n_star.r
    orders = _block_orders(cert.minor_orders, r)
    filling = _read_filling(orders, cert.mu, r)
    nu = Partition(filling.content())
    if nu != cert.nu:
        raise GenericityError(f"extracted content {nu} does not match nu {cert.nu}")
    lam = sequence_from_filling(filling, cert.mu).stage(r)
    if lam != cert.lam:
        raise GenericityError(f"extracted shape {lam} does not match lambda {cert.lam}")
    sums = _row_sums(filling, orders)
    if not sums.ok:
        raise GenericityError(
            "row-sum identities failed: "
            + ", ".join(c.name for c in sums.failures()))
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
