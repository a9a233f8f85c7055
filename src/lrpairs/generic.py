"""Reduction of full-rank matrix pairs to the normal form (D_mu, N*).

The group GL_r(R)^3 acts on pairs by (P, Q, T) . (M, N) = (P M Q^-1, Q N T^-1);
the three invariant partitions mu = inv(M), nu = inv(N), lam = inv(MN) are
orbit invariants.  ``to_mu_generic`` moves a pair inside its orbit to
(D_mu, N*) with N* upper triangular and mu-generic: its minor orders satisfy
three Cauchy-Binet minimum identities (no catastrophic cancellation between
the terms) plus determinant-gap inequalities, which is exactly what the
extraction module needs.

Randomness enters only through the caller's rng: the reduction samples a
lower factor Q_L = D_mu^-1 Q_L0 D_mu with random-unit entries, triangularizes,
then dresses the result with random-unit upper factors Q_U, T_U.  Every sample
is verified; any failed check discards the whole attempt and resamples.  The
verification is exhaustive at every size r: each check runs over every index
pair, or every componentwise triple, of the full minor-order table of N*.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (GenericityError, InputError, PrincipalMinorError,
                     RankError, RetriesExhaustedError)
# det is unused here but stays importable as lrpairs.generic.det, an import
# site that perfbench's tracer self-test checks
from .matrix import (RMatrix, _cleaning_unit, _table_partition, det,
                     diag_from_partition, has_unit_det, inverse,
                     invariant_partition, is_mu_admissible, lu_decompose,
                     mat_mul, minor_order, minor_order_table, smith_transforms)
from .ring import INFINITY, ONE, ZERO, RingElem, random_unit
from .tableaux import Partition, as_partition


# ---------------------------------------------------------------------------
# pairs and group elements


class MatrixPair:
    """A pair (first, second) of same-size square matrices over the ring."""

    __slots__ = ("first", "second")

    def __init__(self, first: RMatrix, second: RMatrix):
        if first.r != second.r:
            raise InputError(f"pair components differ in size: {first.r} vs {second.r}")
        self.first = first
        self.second = second

    @property
    def r(self) -> int:
        return self.first.r

    def product(self) -> RMatrix:
        return mat_mul(self.first, self.second)

    def invariants(self):
        """(mu, nu, lam) = invariant partitions of first, second, product."""
        return (invariant_partition(self.first),
                invariant_partition(self.second),
                invariant_partition(self.product()))

    def __eq__(self, other):
        if not isinstance(other, MatrixPair):
            return NotImplemented
        return self.first == other.first and self.second == other.second

    def __repr__(self):
        return f"MatrixPair(r={self.r})"

    def to_json(self):
        return {"first": self.first.to_json(), "second": self.second.to_json()}

    @staticmethod
    def from_json(obj) -> "MatrixPair":
        if not isinstance(obj, dict) or "first" not in obj or "second" not in obj:
            raise InputError("pair must be an object with 'first' and 'second' matrices")
        return MatrixPair(RMatrix.from_json(obj["first"]), RMatrix.from_json(obj["second"]))


class GroupElement:
    """(P, Q, T), each invertible over the ring, acting on pairs."""

    __slots__ = ("p", "q", "t")

    def __init__(self, p: RMatrix, q: RMatrix, t: RMatrix):
        if not (p.r == q.r == t.r):
            raise InputError("group element components must share one size")
        self.p = p
        self.q = q
        self.t = t

    @staticmethod
    def identity(r: int) -> "GroupElement":
        eye = RMatrix.identity(r)
        return GroupElement(eye, eye, eye)

    def compose(self, other: "GroupElement") -> "GroupElement":
        """self applied after other: act(self.compose(g), p) = act(self, act(g, p))."""
        return GroupElement(mat_mul(self.p, other.p),
                            mat_mul(self.q, other.q),
                            mat_mul(self.t, other.t))

    def is_invertible_over_ring(self) -> bool:
        return all(m.is_over_ring() and has_unit_det(m) for m in (self.p, self.q, self.t))

    def to_json(self):
        return {"p": self.p.to_json(), "q": self.q.to_json(), "t": self.t.to_json()}


def act(g: GroupElement, pair: MatrixPair) -> MatrixPair:
    """(P M Q^-1, Q N T^-1)."""
    if g.p.r != pair.r:
        raise InputError(f"group element size {g.p.r} does not match pair size {pair.r}")
    if not g.is_invertible_over_ring():
        raise InputError("group element components must be invertible over the ring")
    return MatrixPair(
        mat_mul(mat_mul(g.p, pair.first), inverse(g.q)),
        mat_mul(mat_mul(g.q, pair.second), inverse(g.t)),
    )


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self):
        out = {"name": self.name, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class VerificationReport:
    """Named check results.  Every check covers its whole domain; to_json
    records this as "mode": "full"."""

    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        return {
            "mode": "full",
            "ok": self.ok,
            "checked": len(self.checks),
            "failures": [c.to_json() for c in self.failures()],
            "checks": [c.to_json() for c in self.checks],
        }


@dataclass
class MuGenericCertificate:
    """Everything produced by one successful reduction attempt."""

    pair: MatrixPair            # (D_mu, N_star)
    n_star: RMatrix
    mu: Partition
    nu: Partition
    lam: Partition
    q_l0: RMatrix               # lower factor before conjugation
    q_lower: RMatrix            # D_mu^-1 Q_L0 D_mu
    q_upper: RMatrix
    t_lower: RMatrix
    t_upper: RMatrix
    q: RMatrix                  # Q_U Q_L, mu-admissible
    t_inv: RMatrix              # T_L T_U
    t_star: RMatrix             # (T_L T_U)^-1, accumulated from the factors
    q_hat_l: RMatrix            # unit lower factor of Q = Q_hat_L Q_hat_U
    q_hat_u: RMatrix
    n_input: RMatrix            # second component after diagonalization
    group: GroupElement         # total transform from the original pair
    report: VerificationReport
    minor_orders: dict          # full (rows, cols) -> order table of N_star
    attempts: int

    def to_json(self):
        return {
            "n_star": self.n_star.to_json(),
            "mu": self.mu.to_json(),
            "nu": self.nu.to_json(),
            "lambda": self.lam.to_json(),
            "factors": {
                "q_l0": self.q_l0.to_json(),
                "q_upper": self.q_upper.to_json(),
                "t_lower": self.t_lower.to_json(),
                "t_upper": self.t_upper.to_json(),
            },
            "verification": self.report.to_json(),
            "attempts": self.attempts,
        }


@dataclass
class GenericityStats:
    attempts: int = 0
    resamples: int = 0
    successes: int = 0


_STATS = GenericityStats()


def genericity_stats() -> GenericityStats:
    return _STATS


def reset_genericity_stats():
    global _STATS
    _STATS = GenericityStats()


# ---------------------------------------------------------------------------
# pipeline pieces


def diagonalize_first(pair: MatrixPair):
    """Move the pair to (D_mu, Q N) with the group element used (T = I).

    Rows of Q N are scaled clean (no denominators, integer coefficients with
    unit content): the scaling diagonal commutes with D_mu, so folding it into
    both P and Q keeps the first component exactly D_mu."""
    r = pair.r
    p, q, d = smith_transforms(pair.first)
    n_input = mat_mul(q, pair.second)
    units = []
    rows = []
    for row in n_input.entries:
        u = _cleaning_unit(row)
        units.append(u)
        rows.append([e * u for e in row] if u != ONE else list(row))
    if any(u != ONE for u in units):
        du = RMatrix([[units[i] if i == j else ZERO for j in range(r)]
                      for i in range(r)])
        n_input = RMatrix(rows)
        p = mat_mul(du, p)
        q = mat_mul(du, q)
    out = MatrixPair(d, n_input)
    return out, GroupElement(p, q, RMatrix.identity(r))


def triangularize_right(a: RMatrix):
    """Column operations T_L with A T_L upper triangular.

    Returns (T_L, U, T_L^-1).  Rows are processed bottom-up; in each row the
    pivot is the minimal-order entry among the still-available columns (ties
    broken rightwards), swapped into place and used to clear the columns to
    its left.  Shears divide by the pivot, keeping entries in reduced form;
    afterwards every column is scaled by the unit clearing denominators and
    integer content, so T_L and U are small and polynomial whenever the input
    is over the ring.  The inverse is accumulated alongside by replaying each
    elementary step backwards, which costs far less than inverting the result.
    T_L is a permutation times a lower triangular matrix, invertible over the
    ring with unit determinant.
    """
    r = a.r
    work = [list(row) for row in a.entries]
    acc = [list(row) for row in RMatrix.identity(r).entries]
    inv = [list(row) for row in RMatrix.identity(r).entries]

    def col_swap(j1, j2):
        for rows in (work, acc):
            for row in rows:
                row[j1 - 1], row[j2 - 1] = row[j2 - 1], row[j1 - 1]
        inv[j1 - 1], inv[j2 - 1] = inv[j2 - 1], inv[j1 - 1]

    for i in range(r, 0, -1):
        best = None
        for j in range(1, i + 1):
            e = work[i - 1][j - 1]
            if e.is_zero():
                continue
            v = e.valuation()
            if best is None or v < best[0] or (v == best[0] and j > best[1]):
                best = (v, j)
        if best is None:
            raise RankError("matrix is rank deficient")
        _, bj = best
        if bj != i:
            col_swap(bj, i)
        piv = work[i - 1][i - 1]
        for j in range(1, i):
            e = work[i - 1][j - 1]
            if e.is_zero():
                continue
            # col_j -= (e / piv) * col_i; the pivot has minimal order in the
            # row, so the multiplier lies in the ring
            w = e / piv
            for row in work[:i]:
                row[j - 1] = row[j - 1] - w * row[i - 1]
            for row in acc:
                row[j - 1] = row[j - 1] - w * row[i - 1]
            work[i - 1][j - 1] = ZERO
            inv[i - 1] = [x + w * y for x, y in zip(inv[i - 1], inv[j - 1])]

    # denominators have valuation zero here, hence are units: scale each
    # column clean (and content-free), mirrored as a row scaling on the inverse
    for j in range(r):
        col = [row[j] for row in work if not row[j].is_zero()]
        col += [row[j] for row in acc if not row[j].is_zero()]
        u = _cleaning_unit(col)
        if u != ONE:
            for rows in (work, acc):
                for row in rows:
                    if not row[j].is_zero():
                        row[j] = row[j] * u
            w = ONE / u
            inv[j] = [x * w for x in inv[j]]
    return RMatrix(acc), RMatrix(work), RMatrix(inv)


def _random_unit_upper(r: int, rng) -> RMatrix:
    return RMatrix([
        [random_unit(rng) if j >= i else ZERO for j in range(r)]
        for i in range(r)
    ])


def _sample_lower_factors(mu: Partition, r: int, rng):
    """Q_L0 with random units at and below the diagonal, and its conjugate
    Q_L = D_mu^-1 Q_L0 D_mu built entry by entry (monomials c t^(mu_j - mu_i))."""
    units = [[random_unit(rng) if j <= i else None for j in range(r)] for i in range(r)]
    q_l0 = RMatrix([
        [units[i][j] if j <= i else ZERO for j in range(r)]
        for i in range(r)
    ])
    q_lower = RMatrix([
        [units[i][j] * RingElem.t_pow(mu.part(j + 1) - mu.part(i + 1))
         if j <= i else ZERO
         for j in range(r)]
        for i in range(r)
    ])
    return q_l0, q_lower


# ---------------------------------------------------------------------------
# index-pair enumeration for the verification equations


def _pairs_to_check(r: int):
    """Every (rows, cols) pair of equal size, including the empty pair."""
    for k in range(0, r + 1):
        for i_set in combinations(range(1, r + 1), k):
            for j_set in combinations(range(1, r + 1), k):
                yield i_set, j_set


def _between(lo: tuple, hi: tuple):
    """All strictly increasing tuples H with lo_s <= h_s <= hi_s."""
    k = len(lo)
    out = []

    def rec(pos, floor, prefix):
        if pos == k:
            out.append(prefix)
            return
        for h in range(max(floor, lo[pos]), hi[pos] + 1):
            rec(pos + 1, h + 1, prefix + (h,))

    rec(0, 1, ())
    return out


def _componentwise_le(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def check_equation_first(tab_n: dict, tab_right: dict, r: int):
    """order(N*_IJ) == min over S >= I of order((Q_L N T^-1)_SJ), checked on
    every pair."""
    for i_set, j_set in _pairs_to_check(r):
        want = tab_n[(i_set, j_set)]
        top = tuple(range(r - len(i_set) + 1, r + 1))
        got = min(tab_right[(s, j_set)] for s in _between(i_set, top))
        if want != got:
            return f"I={i_set} J={j_set}: order {want} vs min {got}"
    return ""


def check_equation_second(tab_n: dict, tab_v: dict, mu: Partition, r: int):
    """order(N*_IJ) == min over H <= I of order(V_HJ) + |mu_H| - |mu_I|,
    V = Q_hat_U N T^-1; checked on pairs with I <= J componentwise (the only
    pairs where the minimum is attained without cancellation; see notes)."""
    for i_set, j_set in _pairs_to_check(r):
        if not _componentwise_le(i_set, j_set):
            continue
        want = tab_n[(i_set, j_set)]
        w_i = mu.sum_over(i_set)
        got = min(tab_v[(h, j_set)] + mu.sum_over(h) - w_i
                  for h in _between((1,) * len(i_set), i_set)) if i_set else 0
        if want != got:
            return f"I={i_set} J={j_set}: order {want} vs min {got}"
    return ""


def check_equation_third(tab_n: dict, tab_left: dict, r: int):
    """order(N*_IJ) == min over H <= J of order((Q N T_L)_IH), checked on
    every pair."""
    for i_set, j_set in _pairs_to_check(r):
        want = tab_n[(i_set, j_set)]
        got = min(tab_left[(i_set, h)]
                  for h in _between((1,) * len(j_set), j_set)) if j_set else 0
        if want != got:
            return f"I={i_set} J={j_set}: order {want} vs min {got}"
    return ""


# ---------------------------------------------------------------------------
# verification


def verify_mu_generic(n_star: RMatrix, mu, table=None) -> VerificationReport:
    """Determinant-gap inequalities defining mu-genericity.

    For every componentwise triple I <= H <= J of equal-size index sets:
      order(N*_IJ) <= order(N*_HJ) <= order(N*_IJ) + |mu_I| - |mu_H|   (rows)
      order(N*_IH) >= order(N*_IJ)                                     (columns)
    Every triple is enumerated, at every size r.  A precomputed minor-order
    table of n_star is reused when given.
    """
    mu = as_partition(mu)
    r = n_star.r
    if table is None:
        table = minor_order_table(n_star)

    upper = CheckResult("upper_triangular", n_star.is_upper_triangular())
    row_fail = ""
    col_fail = ""
    for i_set, j_set in _pairs_to_check(r):
        if not _componentwise_le(i_set, j_set):
            continue
        base = table[(i_set, j_set)]
        w_i = mu.sum_over(i_set)
        for h in _between(i_set, j_set):
            if not row_fail:
                vh = table[(h, j_set)]
                if not (base <= vh):
                    row_fail = f"I={i_set} H={h} J={j_set}: {base} > {vh}"
                elif base is not INFINITY and \
                        (vh is INFINITY or vh > base + w_i - mu.sum_over(h)):
                    row_fail = (f"I={i_set} H={h} J={j_set}: gap {vh} - {base} exceeds "
                                f"{w_i - mu.sum_over(h)}")
            if not col_fail:
                vc = table[(i_set, h)]
                if not (vc >= base):
                    col_fail = f"I={i_set} H={h} J={j_set}: {vc} < {base}"
            if row_fail and col_fail:
                break
    checks = (
        upper,
        CheckResult("det_gap_rows", not row_fail, row_fail),
        CheckResult("det_gap_columns", not col_fail, col_fail),
    )
    return VerificationReport(checks)


def corner_invariant_check(n_star: RMatrix, mu) -> VerificationReport:
    """Corner minors read off the orbit partitions: the top-rows/right-columns
    minors of N* carry the tail sums of nu, and the bottom-right corners of
    D_mu N* carry the tail sums of lam.

    nu and lam are recomputed here by diagonal reduction, deliberately not
    through the minor-order route being checked."""
    mu = as_partition(mu)
    r = n_star.r
    d_mu = diag_from_partition(mu, r)
    nu = invariant_partition(n_star)
    lam = invariant_partition(mat_mul(d_mu, n_star))
    lookup = lambda rows, cols: minor_order(n_star, rows, cols)
    checks = _corner_checks(lookup, mu, nu, lam, r)
    return VerificationReport(checks)


def _corner_checks(lookup, mu, nu, lam, r):
    nu_fail = ""
    lam_fail = ""
    for s in range(1, r + 1):
        right = tuple(range(r - s + 1, r + 1))
        top = tuple(range(1, s + 1))
        want_nu = sum(nu.part(i) for i in right)
        got_nu = lookup(top, right)
        if got_nu != want_nu and not nu_fail:
            nu_fail = f"s={s}: order {got_nu} vs nu tail {want_nu}"
        want_lam = sum(lam.part(i) for i in right)
        got_lam = lookup(right, right)
        if got_lam is not INFINITY:
            got_lam = got_lam + mu.sum_over(right)
        if got_lam != want_lam and not lam_fail:
            lam_fail = f"s={s}: order {got_lam} vs lambda tail {want_lam}"
    return (
        CheckResult("nu_corner_minors", not nu_fail, nu_fail),
        CheckResult("lambda_corner_minors", not lam_fail, lam_fail),
    )


# ---------------------------------------------------------------------------
# the reduction


def to_mu_generic(pair: MatrixPair, rng, max_retries: int = 20) -> MuGenericCertificate:
    """Reduce a full-rank pair to (D_mu, N*) with a verified mu-generic N*.

    Samples random admissible transformations until the whole verification
    battery passes (almost always the first attempt); raises
    RetriesExhaustedError after max_retries failed attempts.
    """
    mu, nu, lam = pair.invariants()
    r = pair.r
    diagonal_pair, g_diag = diagonalize_first(pair)
    d_mu = diagonal_pair.first
    n_input = diagonal_pair.second

    last_failure = ""
    for attempt in range(1, max_retries + 1):
        _STATS.attempts += 1
        try:
            cert = _attempt_reduction(d_mu, n_input, mu, nu, lam, rng, r)
        except GenericityError as exc:
            _STATS.resamples += 1
            last_failure = str(exc)
            continue
        _STATS.successes += 1
        p2 = _conjugate_by_diagonal(cert.q, mu, r)
        g_star = GroupElement(p2, cert.q, cert.t_star)
        cert.group = g_star.compose(g_diag)
        cert.attempts = attempt
        return cert
    raise RetriesExhaustedError(max_retries, last_failure)


def _conjugate_by_diagonal(q: RMatrix, mu: Partition, r: int) -> RMatrix:
    """D_mu Q D_mu^-1 for an admissible Q (entries shift by t^(mu_i - mu_j))."""
    rows = []
    for i in range(1, r + 1):
        row = []
        for j in range(1, r + 1):
            e = q.entry(i, j)
            shift = mu.part(i) - mu.part(j)
            if not e.is_zero() and shift:
                e = e * (RingElem.t_pow(shift) if shift > 0 else ONE / RingElem.t_pow(-shift))
            row.append(e)
        rows.append(row)
    return RMatrix(rows)


def _attempt_reduction(d_mu, n_input, mu, nu, lam, rng, r) -> MuGenericCertificate:
    q_l0, q_lower = _sample_lower_factors(mu, r, rng)
    t_lower, u, t_lower_inv = triangularize_right(mat_mul(q_lower, n_input))
    q_upper = _random_unit_upper(r, rng)
    t_upper = _random_unit_upper(r, rng)
    n_star = mat_mul(q_upper, mat_mul(u, t_upper))
    q = mat_mul(q_upper, q_lower)
    t_inv = mat_mul(t_lower, t_upper)
    t_star = mat_mul(inverse(t_upper), t_lower_inv)

    checks = []

    checks.append(CheckResult("q_admissible", is_mu_admissible(q, mu)))
    t_ok = t_inv.is_over_ring() and has_unit_det(t_inv)
    checks.append(CheckResult("t_inverse_in_group", t_ok))
    checks.append(CheckResult("u_upper_triangular", u.is_upper_triangular()))
    checks.append(CheckResult("n_star_over_ring", n_star.is_over_ring()))

    # every order the checks read is at most |mu| + |nu| (diagonal minors pin
    # the finite ones; structural zeros stay zero), so the tables may be
    # computed modulo t^(cap+1) and remain authoritative
    cap = mu.weight() + nu.weight() + 1
    tab_n = minor_order_table(n_star, cap=cap)
    nu_star = _table_partition(tab_n, r)
    checks.append(CheckResult("nu_preserved", nu_star == nu,
                              "" if nu_star == nu else f"{nu_star} vs {nu}"))
    lam_star = _table_partition(tab_n, r, shift_mu=mu)
    checks.append(CheckResult("lambda_preserved", lam_star == lam,
                              "" if lam_star == lam else f"{lam_star} vs {lam}"))

    q_hat_l = q_hat_u = None
    try:
        q_hat_l, q_hat_u = lu_decompose(q)
        lu_ok = (q_hat_l.is_over_ring() and q_hat_u.is_over_ring()
                 and has_unit_det(q_hat_u) and is_mu_admissible(q_hat_l, mu))
        checks.append(CheckResult("lu_factors_in_ring", lu_ok))
    except PrincipalMinorError as exc:
        checks.append(CheckResult("lu_factors_in_ring", False, str(exc)))

    if q_hat_u is not None:
        consistent = mat_mul(q_hat_l, q_hat_u) == q
        checks.append(CheckResult("lu_product_consistent", consistent))
        tab_right = minor_order_table(mat_mul(u, t_upper), cap=cap)
        tab_left = minor_order_table(mat_mul(q_upper, u), cap=cap)
        v = mat_mul(q_hat_u, mat_mul(n_input, t_inv))
        tab_v = minor_order_table(v, cap=cap)
        eq1 = check_equation_first(tab_n, tab_right, r)
        eq2 = check_equation_second(tab_n, tab_v, mu, r)
        eq3 = check_equation_third(tab_n, tab_left, r)
        checks.append(CheckResult("equation_first", not eq1, eq1))
        checks.append(CheckResult("equation_second", not eq2, eq2))
        checks.append(CheckResult("equation_third", not eq3, eq3))

    gap = verify_mu_generic(n_star, mu, table=tab_n)
    checks.extend(gap.checks)

    # corners against the input pair's nu and lam, straight from the table
    checks.extend(_corner_checks(lambda rows, cols: tab_n[(rows, cols)],
                                 mu, nu, lam, r))

    report = VerificationReport(tuple(checks))
    if not report.ok:
        raise GenericityError(
            "failed checks: " + ", ".join(c.name for c in report.failures()))

    return MuGenericCertificate(
        pair=MatrixPair(d_mu, n_star),
        n_star=n_star,
        mu=mu, nu=nu, lam=lam,
        q_l0=q_l0, q_lower=q_lower, q_upper=q_upper,
        t_lower=t_lower, t_upper=t_upper,
        q=q, t_inv=t_inv, t_star=t_star,
        q_hat_l=q_hat_l, q_hat_u=q_hat_u,
        n_input=n_input,
        group=GroupElement.identity(r),
        report=report,
        minor_orders=tab_n,
        attempts=0,
    )
