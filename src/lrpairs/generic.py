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
is verified in three stages, each run only once the earlier ones pass: the
cheap checks on the factors, the checks that read N*'s minor-order table,
then Q's LU stage and the three equation tables.  A stage with a failed
check ends the attempt, naming that stage's failures, and the reduction
resamples; every random draw of an attempt comes before its first check.
The verification is exhaustive at every size r: each check covers every
index pair, or every componentwise triple, of the full minor-order table of
N*, read through the covers of ``matrix._lattice``: the equations' minima
in one pass over them, the gap inequalities on the triples with a cover
inside.  Every table is exact (``matrix.minor_order_table``), so each
check reads true orders, and N*'s table is built once per attempt.

The extraction and the CLI read only N* and its minor-order table.  The
certificate's ``t_star`` = (T_L T_U)^-1 and ``group``, which only a replay
``act(cert.group, pair)`` needs, and Q's LU factors are built on first read,
so no reduction attempt inverts a matrix or forms Q_hat_L, Q_hat_U: it checks
them, their product and V's table on the Bareiss grid of ``matrix._lu_grid``,
with no fraction reduced.  ``t_star`` is ``inverse(T_L T_U)``: it records
the polynomial matrix T_L T_U and forms its own entries only when read.
The replay never reads them: Q N T*^-1 is the exact product Q N T_L T_U,
and T* is tested for GL_r(R) through T_L T_U, so the replay's one adjugate
is P M Q^-1, with one denominator factor per column, in
``matrix.times_inverse``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (GenericityError, InputError, PrincipalMinorError,
                     RankError, RetriesExhaustedError)
# det is unused here but stays importable as lrpairs.generic.det, an import
# site that perfbench's tracer self-test checks
from .matrix import (RMatrix, _bareiss, _clean, _clear_row, _lattice,
                     _lu_grid, _mu_weights, _smith_grid, _table_partition,
                     det, has_unit_det, inverse, invariant_partition,
                     is_mu_admissible, lu_decompose, mat_mul,
                     minor_order_table, times_inverse)
from .ring import (_PONE, INFINITY, ONE, ZERO, RingElem, _padd, _pdot, _pmul,
                   _pshift, random_unit)
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

    def compose(self, other: "GroupElement") -> "GroupElement":
        """self applied after other: act(self.compose(g), p) = act(self, act(g, p))."""
        return GroupElement(mat_mul(self.p, other.p),
                            mat_mul(self.q, other.q),
                            mat_mul(self.t, other.t))

    def is_invertible_over_ring(self) -> bool:
        """Each component is in GL_r(R): over the ring with a unit
        determinant.  A component that records its inverse (``inverse``)
        is tested through the record, since A is in GL_r(R) exactly when
        A^-1 is, so its own entries are never formed."""
        return all(m.is_over_ring() and has_unit_det(m)
                   for m in (x if x._inverse_of is None else x._inverse_of
                             for x in (self.p, self.q, self.t)))

    def to_json(self):
        return {"p": self.p.to_json(), "q": self.q.to_json(), "t": self.t.to_json()}


def act(g: GroupElement, pair: MatrixPair) -> MatrixPair:
    """(P M Q^-1, Q N T^-1), each as an exact product times an inverse; a
    component that records its inverse is multiplied by the record."""
    if g.p.r != pair.r:
        raise InputError(f"group element size {g.p.r} does not match pair size {pair.r}")
    if not g.is_invertible_over_ring():
        raise InputError("group element components must be invertible over the ring")
    return MatrixPair(
        times_inverse(mat_mul(g.p, pair.first), g.q),
        times_inverse(mat_mul(g.q, pair.second), g.t),
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
    """Everything produced by one successful reduction attempt.

    ``t_star``, ``group`` and Q's LU factors (one ``lu_decompose(q)``) are
    built on first read; the extraction and the CLI never read them.
    ``t_star`` is ``inverse(t_inv)``: it records T_L T_U, so the replay's
    Q N T*^-1 is the product Q N T_L T_U and its group test reads T_L T_U,
    and T*'s own entries, the adjugate inverse, are formed only if read."""

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
    n_input: RMatrix            # second component after diagonalization
    g_diag: GroupElement        # original pair -> (D_mu, n_input)
    report: VerificationReport
    minor_orders: dict          # full (rows, cols) -> order table of N_star
    attempts: int

    @cached_property
    def _q_hat(self):
        return lu_decompose(self.q)

    q_hat_l = property(lambda self: self._q_hat[0])  # unit lower factor of Q
    q_hat_u = property(lambda self: self._q_hat[1])  # Q = Q_hat_L Q_hat_U

    @cached_property
    def t_star(self) -> RMatrix:
        """(T_L T_U)^-1, recording T_L T_U; its entries are the adjugate
        inverse of that polynomial matrix, formed on first read."""
        return inverse(self.t_inv)

    @cached_property
    def group(self) -> GroupElement:
        """Total transform from the original pair: act(group, pair) == self.pair."""
        p = _conjugate(self.q, self.mu.padded(self.pair.r))  # D_mu Q D_mu^-1
        # g_diag's T is the identity; T* is kept as is, with its record
        g = self.g_diag
        return GroupElement(mat_mul(p, g.p), mat_mul(self.q, g.q), self.t_star)

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
    """Move the pair to (D_mu, Q N) with the group element used (T = I),
    all of it from the one Smith pass on the first component
    (``matrix._smith_grid``), which raises what ``invariant_partition`` of
    it raises.

    Row k of the Smith Q is a grid row q_k over one denominator s_k, and N
    is G / c over one common denominator c, from one ``_clear_row`` of N's
    entries (their lcm when every one is an integer), so row k of Q N is
    the integer polynomial row q_k G over s_k c.  ``_clean`` scales it
    clean (no denominators, integer coefficients with unit content) by a
    unit u_k = s_k c / w_k, and row k of P and of Q is the Smith row times
    u_k, formed once over w_k.  The scaling diagonal commutes with D_mu, so the
    first component stays exactly D_mu.  A first component that is D_mu
    already keeps Q = I, and its rows of N are scaled alone."""
    r = pair.r
    smith = _smith_grid(pair.first)
    flat = [e for row in pair.second.entries for e in row]
    nums, c = _clear_row(flat)
    grid = [nums[i * r:(i + 1) * r] for i in range(r)]
    if smith is None:
        rows, units = zip(*(_clean(row, c) for row in grid))
        du = RMatrix.diagonal([RingElem(c, w) for w in units])
        return MatrixPair(pair.first, RMatrix(rows)), GroupElement(du, du, RMatrix.identity(r))
    rows, cols = smith
    p, q, n_rows, diag = [], [], [], []
    for k, (row, den, a) in enumerate(rows):
        g_cols = zip(*(grid[cols[j]] for j in range(k, r)))
        cleaned, w = _clean([_pdot(row[k:r], col) for col in g_cols],
                            _pshift(_pmul(den, c), a))
        n_rows.append(cleaned)
        q_row = [ZERO] * r
        for j in range(k, r):
            q_row[cols[j]] = RingElem(_pmul(row[j], c), w)
        q.append(q_row)
        c_a = _pshift(c, a)
        p.append([RingElem(_pmul(e, c_a), w) for e in row[r:]])
        diag.append(RingElem.t_pow(a))
    out = MatrixPair(RMatrix.diagonal(diag[::-1]), RMatrix(n_rows[::-1]))
    return out, GroupElement(RMatrix(p[::-1]), RMatrix(q[::-1]), RMatrix.identity(r))


def triangularize_right(a: RMatrix):
    """Column operations T_L with A T_L upper triangular.

    Returns (T_L, U).  Rows are processed bottom-up; in each row the pivot
    is the minimal-order entry among the still-available columns (ties
    broken rightwards), swapped into place and used to clear the columns to
    its left.  This is ``_bareiss`` on the stack [A; I] transposed and
    reversed: grid row k is column r - k, and grid column k < r row r - k,
    of A, each grid row cleared of its denominators by a scale c.  An entry
    below the pivot is its field value times its row's c and the previous
    pivot, so the first entry of least order net of c is the field pivot,
    and a frozen grid row is its column of [U; T_L] times one such scale.
    Each column is scaled by the unit that clears its denominators and
    integer content (``_clean``), so T_L and U are small and polynomial
    whenever the input is over the ring; no ring division happens.  T_L is
    a permutation times a lower triangular matrix, invertible over the ring
    with unit determinant.
    """
    r = a.r
    grid, scales = [], []
    for j in range(r - 1, -1, -1):
        cleared, c = _clear_row([row[j] for row in reversed(a.entries)]
                                + [ONE if i == j else ZERO for i in range(r)])
        grid.append(cleared)
        scales.append(c)

    def first_least_order(g, k):
        best = min(((min(g[i][k]) - min(scales[i]), i) for i in range(k, r)
                    if g[i][k]), default=None)
        if best is None:
            return None
        i = best[1]
        scales[k], scales[i] = scales[i], scales[k]  # the scales follow their rows
        return i, k

    pivots, _ = _bareiss(grid, first_least_order)
    if len(pivots) < r:
        raise RankError("matrix is rank deficient")
    cols = [None] * r  # column j: U_jj, U_(j-1)j, ..., U_1j, then T_L's column j
    prev = _PONE
    for k, (row, c) in enumerate(zip(grid, scales)):
        scale = prev if c is _PONE else c if prev is _PONE else _pmul(prev, c)
        cols[r - 1 - k] = _clean(row[k:], scale)[0]
        prev = pivots[k]
    u = [[cols[j][j - i] if i <= j else ZERO for j in range(r)] for i in range(r)]
    return RMatrix([[cols[j][j + 1 + i] for j in range(r)] for i in range(r)]), RMatrix(u)


def _random_units(r: int, rng, lower: bool) -> RMatrix:
    """A triangular matrix of random units, ``random_unit`` drawn row by row
    on and below the diagonal when lower, on and above it otherwise."""
    return RMatrix([[random_unit(rng) if (j <= i if lower else j >= i) else ZERO
                     for j in range(r)] for i in range(r)])


def _conjugate(q: RMatrix, e) -> RMatrix:
    """diag(t^e) q diag(t^e)^-1 for integer exponents e, one per row: entry
    (i, j) times t^(e_i - e_j), zeros and zero shifts left as they are."""
    return RMatrix([[x * RingElem.t_pow(ei - ej) if x and ei != ej else x
                     for x, ej in zip(row, e)] for row, ei in zip(q.entries, e)])


# ---------------------------------------------------------------------------
# the verification equations, as minima over the cover lattice


def _cover_minima(values, covers, order):
    """m[i] = min(values[i], m[c] for the covers c of i), taken over the
    positions in ``order``, each after its covers; the other positions keep
    values[i].  With up-covers and decreasing positions m[i] is the minimum
    over the up-set of i, with down-covers and increasing ones over its
    down-set (``matrix._lattice``)."""
    m = list(values)
    for i in order:
        low = m[i]
        for c in covers[i]:
            if m[c] < low:
                low = m[c]
        m[i] = low
    return m


def check_equation_first(tab_n: dict, tab_right: dict, r: int):
    """order(N*_IJ) == min over S >= I of order((Q_L N T^-1)_SJ), checked on
    every pair, by size, then I, then J, in lexicographic order; the first
    pair that fails is named with its minimum.

    The minima of each column set J are one pass over the up-covers
    (``_cover_minima``), so each size costs about k lookups per pair
    instead of one per pair and set S >= I."""
    lattice = _lattice(r)
    for ks, covers in zip(lattice.sets, lattice.up_covers):
        down_order = range(len(ks) - 1, -1, -1)
        cols = [_cover_minima([tab_right[(s, j_set)] for s in ks], covers, down_order)
                for j_set in ks]
        for i, i_set in enumerate(ks):
            for j_set, col in zip(ks, cols):
                want = tab_n[(i_set, j_set)]
                if want != col[i]:
                    return f"I={i_set} J={j_set}: order {want} vs min {col[i]}"
    return ""


def check_equation_second(tab_n: dict, tab_v: dict, mu: Partition, r: int):
    """order(N*_IJ) == min over H <= I of order(V_HJ) + |mu_H| - |mu_I|,
    V = Q_hat_U N T^-1; checked on pairs with I <= J componentwise (the only
    pairs where the minimum is attained without cancellation; see notes),
    in the lattice's ``comparable_plan`` order, the first that fails named
    with its minimum.  The empty pair holds trivially; tab_v is read only at
    pairs H <= J.

    For each J the down-set minima of order(V_HJ) + |mu_H| over the sets
    H <= J are one pass over the down-covers, which stay <= J; |mu_I| is
    subtracted after it."""
    lattice = _lattice(r)
    index = lattice.index
    weight = _mu_weights(mu, r)
    for ks, covers in zip(lattice.sets[1:], lattice.down_covers[1:]):
        cols = {}
        for j_set in ks:
            below = lattice.down[j_set]
            values = [INFINITY] * len(ks)
            for h in below:
                values[index[h]] = tab_v[(h, j_set)] + weight[h]
            cols[j_set] = _cover_minima(values, covers, [index[h] for h in below])
        for i, i_set in enumerate(ks):
            w_i = weight[i_set]
            for j_set in lattice.up[i_set]:
                want = tab_n[(i_set, j_set)]
                got = cols[j_set][i] - w_i
                if want != got:
                    return f"I={i_set} J={j_set}: order {want} vs min {got}"
    return ""


def check_equation_third(tab_n: dict, tab_left: dict, r: int):
    """order(N*_IJ) == min over H <= J of order((Q N T_L)_IH), checked on
    every pair, in the order of ``check_equation_first``; the first pair
    that fails is named with its minimum.  The minima of each row set I are
    one pass over the down-covers."""
    lattice = _lattice(r)
    for ks, covers in zip(lattice.sets, lattice.down_covers):
        up_order = range(len(ks))
        for i_set in ks:
            row = _cover_minima([tab_left[(i_set, h)] for h in ks], covers, up_order)
            for j_set, got in zip(ks, row):
                want = tab_n[(i_set, j_set)]
                if want != got:
                    return f"I={i_set} J={j_set}: order {want} vs min {got}"
    return ""


# ---------------------------------------------------------------------------
# verification


def _gaps_hold(table, weight, lattice):
    """The failure strings ("" where a check holds) of the row and the
    column inequalities of ``verify_mu_generic``, checked on up-covers: for
    each up-cover G of H, the rows on the triples H <= G <= J at every
    J >= G, and the columns on I <= H <= G at every I <= H.  Each string
    names the first failing triple of this one walk: by size, H in
    lexicographic order, G by the position it raises, then J (or I) in
    lexicographic order."""
    row_fail = col_fail = ""
    for ks, covers in zip(lattice.sets[1:], lattice.up_covers[1:]):
        for h_set, ups in zip(ks, covers):
            w_h = weight[h_set]
            bases = [(i_set, table[(i_set, h_set)]) for i_set in lattice.down[h_set]]
            for g_set in (ks[c] for c in ups):
                if not row_fail:
                    step = w_h - weight[g_set]
                    for j_set in lattice.up[g_set]:
                        base = table[(h_set, j_set)]
                        v = table[(g_set, j_set)]
                        if v < base:
                            row_fail = f"I={h_set} H={g_set} J={j_set}: {base} > {v}"
                            break
                        # an infinite base bounds nothing above: inf + step
                        if v > base + step:
                            row_fail = (f"I={h_set} H={g_set} J={j_set}: "
                                        f"gap {v} - {base} exceeds {step}")
                            break
                if not col_fail:
                    for i_set, base in bases:
                        v = table[(i_set, g_set)]
                        if v > base:
                            col_fail = f"I={i_set} H={h_set} J={g_set}: {base} < {v}"
                            break
    return row_fail, col_fail


def verify_mu_generic(n_star: RMatrix, mu, table=None) -> VerificationReport:
    """Determinant-gap inequalities defining mu-genericity.

    For every componentwise triple I <= H <= J of equal-size index sets:
      order(N*_IJ) <= order(N*_HJ) <= order(N*_IJ) + |mu_I| - |mu_H|   (rows)
      order(N*_IH) >= order(N*_IJ)                                     (columns)
    Every triple is covered, at every size r (the empty one holds
    trivially).  A precomputed minor-order table of n_star is reused when
    given.

    The verdicts are taken on the triples with a cover inside
    (``_gaps_hold``): the rows on H <= G <= J and the columns on
    I <= H <= G, for every up-cover G of H.  These are triples of the list
    above, so a failure among them is a failure of it.  Conversely, every
    H in [I, J] is reached from I by a chain I = H_0 < H_1 < ... < H_m = H
    of up-covers inside [I, J], and J from H by one inside [H, J].  Along
    the first chain the row steps give order(N*_IJ) <= order(N*_H1J) <= ...
    <= order(N*_HJ); when order(N*_IJ) is finite, each step's upper bound
    keeps the next order finite, so every step's upper bound applies, and
    their |mu| terms telescope to |mu_I| - |mu_H|.  Along the second
    chain the column orders order(N*_IG) fall from order(N*_IH) to
    order(N*_IJ).  So the cover triples hold exactly when every triple
    does.  A kind that fails names the first cover triple that fails it,
    in the one pass that decides it, as I=... H=... J=...: the rows' H
    is an up-cover of their I, the columns' J one of their H.
    """
    mu = as_partition(mu)
    r = n_star.r
    if table is None:
        table = minor_order_table(n_star)

    row_fail, col_fail = _gaps_hold(table, _mu_weights(mu, r), _lattice(r))
    return VerificationReport((
        CheckResult("upper_triangular", n_star.is_upper_triangular()),
        CheckResult("det_gap_rows", not row_fail, row_fail),
        CheckResult("det_gap_columns", not col_fail, col_fail),
    ))


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
    RetriesExhaustedError after max_retries failed attempts, with the last
    attempt's failed checks, those of the first stage that failed.
    """
    # the Smith pass raises what invariant_partition(first) raises, so bad
    # input fails as it did when mu was computed first; nu and lam still
    # come from the input pair, and the stage-2 checks compare with them
    diagonal_pair, g_diag = diagonalize_first(pair)
    d_mu = diagonal_pair.first
    mu = Partition(tuple(d_mu.entry(i, i).valuation() for i in range(1, pair.r + 1)))
    nu = invariant_partition(pair.second)
    lam = invariant_partition(pair.product())

    last_failure = ""
    for attempt in range(1, max_retries + 1):
        _STATS.attempts += 1
        try:
            cert = _attempt_reduction(diagonal_pair, g_diag, mu, nu, lam,
                                      rng, attempt)
        except GenericityError as exc:
            _STATS.resamples += 1
            last_failure = str(exc)
            continue
        _STATS.successes += 1
        return cert
    raise RetriesExhaustedError(max_retries, last_failure)


def _lu_factors_in_ring(grid, scales, pivots, mu) -> bool:
    """Q_hat_U over R with a unit determinant, and Q_hat_L over R and
    mu-admissible, from orders alone: Q_hat_U's row k is a_kh / (p_(k-1) c_k)
    with a diagonal of order 0, and Q_hat_L's entry (g, k) a_gk c_k / (p_k c_g)
    has order at least max(0, mu_k - mu_g); det Q_hat_L = 1."""
    c = [min(x) for x in scales]
    p = [min(x) for x in pivots]
    prev = 0
    for k, row in enumerate(grid):
        s = prev + c[k]
        if p[k] != s or any(e and min(e) < s for e in row[k + 1:]):
            return False
        for g in range(k + 1, len(grid)):
            e = grid[g][k]
            if e and min(e) + c[k] - p[k] - c[g] < max(0, mu.part(k + 1) - mu.part(g + 1)):
                return False
        prev = p[k]
    return len(mu) <= len(grid)


def _lu_product_consistent(q, grid, pivots) -> bool:
    """Q == Q_hat_L Q_hat_U over Z[t], with no gcd: for m = min(g - 1, h) and
    D = p_1 ... p_m (1-based), c_g q_gh D is the sum over k <= m of
    a_gk a_kh D / (p_(k-1) p_k), in Horner form, plus a_gh D / p_(g-1) when
    g <= h.  c_g q_gh is taken from ``_clear_row``, since the pass overwrote
    the grid's copy."""
    prefix = [_PONE, _PONE]  # prefix[j] = p_1 ... p_(j-1)
    for p in pivots[:-1]:
        prefix.append(_pmul(prefix[-1], p))
    for g, row in enumerate(q.entries):  # 0-based: g is the 1-based g - 1
        for h, qgh in enumerate(_clear_row(row)[0]):
            m = min(g, h + 1)
            acc = {}
            for k in range(m):
                acc = _padd(_pmul(acc, pivots[k]),
                            _pmul(_pmul(grid[g][k], grid[k][h]), prefix[k]))
            if g <= h:
                acc = _padd(acc, _pmul(grid[g][h], prefix[g]))
            if _pmul(qgh, prefix[m + 1]) != acc:
                return False
    return True


def _v_rows_times_units(grid, scales, pivots, w) -> RMatrix:
    """diag(units) V for V = Q_hat_U W, with no Q_hat_U: the grid's upper
    triangle times W, row k over t^(s_k) for s_k = ord(p_(k-1) c_k).  Row k
    of Q_hat_U is that row over p_(k-1) c_k, t^(s_k) times a unit, so every
    minor has V's order.  Only a power of t cancels, so no gcd is taken."""
    u = RMatrix([[RingElem(e, _PONE, _raw=True) if e and h >= k else ZERO
                  for h, e in enumerate(row)] for k, row in enumerate(grid)])
    rows = []
    prev = 0
    for row, c, p in zip(mat_mul(u, w).entries, scales, pivots):
        s = prev + min(c)
        prev = min(p)
        # e / t^s = (e.num / t^k) / (e.den t^(s - k)), k = min(ord e.num, s)
        rows.append([RingElem(_pshift(e.num, -k), e.den if k == s else _pmul(e.den, {s - k: 1}),
                              _raw=True) for e in row for k in (min(min(e.num, default=s), s),)])
    return RMatrix(rows)


def _fail_on(checks):
    """End the attempt with a GenericityError naming the failed checks, if
    any."""
    failed = [c.name for c in checks if not c.passed]
    if failed:
        raise GenericityError("failed checks: " + ", ".join(failed))


def _attempt_reduction(diagonal_pair, g_diag, mu, nu, lam, rng,
                       attempt) -> MuGenericCertificate:
    d_mu, n_input = diagonal_pair.first, diagonal_pair.second
    r = diagonal_pair.r
    q_l0 = _random_units(r, rng, lower=True)
    q_lower = _conjugate(q_l0, [-m for m in mu.padded(r)])
    t_lower, u = triangularize_right(mat_mul(q_lower, n_input))
    q_upper = _random_units(r, rng, lower=False)
    t_upper = _random_units(r, rng, lower=False)
    ut = mat_mul(u, t_upper)
    n_star = mat_mul(q_upper, ut)
    q = mat_mul(q_upper, q_lower)
    t_inv = mat_mul(t_lower, t_upper)

    # stage 1: the cheap checks
    cheap = (CheckResult("q_admissible", is_mu_admissible(q, mu)),
             CheckResult("t_inverse_in_group",
                         t_inv.is_over_ring() and has_unit_det(t_inv)),
             CheckResult("u_upper_triangular", u.is_upper_triangular()),
             CheckResult("n_star_over_ring", n_star.is_over_ring()))
    _fail_on(cheap)

    # stage 2: the checks that read N*'s table
    tab_n = minor_order_table(n_star)
    nu_star = _table_partition(tab_n, r)
    lam_star = _table_partition(tab_n, r, shift_mu=mu)
    invariants = (CheckResult("nu_preserved", nu_star == nu,
                              "" if nu_star == nu else f"{nu_star} vs {nu}"),
                  CheckResult("lambda_preserved", lam_star == lam,
                              "" if lam_star == lam else f"{lam_star} vs {lam}"))
    # corners against the input pair's nu and lam, straight from the table
    gaps = (verify_mu_generic(n_star, mu, table=tab_n).checks
            + _corner_checks(lambda rows, cols: tab_n[(rows, cols)], mu, nu, lam, r))
    _fail_on(invariants + gaps)

    # stage 3: Q's LU stage, then the equation tables
    try:
        grid, scales, pivots = _lu_grid(q)
    except PrincipalMinorError as exc:  # the detail stays on the chain
        raise GenericityError("failed checks: lu_factors_in_ring") from exc
    lu_checks = (
        CheckResult("lu_factors_in_ring", _lu_factors_in_ring(grid, scales, pivots, mu)),
        CheckResult("lu_product_consistent", _lu_product_consistent(q, grid, pivots)))
    v = _v_rows_times_units(grid, scales, pivots, mat_mul(n_input, t_inv))
    # the tables of U T_U, V (its rows times units, as orders go) and Q_U U
    failures = (check_equation_first(tab_n, minor_order_table(ut), r),
                check_equation_second(tab_n, minor_order_table(v, comparable_only=True), mu, r),
                check_equation_third(tab_n, minor_order_table(mat_mul(q_upper, u)), r))
    lu_and_equations = lu_checks + tuple(
        CheckResult("equation_" + name, not fail, fail)
        for name, fail in zip(("first", "second", "third"), failures))
    _fail_on(lu_and_equations)

    report = VerificationReport(cheap + invariants + lu_and_equations + gaps)
    return MuGenericCertificate(
        pair=MatrixPair(d_mu, n_star),
        n_star=n_star,
        mu=mu, nu=nu, lam=lam,
        q_l0=q_l0, q_lower=q_lower, q_upper=q_upper,
        t_lower=t_lower, t_upper=t_upper,
        q=q, t_inv=t_inv,
        n_input=n_input,
        g_diag=g_diag,
        report=report,
        minor_orders=tab_n,
        attempts=attempt,
    )
