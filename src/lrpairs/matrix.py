"""Square matrices over the valued field, and the order-theoretic tools the
pair-reduction pipeline is built on.

Rows, columns and index sets are 1-based throughout the public interface.
An index set is a strictly increasing tuple of row or column indices; the
partial order I <= H compares componentwise (i_s <= h_s for every position).
The order of a minor is the valuation of its exact determinant, +infinity
when the minor vanishes.

Every row or column is cleared into integer polynomials by one rule,
``_clear_row``: by the lcm of its denominators when each is an integer,
else by the product of the distinct ones.  Products stay fraction-free as
far as their operands' integer denominators allow: where a row of a and a
column of b clear by integers, as the orbit's scrambling leaves them,
``mat_mul`` sums the entry's numerator products as integer polynomials and
takes one integer gcd, and a product of polynomial matrices takes none.  An
entry with a polynomial denominator in its row or column is the ring's sum
of its cross-cancelling terms.  A constant row scale moves no minor order,
so the minor-order grids read the cleared rows as they are.

Determinants are computed exactly: ``det`` clears the rows so the work
happens on polynomials, then fraction-free Bareiss elimination runs at
every size.  Every exact minor comes from this one engine, ``_bareiss``,
which also runs on rectangular grids.  It gives the LU grid, one pass
without pivoting (``_lu_grid``), which the reduction reads as it is and
``lu_decompose`` turns into factors, the right triangularization of the
reduction (``generic.triangularize_right``, on a transposed stack), and the
invariant partition: with the pivot of minimal order in the whole trailing
block, its trailing entries are the field elimination's Schur complement
times the previous pivot, so it picks the field reduction's pivots and the
differences of their orders are the invariant orders; ``_grid_partition``
is that pass on a grid already cleared, which ``realize`` hands its integer
grids directly.  The same pass on [m | I], ``_smith_grid``, is the one
Smith pass: the reduction's diagonalization of a pair
(``generic.diagonalize_first``) reads its transforms directly off it.  One pivot search, ``_min_order_pivot``, serves
the determinant, its cofactors and unit test, the invariant partition and
the Smith pass, and no elimination divides in the field.  ``_clean`` scales
a vector given over one denominator clean by a unit, through gcds with that
denominator, and returns the divisor w it leaves, the unit being the
denominator over w, so other rows scaled by the same unit take one
reduction per entry.  Whether a determinant is a unit is read in the
residue field instead (``has_unit_det``), which needs only the constant
terms.
``minor_order_table`` batches every (I, J) minor order of a matrix through a
shared-subminor expansion along the last row, which the verification and
extraction code paths rely on.  That expansion keeps the comparable pairs
I <= J closed, so an upper triangular matrix, whose other minors vanish, and
the reduction's V table, which is read only there, are expanded on those
pairs alone.  Each minor is kept as its lowest term, and its exact
polynomial is formed only where the lowest terms of its expansion cancel,
so every order in a table is exact.  Every table and every check walks the
index sets through one lattice per size, ``_lattice``, built once from
``_between``: the sets by size, each set's up- and down-set, drops, up-
and down-covers, and the pairs I not <= J.

Products with an inverse go through one adjugate engine, ``times_inverse``:
with b's rows cleared once into G, a b^-1 = (a adj(G)) diag(c) / det(G)
with Bareiss cofactors and one product per entry.  ``inverse`` is its
identity case, and what it returns records the matrix it inverted, so
multiplying by the inverse of an inverse is a plain product; its entries
are formed only when read.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import gcd as igcd
from typing import NamedTuple

from .errors import InputError, NotInRingError, PrincipalMinorError, RankError
from .ring import (_PONE, INFINITY, ONE, ZERO, RingElem, _padd, _pcontent,
                   _pdivexact_int, _pdot, _pgcd_cof, _pmul, _pscale)
from .tableaux import MAX_SIZE, Partition, as_partition


# ---------------------------------------------------------------------------
# matrices


class RMatrix:
    """Immutable square matrix of exact field elements.

    ``_inverse_of`` is None, or the matrix this one is the inverse of; only
    ``inverse`` sets it.  A matrix from ``inverse`` starts with its
    ``entries`` slot unset, and ``__getattr__``, which Python calls only
    for an unset slot, fills it on first read; a set slot reads at full
    speed."""

    __slots__ = ("r", "entries", "_inverse_of")

    def __init__(self, rows):
        rows = tuple(tuple(RingElem.const(e) for e in row) for row in rows)
        r = len(rows)
        if r < 1:
            raise InputError("matrices must have size at least 1")
        for row in rows:
            if len(row) != r:
                raise InputError(f"matrix must be square, got a row of length {len(row)} in size {r}")
        self.r = r
        self.entries = rows
        self._inverse_of = None

    def __getattr__(self, name):
        if name != "entries":
            raise AttributeError(name)
        # a matrix from inverse: the adjugate inverse of its record, formed once
        self.entries = times_inverse(RMatrix.identity(self.r), self._inverse_of).entries
        return self.entries

    @staticmethod
    def identity(r: int) -> "RMatrix":
        return RMatrix([[ONE if i == j else ZERO for j in range(r)] for i in range(r)])

    @staticmethod
    def diagonal(elems) -> "RMatrix":
        elems = [RingElem.const(e) for e in elems]
        r = len(elems)
        return RMatrix([[elems[i] if i == j else ZERO for j in range(r)] for i in range(r)])

    def entry(self, i: int, j: int) -> RingElem:
        """1-based access."""
        if not (1 <= i <= self.r and 1 <= j <= self.r):
            raise IndexError(f"entry ({i},{j}) outside 1..{self.r}")
        return self.entries[i - 1][j - 1]

    def __eq__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        rows = "\n ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)
        return f"RMatrix(\n {rows}\n)"

    def transpose(self) -> "RMatrix":
        return RMatrix([[self.entries[j][i] for j in range(self.r)] for i in range(self.r)])

    def is_over_ring(self) -> bool:
        """Every entry has non-negative order."""
        return all(e.in_ring() for row in self.entries for e in row)

    def is_upper_triangular(self) -> bool:
        return all(
            self.entries[i][j].is_zero() for i in range(self.r) for j in range(i)
        )

    def to_json(self):
        return {"r": self.r, "entries": [[e.to_json() for e in row] for row in self.entries]}

    @staticmethod
    def from_json(obj) -> "RMatrix":
        if not isinstance(obj, dict) or "entries" not in obj:
            raise InputError(f"matrix must be an object with an 'entries' grid, got {obj!r}")
        grid = obj["entries"]
        if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
            raise InputError("matrix 'entries' must be a list of rows")
        if len(grid) > MAX_SIZE or any(len(row) > MAX_SIZE for row in grid):
            raise InputError(f"matrix size exceeds the limit {MAX_SIZE}")
        m = RMatrix([[RingElem.from_json(e) for e in row] for row in grid])
        if "r" in obj and (type(obj["r"]) is not int or obj["r"] != m.r):
            raise InputError(f"matrix declares r={obj['r']!r} but has {m.r} rows")
        return m


def mat_mul(a: RMatrix, b: RMatrix) -> RMatrix:
    """Exact product a b, fraction-free where the denominators are integers.

    Each row of a and column of b is cleared once by ``_clear_row``.  Where
    both scales are integers, the entry's numerator products are summed as
    integer polynomials and the sum is reduced by one integer gcd against the
    product of the two scales, the lcms of their denominators; a polynomial
    product takes none.  An entry whose row or column has a polynomial
    denominator is the ring sum of the cross-cancelling products x y."""
    if a.r != b.r:
        raise InputError(f"size mismatch in product: {a.r} vs {b.r}")
    cols = list(zip(*b.entries))
    cleared_cols = [_clear_row(col) for col in cols]
    rows = []
    for arow in a.entries:
        row_nums, row_c = _clear_row(arow)
        integer_row = len(row_c) == 1 and 0 in row_c
        out = []
        for bcol, (col_nums, col_c) in zip(cols, cleared_cols):
            if not (integer_row and len(col_c) == 1 and 0 in col_c):
                out.append(sum((x * y for x, y in zip(arow, bcol) if x and y), ZERO))
                continue
            num = _pdot(row_nums, col_nums)
            if not num:
                out.append(ZERO)
                continue
            den = row_c[0] * col_c[0]
            if den != 1:
                g = _pcontent(num, den)
                if g != 1:
                    num = {d: c // g for d, c in num.items()}
                    den //= g
            out.append(RingElem(num, _PONE if den == 1 else {0: den}, _raw=True))
        rows.append(out)
    return RMatrix(rows)


def _fitted(mu, r: int) -> Partition:
    """mu as a partition of at most r parts, else ``Partition.padded``'s
    InputError."""
    mu = as_partition(mu)
    mu.padded(r)
    return mu


def diag_from_partition(mu, r: int) -> RMatrix:
    """diag(t**mu_1, ..., t**mu_r); missing parts give exponent 0."""
    mu = _fitted(mu, r)
    return RMatrix.diagonal([RingElem.t_pow(mu.part(i)) for i in range(1, r + 1)])


# ---------------------------------------------------------------------------
# exact minors

def _clear_row(row):
    """(nums, c): the row's entries times c, as integer polynomials, for
    the scale c = ``_PONE`` when the row has no denominator, {0: lcm} when
    every denominator is an integer (a polynomial entry's is 1), and
    otherwise the product of the distinct denominators, constant ones
    included."""
    lcm = 1
    for e in row:
        den = e.den
        if den is not _PONE:
            if len(den) > 1 or 0 not in den:
                break
            lcm = lcm * den[0] // igcd(lcm, den[0])
    else:
        if lcm == 1:
            return [e.num for e in row], _PONE
        return ([_pscale(e.num, lcm if e.den is _PONE else lcm // e.den[0]) for e in row],
                {0: lcm})
    dens = []
    for e in row:
        if e.den is not _PONE and e.den not in dens:
            dens.append(e.den)
    cleared = []
    for e in row:
        p = e.num
        for d in dens:
            if d != e.den:
                p = _pmul(p, d)
        cleared.append(p)
    c = dens[0]
    for d in dens[1:]:
        c = _pmul(c, d)
    return cleared, c


def _clean(nums, den):
    """(entries, w): the n / den for integer polynomials n in nums, scaled
    clean by the unit den / w of the ring, so the entries are the n / w.

    h = gcd(den, nums) is folded with ``_pgcd_cof`` until it is 1; k is the
    content of the n / h, signed as the leading coefficient of den / h, and
    t^v is the power of t in den / h (only an entry of negative order gives
    v > 0).  w = h k t^v: the entries are the integer polynomials n / (h k),
    over t^v when v > 0."""
    h = den
    for n in nums:
        if h is _PONE:
            break
        if n:
            h = _pgcd_cof(h, n)[0]
    if h is not _PONE:
        nums = [_pdivexact_int(n, h) if n else n for n in nums]
        den = _pdivexact_int(den, h)
    g = 0
    for n in nums:
        g = _pcontent(n, g)
    if den[max(den)] < 0:
        g = -g
    if g not in (0, 1):
        nums = [{d: c // g for d, c in n.items()} for n in nums]
    v = min(den)
    if v:
        entries = [RingElem(n, {v: 1}) for n in nums]
    else:
        entries = [RingElem(n, _PONE, _raw=True) if n else ZERO for n in nums]
    w = {v: g or 1}
    return entries, w if h is _PONE else _pmul(h, w)


def _bareiss(a, find):
    """Fraction-free elimination of the grid a of integer polynomials, in
    place (Bareiss, Math. Comp. 1968): k rows of n >= k entries each, so a
    square matrix or a rectangular stack such as [A^T | I].

    find(a, k) names the step-k pivot as a position (i, j) in the trailing
    block a[k:][k:], or None to stop; row i and column j are swapped to k.
    After step k every trailing entry is the (k+1)-minor of a bordered by
    its row and column, which is the field elimination's Schur-complement
    entry times the step-k pivot, so each division by the previous pivot is
    exact over Z[t].  Column k below the pivot keeps the step's multipliers,
    each the leading k-minor bordered by its row and column k; LU reads them.
    Returns (pivots, sign): pivots[k] is the leading (k+1)-minor of the
    permuted grid and sign the parity of the swaps; pivots stops early where
    find does."""
    pivots = []
    prev = _PONE
    sign = 1
    for k in range(len(a)):
        pos = find(a, k)
        if pos is None:
            break
        i, j = pos
        if i != k:
            a[k], a[i] = a[i], a[k]
            sign = -sign
        if j != k:
            for row in a:
                row[k], row[j] = row[j], row[k]
            sign = -sign
        piv = a[k][k]
        pivots.append(piv)
        top = a[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, len(top)):
                num = _padd(_pmul(piv, row[j]), _pmul(f, top[j]), -1)
                if num and prev is not _PONE:
                    num = _pdivexact_int(num, prev)
                row[j] = num
        prev = piv
    return pivots, sign


def _poly_det(sub):
    """Determinant of a square grid of integer polynomials, by ``_bareiss``
    with the pivot search of ``invariant_partition``, ``_min_order_pivot``.
    The last pivot is the determinant up to the sign of the row and column
    swaps, which ``_bareiss`` returns, so the pivot order changes nothing."""
    pivots, sign = _bareiss([list(row) for row in sub], _min_order_pivot)
    if len(pivots) < len(sub):
        return {}
    # _pscale copies, so at k = 1 the caller's entry is not handed back
    return _pscale(pivots[-1], sign)


def has_unit_det(m: RMatrix) -> bool:
    """For m over the ring: det(m) is a unit exactly when det(m mod t) != 0.

    An entry of order 0 has residue num(0)/den(0), any other entry residue 0.
    Each residue row is scaled to integers (which changes no zero test) and
    the constant polynomials go through the exact determinant engine."""
    grid = []
    for row in m.entries:
        lcm = 1
        for e in row:
            if 0 in e.num:
                d0 = e.den.get(0)
                if d0 is None:
                    # a reduced fraction whose den vanishes at 0 has order < 0
                    raise NotInRingError(f"entry {e} has negative order")
                lcm = lcm * d0 // igcd(lcm, d0)
        grid.append([{0: e.num[0] * (lcm // e.den[0])} if 0 in e.num else {}
                     for e in row])
    return bool(_poly_det(grid))


def det(m: RMatrix) -> RingElem:
    """Exact determinant: ``_poly_det`` of the rows cleared by
    ``_clear_row``, over the product of their scales."""
    grid, scales = zip(*(_clear_row(row) for row in m.entries))
    num = _poly_det(grid)
    return RingElem(num, reduce(_pmul, scales)) if num else ZERO


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


class _Lattice(NamedTuple):
    """The index sets of 1..r under the componentwise order, and what every
    minor table and every check walks over them.  A table walks each row
    set I of ``sets`` with ``up[I]``, or with every set of its size; ``off``
    holds the keys an upper triangular table sets to infinity, built once
    per size rather than per table."""

    sets: tuple             # sets[k]: the k-subsets in lexicographic order
    up: dict                # S -> the sets H >= S of its size, in order
    down: dict              # S -> the sets H <= S of its size, in order
    drops: dict             # J -> (J[p] - 1, J without J[p]) for each position p
    off: tuple              # every pair (I, J) with I not <= J, by size, I, J
    index: dict             # S -> its position in sets[len(S)]
    up_covers: tuple        # up_covers[k][i]: positions of sets[k][i]'s up-covers
    down_covers: tuple      # down_covers[k][i]: positions of its down-covers


@lru_cache(maxsize=None)
def _lattice(r: int) -> _Lattice:
    """The index-set lattice of size r, built once per size, its sets from
    ``_between`` alone: the k-sets are those between (1, ..., k) and
    (r - k + 1, ..., r), the empty set the one at k = 0.

    The k-sets form Young's lattice of the partitions in a k x (r - k) box.
    An up-cover of S raises one element by 1, a down-cover lowers one, each
    listed by the position it moves; S has at most k of either.  Every set
    of S's up-set other than S lies above one of its up-covers, and every
    set of its down-set other than S below one of its down-covers, so a
    minimum over up-sets (down-sets) is one pass over the sets in
    decreasing (increasing) lexicographic order, which puts every cover of
    S before S; the checks of ``generic`` take their minima so."""
    sets = tuple(tuple(_between(tuple(range(1, k + 1)), tuple(range(r - k + 1, r + 1))))
                 for k in range(r + 1))
    up = {S: tuple(_between(S, ks[-1])) for ks in sets for S in ks}
    down = {S: tuple(_between(ks[0], S)) for ks in sets for S in ks}
    drops = {J: tuple((J[p] - 1, J[:p] + J[p + 1:]) for p in range(len(J))) for J in up}
    off = []
    for ks in sets[1:]:
        for I in ks:
            above = set(up[I])
            off.extend((I, J) for J in ks if J not in above)
    index = {S: i for ks in sets for i, S in enumerate(ks)}

    def covers(step):
        return tuple(tuple(tuple(index[H] for H in (S[:p] + (S[p] + step,) + S[p + 1:]
                                                     for p in range(len(S)))
                                 if H in index)
                           for S in ks)
                     for ks in sets)

    return _Lattice(sets, up, down, drops, tuple(off), index, covers(1), covers(-1))


def minor_order_table(m: RMatrix, *, comparable_only=False) -> dict:
    """Orders of every square minor, keyed by (row tuple, column tuple).

    Includes the empty minor (order 0).  Each k-by-k minor of the cleared
    grid is expanded along its last row into (k-1)-by-(k-1) minors already
    in the table: the sum over p of +-e_p s_p, with e_p the row's entry in
    column J[p] and s_p the minor without that column.  A minor is kept as
    its lowest term, its order d and its coefficient of t^d: d is the least
    ord e_p + ord s_p, and since Z[t] has no zero divisors, the coefficient
    is the signed sum of lc(e_p) lc(s_p) over the p that attain d, lc the
    lowest coefficient (Murota's combinatorial relaxation, SIAM J. Comput.
    1995).  Only where that sum is 0 is the minor's exact polynomial formed,
    from its children's exact polynomials, each formed on demand and once.
    So every order in the table is exact, and a minor whose lowest terms do
    not cancel costs k integer products.

    Removing the last row i_k and any column j_p of a pair I <= J leaves a
    pair I' <= J', so the comparable pairs are closed under this expansion.
    An upper triangular m (N*, U T_U, Q_U U, ...) is expanded on comparable
    pairs only, each row set I with the sets of its up-set: its other
    minors vanish identically, and their keys get infinity.  With
    ``comparable_only`` the table holds the comparable pairs and nothing
    else, whatever m is.
    """
    r = m.r
    lattice = _lattice(r)
    drops = lattice.drops
    # row i's scale c shifts its minors by ord c; c's constant factor by none
    grid, scales = zip(*(_clear_row(row) for row in m.entries))
    shifts = [min(c) for c in scales]
    triangular = all(not grid[i][j] for i in range(r) for j in range(i))
    comparable = comparable_only or triangular
    lows = [[(min(e), e[min(e)]) if e else None for e in row] for row in grid]
    orders = {((), ()): 0}
    # lead[I][J] is minor (I, J)'s lowest term (d, lc), or None when it vanishes
    lead = {(): {(): (0, 1)}}
    exact = {((), ()): _PONE}

    def poly(I, J):
        """Minor (I, J) of the grid, the signed sum of its entries times its
        children's polynomials, each formed once; a child that vanishes is
        skipped."""
        row, subs, acc = grid[I[-1] - 1], lead[I[:-1]], {}
        sign = 1 if len(I) % 2 else -1
        for j, sub_cols in drops[J]:
            if row[j] and subs[sub_cols] is not None:
                sub = (exact.get((I[:-1], sub_cols)) or poly(I[:-1], sub_cols)).items()
                for d1, c1 in row[j].items():
                    c1 *= sign
                    for d2, c2 in sub:
                        d = d1 + d2
                        acc[d] = acc.get(d, 0) + c1 * c2
            sign = -sign
        p = exact[(I, J)] = {d: c for d, c in acc.items() if c}
        return p

    for k, ks in enumerate(lattice.sets[1:], 1):
        first_sign = 1 if k % 2 else -1  # (-1)^(k+1): position (k, 1) of the minor
        for I in ks:
            row = lows[I[-1] - 1]
            subs = lead[I[:-1]]
            shift_i = sum(shifts[i - 1] for i in I)
            found = lead[I] = {}
            for J in (lattice.up[I] if comparable else ks):
                d = INFINITY
                lc = 0
                sign = first_sign
                for j, sub_cols in drops[J]:
                    e = row[j]
                    if e is not None:
                        sub = subs[sub_cols]
                        if sub is not None:
                            v = e[0] + sub[0]
                            if v < d:
                                d = v
                                lc = sign * e[1] * sub[1]
                            elif v == d:
                                lc += sign * e[1] * sub[1]
                    sign = -sign
                if not lc and d != INFINITY:  # the lowest terms cancel
                    p = poly(I, J)
                    d = min(p, default=INFINITY)
                    lc = p.get(d, 0)
                if lc:
                    found[J] = (d, lc)
                    orders[(I, J)] = d - shift_i
                else:
                    found[J] = None
                    orders[(I, J)] = INFINITY
    if comparable and not comparable_only:
        orders.update(dict.fromkeys(lattice.off, INFINITY))
    return orders


def times_inverse(a: RMatrix, b: RMatrix) -> RMatrix:
    """Exact a b^-1 over the field, from one clearing of b's rows.

    With c_i the scale of row i, b = diag(c)^-1 G for G over Z[t], so
    a b^-1 = (a adj(G)) diag(c) / det(G).  The cofactors are ``_bareiss``
    minors of G, and det(G) is their Laplace sum along the first row, with
    no second elimination.  a adj(G) is formed first, and each of its
    entries is multiplied once by its column's factor c_j / det(G).  When b
    was returned by ``inverse``, b^-1 is the matrix it inverted and the
    product is a b^-1 = a times that matrix, with no division at all."""
    if a.r != b.r:
        raise InputError(f"size mismatch in product: {a.r} vs {b.r}")
    if b._inverse_of is not None:
        return mat_mul(a, b._inverse_of)
    r = b.r
    grid, scales = zip(*(_clear_row(row) for row in b.entries))

    def cofactor(i, j):
        sub = [row[:j] + row[j + 1:] for row in grid[:i] + grid[i + 1:]]
        c = _poly_det(sub) if sub else _PONE
        return _pscale(c, -1) if (i + j) % 2 else c

    adj = [[cofactor(j, i) for j in range(r)] for i in range(r)]
    d = {}
    for j in range(r):
        d = _padd(d, _pmul(grid[0][j], adj[j][0]))
    if not d:
        raise RankError("matrix is singular, no inverse")
    factors = [RingElem(c, d) for c in scales]
    prod = mat_mul(a, RMatrix([[RingElem(e, _PONE, _raw=True) if e else ZERO
                                for e in row] for row in adj]))
    return RMatrix([[e * f for e, f in zip(row, factors)] for row in prod.entries])


def inverse(m: RMatrix) -> RMatrix:
    """Exact inverse over the field: ``times_inverse`` of the identity,
    formed when its entries are first read.

    The result records m, so inverting it again returns m itself and
    ``times_inverse(a, inverse(m))`` is the product a m; a caller that only
    divides by the result or tests the record (as group membership does)
    never forms the adjugate.  m is proved nonsingular before the result is
    returned, by a unit determinant read in the residue field when m is
    over the ring, else by a nonzero Bareiss determinant of m's cleared
    rows; a singular m raises ``RankError`` here.  Only the result points
    back, never m, so no reference cycle forms; both are immutable, so the
    record stays true."""
    if m._inverse_of is not None:
        return m._inverse_of
    if not ((m.is_over_ring() and has_unit_det(m))
            or _poly_det([_clear_row(row)[0] for row in m.entries])):
        raise RankError("matrix is singular, no inverse")
    out = object.__new__(RMatrix)
    out.r = m.r
    out._inverse_of = m
    return out


# ---------------------------------------------------------------------------
# invariant partitions (diagonal reduction over the valuation ring)


def _require_over_ring(m: RMatrix, what: str):
    if not m.is_over_ring():
        raise NotInRingError(f"{what} must have entries of non-negative order")


def _min_order_pivot(a, k):
    """(row, column) of the first entry of least order in the square
    trailing block a[k:][k:] of the grid a of polynomials, columns bounded
    by its len(a) rows, in row-major order; None when that block is zero."""
    best = None
    n = len(a)
    for i in range(k, n):
        row = a[i]
        for j in range(k, n):
            e = row[j]
            if e:
                v = min(e)
                if best is None or v < best[0]:
                    best = (v, i, j)
    return None if best is None else best[1:]


def invariant_partition(m: RMatrix) -> Partition:
    """Decreasing orders of the diagonal form of m under unimodular row and
    column operations over the valuation ring.

    The classic reduction picks an entry of minimal order (first in
    row-major order), clears its row and column, and recurses on the Schur
    complement; the orders of its pivots are the invariant orders.  Here it
    runs fraction-free, as ``_bareiss`` on the cleared integer grid (rows
    scaled by their denominators, units over the ring, so no order moves).
    There every trailing entry is the Schur-complement entry times the
    previous pivot, one factor for the whole block, so the minimal-order
    positions, and hence the pivots chosen, are the field reduction's; the
    k-th invariant order is v_k - v_(k-1) for v_k the order of the k-th
    Bareiss pivot.  No ring division happens.  Requires full rank and
    entries of non-negative order.
    """
    _require_over_ring(m, "matrix")
    return _grid_partition([_clear_row(row)[0] for row in m.entries])


def _grid_partition(grid) -> Partition:
    """The invariant partition of a square grid of integer polynomials, by
    ``_bareiss`` with ``_min_order_pivot``, which eliminates the grid in
    place; RankError when it is singular."""
    pivots, _ = _bareiss(grid, _min_order_pivot)
    if len(pivots) < len(grid):
        raise RankError("matrix is rank deficient")
    orders = [min(p) for p in pivots]
    return Partition(tuple(reversed([v - u for u, v in zip([0] + orders, orders)])))


def _mu_weights(mu: Partition, r: int) -> dict:
    """|mu_S| for every index set S in 1..r, the empty set included."""
    return {s: mu.sum_over(s) for s in _lattice(r).up}


def _table_partition(table: dict, r: int, mu: Partition):
    """The invariant partitions of a matrix N and of D_mu N, read off N's
    minor-order table in one pass: the minimal order among k-by-k minors is
    the k-th partial sum of the increasing invariant orders, and D_mu N's
    minor (I, J) is N's shifted by |mu_I|.  Either is None when some size k
    has no finite minor."""
    weight = _mu_weights(mu, r)
    best = [0] + [INFINITY] * r
    best_mu = best[:]
    for (i_set, _), v in table.items():
        k = len(i_set)
        if v < best[k]:
            best[k] = v
        v += weight[i_set]
        if v < best_mu[k]:
            best_mu[k] = v
    return tuple(None if INFINITY in b else
                 Partition(tuple(reversed([b[k] - b[k - 1] for k in range(1, r + 1)])))
                 for b in (best, best_mu))


def _is_exact_power_diagonal_decreasing(m: RMatrix) -> bool:
    """True when m is diag(t^(v_1), ..., t^(v_r)) with v_1 >= ... >= v_r."""
    v = [row[i].valuation() for i, row in enumerate(m.entries)]
    return (INFINITY not in v and all(a >= b for a, b in zip(v, v[1:]))
            and m == RMatrix.diagonal([RingElem.t_pow(k) for k in v]))


def _smith_grid(m: RMatrix):
    """The one Smith pass: ``_bareiss`` on [m | I], or None when m is
    already a diagonal of non-increasing t-powers, which
    ``_is_exact_power_diagonal_decreasing`` reads off the diagonal's orders
    and one comparison with the diagonal they define.

    The rows of [m | I] are each cleared by a scale c_k of order 0 (m is
    over the ring) and eliminated with ``invariant_partition``'s pivot; the
    scales follow their rows and the column swaps are recorded.  Returns
    (rows, cols): rows[k] = (grid row k, p_(k-1) c_k, a_k) with p_(-1) = 1
    and a_k = ord p_k - ord p_(k-1), the k-th invariant order in increasing
    order, and cols[j] the column of m moved to position j.  Row k's right
    block over p_(k-1) c_k is row k of P = L^-1 Pi, the field elimination
    with that pivot, and its left block over p_(k-1) c_k t^(a_k), columns
    >= k moved back to cols and the rest 0, is row k of Q, so that
    P m = diag(t^(a_k)) Q with P and Q invertible over the ring; the
    reduction's ``generic.diagonalize_first`` reads them so.  A matrix that
    is not over the ring or not of full rank raises as
    ``invariant_partition`` does."""
    _require_over_ring(m, "matrix")
    if _is_exact_power_diagonal_decreasing(m):
        return None
    r = m.r
    grid, scales = map(list, zip(*(
        _clear_row(row + tuple(ONE if i == j else ZERO for j in range(r)))
        for i, row in enumerate(m.entries))))
    cols = list(range(r))

    def pivot(a, k):
        pos = _min_order_pivot(a, k)
        if pos is not None:
            i, j = pos
            scales[k], scales[i] = scales[i], scales[k]  # the scales follow their rows
            cols[k], cols[j] = cols[j], cols[k]
        return pos

    pivots, _ = _bareiss(grid, pivot)
    if len(pivots) < r:
        raise RankError("matrix is rank deficient")
    rows = []
    prev = _PONE
    for row, c, piv in zip(grid, scales, pivots):
        rows.append((row, _pmul(prev, c), min(piv) - min(prev)))
        prev = piv
    return rows, cols


# ---------------------------------------------------------------------------
# LU decomposition and admissibility


def _leading_pivot(a, k):
    return (k, k) if a[k][k] else None


def _lu_grid(a: RMatrix):
    """(grid, scales, pivots): one ``_bareiss`` pass without pivoting on a's
    rows cleared by the scales c_g (Zhou and Jeffrey, 2008).  The grid keeps
    the bordered leading minors, a_gk below the diagonal and a_kh on and
    above it, and the pivots p_k are the leading minors; the first that
    vanishes raises ``PrincipalMinorError``."""
    grid, scales = map(list, zip(*(_clear_row(row) for row in a.entries)))
    pivots, _ = _bareiss(grid, _leading_pivot)
    if len(pivots) < a.r:
        raise PrincipalMinorError(len(pivots) + 1)
    return grid, scales, pivots


def lu_decompose(a: RMatrix):
    """A = B @ C with B unit lower triangular and C upper triangular.

    Read off ``_lu_grid`` (p_0 = 1): B_gk = a_gk c_k / (p_k c_g) and
    C_kg = a_kg / (p_(k-1) c_k), each reduced once.  Every leading principal
    minor must be nonzero; the first k where one vanishes is reported.
    """
    r = a.r
    grid, scales, pivots = _lu_grid(a)
    b_rows = [[RingElem(_pmul(grid[g][k], scales[k]), _pmul(pivots[k], scales[g]))
               if k < g else ONE if k == g else ZERO for k in range(r)]
              for g in range(r)]
    prev = [_PONE] + pivots
    c_rows = [[RingElem(grid[k][g], _pmul(prev[k], scales[k])) if g >= k else ZERO
               for g in range(r)]
              for k in range(r)]
    return RMatrix(b_rows), RMatrix(c_rows)


def is_mu_admissible(q: RMatrix, mu) -> bool:
    """True when q is invertible over the valuation ring and stays so after
    conjugation by the diagonal of t**mu, i.e. ord(q_ij) >= mu_j - mu_i."""
    mu = as_partition(mu)
    if len(mu) > q.r:
        return False
    r = q.r
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            e = q.entry(i, j)
            if e.is_zero():
                continue
            v = e.valuation()
            if v < 0 or v + mu.part(i) - mu.part(j) < 0:
                return False
    return has_unit_det(q)
