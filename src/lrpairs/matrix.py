"""Square matrices over the valued field, and the order-theoretic tools the
pair-reduction pipeline is built on.

Rows, columns and index sets are 1-based throughout the public interface.
An index set is a strictly increasing tuple of row or column indices; the
partial order I <= H compares componentwise (i_s <= h_s for every position).
The order of a minor is the valuation of its exact determinant, +infinity
when the minor vanishes.

Determinants are computed exactly: rows are first scaled by their
denominators so the work happens on polynomials, then fraction-free Bareiss
elimination runs at every size.
Whether a determinant is a unit is read in the residue field instead
(``has_unit_det``), which needs only the constant terms.
``minor_order_table`` batches every (I, J) minor order of a matrix through a
shared-subminor expansion, which the verification and extraction code paths
rely on.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd as igcd

from .errors import InputError, NotInRingError, PrincipalMinorError, RankError
from .ring import (_PONE, INFINITY, ONE, ZERO, RingElem, _padd, _pcontent,
                   _pdivexact_int, _pmul, _pscale)
from .tableaux import MAX_SIZE, Partition, as_partition


def _as_tuple(indices) -> tuple:
    t = tuple(int(i) for i in indices)
    for a, b in zip(t, t[1:]):
        if a >= b:
            raise InputError(f"index set must be strictly increasing, got {t}")
    if t and t[0] < 1:
        raise InputError(f"index sets are 1-based, got {t}")
    return t


# ---------------------------------------------------------------------------
# matrices


class RMatrix:
    """Immutable square matrix of exact field elements."""

    __slots__ = ("r", "entries")

    def __init__(self, rows):
        rows = tuple(tuple(_coerce_entry(e) for e in row) for row in rows)
        r = len(rows)
        if r < 1:
            raise InputError("matrices must have size at least 1")
        for row in rows:
            if len(row) != r:
                raise InputError(f"matrix must be square, got a row of length {len(row)} in size {r}")
        self.r = r
        self.entries = rows

    @staticmethod
    def identity(r: int) -> "RMatrix":
        return RMatrix([[ONE if i == j else ZERO for j in range(r)] for i in range(r)])

    @staticmethod
    def diagonal(elems) -> "RMatrix":
        elems = [_coerce_entry(e) for e in elems]
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

    def __matmul__(self, other):
        return mat_mul(self, other)

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

    def is_diagonal(self) -> bool:
        return all(
            self.entries[i][j].is_zero()
            for i in range(self.r) for j in range(self.r) if i != j
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
        if "r" in obj and obj["r"] != m.r:
            raise InputError(f"matrix declares r={obj['r']} but has {m.r} rows")
        return m


def _coerce_entry(e) -> RingElem:
    if isinstance(e, RingElem):
        return e
    return RingElem.const(e)


def mat_mul(a: RMatrix, b: RMatrix) -> RMatrix:
    if a.r != b.r:
        raise InputError(f"size mismatch in product: {a.r} vs {b.r}")
    r = a.r
    rows = []
    for i in range(r):
        arow = a.entries[i]
        out = []
        for j in range(r):
            acc = ZERO
            for k in range(r):
                x = arow[k]
                if x.is_zero():
                    continue
                y = b.entries[k][j]
                if y.is_zero():
                    continue
                acc = acc + x * y
            out.append(acc)
        rows.append(out)
    return RMatrix(rows)


def diag_from_partition(mu, r: int) -> RMatrix:
    """diag(t**mu_1, ..., t**mu_r); missing parts give exponent 0."""
    mu = as_partition(mu)
    if len(mu) > r:
        raise InputError(f"partition {mu.parts} does not fit in size {r}")
    return RMatrix.diagonal([RingElem.t_pow(mu.part(i)) for i in range(1, r + 1)])


# ---------------------------------------------------------------------------
# exact minors

def _clear_row(row):
    """Numerators of a row scaled by the product of its distinct denominators
    (constant ones included), together with those denominators."""
    dens = []
    for e in row:
        if e.den is not _PONE and e.den not in dens:
            dens.append(e.den)
    if not dens:
        return [e.num for e in row], dens
    cleared = []
    for e in row:
        p = e.num
        for d in dens:
            if d != e.den:
                p = _pmul(p, d)
        cleared.append(p)
    return cleared, dens


def _cleared_grid(m: RMatrix):
    """Scale each row into integer-coefficient polynomial form.

    Returns (grid, shifts): grid[i][j] is a polynomial dict proportional to
    the row entry times the product of the row's distinct denominators (the
    whole row additionally scaled to integer coefficients, which changes no
    orders); shifts[i] is the order of the denominator product, which minor
    orders must subtract."""
    grid = []
    shifts = []
    for row in m.entries:
        cleared, dens = _clear_row(row)
        grid.append(_row_to_int(cleared))
        shifts.append(sum(min(d) for d in dens))
    return grid, shifts


def _row_to_int(polys):
    """Divide a row of integer polynomials by its joint content.

    Row scalings by nonzero constants shift no orders, so minor-order grids
    may normalize freely; the smaller integers keep the expansions cheap."""
    g = 0
    for p in polys:
        g = _pcontent(p, g)
        if g == 1:
            return polys
    if g == 0:
        return polys
    return [{d: c // g for d, c in p.items()} for p in polys]


def _poly_det(sub):
    """Fraction-free elimination; every division is exact over Z[t]."""
    k = len(sub)
    a = [list(row) for row in sub]
    prev = _PONE
    sign = 1
    for col in range(k - 1):
        piv_row = None
        for i in range(col, k):
            if a[i][col]:
                piv_row = i
                break
        if piv_row is None:
            return {}
        if piv_row != col:
            a[col], a[piv_row] = a[piv_row], a[col]
            sign = -sign
        piv = a[col][col]
        for i in range(col + 1, k):
            for j in range(col + 1, k):
                num = _padd(_pmul(piv, a[i][j]), _pmul(a[i][col], a[col][j]), -1)
                a[i][j] = _pdivexact_int(num, prev) if num else {}
            a[i][col] = {}
        prev = piv
    # _pscale copies, so at k = 1 the caller's entry is not handed back
    return _pscale(a[k - 1][k - 1], sign)


def _validated_minor_indices(m, rows, cols):
    rows, cols = _as_tuple(rows), _as_tuple(cols)
    if len(rows) != len(cols):
        raise InputError(f"minor needs equally long row and column sets, got {rows} and {cols}")
    if rows and rows[-1] > m.r:
        raise InputError(f"row index {rows[-1]} outside 1..{m.r}")
    if cols and cols[-1] > m.r:
        raise InputError(f"column index {cols[-1]} outside 1..{m.r}")
    return rows, cols


def minor(m: RMatrix, rows, cols) -> RingElem:
    """Exact determinant of the submatrix (empty minor = 1)."""
    rows, cols = _validated_minor_indices(m, rows, cols)
    if not rows:
        return ONE
    correction = _PONE
    sub = []
    for i in rows:
        cleared, dens = _clear_row([m.entries[i - 1][j - 1] for j in cols])
        sub.append(cleared)
        for d in dens:
            correction = _pmul(correction, d)
    det_poly = _poly_det(sub)
    if not det_poly:
        return ZERO
    return RingElem(det_poly, correction)


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
                lcm = lcm * e.den[0] // igcd(lcm, e.den[0])
        grid.append([{0: e.num[0] * (lcm // e.den[0])} if 0 in e.num else {}
                     for e in row])
    return bool(_poly_det(grid))


def minor_order(m: RMatrix, rows, cols):
    """Order of the minor; +infinity when it vanishes."""
    v = minor(m, rows, cols)
    return v.valuation()


def det(m: RMatrix) -> RingElem:
    full = tuple(range(1, m.r + 1))
    return minor(m, full, full)


def minor_order_table(m: RMatrix, cap=None) -> dict:
    """Orders of every square minor, keyed by (row tuple, column tuple).

    Includes the empty minor (order 0).  Shared subminors are expanded once,
    so the whole table costs little more than the single full determinant.

    With ``cap`` set, everything is computed modulo t^(cap+1): orders at most
    cap are exact, a larger one is exact or infinity.  Minors that vanish
    identically still report infinity either way, so a cap of at least the
    largest finite order that matters makes the truncated table authoritative.
    """
    r = m.r
    grid, shifts = _cleared_grid(m)
    acc_cap = INFINITY
    if cap is not None:
        # row clearing multiplies minors by the denominator products, whose
        # orders are the recorded shifts; keep enough terms to see past them
        acc_cap = cap + sum(shifts)
        grid = [[{d: c for d, c in e.items() if d <= acc_cap} for e in row]
                for row in grid]
    orders = {((), ()): 0}
    prev = {((), ()): {0: 1}}
    all_idx = range(1, r + 1)
    for k in range(1, r + 1):
        cur = {}
        row_sets = list(combinations(all_idx, k))
        col_sets = row_sets
        for I in row_sets:
            i0 = I[0]
            rest = I[1:]
            row = grid[i0 - 1]
            shift_i = sum(shifts[i - 1] for i in I)
            for J in col_sets:
                acc: dict = {}
                sign = 1
                for pos in range(k):
                    j = J[pos]
                    e = row[j - 1]
                    if e:
                        sub = prev[(rest, J[:pos] + J[pos + 1:])]
                        if sub:
                            for d1, c1 in e.items():
                                for d2, c2 in sub.items():
                                    d = d1 + d2
                                    if d > acc_cap:
                                        continue
                                    s = acc.get(d, 0) + sign * c1 * c2
                                    if s:
                                        acc[d] = s
                                    else:
                                        del acc[d]
                    sign = -sign
                cur[(I, J)] = acc
                orders[(I, J)] = (min(acc) - shift_i) if acc else INFINITY
        prev = cur
    return orders


class _MinorValues:
    """Memoized exact minors of one matrix, for LU quotients and inverses."""

    def __init__(self, m: RMatrix):
        self.m = m
        self.memo = {((), ()): ONE}

    def value(self, rows: tuple, cols: tuple) -> RingElem:
        key = (rows, cols)
        got = self.memo.get(key)
        if got is not None:
            return got
        i0 = rows[0]
        rest = rows[1:]
        acc = ZERO
        sign = 1
        for pos, j in enumerate(cols):
            e = self.m.entries[i0 - 1][j - 1]
            if not e.is_zero():
                sub = self.value(rest, cols[:pos] + cols[pos + 1:])
                if not sub.is_zero():
                    term = e * sub
                    acc = acc + (term if sign > 0 else -term)
            sign = -sign
        self.memo[key] = acc
        return acc


def inverse(m: RMatrix) -> RMatrix:
    """Exact inverse over the field (adjugate divided by the determinant)."""
    r = m.r
    mv = _MinorValues(m)
    full = tuple(range(1, r + 1))
    d = mv.value(full, full)
    if d.is_zero():
        raise RankError("matrix is singular, no inverse")
    rows = []
    for i in range(1, r + 1):
        out = []
        for j in range(1, r + 1):
            sub = mv.value(tuple(x for x in full if x != j), tuple(x for x in full if x != i))
            c = sub / d
            if (i + j) % 2:
                c = -c
            out.append(c)
        rows.append(out)
    return RMatrix(rows)


# ---------------------------------------------------------------------------
# invariant partitions (diagonal reduction over the valuation ring)


def _require_over_ring(m: RMatrix, what: str):
    if not m.is_over_ring():
        raise NotInRingError(f"{what} must have entries of non-negative order")


def _place_pivot(work, k):
    """Swap an entry of minimal order in the trailing block work[k:][k:] (the
    first one in row-major order) to position (k, k).

    Returns (order, row, column) of the entry before the swap."""
    r = len(work)
    best = None
    for i in range(k, r):
        for j in range(k, r):
            e = work[i][j]
            if e.is_zero():
                continue
            v = e.valuation()
            if best is None or v < best[0]:
                best = (v, i, j)
    if best is None:
        raise RankError("matrix is rank deficient")
    _, bi, bj = best
    work[k], work[bi] = work[bi], work[k]
    if bj != k:
        for row in work:
            row[k], row[bj] = row[bj], row[k]
    return best


def invariant_partition(m: RMatrix) -> Partition:
    """Decreasing orders of the diagonal form of m under unimodular row and
    column operations over the valuation ring.

    The classic reduction: pick an entry of minimal order (first in row-major
    order), it divides the rest of its row and column exactly, clear both and
    recurse on the remaining block.  Requires full rank and entries of
    non-negative order.
    """
    _require_over_ring(m, "matrix")
    r = m.r
    work = [list(row) for row in m.entries]
    orders = []
    for k in range(r):
        v, _, _ = _place_pivot(work, k)
        piv = work[k][k]
        # the pivot has minimal order, so these quotients stay in the ring;
        # clearing the pivot row afterwards would not touch the trailing block
        for i in range(k + 1, r):
            f = work[i][k] / piv
            if not f.is_zero():
                work[i] = [a - f * b for a, b in zip(work[i], work[k])]
        orders.append(v)
    return Partition(tuple(reversed(orders)))


def _table_partition(table: dict, r: int, shift_mu=None):
    """Invariant partition read off a minor-order table: the minimal order
    among k-by-k minors is the k-th partial sum of the increasing invariant
    orders.  With shift_mu, reads the table of D_mu times the matrix through
    row-weight shifts.  None when some size k has no finite minor."""
    best = [0] + [INFINITY] * r
    for (i_set, _), v in table.items():
        if shift_mu is not None:
            v = v + shift_mu.sum_over(i_set)
        if v < best[len(i_set)]:
            best[len(i_set)] = v
    if INFINITY in best:
        return None
    return Partition(tuple(reversed([best[k] - best[k - 1] for k in range(1, r + 1)])))


def invariant_partition_oracle(m: RMatrix) -> Partition:
    """Same partition by a different route: the minimal order among k-by-k
    minors is the k-th partial sum of the increasing invariant orders."""
    _require_over_ring(m, "matrix")
    part = _table_partition(minor_order_table(m), m.r)
    if part is None:
        raise RankError("matrix is rank deficient")
    return part


def _is_exact_power_diagonal_decreasing(m: RMatrix) -> bool:
    if not m.is_diagonal():
        return False
    prev = None
    for i in range(1, m.r + 1):
        e = m.entry(i, i)
        if e.is_zero():
            return False
        v = e.valuation()
        if e != RingElem.t_pow(v):
            return False
        if prev is not None and v > prev:
            return False
        prev = v
    return True


def _cleaning_unit(elems) -> RingElem:
    """The unit u of the ring that scales elems clean, so that scaling a row
    or column by it is an admissible transformation.

    u is a valuation-zero polynomial that leaves no e * u with a polynomial
    denominator, times 1/g for the rational content g of the numerators of
    those products, each read over a monic denominator.  All coefficients
    then become integers with no common factor, which keeps fraction-free
    eliminations from blowing up coefficient sizes."""
    u = ONE
    for e in elems:
        if e.is_zero():
            continue
        den = (e * u).den
        if max(den) == 0:
            continue
        u = u * RingElem(dict(den), {0: den[max(den)]})
    v = u.valuation()
    if v:
        u = u / RingElem.t_pow(v)
    g_num = 0
    g_den = 1
    for e in ([e * u for e in elems] if u != ONE else elems):
        lc = e.den[max(e.den)]
        for coeff in e.num.values():
            f = Fraction(coeff, lc)
            g_num = igcd(g_num, f.numerator)
            g_den = g_den * f.denominator // igcd(g_den, f.denominator)
    if g_num == 0 or (g_num == 1 and g_den == 1):
        return u
    return u * RingElem.const(Fraction(g_den, g_num))


def smith_transforms(m: RMatrix):
    """Invertible P, Q over the valuation ring with P @ m = D @ Q, where D is
    the diagonal of decreasing t-powers carrying the invariant partition.

    Returns (P, Q, D) with D = diag_from_partition(invariant_partition(m)).
    A matrix that is already such a diagonal returns identity transforms.
    Shears divide by the pivot, whose unit part is invertible, so entries stay
    in reduced form and never grow past ratios of minors of the input.
    """
    _require_over_ring(m, "matrix")
    r = m.r
    if _is_exact_power_diagonal_decreasing(m):
        eye = RMatrix.identity(r)
        return eye, eye, m

    work = [list(row) for row in m.entries]
    p = [list(row) for row in RMatrix.identity(r).entries]
    q = [list(row) for row in RMatrix.identity(r).entries]

    for k in range(r):
        a_val, bi, bj = _place_pivot(work, k)
        p[k], p[bi] = p[bi], p[k]
        q[k], q[bj] = q[bj], q[k]
        piv = work[k][k]
        t_a = RingElem.t_pow(a_val)
        p0 = piv / t_a  # valuation-zero part of the pivot, a unit
        for i in range(k + 1, r):
            e = work[i][k]
            if not e.is_zero():
                # row_i -= (e / piv) * row_k; the pivot has minimal valuation
                # in the submatrix, so the multiplier lies in the ring
                w = e / piv
                work[i] = [x - w * y for x, y in zip(work[i], work[k])]
                work[i][k] = ZERO
                p[i] = [x - w * y for x, y in zip(p[i], p[k])]
        if p0 != ONE:
            # col_k is zero outside the pivot now, so dividing it by the unit
            # p0 just normalizes the pivot to t^a; on q this is row_k *= p0
            work[k][k] = t_a
            q[k] = [p0 * x for x in q[k]]
        for j in range(k + 1, r):
            e = work[k][j]
            if not e.is_zero():
                # col_j -= (e / t^a) * col_k only changes row k; the inverse
                # op on q is the shear row_k += (e / t^a) * row_j
                f = e / t_a
                work[k][j] = ZERO
                q[k] = [x + f * y for x, y in zip(q[k], q[j])]

    # reverse to decreasing order: conjugate by the reversal permutation
    work = [row[::-1] for row in work[::-1]]
    p = p[::-1]
    q = q[::-1]

    return RMatrix(p), RMatrix(q), RMatrix(work)


# ---------------------------------------------------------------------------
# LU decomposition and admissibility


def lu_decompose(a: RMatrix):
    """A = B @ C with B unit lower triangular and C upper triangular.

    Entries come from quotients of bordered leading minors, so every leading
    principal minor must be nonzero; the first k where it vanishes is
    reported.  The diagonal of B is normalized to 1.
    """
    r = a.r
    mv = _MinorValues(a)
    lead = tuple(range(1, r + 1))
    d = [ONE]
    for k in range(1, r + 1):
        v = mv.value(lead[:k], lead[:k])
        if v.is_zero():
            raise PrincipalMinorError(k)
        d.append(v)
    b_rows = []
    c_rows = []
    for g in range(1, r + 1):
        b_rows.append([
            (mv.value(lead[:k - 1] + (g,), lead[:k]) / d[k]) if g >= k else ZERO
            for k in range(1, r + 1)
        ])
    for k in range(1, r + 1):
        c_rows.append([
            (mv.value(lead[:k], lead[:k - 1] + (g,)) / d[k - 1]) if g >= k else ZERO
            for g in range(1, r + 1)
        ])
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
