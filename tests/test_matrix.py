"""Exact matrix layer: minors, invariant partitions, Smith and LU transforms."""

import itertools
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from lrpairs.errors import (InputError, NotInRingError, PrincipalMinorError,
                            RankError)
import lrpairs.matrix as matrix_mod
from lrpairs.matrix import (RMatrix, _bareiss, _clean, _clear_row, _poly_det,
                            det, diag_from_partition,
                            has_unit_det, invariant_partition, inverse,
                            is_mu_admissible, lu_decompose, mat_mul,
                            minor_order_table, times_inverse)
from lrpairs.generic import GroupElement, MatrixPair, act, to_mu_generic
from lrpairs.ring import _PONE, INFINITY, ONE, ZERO, RingElem
from lrpairs.tableaux import MAX_SIZE, Partition

from checkoracle import (comparable_pairs, invariant_partition_oracle, minor,
                         minor_order, smith_transforms)
from golden import (KEPT_ORDERS, LAM, MU, NU, c, golden_factors, golden_m,
                    golden_mn, golden_n, t)


def random_ring_matrix(rng, r, max_order=6, frac=False):
    """Random matrix over the ring with entry orders <= max_order."""
    rows = []
    for _ in range(r):
        row = []
        for _ in range(r):
            if rng.random() < 0.2:
                row.append(ZERO)
            else:
                num = rng.randint(-9, 9) or 1
                e = RingElem.const(num) * t(rng.randint(0, max_order))
                if frac and rng.random() < 0.3:
                    e = e / RingElem.const(rng.randint(1, 7))
                    e = e * (RingElem.const(1) + t(1) * RingElem.const(rng.randint(-3, 3)))
                row.append(e)
        rows.append(row)
    return RMatrix(rows)


def random_full_rank(rng, r, max_order=6, frac=False):
    while True:
        m = random_ring_matrix(rng, r, max_order, frac)
        if not det(m).is_zero():
            return m


def det_by_permutations(m):
    """Definition of the determinant, for cross-checking the fast paths."""
    r = m.r
    total = ZERO
    for perm in itertools.permutations(range(1, r + 1)):
        sign = 1
        for a in range(r):
            for b in range(a + 1, r):
                if perm[a] > perm[b]:
                    sign = -sign
        term = RingElem.const(sign)
        for i in range(1, r + 1):
            term = term * m.entry(i, perm[i - 1])
        total = total + term
    return total


# ---------------------------------------------------------------------------
# construction and access


def test_identity_and_diagonal():
    eye = RMatrix.identity(3)
    assert eye == RMatrix.diagonal([ONE] * 3) and eye.is_upper_triangular()
    assert eye.entry(1, 1) == ONE and eye.entry(1, 2) == ZERO
    d = diag_from_partition(MU, 4)
    assert d.entry(1, 1) == t(7) and d.entry(4, 4) == t(1)
    assert d == RMatrix.diagonal([t(7), t(4), t(2), t(1)])
    # shorter partition pads with exponent zero
    d2 = diag_from_partition(Partition((2,)), 2)
    assert d2.entry(2, 2) == ONE


def test_ragged_rows_rejected():
    with pytest.raises(InputError):
        RMatrix([[ONE, ZERO], [ONE]])


def test_matmul_golden():
    n1, n2, n3, n4 = golden_factors()
    prod = mat_mul(mat_mul(n1, n2), mat_mul(n3, n4))
    assert prod == golden_n()
    assert mat_mul(golden_m(), golden_n()) == golden_mn()
    assert mat_mul(mat_mul(mat_mul(n1, n2), n3), n4) == golden_n()


def mat_mul_by_terms(a, b):
    """Reference product: every entry the ring sum of its terms x * y."""
    return RMatrix([[sum((x * y for x, y in zip(row, col)), ZERO)
                     for col in zip(*b.entries)] for row in a.entries])


@st.composite
def product_operands(draw):
    """(a, b) with no denominators, one shared denominator per row of a or
    per column of b, denominators drawn per entry, integer denominators
    drawn per entry, or rows of a and columns of b that each hold one
    polynomial denominator among integer ones, or only integer ones; +-1
    coefficients on low degrees make terms cancel, and some rows of a and
    columns of b are zero.  Even numerators over the integer denominators
    2, 4 and 6 leave lcms that the summed numerators' content cancels."""
    r = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("none", "row", "column", "mixed", "integer",
                                 "integer_and_polynomial")))
    dens = [ONE + c(k) * t(1) for k in (1, -2, 3)] + [c(2), c(3) + t(2)]
    integers = st.sampled_from((ONE, c(2), c(3), c(4), c(6)))

    def poly():
        terms = draw(st.lists(st.tuples(st.sampled_from((1, -1, 2)),
                                        st.integers(0, 2)), max_size=2))
        return RingElem.from_terms(terms)

    def grid(shared):
        rows = [[poly() for _ in range(r)] for _ in range(r)]
        if draw(st.booleans()):
            rows[draw(st.integers(0, r - 1))] = [ZERO] * r
        if shared:
            for row in rows:
                d = draw(st.sampled_from(dens))
                row[:] = [e / d for e in row]
        elif kind == "mixed":
            rows = [[e / draw(st.sampled_from(dens + [ONE])) for e in row]
                    for row in rows]
        elif kind == "integer":
            rows = [[e * draw(st.sampled_from((ONE, c(2)))) / draw(integers)
                     for e in row] for row in rows]
        elif kind == "integer_and_polynomial":
            for row in rows:
                odd = draw(st.integers(0, r)) if r > 1 else r  # r: integers only
                row[:] = [e / (draw(st.sampled_from(dens[:3])) if k == odd
                               else draw(integers)) for k, e in enumerate(row)]
        return RMatrix(rows)

    a = grid(kind == "row")
    b = grid(kind == "column").transpose()
    return a, b


@settings(max_examples=250, deadline=None)
@given(product_operands())
def test_mat_mul_agrees_with_termwise_sum(ab):
    """Where a row of a and a column of b clear by integers, the
    fraction-free entry equals the ring sum of its terms.  An entry with a
    polynomial denominator is that ring sum itself, so for the polynomial
    kinds this only pins the route choice; the sum is checked independently
    by ``test_ring_sympy``: its ring operations against sympy's cancel, and
    ``times_inverse``, whose product a adj(G) takes this route, against
    sympy's inverse."""
    a, b = ab
    assert mat_mul(a, b) == mat_mul_by_terms(a, b)


def test_mat_mul_cancelling_terms():
    """Terms that cancel inside a polynomial group, inside a group with a
    denominator, and across two groups with the same product denominator."""
    u = ONE + t(1)
    a = RMatrix([[ONE, ONE, ZERO], [ONE / u, ONE / u, ONE], [ZERO] * 3])
    b = RMatrix([[t(2), ONE, ONE / u], [-t(2), -ONE / t(1), ZERO],
                 [ZERO, ZERO, -ONE / (u * u)]])
    got = mat_mul(a, b)
    assert got == mat_mul_by_terms(a, b)
    assert got.entry(1, 1) == got.entry(2, 1) == got.entry(2, 3) == ZERO
    assert got.entry(1, 2) == ONE - ONE / t(1)
    assert got.entries[2] == (ZERO,) * 3


def test_mat_mul_integer_denominators_reduce_once():
    """Rows and columns over integer denominators: the numerators scaled by
    the lcms 4 and 3 sum to 2 + 2 t over 12 at (1, 1), whose content 2
    leaves (1 + t) / 6, and to 6 over 4 at (1, 2), which leaves 3 / 2.
    Where the content cancels the lcm whole, the entry is a polynomial with
    the shared denominator 1.  Row 2 has a polynomial denominator and
    groups its terms."""
    u = ONE + t(1)
    a = RMatrix([[ONE / c(2), ONE / c(4)], [ONE / c(6), ONE / u]])
    b = RMatrix([[ONE / c(3), c(2)], [c(2) * t(1) / c(3), c(2)]])
    got = mat_mul(a, b)
    assert got == mat_mul_by_terms(a, b)
    assert got.entry(1, 1) == (ONE + t(1)) / c(6)
    assert got.entry(1, 2) == c(3) / c(2)
    assert mat_mul(RMatrix([[ONE / c(2), ONE / c(2)], [ZERO, ZERO]]),
                   RMatrix([[ONE, ZERO], [ONE, ZERO]])).entry(1, 1).den is ONE.den


def test_clear_row_scales_by_the_lcm_of_integer_denominators():
    """A row with only integer denominators clears by their lcm: (1/2, 1/4,
    1/6, t) by 12, not by their product 48.  A row with a polynomial
    denominator clears by the product of its distinct denominators, 3 (1 + t)
    for 1/3 and 1/(1 + t), and a row without one returns the shared _PONE.
    mat_mul, which routes on these scales, equals the termwise sum on every
    kind of row and column."""
    u = ONE + t(1)
    integer = [ONE / c(2), ONE / c(4), ONE / c(6), t(1)]
    mixed = [ONE / c(3), ONE / u, t(1), ONE]
    plain = [t(1), ONE, ZERO, c(2)]
    assert _clear_row(integer) == ([{0: 6}, {0: 3}, {0: 2}, {1: 12}], {0: 12})
    assert _clear_row(mixed) == ([{0: 1, 1: 1}, {0: 3}, {1: 3, 2: 3}, {0: 3, 1: 3}],
                                 {0: 3, 1: 3})
    nums, scale = _clear_row(plain)
    assert nums == [{1: 1}, {0: 1}, {}, {0: 2}] and scale is _PONE
    a = RMatrix([integer, mixed, plain, [ONE, t(2), ONE / c(4), ZERO]])
    for x, y in ((a, a), (a, a.transpose()), (a.transpose(), a)):
        assert mat_mul(x, y) == mat_mul_by_terms(x, y)


def test_transpose_and_predicates():
    n = golden_n()
    assert n.is_upper_triangular()
    assert n != RMatrix.diagonal(n.entry(i, i) for i in range(1, 5))
    assert n.transpose().transpose() == n
    assert not n.transpose().is_upper_triangular()
    assert n.is_over_ring()
    bad = RMatrix([[ONE / t(1)]])
    assert not bad.is_over_ring()


def test_json_roundtrip():
    n = golden_n()
    assert RMatrix.from_json(n.to_json()) == n
    m = random_ring_matrix(random.Random(3), 3, frac=True)
    assert RMatrix.from_json(m.to_json()) == m


def test_json_size_above_bound_is_rejected_before_parsing(monkeypatch):
    def no_parsing(obj):
        raise AssertionError("an entry was parsed from an oversized grid")

    entry = {"num": [["1", 0]]}
    monkeypatch.setattr(RingElem, "from_json", staticmethod(no_parsing))
    for rows, cols in ((MAX_SIZE + 1, MAX_SIZE + 1), (1, MAX_SIZE + 1)):
        grid = [[entry] * cols for _ in range(rows)]
        with pytest.raises(InputError, match="exceeds the limit"):
            RMatrix.from_json({"entries": grid})


def test_json_rejects_boolean_size():
    entries = [[{"num": [["1", 0]]}]]
    assert RMatrix.from_json({"r": 1, "entries": entries}) == RMatrix.identity(1)
    with pytest.raises(InputError):
        RMatrix.from_json({"r": True, "entries": entries})


def test_json_size_at_bound_is_accepted():
    m = RMatrix.identity(MAX_SIZE)
    assert RMatrix.from_json(m.to_json()) == m


# ---------------------------------------------------------------------------
# determinants and minors


def test_det_golden():
    assert det(golden_n()) == t(19)
    assert det(golden_m()) == t(14)
    assert det(golden_mn()) == t(33)


def test_det_matches_permutation_expansion():
    rng = random.Random(11)
    for r in (1, 2, 3, 4, 5):
        for _ in range(6):
            m = random_ring_matrix(rng, r, max_order=3, frac=True)
            assert det(m) == det_by_permutations(m)


def test_poly_det_of_size_one_is_a_copy():
    p = {0: 3, 2: -1}
    got = _poly_det([[p]])
    assert got == p and got is not p


def test_bareiss_on_a_rectangular_grid():
    """On a k x n grid with k < n the pass runs to the end of each row: row
    i holds, from column i on, the leading i-minor bordered by row i and
    that column, and the pivots are the leading minors."""
    rng = random.Random(71)
    for k, n in ((1, 3), (2, 5), (3, 4), (3, 6)):
        grid = [[{d: rng.choice((-3, -2, -1, 1, 2, 3)) for d in rng.sample(range(3), 2)}
                 for _ in range(n)] for _ in range(k)]
        work = [list(row) for row in grid]
        pivots, sign = _bareiss(work, lambda a, i: (i, i) if a[i][i] else None)
        assert len(pivots) == k and sign == 1
        for i in range(k):
            assert pivots[i] == _poly_det([row[:i + 1] for row in grid[:i + 1]])
            for j in range(i, n):
                bordered = [row[:i] + [row[j]] for row in grid[:i + 1]]
                assert work[i][j] == _poly_det(bordered), (k, n, i, j)


def test_minor_golden_kept_orders():
    n = golden_n()
    for rows, want in KEPT_ORDERS.items():
        k = len(rows)
        cols = tuple(range(4 - k + 1, 5))
        assert minor_order(n, rows, cols) == want, rows


def test_minor_empty_and_full():
    """The empty minor is 1 and a vanishing one has order infinity.  The
    full minor is det, here of an upper triangular matrix, its diagonal
    product, and of a singular one, zero."""
    n = golden_n()
    assert minor(n, (), ()) == ONE
    assert minor_order(n, (2,), (1,)) is INFINITY
    want = ONE
    for i in range(1, 5):
        want = want * n.entry(i, i)
    assert det(n) == want
    u = ONE + t(1)
    assert det(RMatrix([[ONE / u, c(2) / u], [c(3) / c(2), c(3)]])) == ZERO


def random_shifted_matrix(rng, r):
    """Entries c t^a / (t^s (1 + b t)): non-constant denominators, some with a
    power of t, so that row clearing shifts the minor orders."""
    rows = []
    for _ in range(r):
        row = []
        for _ in range(r):
            if rng.random() < 0.2:
                row.append(ZERO)
                continue
            e = c(rng.randint(-9, 9) or 1) * t(rng.randint(0, 4))
            den = t(rng.choice((0, 0, 1, 2))) * (ONE + c(rng.randint(-3, 3)) * t(1))
            row.append(e / den)
        rows.append(row)
    return RMatrix(rows)


def test_minor_order_table_matches_single_queries():
    rng = random.Random(5)
    for m in (golden_n(), random_ring_matrix(rng, 3, frac=True),
              random_full_rank(rng, 4), random_shifted_matrix(rng, 3)):
        table = minor_order_table(m)
        assert table[((), ())] == 0
        for k in range(0, m.r + 1):
            for rows in itertools.combinations(range(1, m.r + 1), k):
                for cols in itertools.combinations(range(1, m.r + 1), k):
                    assert table[(rows, cols)] == minor_order(m, rows, cols)


def comparable(rows, cols):
    return all(i <= j for i, j in zip(rows, cols))


def all_pairs(r):
    for k in range(r + 1):
        for rows in itertools.combinations(range(1, r + 1), k):
            for cols in itertools.combinations(range(1, r + 1), k):
                yield rows, cols


@pytest.mark.parametrize("r", range(1, 8))
def test_index_set_lattice_against_combinations(r):
    """``_lattice`` against the k-subsets from itertools and componentwise
    comparison: the sets in order, each set's position, up- and down-set,
    drops, up- and down-covers, the two table plans and the off-comparable
    pairs, and the order of the oracles' walk ``comparable_pairs``.  A cover
    is a comparable set whose sum differs by one; the covers, followed from
    S, reach exactly S's up- or down-set."""
    lattice = matrix_mod._lattice(r)
    sets = [tuple(itertools.combinations(range(1, r + 1), k)) for k in range(r + 1)]
    assert lattice.sets == tuple(sets)
    every = [s for ks in sets for s in ks]
    assert list(lattice.up) == list(lattice.down) == list(lattice.drops) \
        == list(lattice.index) == every
    for ks in sets:
        for s in ks:
            assert lattice.up[s] == tuple(h for h in ks if comparable(s, h)), s
            assert lattice.down[s] == tuple(h for h in ks if comparable(h, s)), s
            assert lattice.drops[s] == tuple(
                (j - 1, tuple(i for i in s if i != j)) for j in s), s
            i = lattice.index[s]
            assert ks[i] == s
            # by the position moved: up-covers fall, down-covers rise in order
            assert lattice.up_covers[len(s)][i] == tuple(
                lattice.index[h] for h in reversed(ks)
                if comparable(s, h) and sum(h) == sum(s) + 1), s
            assert lattice.down_covers[len(s)][i] == tuple(
                lattice.index[h] for h in ks
                if comparable(h, s) and sum(h) == sum(s) - 1), s
            for covers, closed in ((lattice.up_covers[len(s)], lattice.up[s]),
                                   (lattice.down_covers[len(s)], lattice.down[s])):
                seen, todo = {i}, [i]
                while todo:
                    for c in covers[todo.pop()]:
                        if c not in seen:
                            seen.add(c)
                            todo.append(c)
                assert sorted(seen) == [lattice.index[h] for h in closed], s
    assert lattice.off == tuple((i, j) for ks in sets[1:] for i in ks for j in ks
                                if not comparable(i, j))
    assert list(comparable_pairs(r)) == [
        (i, j) for ks in sets[1:] for i in ks for j in ks if comparable(i, j)]
    assert tuple(map(len, lattice.up_covers)) == tuple(map(len, lattice.down_covers)) \
        == tuple(map(len, sets))


@st.composite
def shifted_matrices(draw, triangular=False, max_r=4):
    """Entries c t^a / (t^s (1 + b t)); the first row always carries a
    power of t in its denominators, so row clearing shifts the orders."""
    r = draw(st.integers(1, max_r))
    rows = []
    for i in range(r):
        s = draw(st.integers(1 if i == 0 else 0, 2))
        row = []
        for j in range(r):
            if (triangular and j < i) or draw(st.integers(0, 4)) == 0:
                row.append(ZERO)
                continue
            e = c(draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1)))) \
                * t(draw(st.integers(0, 4)))
            den = t(s) * (ONE + c(draw(st.integers(-3, 3))) * t(1))
            row.append(e / den)
        rows.append(row)
    return RMatrix(rows)


ROW_DENOMINATORS = (ONE, c(3), ONE + t(1), c(2) - c(5) * t(1))


@st.composite
def cancelling_matrices(draw, max_r=4):
    """A + t B over the ring, A of rank one, each row over a denominator of
    ROW_DENOMINATORS: the lowest terms of every larger minor cancel, so its
    order depends on the exact coefficients, not on degrees alone."""
    r = draw(st.integers(1, max_r))
    small = st.integers(-3, 3)
    w = [draw(small) for _ in range(r)]
    rows = []
    for _ in range(r):
        a = draw(small)
        u = draw(st.sampled_from(ROW_DENOMINATORS))
        rows.append([(c(a * wj) + c(draw(small)) * t(1)) / u for wj in w])
    return RMatrix(rows)


def assert_agrees(table, m, keys):
    """The table has exactly the keys, each with minor_order's value."""
    assert table.keys() == set(keys)
    for rows, cols in keys:
        assert table[(rows, cols)] == minor_order(m, rows, cols), (rows, cols)


@settings(max_examples=100, deadline=None)
@given(st.one_of(shifted_matrices(), cancelling_matrices()), st.booleans())
def test_minor_order_table_agrees_with_minor_order(m, comparable_only):
    """On shifted_matrices, and on cancelling_matrices, where the lowest
    terms of a larger minor cancel and the table forms its exact
    polynomial."""
    table = minor_order_table(m, comparable_only=comparable_only)
    keys = [key for key in all_pairs(m.r)
            if not comparable_only or comparable(*key)]
    assert_agrees(table, m, keys)


@settings(max_examples=60, deadline=None)
@given(shifted_matrices(triangular=True))
def test_minor_order_table_agrees_on_triangular_input(m):
    assert m.is_upper_triangular()
    assert_agrees(minor_order_table(m), m, all_pairs(m.r))


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def test_comparable_only_table_has_catalan_many_keys():
    rng = random.Random(23)
    for r in range(1, 6):
        m = random_shifted_matrix(rng, r)
        full = minor_order_table(m)
        table = minor_order_table(m, comparable_only=True)
        assert len(table) == catalan(r + 1)
        assert all(comparable(*key) for key in table)
        assert all(table[key] == full[key] for key in table)


def test_triangular_table_is_full_with_infinity_off_the_comparable_set():
    rng = random.Random(29)
    for r in range(1, 6):
        m = RMatrix([[e if j >= i else ZERO for j, e in enumerate(row)]
                     for i, row in enumerate(random_ring_matrix(rng, r).entries)])
        table = minor_order_table(m)
        assert len(table) == comb(2 * r, r)
        assert sum(not comparable(*key) for key in table) == comb(2 * r, r) - catalan(r + 1)
        for key, v in table.items():
            if not comparable(*key):
                assert v is INFINITY, key
        # the guard reads the matrix: one entry below the diagonal and the
        # off-comparable minors are expanded again
        if r > 1:
            rows = [list(row) for row in m.entries]
            rows[r - 1][0] = ONE
            low = RMatrix(rows)
            assert minor_order_table(low)[((r,), (1,))] == 0


@pytest.mark.parametrize("shift", [None, 4])
def test_minor_order_table_sees_cancellation(shift):
    """Orders where the lowest terms cancel, pinned cases of the exact
    polynomial's fallback.  Random entries almost never cancel, so only
    these cases tell the signed expansion from a wrong sign pattern, such as
    a permanent's.  With ``shift`` every entry is multiplied by t^shift, so
    the lowest terms cancel above order 0 and a k-by-k minor's order moves
    by k * shift."""
    singular = RMatrix([[c(1), c(2), c(3)], [c(4), c(5), c(6)], [c(7), c(8), c(9)]])
    lowest = RMatrix([[ONE, ONE], [ONE, ONE + t(1)]])
    upper = RMatrix([[ONE, ONE, ONE], [ZERO, ONE, ONE], [ZERO, ZERO, t(1)]])
    for m, key, want in ((singular, ((1, 2, 3), (1, 2, 3)), INFINITY),
                         (singular, ((2, 3), (1, 3)), 0),
                         (lowest, ((1, 2), (1, 2)), 1),
                         (upper, ((1, 2), (2, 3)), INFINITY),
                         (upper, ((1, 3), (2, 3)), 1)):
        if shift is not None:
            m = RMatrix([[e * t(shift) for e in row] for row in m.entries])
            if want is not INFINITY:
                want += shift * len(key[0])
        assert minor_order_table(m)[key] == want == minor_order(m, *key), (key, shift)


def test_minor_fractional_entries_are_exact():
    m = RMatrix([[c(1) / c(3), c(1) / c(2)], [c(2) / c(7), c(5)]])
    want = c(1) / c(3) * c(5) - c(1) / c(2) * c(2) / c(7)
    assert det(m) == want


# ---------------------------------------------------------------------------
# invariant partitions


def test_invariant_partition_golden():
    assert invariant_partition(golden_m()) == MU
    assert invariant_partition(golden_n()) == NU
    assert invariant_partition(golden_mn()) == LAM


def test_oracle_agrees_on_golden():
    for m in (golden_m(), golden_n(), golden_mn()):
        assert invariant_partition_oracle(m) == invariant_partition(m)


def test_invariant_partition_errors():
    singular = RMatrix([[ONE, ONE], [ONE, ONE]])
    with pytest.raises(RankError):
        invariant_partition(singular)
    outside = RMatrix([[ONE / t(1), ZERO], [ZERO, ONE]])
    with pytest.raises(NotInRingError):
        invariant_partition(outside)


def test_invariant_partition_random_cross_validation():
    rng = random.Random(77)
    for _ in range(40):
        r = rng.randint(1, 4)
        m = random_full_rank(rng, r)
        assert invariant_partition(m) == invariant_partition_oracle(m)


@st.composite
def unit_denominator_matrices(draw, max_r=5):
    """Entries c t^a / u with u a unit (a constant or 1 + b t), orders 0..2
    so that invariant orders repeat; full rank."""
    r = draw(st.integers(1, max_r))
    rows = []
    for _ in range(r):
        row = []
        for _ in range(r):
            if draw(st.integers(0, 4)) == 0:
                row.append(ZERO)
                continue
            e = c(draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1)))) \
                * t(draw(st.integers(0, 2)))
            u = draw(st.sampled_from(ROW_DENOMINATORS))
            row.append(e / u)
        rows.append(row)
    m = RMatrix(rows)
    assume(not det(m).is_zero())
    return m


@settings(max_examples=80, deadline=None)
@given(unit_denominator_matrices())
def test_invariant_partition_agrees_with_oracle(m):
    assert invariant_partition(m) == invariant_partition_oracle(m)


@st.composite
def row_scaled(draw, matrices):
    """(m, factors, m with row i multiplied by factors[i]), the factors
    nonzero integers, at least one of them above 1 in size."""
    m = draw(matrices)
    factors = [draw(st.sampled_from((2, -3, 6, 10)))]
    factors += draw(st.lists(st.sampled_from((1, -1, 2, -3, 6, 10)),
                             min_size=m.r - 1, max_size=m.r - 1))
    factors = draw(st.permutations(factors))
    return m, factors, RMatrix([[e * f for e in row] for row, f in zip(m.entries, factors)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_minor_orders_do_not_depend_on_row_scale(data):
    """A constant row scale moves no minor order, so the tables and the
    invariant partition read the cleared rows undivided, though a row of
    shifted_matrices scaled by f clears to integer polynomials whose content
    f divides (their denominators have content 1)."""
    m, factors, scaled = data.draw(row_scaled(shifted_matrices()))
    for row, f in zip(scaled.entries, factors):
        nums, _ = _clear_row(row)
        assert gcd(*(v for p in nums for v in p.values())) % f == 0
    for m, scaled in ((m, scaled), data.draw(row_scaled(cancelling_matrices()))[::2]):
        for comparable_only in (False, True):
            assert minor_order_table(scaled, comparable_only=comparable_only) \
                == minor_order_table(m, comparable_only=comparable_only)
    for matrices in (unit_denominator_matrices(max_r=4), cancelling_matrices()):
        u, _, scaled = data.draw(row_scaled(matrices))
        if not det(u).is_zero():
            assert invariant_partition(scaled) == invariant_partition(u)


def test_invariant_partition_repeated_orders():
    rng = random.Random(19)
    for parts in ((2, 2, 1, 1, 0), (3, 3, 3), (1, 1, 1, 1, 1), (4, 2, 2, 0, 0)):
        r = len(parts)
        d = RMatrix.diagonal([t(k) for k in parts])
        # constant full-rank P and Q are invertible over the ring
        p, q = random_full_rank(rng, r, max_order=0), random_full_rank(rng, r, max_order=0)
        m = mat_mul(mat_mul(p, d), q)
        want = Partition(tuple(k for k in parts if k))
        assert invariant_partition(m) == invariant_partition_oracle(m) == want


def test_invariant_partition_divides_nothing(monkeypatch):
    """Neither Bareiss user of the minimal-order pivot divides in the field:
    invariant_partition, and smith_transforms, whose (P, Q, D) equal the
    field oracle's, computed before division is patched away.  Nor does a
    certificate's group element for a scrambled pair, whose P conjugates Q
    by D_mu, with entries below the diagonal moved by negative powers of t;
    it still replays the reduction."""
    rng = random.Random(71)
    fractions = mat_mul(mat_mul(random_full_rank(rng, 4, max_order=1, frac=True),
                                RMatrix.diagonal([t(2), t(1), t(1), ONE])),
                        random_full_rank(rng, 4, max_order=0))
    inputs = [golden_n(), golden_mn(), fractions]
    assert any(e.den != ONE.den for row in fractions.entries for e in row)
    want = [smith_by_field_elimination(m) for m in inputs]
    p, q, _ = want[2]
    pair = act(GroupElement(p, q, want[0][0]), MatrixPair(golden_m(), golden_n()))
    cert = to_mu_generic(pair, rng)
    assert any(not cert.q.entry(i, j).is_zero() and MU.part(i) < MU.part(j)
               for i in range(1, 5) for j in range(1, 5))

    def no_division(self, other):
        raise AssertionError("ring division in a matrix elimination")

    monkeypatch.setattr(RingElem, "__truediv__", no_division)
    assert invariant_partition(golden_mn()) == LAM
    assert invariant_partition(golden_n()) == NU
    got = [smith_transforms(m) for m in inputs]
    group = cert.group
    monkeypatch.undo()
    assert got == want
    assert act(group, pair) == cert.pair


# ---------------------------------------------------------------------------
# cleaning a vector by a unit


def cleaning_unit_by_fractions(elems):
    """Reference for ``_clean``'s unit, by the field route it replaced:
    multiply in each denominator left over (made monic) until none is left,
    take off the power of t, then scale by g_den / g_num for the rational
    content g_num / g_den of the numerators read over monic denominators."""
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
            g_num = gcd(g_num, f.numerator)
            g_den = g_den * f.denominator // gcd(g_den, f.denominator)
    if g_num == 0 or (g_num == 1 and g_den == 1):
        return u
    return u * RingElem.const(Fraction(g_den, g_num))


CLEAN_DENOMINATORS = (c(3), c(6), ONE + t(1), c(2) - c(3) * t(1), t(1), t(2),
                      t(1) + c(4) * t(2), (ONE + t(1)) * (ONE + t(1)))


@st.composite
def clean_vectors(draw):
    """Vectors of 1..5 entries: all zero, constants, polynomials, or
    polynomials over denominators of order 0 and of positive order (entries
    of negative order); coefficients of either sign, some entries zero."""
    kind = draw(st.sampled_from(("zero", "constant", "polynomial", "fraction")))
    top = 0 if kind == "constant" else 3
    terms = st.lists(st.tuples(st.integers(-6, 6), st.integers(0, top)),
                     min_size=1, max_size=3)
    out = []
    for _ in range(draw(st.integers(1, 5))):
        e = ZERO if kind == "zero" or draw(st.integers(0, 3)) == 0 \
            else RingElem.from_terms(draw(terms))
        if e and kind == "constant" and draw(st.booleans()):
            e = e / c(draw(st.sampled_from((2, 3, 4))))
        elif e and kind == "fraction":
            e = e / draw(st.sampled_from(CLEAN_DENOMINATORS))
        out.append(e)
    return out


@settings(max_examples=150, deadline=None)
@given(clean_vectors())
def test_clean_agrees_with_cleaning_unit(elems):
    u = cleaning_unit_by_fractions(elems)
    nums, den = _clear_row(elems)
    entries, w = _clean(nums, den)
    assert RingElem(den, w) == u
    assert entries == [e * u for e in elems] == [RingElem(n, w) for n in nums]


@pytest.mark.parametrize("nums, den", [
    ([{}, {}], {0: 1, 1: 2}),
    ([{0: 4}, {}, {0: -6}], {0: 10}),
    ([{0: 2, 1: 1}, {2: -3}], {2: 1}),
    ([{1: -2}, {0: 4, 2: -6}], {0: 3, 1: -1}),
    ([{0: -2, 1: -2}, {1: 4, 2: 4}], {0: 2, 1: -1, 2: -3}),
    ([{0: 3, 1: 3}, {1: -6}], {1: -2, 2: -2}),
], ids=["zero", "constant", "t-power", "negative-lead", "shared-factor",
        "negative-order"])
def test_clean_over_a_raw_denominator(nums, den):
    """Denominators as the triangularization passes them: unreduced, maybe
    with a negative leading coefficient or a factor t."""
    elems = [RingElem(n, den) for n in nums]
    u = cleaning_unit_by_fractions(elems)
    entries, w = _clean(nums, den)
    unit = RingElem(den, w)
    assert unit == u
    assert entries == [e * u for e in elems] == [RingElem(n, w) for n in nums]
    assert unit.valuation() == 0


# ---------------------------------------------------------------------------
# smith transforms


def smith_by_field_elimination(m):
    """Reference for ``smith_transforms``: the field elimination it
    replaced.  The first entry of least order in the trailing block is
    swapped to the pivot, the rows below are cleared by shears that divide
    by it, and the pivot's unit part and the rest of its row go onto Q as
    column operations that touch only the pivot row."""
    r = m.r
    if matrix_mod._is_exact_power_diagonal_decreasing(m):
        eye = RMatrix.identity(r)
        return eye, eye, m
    work = [list(row) for row in m.entries]
    p = [list(row) for row in RMatrix.identity(r).entries]
    q = [list(row) for row in RMatrix.identity(r).entries]
    for k in range(r):
        best = None
        for i in range(k, r):
            for j in range(k, r):
                e = work[i][j]
                if not e.is_zero() and (best is None or e.valuation() < best[0]):
                    best = (e.valuation(), i, j)
        if best is None:
            raise RankError("matrix is rank deficient")
        a_val, bi, bj = best
        work[k], work[bi] = work[bi], work[k]
        for row in work:
            row[k], row[bj] = row[bj], row[k]
        p[k], p[bi] = p[bi], p[k]
        q[k], q[bj] = q[bj], q[k]
        piv = work[k][k]
        t_a = RingElem.t_pow(a_val)
        p0 = piv / t_a  # the pivot's unit part
        for i in range(k + 1, r):
            e = work[i][k]
            if not e.is_zero():
                w = e / piv
                work[i] = [x - w * y for x, y in zip(work[i], work[k])]
                work[i][k] = ZERO
                p[i] = [x - w * y for x, y in zip(p[i], p[k])]
        if p0 != ONE:
            work[k][k] = t_a
            q[k] = [p0 * x for x in q[k]]
        for j in range(k + 1, r):
            e = work[k][j]
            if not e.is_zero():
                f = e / t_a
                work[k][j] = ZERO
                q[k] = [x + f * y for x, y in zip(q[k], q[j])]
    work = [row[::-1] for row in work[::-1]]
    return RMatrix(p[::-1]), RMatrix(q[::-1]), RMatrix(work)


@st.composite
def smith_inputs(draw):
    """(kind, m), r <= 5 over the ring: rows of polynomials; rows over
    order-0 denominators; a diagonal of tied orders between two constant
    unit matrices; an exact power diagonal, in decreasing order or not; or a
    singular matrix, one row a multiple of another or a zero column."""
    r = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("polynomial", "row_denominators", "tied_diagonal",
                                 "power_diagonal", "singular")))
    terms = st.lists(st.tuples(st.sampled_from((-3, -2, -1, 1, 2, 3)),
                               st.integers(0, 2)), min_size=1, max_size=3)
    rows = [[RingElem.from_terms(draw(terms)) for _ in range(r)] for _ in range(r)]
    if kind == "row_denominators":
        rows = [[e / d for e in row]
                for row, d in zip(rows, draw(st.lists(st.sampled_from(ROW_DENOMINATORS),
                                                      min_size=r, max_size=r)))]
    elif kind in ("tied_diagonal", "power_diagonal"):
        parts = draw(st.lists(st.integers(0, 2), min_size=r, max_size=r))
        if draw(st.booleans()):
            parts.sort(reverse=True)
        rows = RMatrix.diagonal([t(k) for k in parts]).entries
        if kind == "tied_diagonal":
            consts = st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r),
                              min_size=r, max_size=r)
            left, right = RMatrix(draw(consts)), RMatrix(draw(consts))
            assume(not det(left).is_zero() and not det(right).is_zero())
            rows = mat_mul(mat_mul(left, RMatrix(rows)), right).entries
    elif kind == "singular":
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        if i == j:  # a zero column
            rows = [[ZERO if k == i else e for k, e in enumerate(row)] for row in rows]
        else:  # row j a multiple of row i
            a = RingElem.from_terms(draw(terms))
            rows[j] = [a * e for e in rows[i]]
    return kind, RMatrix(rows)


@settings(max_examples=200, deadline=None)
@given(smith_inputs())
def test_smith_agrees_with_field_elimination(kind_m):
    kind, m = kind_m
    try:
        want = smith_by_field_elimination(m)
    except RankError:
        with pytest.raises(RankError):
            smith_transforms(m)
        return
    assert kind != "singular"
    assert smith_transforms(m) == want


def test_smith_contract_golden():
    p, q, d = smith_transforms(golden_n())
    assert mat_mul(p, golden_n()) == mat_mul(d, q)
    assert d == RMatrix.diagonal(d.entry(i, i) for i in range(1, 5))
    assert det(p).valuation() == 0 and det(q).valuation() == 0
    orders = [d.entry(i, i).valuation() for i in range(1, 5)]
    assert orders == [8, 5, 4, 2]


def test_smith_short_circuit_on_power_diagonal():
    m = golden_m()
    p, q, d = smith_transforms(m)
    assert d == m
    assert p == RMatrix.identity(4) and q == RMatrix.identity(4)


def test_exact_power_diagonal_short_cut_known_cases():
    """The Smith pass skips exactly the diagonals of non-increasing
    t-powers, ties included; the reference elimination above shares the
    predicate, so it is pinned here on its own."""
    short_cut = matrix_mod._is_exact_power_diagonal_decreasing
    for diagonal in ([t(3), t(1), t(1), ONE], [ONE], [t(2)]):
        m = RMatrix.diagonal(diagonal)
        assert short_cut(m) and matrix_mod._smith_grid(m) is None
    for diagonal in ([t(1), t(2)], [c(2) * t(1), ONE], [-t(1)], [t(1), ZERO],
                     [ZERO, ONE], [t(1), ONE + t(1)], [ONE / (ONE + t(1))]):
        assert not short_cut(RMatrix.diagonal(diagonal)), diagonal
    for rows in ([[t(2), t(1)], [ZERO, ONE]], [[t(1), ZERO], [t(3), ONE]]):
        assert not short_cut(RMatrix(rows)), rows


def test_smith_contract_random():
    rng = random.Random(21)
    for _ in range(25):
        r = rng.randint(1, 4)
        m = random_full_rank(rng, r)
        p, q, d = smith_transforms(m)
        assert mat_mul(p, m) == mat_mul(d, q)
        assert d == RMatrix.diagonal(d.entry(i, i) for i in range(1, r + 1))
        assert p.is_over_ring() and q.is_over_ring()
        assert det(p).valuation() == 0 and det(q).valuation() == 0
        orders = [d.entry(i, i).valuation() for i in range(1, r + 1)]
        assert orders == sorted(orders, reverse=True)
        assert Partition(tuple(orders)) == invariant_partition(m)


# ---------------------------------------------------------------------------
# inverse


def test_inverse_golden_and_random():
    rng = random.Random(33)
    for m in (golden_m(), golden_n(), random_full_rank(rng, 3, frac=True)):
        assert mat_mul(inverse(m), m) == RMatrix.identity(m.r)
        assert mat_mul(m, inverse(m)) == RMatrix.identity(m.r)
    with pytest.raises(RankError):
        inverse(RMatrix([[ONE, ONE], [ONE, ONE]]))


def test_times_inverse_is_product_with_inverse():
    rng = random.Random(35)
    mats = [golden_m(), golden_n()]
    mats += [random_full_rank(rng, r, frac=True) for r in range(1, 5)]
    for b in mats:
        for a in (b, b.transpose(), random_full_rank(rng, b.r, frac=True)):
            got = times_inverse(a, b)
            assert got == mat_mul(a, inverse(b))
            assert mat_mul(got, b) == a


def test_inverse_of_inverse_is_its_source():
    rng = random.Random(37)
    for m in (golden_n(), random_full_rank(rng, 3, frac=True)):
        inv = inverse(m)
        assert inverse(inv) is m
        assert inverse(inv) == m
        assert m._inverse_of is None  # the record points one way only
        a = random_full_rank(rng, m.r, frac=True)
        assert times_inverse(a, inv) == mat_mul(a, m)


def _no_determinant(*args):
    raise AssertionError("det called")


@pytest.mark.parametrize("rows", [
    # rank 1 with fraction entries, a row and three times it
    [[ONE / (ONE + t(1)), t(1) / (c(2) - t(1))],
     [c(3) / (ONE + t(1)), c(3) * t(1) / (c(2) - t(1))]],
    # over the ring with a vanishing residue determinant: the Bareiss route
    [[t(1), t(2)], [ONE, t(1)]],
    # an entry of negative order: the residue route is never asked
    [[ONE / t(1), ONE], [ONE, t(1)]],
])
def test_inverse_raises_rank_error_before_returning(monkeypatch, rows):
    """The entries of inverse(m) are formed on first read, but a singular m
    is refused by inverse itself, with det patched to raise."""
    monkeypatch.setattr(matrix_mod, "det", _no_determinant)
    with pytest.raises(RankError):
        inverse(RMatrix(rows))


def test_inverse_forms_its_entries_on_first_read(monkeypatch):
    """inverse runs no adjugate; the first read of the entries runs one, and
    later reads none."""
    calls = []
    real = matrix_mod.times_inverse

    def spy(a, b):
        calls.append(b)
        return real(a, b)

    monkeypatch.setattr(matrix_mod, "times_inverse", spy)
    m = random_full_rank(random.Random(39), 3, frac=True)
    inv = inverse(m)
    assert inv.r == 3 and calls == []
    assert mat_mul(inv, m) == RMatrix.identity(3)
    assert calls == [m]
    assert inv.entry(1, 1) == inv.entries[0][0]
    assert inverse(m).entries == inv.entries and calls == [m, m]
    with pytest.raises(AttributeError):
        inv.no_such_attribute


def test_times_inverse_rejects_singular_and_mismatched():
    singular = RMatrix([[ONE, ONE], [ONE, ONE]])
    with pytest.raises(RankError):
        times_inverse(RMatrix.identity(2), singular)
    with pytest.raises(InputError):
        times_inverse(RMatrix.identity(3), RMatrix.identity(2))
    with pytest.raises(InputError):
        times_inverse(RMatrix.identity(3), inverse(RMatrix.identity(2)))


# ---------------------------------------------------------------------------
# LU decomposition


def test_lu_golden():
    rng = random.Random(13)
    for _ in range(15):
        r = rng.randint(1, 4)
        m = random_ring_matrix(rng, r, frac=True)
        try:
            b, cmat = lu_decompose(m)
        except PrincipalMinorError:
            continue
        assert mat_mul(b, cmat) == m
        for i in range(1, r + 1):
            assert b.entry(i, i) == ONE
            for j in range(i + 1, r + 1):
                assert b.entry(i, j) == ZERO
        assert cmat.is_upper_triangular()


def test_lu_of_upper_triangular_is_trivial():
    n = golden_n()
    b, cmat = lu_decompose(n)
    assert b == RMatrix.identity(4)
    assert cmat == n


_A = ONE / (ONE + t(1))


@pytest.mark.parametrize("rows, k", [
    ([[ZERO, ONE], [ONE, ZERO]], 1),
    # rows 1 and 2 agree on the first two columns
    ([[t(1), ONE, ZERO], [t(1), ONE, t(1)], [ONE, ZERO, ONE]], 2),
    # row 3 is row 1 plus row 2 on the first three columns; det = -t/(1+t)
    ([[_A, ZERO, ONE, ZERO], [ZERO, t(1), ZERO, ZERO], [_A, t(1), ONE, ONE],
      [ZERO, ZERO, ONE, ZERO]], 3),
], ids=["k1", "k2", "k3-denominators"])
def test_lu_vanishing_principal_minor(rows, k):
    m = RMatrix(rows)
    assert not det(m).is_zero()
    with pytest.raises(PrincipalMinorError) as exc:
        lu_decompose(m)
    assert exc.value.k == k


# ---------------------------------------------------------------------------
# admissibility


def test_mu_admissible_examples():
    mu = Partition((3, 1))
    ok = RMatrix([[ONE, ONE], [t(2), ONE]])          # ord(q_21) = 2 >= mu_1 - mu_2
    assert is_mu_admissible(ok, mu)
    short = RMatrix([[ONE, ONE], [t(1), ONE]])       # ord 1 < 2
    assert not is_mu_admissible(short, mu)
    not_unit = RMatrix([[t(1), ZERO], [ZERO, ONE]])  # det not a unit
    assert not is_mu_admissible(not_unit, mu)
    outside = RMatrix([[ONE, ONE / t(1)], [ZERO, ONE]])
    assert not is_mu_admissible(outside, mu)
    assert is_mu_admissible(RMatrix.identity(2), mu)


def test_mu_admissible_conjugation_stays_in_ring():
    # the defining property: D_mu Q D_mu^-1 is over the ring with unit det
    rng = random.Random(55)
    mu = Partition((4, 2, 1))
    d = diag_from_partition(mu, 3)
    for _ in range(20):
        rows = []
        for i in range(1, 4):
            row = []
            for j in range(1, 4):
                if i == j:
                    row.append(c(rng.randint(1, 5)))
                elif i > j:
                    row.append(c(rng.randint(-3, 3)) * t(mu.part(j) - mu.part(i)))
                else:
                    row.append(c(rng.randint(-3, 3)) * t(rng.randint(0, 2)))
            rows.append(row)
        q = RMatrix(rows)
        if det(q).valuation() != 0:
            continue
        assert is_mu_admissible(q, mu)
        conj = mat_mul(mat_mul(d, q), inverse(d))
        assert conj.is_over_ring()
        assert det(conj).valuation() == 0


# ---------------------------------------------------------------------------
# unit determinants in the residue field


def _residue_test_matrix(rng, r, singular):
    """Over the ring: a chosen residue matrix (singular or not, rational
    entries) plus t times rational functions with unit denominators."""
    res = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
           for _ in range(r)]
    if singular:
        a, b = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2), 3)
        res[-1] = [a * x + b * y for x, y in zip(res[0], res[r - 2])]
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            tail = ZERO
            if rng.random() < 0.6:
                num = RingElem.from_terms([(rng.randint(-5, 5), k) for k in range(3)])
                den = RingElem.from_terms([(rng.choice((1, 2, -3, 5)), 0),
                                           (rng.randint(-4, 4), 1),
                                           (rng.randint(-2, 2), 2)])
                tail = t(1) * num / den
            row.append(RingElem.const(res[i][j]) + tail)
        rows.append(row)
    return RMatrix(rows)


def test_residue_unit_test_agrees_with_exact_determinant():
    rng = random.Random(2718)
    seen = []
    for k in range(80):
        r = 1 + k % 5
        m = _residue_test_matrix(rng, r, singular=(r > 1 and k % 3 == 0))
        assert m.is_over_ring()
        want = det(m).valuation() == 0
        assert has_unit_det(m) == want
        seen.append(want)
    assert 20 <= seen.count(False) <= 60
    for f in golden_factors():
        assert has_unit_det(f) == (det(f).valuation() == 0)
    assert not has_unit_det(RMatrix.diagonal([ONE, t(1), ONE]))
    assert not has_unit_det(RMatrix([[ZERO, ZERO], [ONE, t(2)]]))


_NEGATIVE_ORDER = [
    [[ONE / t(1)]],
    [[(ONE + t(1)) / t(1), ONE], [ZERO, ONE]],
    # a full-rank diagonal beside one entry over t (1 + t)
    [[t(2), ZERO, c(3) / (t(1) + t(2))], [ZERO, ONE, ZERO], [ZERO, ZERO, t(1)]],
]


@pytest.mark.parametrize("rows", _NEGATIVE_ORDER)
def test_has_unit_det_rejects_negative_order(rows):
    with pytest.raises(NotInRingError):
        has_unit_det(RMatrix(rows))


@pytest.mark.parametrize("rows", _NEGATIVE_ORDER)
def test_ring_only_kernels_reject_negative_order(rows):
    """invariant_partition and smith_transforms need a matrix over the ring
    and raise; is_mu_admissible answers no, for every mu that fits."""
    m = RMatrix(rows)
    with pytest.raises(NotInRingError):
        invariant_partition(m)
    with pytest.raises(NotInRingError):
        smith_transforms(m)
    for mu in ((), (1,), (2, 1)):
        assert not is_mu_admissible(m, Partition(mu[:m.r]))
