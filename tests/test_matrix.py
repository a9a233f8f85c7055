"""Exact matrix layer: minors, invariant partitions, Smith and LU transforms."""

import itertools
import random
from fractions import Fraction

import pytest

from lrpairs.errors import (InputError, NotInRingError, PrincipalMinorError,
                            RankError)
from lrpairs.matrix import (RMatrix, _poly_det, det, diag_from_partition,
                            has_unit_det, invariant_partition,
                            invariant_partition_oracle, inverse,
                            is_mu_admissible, lu_decompose, mat_mul, minor,
                            minor_order, minor_order_table, smith_transforms)
from lrpairs.ring import INFINITY, ONE, ZERO, RingElem
from lrpairs.tableaux import MAX_SIZE, Partition

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
    assert eye.is_diagonal() and eye.is_upper_triangular()
    assert eye.entry(1, 1) == ONE and eye.entry(1, 2) == ZERO
    d = diag_from_partition(MU, 4)
    assert d.entry(1, 1) == t(7) and d.entry(4, 4) == t(1)
    assert d.is_diagonal()
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
    assert n1 @ n2 @ n3 @ n4 == golden_n()


def test_transpose_and_predicates():
    n = golden_n()
    assert n.is_upper_triangular()
    assert not n.is_diagonal()
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


def test_minor_golden_kept_orders():
    n = golden_n()
    for rows, want in KEPT_ORDERS.items():
        k = len(rows)
        cols = tuple(range(4 - k + 1, 5))
        assert minor_order(n, rows, cols) == want, rows


def test_minor_empty_and_full():
    n = golden_n()
    assert minor(n, (), ()) == ONE
    assert minor(n, (1, 2, 3, 4), (1, 2, 3, 4)) == det(n)
    assert minor_order(n, (2,), (1,)) is INFINITY


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


def test_minor_order_table_cap_is_a_precision_cut():
    """Up to cap the capped table is exact; above it an entry is either
    exact or infinity."""
    rng = random.Random(17)
    shifted = 0
    for r in (1, 2, 3, 4):
        for _ in range(6):
            m = random_shifted_matrix(rng, r)
            shifted += any(not e.in_ring() for row in m.entries for e in row)
            exact = minor_order_table(m)
            for cap in (0, 1, 3, 6, 10):
                capped = minor_order_table(m, cap=cap)
                assert capped.keys() == exact.keys()
                for key, want in exact.items():
                    got = capped[key]
                    if want <= cap:
                        assert got == want, (key, cap)
                    else:
                        assert got is INFINITY or got == want, (key, cap)
    assert shifted > 10


def test_minor_fractional_entries_are_exact():
    m = RMatrix([[c(1) / c(3), c(1) / c(2)], [c(2) / c(7), c(5)]])
    want = c(1) / c(3) * c(5) - c(1) / c(2) * c(2) / c(7)
    assert minor(m, (1, 2), (1, 2)) == want


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


# ---------------------------------------------------------------------------
# smith transforms


def test_smith_contract_golden():
    p, q, d = smith_transforms(golden_n())
    assert mat_mul(p, golden_n()) == mat_mul(d, q)
    assert d.is_diagonal()
    assert det(p).is_unit() and det(q).is_unit()
    orders = [d.entry(i, i).valuation() for i in range(1, 5)]
    assert orders == [8, 5, 4, 2]


def test_smith_short_circuit_on_power_diagonal():
    m = golden_m()
    p, q, d = smith_transforms(m)
    assert d == m
    assert p == RMatrix.identity(4) and q == RMatrix.identity(4)


def test_smith_contract_random():
    rng = random.Random(21)
    for _ in range(25):
        r = rng.randint(1, 4)
        m = random_full_rank(rng, r)
        p, q, d = smith_transforms(m)
        assert mat_mul(p, m) == mat_mul(d, q)
        assert d.is_diagonal()
        assert p.is_over_ring() and q.is_over_ring()
        assert det(p).is_unit() and det(q).is_unit()
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


def test_lu_vanishing_principal_minor():
    m = RMatrix([[ZERO, ONE], [ONE, ZERO]])
    with pytest.raises(PrincipalMinorError) as exc:
        lu_decompose(m)
    assert exc.value.k == 1


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
        if not det(q).is_unit():
            continue
        assert is_mu_admissible(q, mu)
        conj = mat_mul(mat_mul(d, q), inverse(d))
        assert conj.is_over_ring()
        assert det(conj).is_unit()


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
        want = det(m).is_unit()
        assert has_unit_det(m) == want
        seen.append(want)
    assert 20 <= seen.count(False) <= 60
    for f in golden_factors():
        assert has_unit_det(f) == det(f).is_unit()
    assert not has_unit_det(RMatrix.diagonal([ONE, t(1), ONE]))
    assert not has_unit_det(RMatrix([[ZERO, ZERO], [ONE, t(2)]]))
