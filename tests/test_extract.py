"""Filling extraction from mu-generic matrices via right-justified minors."""

import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from lrpairs.errors import GenericityError, InputError, RankError
from lrpairs.extract import (_counterexample_matrices, counterexample_demo,
                             extract_filling, extract_from_pair)
from lrpairs.generic import GroupElement, MatrixPair, act, verify_mu_generic
from lrpairs.matrix import RMatrix, diag_from_partition, mat_mul, minor_order_table
from lrpairs.realize import random_filling, realize
from lrpairs.ring import ONE, ZERO, RingElem
from lrpairs.tableaux import Filling, Partition, sequence_from_filling

from checkoracle import corner_invariant_check, minor_order, row_sum_identities
from golden import FILLING, KEPT_ORDERS, LAM, MU, NU, c, golden_m, golden_n, t
from test_generic import _staircase_pair, random_group_element


def golden_pair():
    return MatrixPair(golden_m(), golden_n())


# ---------------------------------------------------------------------------
# minor-order queries


def _right_cols(n, rows):
    return tuple(range(n.r - len(rows) + 1, n.r + 1))


def test_kept_rows_orders_golden():
    n = golden_n()
    table = minor_order_table(n)
    for rows, want in KEPT_ORDERS.items():
        cols = _right_cols(n, rows)
        assert table[(rows, cols)] == want, f"rows {rows}"
        assert minor_order(n, rows, cols) == want, f"rows {rows}"


def test_kept_rows_single_row_reads_the_last_column():
    n = golden_n()
    table = minor_order_table(n)
    assert table[((4,), (4,))] == 4
    assert table[((1,), (4,))] == 2


# ---------------------------------------------------------------------------
# extraction on the worked example


def test_extract_filling_golden():
    assert extract_filling(golden_n(), MU) == FILLING


def test_extract_filling_golden_sum_identities():
    f = extract_filling(golden_n(), MU)
    assert f.entry(1, 1) == 4
    assert f.entry(1, 2) == 2
    assert f.entry(1, 3) == 1
    assert f.entry(1, 4) == 1
    assert f.entry(1, 2) + f.entry(2, 2) == 6
    assert f.entry(1, 3) + f.entry(2, 3) == 2
    assert f.entry(1, 4) + f.entry(2, 4) == 1
    assert f.entry(1, 3) + f.entry(2, 3) + f.entry(3, 3) == 5
    assert f.entry(1, 4) + f.entry(2, 4) + f.entry(3, 4) == 2
    assert sum(f.entry(i, 4) for i in range(1, 5)) == 4


def test_extract_filling_single_entry():
    n = RMatrix([[t(3)]])
    assert extract_filling(n, Partition(())) == Filling(((3,),))


def test_extract_filling_rejects_vanishing_minor():
    # zeroing the corner entry kills the rows-(4) right-justified minor
    rows = [list(row) for row in golden_n().entries]
    rows[3][3] = ZERO
    with pytest.raises(GenericityError) as exc:
        extract_filling(RMatrix(rows), MU)
    assert "vanishes" in str(exc.value)


def test_extract_filling_rejects_non_lr_array():
    # all queried minors are finite here, but the second differences put a
    # box labeled 2 before any 1 appears, which no LR filling allows
    n = RMatrix([[ONE, ONE], [ZERO, t(1)]])
    with pytest.raises(GenericityError):
        extract_filling(n, Partition(()))


def test_extract_filling_rejects_mu_longer_than_n():
    """A mu with more parts than N has rows is the caller's input error, not
    the resample signal GenericityError."""
    mu, n, _ = _counterexample_matrices()
    with pytest.raises(InputError, match=r"partition \(6, 3, 1, 1\) has more than 3 parts"):
        extract_filling(n, Partition(mu.parts + (1,)))


def test_diagonal_matrix_is_not_mu_generic():
    # right-justified minors that mix a top row into later columns vanish on
    # a diagonal matrix, so it fails the gap inequalities and extraction
    # refuses it; the pair route below recovers the diagonal filling instead
    d = diag_from_partition(Partition((5, 3, 2)), 3)
    assert not verify_mu_generic(d, Partition(())).ok
    with pytest.raises(GenericityError):
        extract_filling(d, Partition(()))


def test_extract_from_diagonal_pair():
    nu = Partition((5, 3, 2))
    pair = MatrixPair(RMatrix.identity(3), diag_from_partition(nu, 3))
    res = extract_from_pair(pair, random.Random(3))
    assert res.filling == Filling(((5,), (0, 3), (0, 0, 2)))
    assert res.mu == Partition(())
    assert res.nu == nu and res.lam == nu


# ---------------------------------------------------------------------------
# row-sum identities, which extraction proves rather than checks


def row_sum_check(filling, n):
    return row_sum_identities(filling, minor_order_table(n))


def test_row_sum_check_golden():
    report = row_sum_check(FILLING, golden_n())
    assert report.ok
    # the first-row instance spelled out: k_11+k_12+k_13+k_14 = 19 - 11 = 8
    assert sum(FILLING.entry(1, b) for b in range(1, 5)) == 8 == NU.part(1)


def test_row_sum_check_trivial_size_one():
    assert row_sum_check(Filling(((2,),)), RMatrix([[t(2)]])).ok


def test_row_sum_check_flags_wrong_filling():
    wrong = Filling(((4,), (3, 3), (1, 1, 3), (1, 0, 1, 2)))
    report = row_sum_check(wrong, golden_n())
    assert not report.ok
    assert {c.name for c in report.failures()} <= {
        "block_sum_identity", "row_prefix_identity"}


# ---------------------------------------------------------------------------
# extraction from pairs


def test_extract_from_pair_golden():
    res = extract_from_pair(golden_pair(), random.Random(5))
    assert res.filling == FILLING
    assert (res.mu, res.nu, res.lam) == (MU, NU, LAM)
    cert = res.certificate
    assert cert.report.ok
    assert verify_mu_generic(cert.n_star, MU, table=cert.minor_orders).ok
    assert corner_invariant_check(cert.n_star, MU).ok


def test_extract_from_pair_roundtrips_random_fillings():
    rng = random.Random(77)
    for _ in range(6):
        f, mu, nu, lam = random_filling(rng)
        res = extract_from_pair(realize(f, mu).pair(), rng)
        assert res.filling == f
        assert res.nu == nu and res.lam == lam


def test_extract_from_pair_reads_nu_and_lam_off_the_certificate():
    """What ``_read_filling`` proves from the certificate's corner checks:
    the row-sum identities hold on its table, and the filling's content and
    shape are its nu and lam.  On the golden pair, the staircase at
    r = 3..6 and 40 random fillings."""
    rng = random.Random(24)
    pairs = [golden_pair()] + [_staircase_pair(r) for r in range(3, 7)]
    pairs += [realize(f, mu).pair()
              for f, mu, _, _ in (random_filling(rng) for _ in range(40))]
    for pair in pairs:
        res = extract_from_pair(pair, rng)
        cert = res.certificate
        assert row_sum_identities(res.filling, cert.minor_orders).ok
        assert Partition(res.filling.content()) == cert.nu
        assert sequence_from_filling(res.filling, cert.mu)[cert.n_star.r] == cert.lam


def test_extract_from_pair_is_orbit_invariant():
    rng = random.Random(13)
    f, mu, nu, lam = random_filling(rng, r_max=3, part_max=4)
    pair = realize(f, mu).pair()
    r = pair.r
    lo = RMatrix([[c(1) if i == j else (c(rng.randint(-2, 2)) * t(1) if i > j else ZERO)
                   for j in range(r)] for i in range(r)])
    up = RMatrix([[c(1) if i == j else (c(rng.randint(-2, 2)) if i < j else ZERO)
                   for j in range(r)] for i in range(r)])
    g = GroupElement(mat_mul(lo, up), mat_mul(up, lo), mat_mul(lo, up))
    moved = act(g, pair)
    res = extract_from_pair(moved, random.Random(21))
    assert res.filling == f
    assert (res.mu, res.nu, res.lam) == (mu, nu, lam)


# ---------------------------------------------------------------------------
# the shared-filling, distinct-orbit pairs


def test_counterexample_fillings_agree():
    doc = counterexample_demo()
    assert doc["fillings_equal"] is True
    assert doc["filling"] == {"r": 3, "rows": [[8], [2, 7], [1, 2, 4]]}
    assert doc["filling"] == doc["filling_prime"]


def test_counterexample_both_matrices_mu_generic():
    doc = counterexample_demo()
    assert doc["mu_generic_reports"]["n"]["ok"] is True
    assert doc["mu_generic_reports"]["n_prime"]["ok"] is True


def test_counterexample_invariants_match():
    doc = counterexample_demo()
    assert doc["invariants_equal"] is True
    assert doc["mu"] == [6, 3, 1]
    assert doc["nu"] == [11, 9, 4]
    assert doc["lambda"] == [14, 12, 8]


def test_counterexample_residue_system_only_trivial():
    doc = counterexample_demo()
    assert doc["residue_system"] == [[1, -1, 0], [1, -2, 1], [0, -1, 2]]
    assert doc["residue_determinant"] == "-1"
    assert doc["only_trivial_solution"] is True
    assert doc["pairs_equivalent"] is False


def test_counterexample_is_deterministic():
    assert counterexample_demo() == counterexample_demo()


# ---------------------------------------------------------------------------
# pairs that realize never produces


def _terms(rng):
    """0 with probability 0.4, otherwise one or two terms c t^d with
    0 < |c| <= 3 and d <= 4."""
    if rng.random() < 0.4:
        return ZERO
    return RingElem.from_terms([(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(0, 4))
                                for _ in range(rng.randint(1, 2))])


@st.composite
def unrealized_pairs(draw):
    """(D_mu, N) for r in {2, 3, 4}, mu with parts at most 3 and N with
    sparse entries of one or two terms, scrambled by a product of unit
    triangular factors as in acceptance criterion 3; a pair of rank below
    r is drawn again where it is reduced."""
    r = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    mu = Partition(tuple(sorted((rng.randint(0, 3) for _ in range(r)), reverse=True)))
    n = RMatrix([[_terms(rng) for _ in range(r)] for _ in range(r)])
    return act(random_group_element(rng, r), MatrixPair(diag_from_partition(mu, r), n)), rng


@settings(max_examples=35, deadline=None)
@given(unrealized_pairs())
def test_orbit_invariants_on_pairs_realize_never_builds(drawn):
    """Filling, mu, nu and lambda are orbit invariants of every full-rank
    pair, not only of the one orbit per filling that ``realize`` builds,
    and the certificate's group element replays the reduction.  So are
    those of the transposed pair (N^T, M^T), whose orbit holds the
    transposed pairs of the whole orbit, with nu and mu swapped."""
    pair, rng = drawn
    try:
        before = extract_from_pair(pair, rng)
    except RankError:
        reject()
    assert act(before.certificate.group, pair) == before.certificate.pair
    moved = act(random_group_element(rng, pair.r), pair)
    after = extract_from_pair(moved, rng)
    assert after[:4] == before[:4]
    dual_before, dual_after = (
        extract_from_pair(MatrixPair(p.second.transpose(), p.first.transpose()), rng)
        for p in (pair, moved))
    assert dual_before[1:4] == (before.nu, before.mu, before.lam)
    assert dual_after[:4] == dual_before[:4]


def test_one_filling_two_orbits_told_apart_by_the_transposed_pair():
    """M = diag(t^2, t, 1) with N_a and N_b: both pairs have mu = nu = (2, 1),
    lambda = (3, 2, 1) and one filling, but their transposed pairs
    (N^T, M^T), orbit invariants of the pairs too, extract two fillings, so
    the pairs lie in different orbits."""
    m = diag_from_partition(Partition((2, 1)), 3)
    n_a = RMatrix([[ZERO, c(2) * t(1), ZERO],
                   [-c(2) * t(1), ZERO, c(3)],
                   [c(3) * t(2), c(2) * t(4) + c(2) * t(3), ZERO]])
    n_b = RMatrix([[ZERO, c(3), t(2)],
                   [c(2) * t(2), t(3), c(2) * t(4) + c(3) * t(1)],
                   [c(2) * t(2), -t(1), ZERO]])
    for seed in range(3):
        for n, dual in ((n_a, [[1], [1, 0], [0, 1, 0]]), (n_b, [[1], [0, 1], [1, 0, 0]])):
            res = extract_from_pair(MatrixPair(m, n), random.Random(seed))
            assert res.filling == Filling([[1], [0, 1], [1, 0, 0]])
            assert (res.mu, res.nu, res.lam) == ((2, 1), (2, 1), (3, 2, 1))
            res_t = extract_from_pair(MatrixPair(n.transpose(), m.transpose()),
                                      random.Random(seed))
            assert res_t.filling == Filling(dual)
            assert (res_t.mu, res_t.nu, res_t.lam) == ((2, 1), (2, 1), (3, 2, 1))
