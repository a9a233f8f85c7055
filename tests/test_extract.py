"""Filling extraction from mu-generic matrices via right-justified minors."""

import random

import pytest

from lrpairs.errors import GenericityError
from lrpairs.extract import counterexample_demo, extract_filling, extract_from_pair
from lrpairs.generic import GroupElement, MatrixPair, act, verify_mu_generic
from lrpairs.matrix import RMatrix, diag_from_partition, mat_mul, minor_order_table
from lrpairs.realize import random_filling, realize
from lrpairs.ring import ONE, ZERO
from lrpairs.tableaux import Filling, Partition, sequence_from_filling

from checkoracle import corner_invariant_check, minor_order, row_sum_identities
from golden import FILLING, KEPT_ORDERS, LAM, MU, NU, c, golden_m, golden_n, t
from test_generic import _staircase_pair


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
