"""Partitions, fillings, LR conditions and the enumeration engine."""

import random

import pytest

from lrpairs.errors import InputError
from lrpairs.tableaux import (MAX_SIZE, Filling, Partition, as_partition,
                              count_fillings,
                              enumerate_fillings, iter_partitions,
                              random_partition,
                              sequence_from_filling, validate_filling)

from golden import FILLING, LAM, MU, NU


# ---------------------------------------------------------------------------
# partitions


def test_partition_normalization():
    assert Partition((3, 2, 0, 0)) == Partition((3, 2))
    assert Partition(()) == Partition((0, 0))
    assert Partition([5, 5, 1]).parts == (5, 5, 1)
    assert Partition((3, 2)) == (3, 2, 0)  # tuple comparison normalizes too


def test_partition_rejects_bad_shapes():
    with pytest.raises(InputError):
        Partition((1, 2))
    with pytest.raises(InputError):
        Partition((3, -1))


def test_partition_accessors():
    p = Partition((4, 2, 1))
    assert p.part(1) == 4 and p.part(3) == 1 and p.part(9) == 0
    with pytest.raises(IndexError):
        p.part(0)
    assert p.weight() == 7
    assert len(p) == 3
    assert p.padded(5) == (4, 2, 1, 0, 0)
    with pytest.raises(InputError):
        p.padded(2)
    assert p.sum_over((1, 3)) == 5
    assert p.sum_over(()) == 0
    assert Partition((4, 2)).contains(Partition((3, 1)))
    assert not Partition((3, 1)).contains(Partition((4,)))


def test_partition_json():
    p = Partition((6, 3, 1))
    assert p.to_json() == [6, 3, 1]
    assert Partition.from_json([6, 3, 1]) == p
    with pytest.raises(InputError):
        Partition.from_json("6,3,1")


def test_partition_json_rejects_booleans():
    with pytest.raises(InputError):
        Partition.from_json([True])
    with pytest.raises(InputError):
        Partition.from_json([2, False])


def test_as_partition():
    p = Partition((2, 1))
    assert as_partition(p) is p
    assert as_partition((2, 1)) == p


# ---------------------------------------------------------------------------
# fillings


def test_filling_shape_and_access():
    f = FILLING
    assert f.r == 4
    assert f.entry(1, 1) == 4
    assert f.entry(2, 2) == 4
    assert f.entry(2, 4) == 0
    assert f.entry(4, 4) == 2
    with pytest.raises(IndexError):
        f.entry(3, 2)
    with pytest.raises(InputError):
        Filling(((1,), (2, 2), (3,)))


def test_filling_row_sums_and_content():
    assert [FILLING.row_sum(j) for j in (1, 2, 3, 4)] == [4, 6, 5, 4]
    assert FILLING.content() == (8, 5, 4, 2)


def test_filling_json_roundtrip():
    assert Filling.from_json(FILLING.to_json()) == FILLING
    with pytest.raises(InputError):
        Filling.from_json({"r": 3, "rows": [[1]]})
    with pytest.raises(InputError):
        Filling.from_json({"rows": [["x"]]})


def test_filling_json_rejects_booleans():
    with pytest.raises(InputError):
        Filling.from_json({"rows": [[True]]})
    with pytest.raises(InputError):
        Filling.from_json({"r": True, "rows": [[1]]})


def test_filling_json_size_is_bounded():
    rows = [[0] * j for j in range(1, MAX_SIZE + 2)]
    with pytest.raises(InputError, match="exceeds the limit"):
        Filling.from_json({"rows": rows})
    assert Filling.from_json({"rows": rows[:MAX_SIZE]}).r == MAX_SIZE


# ---------------------------------------------------------------------------
# stage profiles


def test_sequence_stages_golden():
    seq = sequence_from_filling(FILLING, MU)
    assert seq.stage(0) == MU
    assert seq.stage(1) == (11, 6, 3, 2)
    assert seq.stage(2) == (11, 10, 4, 2)
    assert seq.stage(3) == (11, 10, 7, 3)
    assert seq.stage(4) == LAM
    assert [s for s in seq] == [seq.stage(i) for i in range(5)]


def test_sequence_rejects_non_partition_stage():
    with pytest.raises(InputError):
        sequence_from_filling(Filling(((0,), (0, 3))), Partition((1,)))


# ---------------------------------------------------------------------------
# the four LR conditions


def test_validate_golden_filling():
    rep = validate_filling(FILLING, MU, NU, LAM)
    assert rep.valid
    assert rep.failure_summary() == ""
    assert rep.to_json()["valid"] is True


def test_lr1_row_sum_violation():
    bad = Filling(((3,), (2, 4), (1, 1, 3), (1, 0, 1, 2)))
    rep = validate_filling(bad, MU, NU, LAM)
    assert not rep.valid
    assert not rep.lr1.ok
    assert rep.lr1.first_violation == ("row", 1)
    assert "lr1" in rep.failure_summary()


def test_lr2_negativity_violation():
    bad = Filling(((4,), (2, 4), (1, 1, 3), (1, -1, 2, 2)))
    rep = validate_filling(bad, MU, NU, LAM)
    assert not rep.lr2.ok
    assert rep.lr2.first_violation == (2, 4)


def test_lr3_column_strictness_violation():
    bad = Filling(((4,), (2, 4), (3, 1, 1), (1, 0, 1, 2)))
    rep = validate_filling(bad, MU, NU, LAM)
    assert not rep.lr3.ok
    assert rep.lr3.first_violation == (1, 3)


def test_lr4_word_condition_violation():
    bad = Filling(((4,), (1, 5), (1, 1, 3), (1, 0, 1, 2)))
    rep = validate_filling(bad, MU, NU, LAM)
    assert not rep.lr4.ok
    assert rep.lr4.first_violation == (1, 1)


def test_validate_shape_errors():
    with pytest.raises(InputError):
        validate_filling(FILLING, MU, NU, Partition((5, 4, 3, 2, 1)))
    with pytest.raises(InputError):
        validate_filling(Filling(((1,),)), Partition((1, 1)), Partition((1,)),
                         Partition((1,)))


# ---------------------------------------------------------------------------
# enumeration and counting


def test_enumeration_golden_triple():
    fillings = enumerate_fillings(MU, NU, LAM)
    assert FILLING in fillings
    assert len(fillings) == 7
    assert len(set(fillings)) == 7
    for f in fillings:
        assert validate_filling(f, MU, NU, LAM).valid


def test_count_equals_enumeration_length():
    assert count_fillings(MU, NU, LAM) == 7
    assert count_fillings(NU, MU, LAM) == 7


def test_count_weight_mismatch_is_zero():
    assert count_fillings((2,), (1,), (2, 1, 1)) == 0
    assert count_fillings((3,), (1,), (2, 1)) == 0  # mu does not fit in lam


def test_count_trivial_cases():
    assert count_fillings((), (), ()) == 1
    assert count_fillings((2, 1), (), (2, 1)) == 1
    assert count_fillings((), (3, 2), (3, 2)) == 1


def test_count_symmetry_random_triples():
    rng = random.Random(99)
    seen_nonzero = 0
    for _ in range(20):
        mu = random_partition(rng, 3, 4)
        nu = random_partition(rng, 3, 4)
        w = mu.weight() + nu.weight()
        lams = [p for p in iter_partitions(w, 3, w)] or [Partition(())]
        lam = rng.choice(lams)
        a = count_fillings(mu, nu, lam)
        b = count_fillings(nu, mu, lam)
        assert a == b, (mu, nu, lam)
        seen_nonzero += a > 0
    assert seen_nonzero > 0


# ---------------------------------------------------------------------------
# helpers


def test_iter_partitions():
    assert list(iter_partitions(6, 3, 4)) == [
        Partition((4, 2)), Partition((4, 1, 1)), Partition((3, 3)),
        Partition((3, 2, 1)), Partition((2, 2, 2)),
    ]
    assert list(iter_partitions(0, 2, 5)) == [Partition(())]
    assert list(iter_partitions(5, 1, 4)) == []


def test_random_partition_bounds_and_determinism():
    rng = random.Random(4)
    draws = [random_partition(rng, 4, 6) for _ in range(50)]
    for p in draws:
        assert len(p) <= 4
        assert all(0 < part <= 6 for part in p.parts)
    rng2 = random.Random(4)
    assert [random_partition(rng2, 4, 6) for _ in range(50)] == draws

