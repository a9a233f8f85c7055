"""Factored realizations: fillings to matrix pairs with prescribed invariants."""

import hashlib
import importlib
import json
import random
from functools import reduce

import pytest

from lrpairs.errors import InputError, VerificationError
from lrpairs.matrix import RMatrix, invariant_partition, mat_mul
from lrpairs.realize import build_factor, random_filling, realize
from lrpairs.ring import ONE, ZERO
from lrpairs.tableaux import Filling, Partition, validate_filling

from checkoracle import random_filling_oracle
from golden import (FILLING, LAM, MU, NU, golden_factors, golden_m, golden_mn,
                    golden_n, t)


def test_build_factor_golden():
    want = golden_factors()
    for i in (1, 2, 3, 4):
        assert build_factor(FILLING, i, 4) == want[i - 1], f"factor {i}"


def test_realize_golden_matrices():
    real = realize(FILLING, MU)
    assert real.m == golden_m()
    assert real.factors == golden_factors()
    assert real.n == golden_n()
    assert mat_mul(real.m, real.n) == golden_mn()


def test_realize_golden_invariants():
    real = realize(FILLING, MU)
    assert real.mu == MU and real.nu == NU and real.lam == LAM
    assert real.stages[0] == MU
    assert real.stages[1] == Partition((11, 6, 3, 2))
    assert real.stages[4] == LAM
    assert invariant_partition(real.n) == NU
    assert invariant_partition(mat_mul(real.m, real.n)) == LAM


def test_realize_pair_and_json():
    real = realize(FILLING, MU)
    pair = real.pair()
    assert pair.first == real.m and pair.second == real.n
    doc = real.to_json()
    assert doc["mu"] == [7, 4, 2, 1]
    assert doc["lambda"] == [11, 10, 7, 5]
    assert RMatrix.from_json(doc["N"]) == real.n
    assert [RMatrix.from_json(f) for f in doc["factors"]] == list(real.factors)


def test_zero_filling_gives_unit_bidiagonal():
    f = Filling(((0,), (0, 0), (0, 0, 0)))
    real = realize(f, Partition((2, 1)))
    for i, factor in enumerate(real.factors, start=1):
        for a in range(1, 4):
            assert factor.entry(a, a) == ONE
            for b in range(a + 1, 4):
                if b == a + 1 and a >= i:
                    assert factor.entry(a, b) == ONE
                else:
                    assert factor.entry(a, b) == ZERO
    assert invariant_partition(real.n) == Partition(())
    assert real.lam == real.mu


def test_realize_single_box():
    real = realize(Filling(((1,),)), Partition(()))
    assert real.n == RMatrix([[t(1)]])
    assert real.lam == Partition((1,))


def test_realize_rejects_non_partition_stages():
    with pytest.raises(InputError) as exc:
        realize(Filling(((1,), (1, 1))), Partition((1, 1)))
    assert "weakly decreasing" in str(exc.value)


def test_realize_rejects_lr_violation():
    # stages are genuine partitions here, but the word condition fails
    bad = Filling(((4,), (1, 5), (1, 1, 3), (1, 0, 1, 2)))
    with pytest.raises(InputError) as exc:
        realize(bad, MU)
    assert "lr4" in str(exc.value)


def test_realize_rejects_oversized_mu():
    with pytest.raises(InputError, match=r"partition \(2, 1\) has more than 1 parts"):
        realize(Filling(((1,),)), Partition((2, 1)))


def test_realize_reports_the_content_before_the_length_of_mu():
    """A filling whose content is no partition, over a mu longer than its
    rows, fails the content check first: the length check is
    ``sequence_from_filling``'s, which runs after it."""
    with pytest.raises(InputError, match="filling content is not a partition"):
        realize(Filling(((0,), (0, 1))), Partition((1, 1, 1)))


def test_realize_rejects_empty_filling():
    with pytest.raises(InputError):
        realize(Filling(()), Partition(()))


def test_random_filling_deterministic_and_valid():
    rng = random.Random(123)
    draws = [random_filling(rng) for _ in range(30)]
    rng2 = random.Random(123)
    again = [random_filling(rng2) for _ in range(30)]
    assert [d[0] for d in draws] == [d[0] for d in again]
    for f, mu, nu, lam in draws:
        assert f.r <= 4
        assert all(p <= 6 for p in mu.parts)
        assert all(p <= 6 for p in nu.parts)
        assert not validate_filling(f, mu, nu, lam)
        assert lam.weight() == mu.weight() + nu.weight()


# sha256 of the first 100 draws, pinned when the candidate shapes became one
# pruned walk: a draw depends on the order of the candidate list and of the
# fillings of each candidate, so these catch a change in either.
PINNED_DRAWS = {
    (1, 4, 6): "244809206be458bb30285a34f55f12e55fd309b42d9c831ff0d657e21a96793a",
    (1, 3, 2): "24dff2387c292d6b0710ba0bd5b669ca3c1daa3cef985f456648300ded357ac8",
    (1, 3, 4): "81c4221e4b302ec394ea963b98ece07eaac7100ada6fb9eac5372d34bef3aa26",
    (1, 6, 7): "3f9c25f230cdcfaba15e07bfe369ecab08a151bc7bef44dad8fefa6006969954",
    (7919, 4, 6): "0062eb51b34b8c8fcaab4db77e2080cdf06e7975862639bba544d7e6345a8c82",
    (7919, 3, 2): "c423f037c0116b0aa0e73421225c829c102677f7b860f9fa44b1257ec2321447",
    (7919, 3, 4): "a786471e747a50b7551985731807d265b67af81efdf784ec975fb268e8b9bde2",
    (7919, 6, 7): "cd225a334f875bc643ff1c7c343f72c71f2fe9cfcec50474bacc9efbe704cd21",
}


@pytest.mark.parametrize("seed,r_max,part_max", sorted(PINNED_DRAWS))
def test_random_filling_pinned_draws(seed, r_max, part_max):
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(100):
        f, mu, nu, lam = random_filling(rng, r_max, part_max)
        h.update(repr((f.rows, mu.parts, nu.parts, lam.parts)).encode())
    assert h.hexdigest() == PINNED_DRAWS[seed, r_max, part_max]


@pytest.mark.parametrize("r_max,part_max", [(1, 3), (2, 2), (2, 6), (4, 6), (6, 4), (6, 6)])
def test_random_filling_matches_the_partition_list_sampler(r_max, part_max):
    """Draw by draw the tuple walk with its skipped walks gives the list
    sampler's draw, and leaves the rng in the same state."""
    for seed in (1, 2, 7919):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(40):
            f, mu, nu, lam = random_filling(rng, r_max, part_max)
            want = random_filling_oracle(ref, r_max, part_max)
            assert (f, mu, nu, lam) == want
            assert all(type(p) is int for p in lam)
            assert rng.getstate() == ref.getstate()


def test_random_filling_respects_bounds():
    rng = random.Random(9)
    for _ in range(20):
        f, mu, nu, lam = random_filling(rng, r_max=3, part_max=2)
        assert f.r <= 3
        assert all(p <= 2 for p in mu.parts)
        assert all(p <= 2 for p in nu.parts)


# sha256 of the realizations below with at least r_max - 1 rows, pinned
# while N was still formed as the product of its factors
LARGER_DRAWS_SHA256 = "e63ee8bbf7d5a776f75ba803c44a8872fbdf2fd9ce2642be0b5b0c0d81f5bf05"


def test_random_filling_realizes_cleanly():
    rng = random.Random(31)
    for _ in range(10):
        f, mu, nu, lam = random_filling(rng)
        real = realize(f, mu)
        assert real.nu == nu and real.lam == lam
    # N is the product of its factors, and M N has type lam, at sizes the
    # golden filling does not reach
    rng = random.Random(32)
    h = hashlib.sha256()
    for r_max, part_max in ((4, 6), (6, 4), (8, 3)):
        kept = 0
        while kept < 3:
            f, mu, nu, lam = random_filling(rng, r_max, part_max)
            if f.r < r_max - 1:
                continue
            kept += 1
            real = realize(f, mu)
            product = reduce(mat_mul, real.factors)
            assert product == real.n
            # term for term in the product's order too
            assert ([[list(e.num) for e in row] for row in real.n.entries]
                    == [[list(e.num) for e in row] for row in product.entries])
            assert invariant_partition(mat_mul(real.m, real.n)) == lam
            h.update(json.dumps(real.to_json(), sort_keys=True).encode())
    assert h.hexdigest() == LARGER_DRAWS_SHA256


def test_realize_stage_checks_fail_loudly(monkeypatch):
    """A wrong partition from one stage check, the N check of stage 2 or the
    M check of stage 3, or from the check of M itself, raises
    VerificationError naming that check."""
    # lrpairs.realize is the function; the module is read by its full name
    realize_module = importlib.import_module("lrpairs.realize")

    def wrong_on(call, real_check):
        calls = []

        def check(arg):
            calls.append(arg)
            got = real_check(arg)
            return Partition((got.part(1) + 1,) + got.parts[1:]) if len(calls) == call else got
        return check

    # the stage checks run N, M N for stage 1, then stage 2, ...
    grid_partition = realize_module._grid_partition
    for call, message in ((3, "partial product 2: invariant partition"),
                          (6, "partial product 3 with M: invariant partition")):
        monkeypatch.setattr(realize_module, "_grid_partition", wrong_on(call, grid_partition))
        with pytest.raises(VerificationError, match=message):
            realize(FILLING, MU)
    monkeypatch.setattr(realize_module, "_grid_partition", grid_partition)
    monkeypatch.setattr(realize_module, "invariant_partition",
                        wrong_on(1, realize_module.invariant_partition))
    with pytest.raises(VerificationError, match="diagonal first component"):
        realize(FILLING, MU)
