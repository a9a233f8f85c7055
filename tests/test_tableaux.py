"""Partitions, fillings, LR conditions and the enumeration engine."""

import json
import random
import sys
from itertools import accumulate, combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from lrpairs import tableaux
from lrpairs.cli import main
from lrpairs.errors import InputError
from lrpairs.tableaux import (MAX_SIZE, Filling, Partition, as_partition,
                              count_fillings, enumerate_fillings,
                              random_partition, sequence_from_filling,
                              validate_filling)

from checkoracle import iter_partitions
from golden import FILLING, LAM, MU, NU


# ---------------------------------------------------------------------------
# partitions


def test_partition_normalization():
    assert Partition((3, 2, 0, 0)) == Partition((3, 2))
    assert Partition(()) == Partition((0, 0))
    assert Partition([5, 5, 1]).parts == (5, 5, 1)
    assert Partition((3, 2)) == Partition([3, 2, 0])  # a list normalizes too


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


def test_partition_equals_only_partitions():
    """A partition equals no tuple or list, so equal objects hash alike and
    a padded tuple finds no partition in a set or dict."""
    assert Partition((2, 1)) != (2, 1, 0) and Partition((2, 1)) != (2, 1)
    assert Partition(()) != [] and Partition((2,)) != [2.5]
    assert (2, 1, 0) not in {Partition((2, 1))}
    assert hash(Partition((2, 1, 0))) == hash(Partition([2, 1]))
    assert {Partition((2, 1)): 1}[Partition((2, 1, 0, 0))] == 1


@pytest.mark.parametrize("parts", [[2.7, 1.2], [2.0], ["2"], [True], [3, False], [None]])
def test_partition_parts_must_be_ints(parts):
    with pytest.raises(InputError, match="must be integers"):
        Partition(parts)


@pytest.mark.parametrize("rows", [[[1.9]], [[1], [0, 2.0]], [["1"]], [[True]], [[0], [1, None]]])
def test_filling_entries_must_be_ints(rows):
    with pytest.raises(InputError, match="must hold integers"):
        Filling(rows)


def test_int_parts_and_entries_still_load():
    assert Partition([3, 1, 0]).parts == (3, 1)
    assert Filling([[1], [0, 2]]).rows == ((1,), (0, 2))
    assert Filling([(1,), [0, 2]]) == Filling(((1,), (0, 2)))


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
    stages = sequence_from_filling(FILLING, MU)
    assert type(stages) is tuple and len(stages) == 5
    assert all(type(s) is Partition for s in stages)
    assert stages[0] == MU
    assert stages[1] == Partition((11, 6, 3, 2))
    assert stages[2] == Partition((11, 10, 4, 2))
    assert stages[3] == Partition((11, 10, 7, 3))
    assert stages[4] == LAM


def test_sequence_rejects_non_partition_stage():
    with pytest.raises(InputError):
        sequence_from_filling(Filling(((0,), (0, 3))), Partition((1,)))


def test_sequence_rejects_mu_longer_than_the_filling():
    """Stage 0 is mu, so mu's parts beyond the filling's rows cannot be
    dropped; realize refuses such a mu with the same message."""
    with pytest.raises(InputError, match=r"partition \(3, 2\) has more than 1 parts"):
        sequence_from_filling(Filling([[1]]), (3, 2))
    assert sequence_from_filling(Filling([[0], [0, 1]]), (3, 2)) == (
        Partition((3, 2)), Partition((3, 2)), Partition((3, 3)))


# ---------------------------------------------------------------------------
# the four LR conditions


def test_validate_golden_filling():
    assert validate_filling(FILLING, MU, NU, LAM) == ""


# Each bad filling below moves entries of the golden one, so LR1 fails
# beside the condition its test is named for, and LR4 in two of them: the
# whole summary is pinned, every failing condition with its first cell.

def test_lr1_row_sum_violation():
    bad = Filling(((3,), (2, 4), (1, 1, 3), (1, 0, 1, 2)))
    assert validate_filling(bad, MU, NU, LAM) == "lr1 at ('row', 1); lr4 at (1, 1)"


def test_lr2_negativity_violation():
    bad = Filling(((4,), (2, 4), (1, 1, 3), (1, -1, 2, 2)))
    assert validate_filling(bad, MU, NU, LAM) == "lr1 at ('content', 2); lr2 at (2, 4)"


def test_lr3_column_strictness_violation():
    bad = Filling(((4,), (2, 4), (3, 1, 1), (1, 0, 1, 2)))
    assert validate_filling(bad, MU, NU, LAM) == \
        "lr1 at ('content', 1); lr3 at (1, 3); lr4 at (3, 3)"


def test_lr4_word_condition_violation():
    bad = Filling(((4,), (1, 5), (1, 1, 3), (1, 0, 1, 2)))
    assert validate_filling(bad, MU, NU, LAM) == "lr1 at ('content', 1); lr4 at (1, 1)"


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
        assert not validate_filling(f, MU, NU, LAM)


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
        lams = list(iter_partitions(w, 3)) or [Partition(())]
        lam = rng.choice(lams)
        a = count_fillings(mu, nu, lam)
        b = count_fillings(nu, mu, lam)
        assert a == b, (mu, nu, lam)
        seen_nonzero += a > 0
    assert seen_nonzero > 0


def test_count_builds_no_filling(monkeypatch):
    def no_filling(*args):
        raise AssertionError("count_fillings built a Filling")
    monkeypatch.setattr(tableaux, "Filling", no_filling)
    assert count_fillings(MU, NU, LAM) == 7


# ---------------------------------------------------------------------------
# reference walks: every partition filtered by containment, and every row
# checked for the word condition LR4 only once it is complete


def partitions_reference(weight, max_len, mu):
    def rec(remaining, slots, cap, prefix):
        if remaining == 0:
            yield Partition(prefix)
            return
        if slots == 0:
            return
        for p in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - p, slots - 1, p, prefix + (p,))
    if weight < 0:
        return []
    return [lam for lam in rec(weight, max_len, weight, ()) if lam.contains(mu)]


def fillings_reference(mu, nu, lam):
    r = len(lam)
    if mu.weight() + nu.weight() != lam.weight() or not lam.contains(mu) or len(nu) > r:
        return []
    mu_p, lam_p, nu_p = mu.padded(r), lam.padded(r), nu.padded(r)
    rows, content_left, results = [], list(nu_p), []

    def lr4_row_ok(j):
        for i in range(1, j):
            upper = sum(rows[s - 1][i - 1] for s in range(i, j))
            lower = sum(rows[s - 1][i] for s in range(i + 1, j + 1))
            if lower > upper:
                return False
        return True

    def backtrack(j):
        if j > r:
            if all(v == 0 for v in content_left):
                results.append(Filling([tuple(row) for row in rows]))
            return
        prev_prefix = None
        if j >= 2:
            prev_prefix = [mu_p[j - 2]]
            for s, v in enumerate(rows[j - 2], start=1):
                prev_prefix.append(prev_prefix[s - 1] + v)
        row = [0] * j
        rows.append(row)

        def place(i, left, profile):
            if i == j:
                ok = 0 <= left <= content_left[i - 1]
                if ok and prev_prefix is not None and profile + left > prev_prefix[i - 1]:
                    ok = False
                if ok:
                    row[i - 1] = left
                    content_left[i - 1] -= left
                    if lr4_row_ok(j):
                        backtrack(j + 1)
                    content_left[i - 1] += left
                    row[i - 1] = 0
                return
            cap = min(left, content_left[i - 1])
            if prev_prefix is not None:
                cap = min(cap, prev_prefix[i - 1] - profile)
            for v in range(cap + 1):
                row[i - 1] = v
                content_left[i - 1] -= v
                place(i + 1, left - v, profile + v)
                content_left[i - 1] += v
                row[i - 1] = 0

        place(1, lam_p[j - 1] - mu_p[j - 1], mu_p[j - 1])
        rows.pop()

    backtrack(1)
    return results


def partitions(max_len, max_part):
    return st.lists(st.integers(0, max_part), max_size=max_len).map(
        lambda parts: Partition(sorted(parts, reverse=True)))


@settings(max_examples=300, deadline=None)
@given(weight=st.integers(-1, 16), max_len=st.integers(0, 6), mu=partitions(6, 6),
       nu_len=st.integers(0, 6))
@example(weight=6, max_len=2, mu=Partition((2, 1, 1)), nu_len=0)  # mu longer than max_len
@example(weight=3, max_len=3, mu=Partition((3, 1)), nu_len=0)     # weight below |mu|
@example(weight=9, max_len=3, mu=Partition((3, 3, 3)), nu_len=0)  # mu itself, no slack
@example(weight=6, max_len=3, mu=Partition((2, 1)), nu_len=3)     # floors past mu
@example(weight=2, max_len=3, mu=Partition(()), nu_len=3)         # floors above the weight
def test_iter_partitions_matches_filtered_reference(weight, max_len, mu, nu_len):
    """iter_partitions is the reference list; the tuple walk under it, with
    floors of 1 on the first nu_len parts as well, yields exactly the
    shapes of at least nu_len parts, in the same order."""
    want = partitions_reference(weight, max_len, mu)
    assert list(iter_partitions(weight, max_len, mu)) == want
    if len(mu) > max_len or nu_len > max_len:
        return
    floors = tuple(max(m, 1) if k < nu_len else m for k, m in enumerate(mu.padded(max_len)))
    assert list(tableaux._partition_tuples(weight, floors)) == [
        lam.parts for lam in want if len(lam) >= nu_len]


def dominated(a, b, r):
    return all(x <= y for x, y in zip(accumulate(a.padded(r)), accumulate(b.padded(r))))


@st.composite
def triples(draw):
    """Mostly lam of the right weight that contains mu and is dominated by
    mu + nu, as every lam with a filling is; otherwise any lam."""
    mu, nu = draw(partitions(5, 4)), draw(partitions(5, 4))
    top = Partition([a + b for a, b in zip(mu.padded(5), nu.padded(5))])
    lams = [lam for lam in partitions_reference(mu.weight() + nu.weight(), 5, mu)
            if dominated(lam, top, 5)]
    if lams and draw(st.integers(0, 3)):
        return mu, nu, draw(st.sampled_from(lams))
    return mu, nu, draw(partitions(5, 6))


@settings(max_examples=300, deadline=None)
@given(triples())
@example((Partition((3,)), Partition((1,)), Partition((2, 2))))        # lam does not contain mu
@example((Partition((2,)), Partition((1,)), Partition((2, 2))))        # weights disagree
@example((Partition((1,)), Partition((1, 1, 1)), Partition((2, 2))))   # nu longer than lam
@example((Partition((3, 3, 2, 1)), Partition((3, 2, 1)), Partition((5, 4, 3, 2, 1))))  # 6 fillings
@example((MU, NU, LAM))
def test_fillings_match_row_checked_reference(triple):
    mu, nu, lam = triple
    want = fillings_reference(mu, nu, lam)
    assert enumerate_fillings(mu, nu, lam) == want
    assert count_fillings(mu, nu, lam) == len(want)


def test_may_fill_rules_out_only_triples_without_fillings(monkeypatch):
    """Every mu and nu with at most 3 parts of at most 3, and every lam of
    weight |mu| + |nu| with at most 6 parts that contains mu: where
    ``_may_fill`` is False the walk, its test switched off, finds no
    filling, and with the test on every count is the same."""
    may_fill = tableaux._may_fill
    box = [Partition(sorted(parts, reverse=True))
           for parts in combinations_with_replacement(range(4), 3)]
    triples = [(mu, nu, lam) for mu in box for nu in box
               for lam in iter_partitions(mu.weight() + nu.weight(), 6, mu)]
    assert len(triples) == 9246
    counts = [count_fillings(*triple) for triple in triples]
    monkeypatch.setattr(tableaux, "_may_fill", lambda mu_p, nu_p, lam_p: True)
    rejected = 0
    for (mu, nu, lam), count in zip(triples, counts):
        walked = count_fillings(mu, nu, lam)
        assert count == walked, (mu, nu, lam)
        if not may_fill(mu.padded(6), nu.padded(6), lam.padded(6)):
            rejected += 1
            assert walked == 0, (mu, nu, lam)
    assert rejected == 4078


def test_count_stops_before_the_rows_on_a_dominance_failure(capsys):
    """(1,1), (1,1), (3,1): weights agree and lam contains mu and nu, but
    lam_1 = 3 > mu_1 + nu_1, so ``count`` answers 0 without entering the
    row walk; the golden triple enters it."""
    entered = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "walk_rows":
            entered.append(frame.f_code)

    assert not tableaux._may_fill((1, 1), (1, 1), (3, 1))
    sys.setprofile(watch)
    try:
        rc = main(["count", "1,1", "1,1", "3,1"])
    finally:
        sys.setprofile(None)
    assert rc == 0 and json.loads(capsys.readouterr().out)["count"] == 0
    assert entered == []
    sys.setprofile(watch)
    try:
        assert count_fillings(MU, NU, LAM) == 7
    finally:
        sys.setprofile(None)
    assert entered


# ---------------------------------------------------------------------------
# helpers


def test_iter_partitions():
    # decreasing lexicographic order, at most max_len parts, each containing mu
    assert list(iter_partitions(6, 3)) == [
        Partition((6,)), Partition((5, 1)), Partition((4, 2)),
        Partition((4, 1, 1)), Partition((3, 3)), Partition((3, 2, 1)),
        Partition((2, 2, 2)),
    ]
    assert list(iter_partitions(6, 3, (3, 1))) == [
        Partition((5, 1)), Partition((4, 2)), Partition((4, 1, 1)),
        Partition((3, 3)), Partition((3, 2, 1)),
    ]
    assert list(iter_partitions(6, 3, Partition((2, 2, 2)))) == [Partition((2, 2, 2))]
    assert list(iter_partitions(0, 2)) == [Partition(())]
    assert list(iter_partitions(0, 0)) == [Partition(())]
    assert list(iter_partitions(5, 0)) == []
    assert list(iter_partitions(5, 1, (6,))) == []     # weight below |mu|
    assert list(iter_partitions(3, 1, (2, 1))) == []   # mu longer than max_len
    assert list(iter_partitions(-1, 3)) == []


def test_random_partition_bounds_and_determinism():
    rng = random.Random(4)
    draws = [random_partition(rng, 4, 6) for _ in range(50)]
    for p in draws:
        assert len(p) <= 4
        assert all(0 < part <= 6 for part in p.parts)
    rng2 = random.Random(4)
    assert [random_partition(rng2, 4, 6) for _ in range(50)] == draws

