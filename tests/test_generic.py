"""Group action, triangularization, and the mu-generic reduction pipeline."""

import ast
import hashlib
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lrpairs.errors import (GenericityError, InputError, PrincipalMinorError,
                            RankError, RetriesExhaustedError)
from lrpairs.generic import (GroupElement, MatrixPair, act,
                             check_equation_first, check_equation_second,
                             check_equation_third, diagonalize_first,
                             genericity_stats, reset_genericity_stats,
                             to_mu_generic, triangularize_right,
                             verify_mu_generic)
import lrpairs.generic as generic_mod
import lrpairs.matrix as matrix_mod
import lrpairs.ring as ring_mod
from lrpairs.extract import extract_from_pair
from lrpairs.matrix import (RMatrix, det, diag_from_partition,
                            has_unit_det, invariant_partition, inverse,
                            is_mu_admissible, lu_decompose, mat_mul,
                            minor_order_table, times_inverse)
from lrpairs.realize import random_filling, realize
from lrpairs.ring import INFINITY, ONE, ZERO, RingElem, _padd
from lrpairs.tableaux import Filling, Partition

import checkoracle
from golden import LAM, MU, NU, c, golden_m, golden_mn, golden_n, t
from test_matrix import (ROW_DENOMINATORS, cleaning_unit_by_fractions, comparable,
                         shifted_matrices, unit_denominator_matrices)


def golden_pair():
    return MatrixPair(golden_m(), golden_n())


def random_unit_triangular(rng, r, lower=False):
    """Random triangular matrix with unit diagonal entries (so a unit det)."""
    rows = []
    for i in range(1, r + 1):
        row = []
        for j in range(1, r + 1):
            if i == j:
                row.append(c(rng.choice((1, -1, 2, 3))))
            elif (i > j) if lower else (i < j):
                row.append(c(rng.randint(-3, 3)) * t(rng.randint(0, 2)))
            else:
                row.append(ZERO)
        rows.append(row)
    return RMatrix(rows)


def random_invertible(rng, r):
    return mat_mul(random_unit_triangular(rng, r, lower=True),
                   random_unit_triangular(rng, r, lower=False))


def random_group_element(rng, r):
    return GroupElement(random_invertible(rng, r), random_invertible(rng, r),
                        random_invertible(rng, r))


# ---------------------------------------------------------------------------
# pairs and the group action


def test_matrix_pair_basics():
    pair = golden_pair()
    assert pair.r == 4
    assert pair.product() == mat_mul(golden_m(), golden_n())
    assert pair.invariants() == (MU, NU, LAM)
    assert MatrixPair.from_json(pair.to_json()) == pair
    with pytest.raises(InputError):
        MatrixPair(golden_m(), RMatrix.identity(3))


def test_identity_action_fixes_pair():
    pair = golden_pair()
    eye = RMatrix.identity(4)
    assert act(GroupElement(eye, eye, eye), pair) == pair


def test_action_composition_law():
    rng = random.Random(17)
    pair = golden_pair()
    for _ in range(5):
        g = random_group_element(rng, 4)
        h = random_group_element(rng, 4)
        assert act(g.compose(h), pair) == act(g, act(h, pair))


def test_action_preserves_all_three_invariants():
    rng = random.Random(29)
    for _ in range(5):
        f, mu, nu, lam = random_filling(rng, r_max=3, part_max=4)
        pair = realize(f, mu).pair()
        moved = act(random_group_element(rng, pair.r), pair)
        assert moved.invariants() == (mu, nu, lam)


def test_action_rejects_bad_elements():
    pair = golden_pair()
    eye = RMatrix.identity(3)
    with pytest.raises(InputError):
        act(GroupElement(eye, eye, eye), pair)
    not_invertible = GroupElement(
        RMatrix.identity(4),
        diag_from_partition(Partition((1,)), 4),  # det = t, not a unit
        RMatrix.identity(4))
    with pytest.raises(InputError):
        act(not_invertible, pair)


def test_group_element_json_and_invertibility():
    eye = RMatrix.identity(2)
    g = GroupElement(eye, eye, eye)
    assert set(g.to_json()) == {"p", "q", "t"}
    assert g.is_invertible_over_ring()
    bad = GroupElement(RMatrix([[t(1)]]), RMatrix([[ONE]]), RMatrix([[ONE]]))
    assert not bad.is_invertible_over_ring()


# entries for the membership test: units, non-units, negative orders and
# fractions whose denominators are units or not
_MEMBERSHIP_ENTRIES = [ZERO, ONE, c(-1), c(2), t(1), t(2), c(3) + t(1),
                       ONE / t(1), (ONE + t(1)) / (c(2) - t(1)),
                       t(1) / (ONE + t(1)), c(3) / (t(1) + t(2))]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.lists(
    st.lists(st.sampled_from(_MEMBERSHIP_ENTRIES), min_size=r, max_size=r),
    min_size=r, max_size=r)))
@example([[c(3) + t(1), c(2)], [t(1), ONE]])              # det 3 - t, a unit
@example([[t(1), ZERO], [ZERO, ONE]])                     # diag(t, 1)
@example([[ONE, ONE / t(1)], [ZERO, ONE]])                # negative order
@example([[ONE / (ONE + t(1)), t(1)],
          [ZERO, (c(2) + t(1)) / (ONE - t(1))]])          # fractions, unit det
def test_membership_through_the_record_matches_record_free_copies(rows):
    """A component that records its inverse is tested through the record;
    the verdict is the one the component's own entries give."""
    try:
        x = inverse(RMatrix(rows))
    except RankError:
        assume(False)
    eye = RMatrix.identity(x.r)
    for g, fresh in ((GroupElement(x, x, x), GroupElement(*[_copy(x)] * 3)),
                     (GroupElement(eye, eye, x), GroupElement(eye, eye, _copy(x)))):
        assert g.is_invertible_over_ring() == fresh.is_invertible_over_ring()


@pytest.mark.parametrize("rows", [
    [[ONE, ONE / t(1)], [ZERO, ONE]],   # the record has negative order
    [[t(1), ZERO], [ZERO, ONE]],        # over the ring, det t; x has order -1
])
def test_act_refuses_a_record_outside_the_group(monkeypatch, rows):
    """act refuses a component whose record is not in GL_r(R), in every
    position, without forming the component's entries."""
    def no_adjugate(a, b):
        raise AssertionError("times_inverse called")

    x = inverse(RMatrix(rows))
    eye = RMatrix.identity(2)
    monkeypatch.setattr(matrix_mod, "times_inverse", no_adjugate)
    monkeypatch.setattr(generic_mod, "times_inverse", no_adjugate)
    for parts in ((x, eye, eye), (eye, x, eye), (eye, eye, x)):
        with pytest.raises(InputError):
            act(GroupElement(*parts), MatrixPair(eye, eye))


# ---------------------------------------------------------------------------
# diagonalization of the first component


def test_diagonalize_first_short_circuits_on_golden():
    pair = golden_pair()
    out, g = diagonalize_first(pair)
    assert out == pair
    assert g.p == RMatrix.identity(4) and g.q == RMatrix.identity(4)


def test_diagonalize_first_random_replay():
    rng = random.Random(41)
    base = golden_pair()
    for _ in range(3):
        pair = act(random_group_element(rng, 4), base)
        out, g = diagonalize_first(pair)
        assert out.first == golden_m()
        assert act(g, pair) == out
        assert out.invariants() == (MU, NU, LAM)


# Diagonals of the scrambling factors: units of the ring whose inverses have
# integer denominators, or, in the second tuple, polynomial ones as well.
INTEGER_UNITS = (ONE, -ONE, c(2), c(3))
POLYNOMIAL_UNITS = INTEGER_UNITS + (ONE + t(1), c(2) - c(3) * t(1))


def diagonalization_pair(kind, rng):
    """A realized pair of size r <= 4, whose first component is already
    D_mu, or for kind "integer" or "polynomial" that pair scrambled by a
    group element of unit triangular products whose diagonals are drawn
    from ``INTEGER_UNITS`` or ``POLYNOMIAL_UNITS``."""
    f, mu, _, _ = random_filling(rng, r_max=4, part_max=3)
    pair = realize(f, mu).pair()
    if kind == "realized":
        return pair
    units = INTEGER_UNITS if kind == "integer" else POLYNOMIAL_UNITS

    def factor(lower):
        return RMatrix([[rng.choice(units) if i == j
                         else c(rng.randint(-3, 3)) * t(rng.randint(0, 2))
                         if (i > j) == lower else ZERO
                         for j in range(pair.r)] for i in range(pair.r)])

    return act(GroupElement(*(mat_mul(factor(True), factor(False))
                              for _ in range(3))), pair)


def denominator_kinds(pair):
    return {"integer" if max(e.den) == 0 else "polynomial"
            for m in (pair.first, pair.second) for row in m.entries
            for e in row if e.den != ONE.den}


def test_diagonalization_pairs_have_their_denominators():
    rng = random.Random(13)
    seen = {kind: set() for kind in ("realized", "integer", "polynomial")}
    for _ in range(10):
        for kind in seen:
            seen[kind] |= denominator_kinds(diagonalization_pair(kind, rng))
    assert seen == {"realized": set(), "integer": {"integer"},
                    "polynomial": {"integer", "polynomial"}}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("realized", "integer", "polynomial")), st.integers(0, 2 ** 32))
def test_diagonalize_first_matches_separate_steps(kind, seed):
    """The one-pass diagonalization equals the Smith transforms, the
    product Q N and the row-by-row cleaning entry for entry, for the pair
    and for the group element, and its D carries inv(first); a realized
    pair keeps its first component."""
    pair = diagonalization_pair(kind, random.Random(seed))
    out, g = diagonalize_first(pair)
    want, want_g = checkoracle.diagonalize_first_oracle(pair)
    assert (out.first, out.second) == (want.first, want.second)
    assert (g.p, g.q, g.t) == (want_g.p, want_g.q, want_g.t)
    orders = tuple(out.first.entry(i, i).valuation() for i in range(1, pair.r + 1))
    assert Partition(orders) == invariant_partition(pair.first)
    if kind == "realized":
        assert out.first is pair.first


# ---------------------------------------------------------------------------
# right triangularization


def test_triangularize_upper_input_is_fixed():
    n = golden_n()
    t_l, u = triangularize_right(n)
    assert t_l == RMatrix.identity(4)
    assert u == n


def test_triangularize_antidiagonal_is_column_reversal():
    anti = RMatrix([[ZERO, ZERO, ONE], [ZERO, ONE, ZERO], [ONE, ZERO, ZERO]])
    t_l, u = triangularize_right(anti)
    assert u == RMatrix.identity(3)
    assert t_l == anti  # the reversal permutation is its own inverse


def test_triangularize_random_contract():
    rng = random.Random(53)
    for _ in range(20):
        r = rng.randint(1, 4)
        m = random_invertible(rng, r)
        t_l, u = triangularize_right(m)
        assert mat_mul(m, t_l) == u
        assert u.is_upper_triangular()
        assert t_l.is_over_ring()
        assert det(t_l).valuation() == 0
        assert invariant_partition(u) == invariant_partition(m)


def triangularize_by_field_elimination(a):
    """Reference for ``triangularize_right``: the field elimination it
    replaced.  Shears divide by the pivot, then each column is scaled by the
    unit that cleans its nonzero entries."""
    r = a.r
    work = [list(row) for row in a.entries]
    acc = [list(row) for row in RMatrix.identity(r).entries]
    for i in range(r, 0, -1):
        best = None
        for j in range(1, i + 1):
            e = work[i - 1][j - 1]
            if e.is_zero():
                continue
            v = e.valuation()
            if best is None or v < best[0] or (v == best[0] and j > best[1]):
                best = (v, j)
        if best is None:
            raise RankError("matrix is rank deficient")
        _, bj = best
        if bj != i:
            for row in work + acc:
                row[bj - 1], row[i - 1] = row[i - 1], row[bj - 1]
        piv = work[i - 1][i - 1]
        for j in range(1, i):
            e = work[i - 1][j - 1]
            if e.is_zero():
                continue
            w = e / piv
            for row in work[:i]:
                row[j - 1] = row[j - 1] - w * row[i - 1]
            for row in acc:
                row[j - 1] = row[j - 1] - w * row[i - 1]
            work[i - 1][j - 1] = ZERO
    for j in range(r):
        col = [row[j] for row in work if not row[j].is_zero()]
        col += [row[j] for row in acc if not row[j].is_zero()]
        u = cleaning_unit_by_fractions(col)
        if u != ONE:
            for rows in (work, acc):
                for row in rows:
                    if not row[j].is_zero():
                        row[j] = row[j] * u
    return RMatrix(acc), RMatrix(work)


@st.composite
def triangularize_inputs(draw):
    """r <= 5 with polynomial entries; or each row over a denominator of
    order 0; or entries of negative order; sometimes a zero column."""
    r = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("polynomial", "row_denominators", "negative_order")))
    terms = st.lists(st.tuples(st.sampled_from((-3, -2, -1, 1, 2, 3)),
                               st.integers(0, 2)), min_size=1, max_size=3)
    rows = [[RingElem.from_terms(draw(terms)) for _ in range(r)] for _ in range(r)]
    if kind == "row_denominators":
        rows = [[e / d for e in row]
                for row, d in zip(rows, draw(st.lists(st.sampled_from(ROW_DENOMINATORS),
                                                      min_size=r, max_size=r)))]
    elif kind == "negative_order":
        rows = [[e / t(draw(st.integers(0, 2))) for e in row] for row in rows]
    if draw(st.integers(0, 5)) == 0:
        zero = draw(st.integers(0, r - 1))
        rows = [[ZERO if j == zero else e for j, e in enumerate(row)] for row in rows]
    return RMatrix(rows)


@settings(max_examples=150, deadline=None)
@given(triangularize_inputs())
def test_triangularize_agrees_with_field_elimination(a):
    try:
        want = triangularize_by_field_elimination(a)
    except RankError:
        with pytest.raises(RankError):
            triangularize_right(a)
        return
    assert triangularize_right(a) == want


def test_triangularize_divides_nothing(monkeypatch):
    rng = random.Random(67)
    fractions = RMatrix([[e / (ONE + t(1)) for e in row]
                         for row in random_invertible(rng, 3).entries])
    negative = mat_mul(random_invertible(rng, 3),
                       RMatrix.diagonal([ONE / t(2), ONE, t(1)]))
    inputs = [golden_n(), golden_mn(), mat_mul(golden_mn(), random_invertible(rng, 4)),
              fractions, negative]
    want = [triangularize_by_field_elimination(a) for a in inputs]

    def no_division(self, other):
        raise AssertionError("ring division in triangularize_right")

    monkeypatch.setattr(RingElem, "__truediv__", no_division)
    got = [triangularize_right(a) for a in inputs]
    monkeypatch.undo()
    assert got == want


def test_triangularize_singular_raises():
    with pytest.raises(RankError):
        triangularize_right(RMatrix([[ONE, ONE], [ONE, ONE]]))


# ---------------------------------------------------------------------------
# verification reports


def test_verify_mu_generic_golden():
    rep = verify_mu_generic(golden_n(), MU)
    assert rep.ok
    assert rep.to_json()["mode"] == "full"
    names = [ch.name for ch in rep.checks]
    assert names == ["upper_triangular", "det_gap_rows", "det_gap_columns"]
    doc = rep.to_json()
    assert doc["ok"] is True and doc["failures"] == []


def test_verify_mu_generic_detects_gap_violation():
    n = RMatrix([[ONE, ZERO], [ZERO, t(1)]])
    rep = verify_mu_generic(n, Partition((1,)))
    assert not rep.ok
    assert {ch.name for ch in rep.failures()} == {"det_gap_rows", "det_gap_columns"}


def test_verify_mu_generic_flags_non_upper():
    rep = verify_mu_generic(golden_n().transpose(), MU)
    assert not rep.ok
    assert "upper_triangular" in {ch.name for ch in rep.failures()}


def test_corner_invariant_check_golden():
    rep = checkoracle.corner_invariant_check(golden_n(), MU)
    assert rep.ok


def test_corner_invariant_check_detects_failure():
    n = RMatrix([[t(1), ONE], [ZERO, t(1)]])
    rep = checkoracle.corner_invariant_check(n, Partition(()))
    assert not rep.ok
    assert "lambda_corner_minors" in {ch.name for ch in rep.failures()}


# ---------------------------------------------------------------------------
# the reduction


def test_to_mu_generic_golden_certificate():
    pair = golden_pair()
    cert = to_mu_generic(pair, random.Random(42))
    assert cert.pair.first == golden_m()
    assert cert.pair.second == cert.n_star
    assert cert.mu == MU and cert.nu == NU and cert.lam == LAM
    assert cert.n_star.is_upper_triangular()
    assert cert.n_star.is_over_ring()
    assert cert.report.ok
    assert cert.attempts == 1
    assert len(cert.minor_orders) == 70
    assert is_mu_admissible(cert.q, MU)
    assert cert.t_inv.is_over_ring() and det(cert.t_inv).valuation() == 0
    # the recorded group element replays the whole reduction exactly
    assert act(cert.group, pair) == cert.pair
    # N* really is Q N T^-1
    assert mat_mul(mat_mul(cert.q, golden_n()), cert.t_inv) == cert.n_star


def test_to_mu_generic_from_scrambled_pair():
    rng = random.Random(61)
    pair = act(random_group_element(rng, 4), golden_pair())
    cert = to_mu_generic(pair, rng)
    assert cert.mu == MU and cert.nu == NU and cert.lam == LAM
    assert cert.report.ok
    assert act(cert.group, pair) == cert.pair
    assert verify_mu_generic(cert.n_star, MU, table=cert.minor_orders).ok
    assert checkoracle.corner_invariant_check(cert.n_star, MU).ok


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_conjugate_agrees_with_the_adjugate_route(data):
    """_conjugate(q, e) is D q D^-1 for D = diag(t^e), the exponents of
    either sign; the adjugate in times_inverse is the independent route."""
    q = data.draw(st.one_of(shifted_matrices(), unit_denominator_matrices(max_r=4)))
    e = data.draw(st.lists(st.integers(-3, 3), min_size=q.r, max_size=q.r))
    d = RMatrix.diagonal([RingElem.t_pow(k) for k in e])
    assert generic_mod._conjugate(q, e) == times_inverse(mat_mul(d, q), d)


def test_certificate_equations_hold_on_all_pairs():
    cert = to_mu_generic(golden_pair(), random.Random(42))
    r = 4
    u = mat_mul(mat_mul(cert.q_lower, cert.n_input), cert.t_lower)
    assert u.is_upper_triangular()
    tab_n = cert.minor_orders
    tab_right = minor_order_table(mat_mul(u, cert.t_upper))
    tab_left = minor_order_table(mat_mul(cert.q_upper, u))
    v = mat_mul(cert.q_hat_u, mat_mul(cert.n_input, cert.t_inv))
    tab_v = minor_order_table(v)
    assert check_equation_first(tab_n, tab_right, r) == ""
    assert check_equation_second(tab_n, tab_v, cert.mu, r) == ""
    assert check_equation_third(tab_n, tab_left, r) == ""
    # the LU split of Q multiplies back and its factors live where required
    assert mat_mul(cert.q_hat_l, cert.q_hat_u) == cert.q
    assert is_mu_admissible(cert.q_hat_l, cert.mu)
    assert det(cert.q_hat_u).valuation() == 0


def _staircase_pair(r):
    mu = Partition(tuple(range(r, 0, -1)))
    filling = Filling([[0] * (j - 1) + [r - j + 1] for j in range(1, r + 1)])
    return realize(filling, mu).pair()


def attempt_running_every_check(diagonal_pair, mu, nu, lam, rng):
    """Reference for ``_attempt_reduction``: the attempt body that ran every
    check, so that its report named every failure, on uncapped tables.
    Draws from rng as the attempt does; returns (report, N*'s table)."""
    g = generic_mod
    n_input, r = diagonal_pair.second, diagonal_pair.r
    q_lower = g._conjugate(g._random_units(r, rng, lower=True), [-m for m in mu.padded(r)])
    t_lower, u = triangularize_right(mat_mul(q_lower, n_input))
    q_upper = g._random_units(r, rng, lower=False)
    t_upper = g._random_units(r, rng, lower=False)
    ut = mat_mul(u, t_upper)
    n_star = mat_mul(q_upper, ut)
    q = mat_mul(q_upper, q_lower)
    t_inv = mat_mul(t_lower, t_upper)
    checks = [g.CheckResult("q_admissible", is_mu_admissible(q, mu)),
              g.CheckResult("t_inverse_in_group",
                            t_inv.is_over_ring() and has_unit_det(t_inv)),
              g.CheckResult("u_upper_triangular", u.is_upper_triangular()),
              g.CheckResult("n_star_over_ring", n_star.is_over_ring())]
    tab_n = minor_order_table(n_star)
    for name, got, want in (("nu_preserved", matrix_mod._table_partition(tab_n, r), nu),
                            ("lambda_preserved",
                             matrix_mod._table_partition(tab_n, r, shift_mu=mu), lam)):
        checks.append(g.CheckResult(name, got == want, "" if got == want else f"{got} vs {want}"))
    try:
        grid, scales, pivots = matrix_mod._lu_grid(q)
    except PrincipalMinorError as exc:
        checks.append(g.CheckResult("lu_factors_in_ring", False, str(exc)))
    else:
        checks.append(g.CheckResult("lu_factors_in_ring",
                                    g._lu_factors_in_ring(grid, scales, pivots, mu)))
        checks.append(g.CheckResult("lu_product_consistent",
                                    g._lu_product_consistent(q, grid, pivots)))
        v = g._v_rows_times_units(grid, scales, pivots, mat_mul(n_input, t_inv))
        for name, fail in (
                ("first", check_equation_first(tab_n, minor_order_table(ut), r)),
                ("second", check_equation_second(
                    tab_n, minor_order_table(v, comparable_only=True), mu, r)),
                ("third", check_equation_third(
                    tab_n, minor_order_table(mat_mul(q_upper, u)), r))):
            checks.append(g.CheckResult("equation_" + name, not fail, fail))
    checks.extend(verify_mu_generic(n_star, mu, table=tab_n).checks)
    checks.extend(g._corner_checks(lambda rows, cols: tab_n[(rows, cols)],
                                   mu, nu, lam, r))
    return g.VerificationReport(tuple(checks)), tab_n


# the reduction's three verification stages, by check name
STAGES = ({"q_admissible", "t_inverse_in_group", "u_upper_triangular",
           "n_star_over_ring"},
          {"nu_preserved", "lambda_preserved", "upper_triangular", "det_gap_rows",
           "det_gap_columns", "nu_corner_minors", "lambda_corner_minors"},
          {"lu_factors_in_ring", "lu_product_consistent", "equation_first",
           "equation_second", "equation_third"})


@pytest.mark.parametrize("units", ["random", "plus_minus_one"])
def test_attempt_verdicts_match_running_every_check(monkeypatch, units):
    """Every attempt against the run-every-check body on a copy of its rng,
    on the staircase r = 3..6 and 30 random fillings at rng seeds 5, 6, 7.
    Pass or fail matches, and a passing attempt's report and N*'s table are
    the reference's.  A failing attempt names exactly the failed checks of
    the reference's first failed stage.  An attempt that fails at the checks
    on N*'s table builds that table once, and no other."""
    tables = []
    real_table = generic_mod.minor_order_table

    def table_spy(*args, **kw):
        tables.append(args[0])
        return real_table(*args, **kw)

    seen = Counter()
    real_attempt = generic_mod._attempt_reduction

    def compared(diagonal_pair, g_diag, mu, nu, lam, rng, attempt):
        clone = random.Random()
        clone.setstate(rng.getstate())
        want, want_table = attempt_running_every_check(diagonal_pair, mu, nu, lam, clone)
        del tables[:]
        try:
            cert = real_attempt(diagonal_pair, g_diag, mu, nu, lam, rng, attempt)
        except GenericityError as exc:
            assert not want.ok
            failed = set(str(exc).split(": ", 1)[1].split(", "))
            stage = next(k for k, names in enumerate(STAGES)
                         if any(c.name in names for c in want.failures()))
            want_failed = {c.name for c in want.failures()} & STAGES[stage]
            assert failed == want_failed, (failed, want_failed)
            if stage < 2:  # no table, or N*'s alone
                assert len(tables) == stage, (failed, len(tables))
            seen[f"failed stage {stage + 1}"] += 1
            raise
        assert want.ok
        assert cert.report.to_json() == want.to_json()
        assert cert.minor_orders == want_table
        assert rng.getstate() == clone.getstate()
        seen["passed"] += 1
        return cert

    monkeypatch.setattr(generic_mod, "minor_order_table", table_spy)
    monkeypatch.setattr(generic_mod, "_attempt_reduction", compared)
    if units == "plus_minus_one":
        monkeypatch.setattr(generic_mod, "random_unit",
                            lambda rng: RingElem.const(rng.choice((1, -1))))
    for seed in (5, 6, 7):
        rng = random.Random(seed)
        pairs = [_staircase_pair(r) for r in range(3, 7)]
        pairs += [realize(f, mu).pair()
                  for f, mu, _, _ in (random_filling(rng) for _ in range(30))]
        for pair in pairs:
            try:
                to_mu_generic(pair, rng, max_retries=3)
            except RetriesExhaustedError:
                pass
    assert seen["passed"] == 102 if units == "random" else seen["passed"] > 0
    if units == "plus_minus_one":
        assert seen["failed stage 2"] and seen["failed stage 3"]


def test_attempt_failing_cheap_checks_builds_no_table(monkeypatch):
    """An attempt whose cheap checks fail builds no minor-order table, and
    the reduction's error names only those checks."""
    def no_table(*args, **kw):
        raise AssertionError("minor-order table built")

    monkeypatch.setattr(generic_mod, "minor_order_table", no_table)
    monkeypatch.setattr(generic_mod, "is_mu_admissible", lambda q, mu: False)
    with pytest.raises(RetriesExhaustedError) as exc:
        to_mu_generic(golden_pair(), random.Random(42), max_retries=2)
    assert exc.value.last_failure == "failed checks: q_admissible"
    assert str(exc.value) == ("no generic sample found after 2 attempts "
                              "(failed checks: q_admissible)")


def test_n_star_table_exact_at_precision_nu():
    """On the staircase at r = 3..7 each certificate's table of N* holds
    every minor's exact order, each minor's determinant taken on its own."""
    for r in range(3, 8):
        cert = to_mu_generic(_staircase_pair(r), random.Random(r))
        n_star = cert.n_star
        assert cert.minor_orders == {
            (rows, cols): checkoracle.minor_order(n_star, rows, cols)
            for rows, cols in cert.minor_orders}


def test_reduction_inverts_nothing(monkeypatch):
    """The reduction and the extraction never invert a matrix; the
    certificate's group element is built on first read and then kept."""
    def no_inverse(*matrices):
        raise AssertionError("inverse called during the reduction")

    monkeypatch.setattr(generic_mod, "inverse", no_inverse)
    monkeypatch.setattr(generic_mod, "times_inverse", no_inverse)
    pairs = [golden_pair(), _staircase_pair(4)]
    certs = [to_mu_generic(pairs[0], random.Random(42)),
             extract_from_pair(pairs[1], random.Random(1)).certificate]
    monkeypatch.undo()
    for pair, cert in zip(pairs, certs):
        assert act(cert.group, pair) == cert.pair
        assert cert.group is cert.group


def _copy(m):
    """The same entries in a fresh matrix, which records no inverse."""
    return RMatrix(m.entries)


def test_lazy_t_star_inverts_t_inv():
    """cert.t_star records T_L T_U, and its entries, formed on first read,
    are the adjugate inverse of a copy of T_L T_U without a record."""
    rng = random.Random(11)
    pairs = [_staircase_pair(r) for r in range(3, 6)]
    pairs += [realize(f, mu).pair()
              for f, mu, _, _ in (random_filling(rng) for _ in range(20))]
    for pair in pairs:
        cert = to_mu_generic(pair, rng)
        assert cert.t_star._inverse_of is cert.t_inv
        assert cert.t_star == times_inverse(RMatrix.identity(pair.r),
                                            _copy(cert.t_inv))
        assert mat_mul(cert.t_star, cert.t_inv) == RMatrix.identity(pair.r)
        assert cert.group.t == cert.t_star


def test_replay_runs_one_adjugate(monkeypatch):
    """The replay act(cert.group, pair) on scrambled pairs runs the adjugate
    for P M Q^-1 and for nothing else: T* is never formed, since its record
    gives both Q N T*^-1 = Q N T_L T_U and its group membership."""
    adjugates = []
    real = matrix_mod.times_inverse

    def spy(a, b):
        if b._inverse_of is None:
            adjugates.append(b)
        return real(a, b)

    monkeypatch.setattr(matrix_mod, "times_inverse", spy)
    monkeypatch.setattr(generic_mod, "times_inverse", spy)
    rng = random.Random(19)
    for _ in range(12):
        f, mu, _, _ = random_filling(rng, r_max=3)
        pair = realize(f, mu).pair()
        pair = act(random_group_element(rng, pair.r), pair)
        cert = extract_from_pair(pair, rng).certificate
        adjugates.clear()
        assert act(cert.group, pair) == cert.pair
        assert len(adjugates) == 1 and adjugates[0] is cert.group.q


def test_replay_matches_record_free_route():
    """act(cert.group, pair) multiplies by T_L T_U where T* records it; the
    same group rebuilt from record-free copies inverts every component by
    the adjugate.  Both land on cert.pair."""
    rng = random.Random(13)
    pairs = [golden_pair()] + [_staircase_pair(r) for r in range(3, 6)]
    pairs += [realize(f, mu).pair()
              for f, mu, _, _ in (random_filling(rng) for _ in range(20))]
    for pair in pairs:
        cert = to_mu_generic(pair, rng)
        g = cert.group
        fresh = GroupElement(_copy(g.p), _copy(g.q), _copy(g.t))
        assert fresh.t == g.t and fresh.t._inverse_of is None
        assert act(g, pair) == act(fresh, pair) == cert.pair


def test_times_inverse_on_certificate_group():
    """times_inverse against the product with the inverse, and back, on the
    components of a scrambled pair's certificate group; T* also against its
    record-free copy."""
    rng = random.Random(61)
    pair = act(random_group_element(rng, 4), golden_pair())
    g = to_mu_generic(pair, rng).group
    for a in (pair.first, pair.second, random_invertible(rng, 4)):
        for b in (g.p, g.q, g.t):
            got = times_inverse(a, b)
            assert got == mat_mul(a, inverse(b))
            assert mat_mul(got, b) == a
        assert times_inverse(a, g.t) == times_inverse(a, _copy(g.t))


def _replay_certificates():
    """The scrambled golden pair's certificate and the staircase ones at
    r = 3..5, keyed by a label."""
    rng = random.Random(61)
    pair = act(random_group_element(rng, 4), golden_pair())
    certs = {"scrambled_golden": to_mu_generic(pair, rng)}
    for r in range(3, 6):
        certs[f"staircase_r{r}"] = to_mu_generic(_staircase_pair(r), random.Random(r))
    return certs


def _json_sha256(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sha256 of the replay group, of T* and of the LU factors Q_hat_L, Q_hat_U,
# as canonical JSON; the CLI digests never see any of them, and every
# product in the group and in T* goes through mat_mul
REPLAY_SHA256 = {
    "scrambled_golden.group": "6e2c2009d10686395d12f5e6dc81bc449d78e2598ffbea16f2a4107ff8b06eb0",
    "scrambled_golden.t_star": "3bd60575f6991e6048fdfb2eadfa76cb3522fbbcd537f0347a6542ceaf880c3f",
    "staircase_r3.group": "0edd3e6b771d824b0d3677c55e0e369792b2aa482bc5e3cf81c76e9b0006e3c7",
    "staircase_r3.t_star": "5b0c22ca847ce4dad44a3cc6d0132c9d2aafb83da09f2087cb482a813e148326",
    "staircase_r4.group": "19f8a15e078b7e95545782dedbcd5d47e594e6070e6a11626c2274be26ba5071",
    "staircase_r4.t_star": "0568795d0b8860bf200cd23ea5ed4187bca286202b0c9af699625fbd91cbd002",
    "staircase_r5.group": "5fcb5b3f3c203c779b36c53746b5c803c0d188c94db100577dc7e6398d797ff8",
    "staircase_r5.t_star": "f6bc6157ec671aa7aa3305f60b973c4b3c38961276a2df23d3839f2d9f895f3e",
    "scrambled_golden.q_hat_l": "a6b58b6f9e717c57150b44a5190a4123d7c762a2acf50fb77a8b58fe953c741d",
    "scrambled_golden.q_hat_u": "e702793ea5d78f24943c82b5133c9b7ee274e98f75a9917f8cbcec4197e1d765",
    "staircase_r3.q_hat_l": "022453ece27f091ac6d52954419c3c6ab53fdc7d056488a5680a639c9c25da3c",
    "staircase_r3.q_hat_u": "1fad4b1444f3bc6076bd42fe20dc20ffb576076d7660266a7be29305a8a38a56",
    "staircase_r4.q_hat_l": "386eef05512f0130010e8482f258789117658db419fcbb0bc2628e45088eb1ba",
    "staircase_r4.q_hat_u": "c53686eeef1a5281e470a3c2c40f848b4763663696e78ae606a39690bd7728d0",
    "staircase_r5.q_hat_l": "6fbd95d3ce053378dc149063c76dec92c5efb00c30cb5476b76af035de54aa2d",
    "staircase_r5.q_hat_u": "63a101be8754189cf4d885b1ffd95affb81ac2b0893e11e1f488a2ccaf3943f5",
}


def test_replay_group_digests():
    got = {}
    for label, cert in _replay_certificates().items():
        got[f"{label}.group"] = _json_sha256(cert.group.to_json())
        got[f"{label}.t_star"] = _json_sha256(cert.t_star.to_json())
        got[f"{label}.q_hat_l"] = _json_sha256(cert.q_hat_l.to_json())
        got[f"{label}.q_hat_u"] = _json_sha256(cert.q_hat_u.to_json())
    assert got == REPLAY_SHA256


def test_certificate_json_shape():
    cert = to_mu_generic(golden_pair(), random.Random(42))
    doc = cert.to_json()
    assert set(doc) >= {"n_star", "mu", "nu", "lambda", "factors",
                        "verification", "attempts"}
    assert doc["mu"] == [7, 4, 2, 1]
    assert doc["verification"]["ok"] is True
    assert doc["verification"]["mode"] == "full"
    assert RMatrix.from_json(doc["n_star"]) == cert.n_star


def test_genericity_stats_counting():
    reset_genericity_stats()
    rng = random.Random(3)
    for _ in range(3):
        f, mu, _, _ = random_filling(rng, r_max=3, part_max=4)
        to_mu_generic(realize(f, mu).pair(), rng)
    stats = genericity_stats()
    assert stats.successes == 3
    assert stats.attempts == stats.successes + stats.resamples
    reset_genericity_stats()
    assert genericity_stats().attempts == 0


def test_retries_exhausted(monkeypatch):
    def always_fails(*args, **kwargs):
        raise GenericityError("forced failure")

    monkeypatch.setattr(generic_mod, "_attempt_reduction", always_fails)
    reset_genericity_stats()
    with pytest.raises(RetriesExhaustedError) as exc:
        to_mu_generic(golden_pair(), random.Random(0), max_retries=2)
    assert exc.value.attempts == 2
    assert "forced failure" in exc.value.last_failure
    assert genericity_stats().resamples == 2


def test_to_mu_generic_deterministic_per_seed():
    a = to_mu_generic(golden_pair(), random.Random(7))
    b = to_mu_generic(golden_pair(), random.Random(7))
    assert a.n_star == b.n_star
    assert a.q == b.q and a.t_inv == b.t_inv
    c2 = to_mu_generic(golden_pair(), random.Random(8))
    assert c2.report.ok  # different seed still verifies


def _roundtrip_certificates():
    """40 random_filling draws (r <= 4), realized and reduced from one rng."""
    rng = random.Random(40)
    for _ in range(40):
        f, mu, _, _ = random_filling(rng)
        yield to_mu_generic(realize(f, mu).pair(), rng)


# sha256 of the canonical JSON of the 40 certificates' to_json() (the
# verification reports included) and of their LU factors, as three lists
ROUNDTRIP_SHA256 = {
    "to_json": "a7e3a21bda5248be08f4776a0d5e80ed462c4e5d409ab40e6d56b586c40086e2",
    "q_hat_l": "1146359390996caed0ae9683d9447cac552839540d15aea70a5ebfd5e207ff21",
    "q_hat_u": "cc9619892dd3246b4ade40407a1c8a48f8490f5ffaec4db6c0a4d371bed27857",
}


def test_roundtrip_certificate_digests():
    docs = {"to_json": [], "q_hat_l": [], "q_hat_u": []}
    for cert in _roundtrip_certificates():
        docs["to_json"].append(cert.to_json())
        docs["q_hat_l"].append(cert.q_hat_l.to_json())
        docs["q_hat_u"].append(cert.q_hat_u.to_json())
    assert {k: _json_sha256(v) for k, v in docs.items()} == ROUNDTRIP_SHA256


# ---------------------------------------------------------------------------
# Q's LU stage on the Bareiss grid


def lu_stage_by_fractions(q, mu, w):
    """The reduction's LU stage through the reduced-fraction factors, as it
    was before it moved onto the grid: (the four factor predicates, the
    product check, V = Q_hat_U W).  Raises PrincipalMinorError as
    lu_decompose does."""
    q_hat_l, q_hat_u = lu_decompose(q)
    lu_ok = (q_hat_l.is_over_ring() and q_hat_u.is_over_ring()
             and has_unit_det(q_hat_u) and is_mu_admissible(q_hat_l, mu))
    return lu_ok, mat_mul(q_hat_l, q_hat_u) == q, mat_mul(q_hat_u, w)


def lu_stage_on_grid(q, mu, w):
    grid, scales, pivots = matrix_mod._lu_grid(q)
    return (generic_mod._lu_factors_in_ring(grid, scales, pivots, mu),
            generic_mod._lu_product_consistent(q, grid, pivots),
            generic_mod._v_rows_times_units(grid, scales, pivots, w))


LU_KINDS = ("random", "plus_minus_one", "low_order", "lower_first",
            "vanishing_minor", "row_denominators", "row_orders")


@st.composite
def lu_stage_inputs(draw):
    """(Q, mu, W) with Q = Q_U Q_L for mu = (parts <= 4) in size r <= 4:
    random units; units of +-1, so pivots may vanish mod t; entries of Q_L
    of too low an order, even negative, so Q need not be admissible; the
    same with Q = Q_L Q_U, whose Q_hat_L is Q_L's; a vanishing leading
    minor; rows over denominators of order 0; rows times t^j, |j| <= 2.
    W is a random polynomial matrix."""
    r = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(LU_KINDS))
    mu = Partition(tuple(sorted(draw(st.lists(st.integers(1, 4), max_size=r)),
                                reverse=True)))
    unit = (st.sampled_from((1, -1)) if kind == "plus_minus_one"
            else st.integers(-50, 50).filter(bool))

    def exponent(i, j):  # mu_j - mu_i when admissible
        gap = mu.part(j) - mu.part(i)
        if j == i or kind not in ("low_order", "lower_first"):
            return gap
        low = -1 if kind == "lower_first" else gap - 4
        return draw(st.integers(low, gap))

    q_lower = RMatrix([[c(draw(unit)) * t(exponent(i, j)) if j <= i else ZERO
                        for j in range(1, r + 1)] for i in range(1, r + 1)])
    q_upper = RMatrix([[c(draw(unit)) if j >= i else ZERO for j in range(r)]
                       for i in range(r)])
    q = mat_mul(q_lower, q_upper) if kind == "lower_first" else mat_mul(q_upper, q_lower)
    rows = [list(row) for row in q.entries]
    if kind == "vanishing_minor":
        k = draw(st.integers(1, r))  # rows 1..k-1 summed into row k's first k entries
        rows[k - 1][:k] = [sum((row[j] for row in rows[:k - 1]), ZERO) for j in range(k)]
    elif kind == "row_denominators":
        rows = [[e / d for e in row]
                for row, d in zip(rows, draw(st.lists(st.sampled_from(ROW_DENOMINATORS),
                                                      min_size=r, max_size=r)))]
    elif kind == "row_orders":
        rows = [[e * t(j) for e in row]
                for row, j in zip(rows, draw(st.lists(st.integers(-2, 2),
                                                      min_size=r, max_size=r)))]
    terms = st.lists(st.tuples(st.sampled_from((-3, -2, -1, 1, 2, 3)),
                               st.integers(0, 4)), max_size=3)
    w = RMatrix([[RingElem.from_terms(draw(terms)) for _ in range(r)] for _ in range(r)])
    return RMatrix(rows), mu, w


def _bumped(p):
    """p plus a monomial above its degree: a different nonzero polynomial."""
    return _padd(p, {max(p, default=0) + 1: 1})


@settings(max_examples=300, deadline=None)
@given(lu_stage_inputs())
def test_lu_stage_on_grid_agrees_with_fractions(args):
    q, mu, w = args
    try:
        lu_ok, consistent, v = lu_stage_by_fractions(q, mu, w)
    except PrincipalMinorError as exc:
        with pytest.raises(PrincipalMinorError) as got:
            matrix_mod._lu_grid(q)
        assert str(got.value) == str(exc)
        return
    got_ok, got_consistent, got_v = lu_stage_on_grid(q, mu, w)
    assert got_ok == lu_ok
    assert got_consistent and consistent
    assert minor_order_table(got_v, comparable_only=True) \
        == minor_order_table(v, comparable_only=True)


@settings(max_examples=150, deadline=None)
@given(lu_stage_inputs(), st.data())
def test_lu_product_check_catches_one_changed_entry(args, data):
    q, _, _ = args
    assume(q.r >= 2)
    try:
        grid, _, pivots = matrix_mod._lu_grid(q)
    except PrincipalMinorError:
        return
    check = generic_mod._lu_product_consistent
    r = q.r
    g = data.draw(st.integers(1, r - 1))
    k = data.draw(st.integers(0, g - 1))
    bent = [list(row) for row in grid]
    bent[g][k] = _bumped(bent[g][k])
    assert not check(q, bent, pivots)
    j = data.draw(st.integers(0, r - 2))  # p_r itself is in no D
    assert not check(q, grid, pivots[:j] + [_bumped(pivots[j])] + pivots[j + 1:])
    i, h = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, r - 1))
    rows = [list(row) for row in q.entries]
    rows[i][h] = rows[i][h] + t(9)
    assert not check(RMatrix(rows), grid, pivots)


@pytest.mark.parametrize("units", ["random", "plus_minus_one"])
def test_lu_stage_divides_nothing(monkeypatch, units):
    """A reduction's LU stage calls no lu_decompose and takes no gcd: both
    raise inside its helpers, and every reduction ends as before.  Units of
    +-1 give pivots that vanish mod t, so rows of V are divided by t."""
    if units == "plus_minus_one":
        monkeypatch.setattr(generic_mod, "random_unit",
                            lambda rng: RingElem.const(rng.choice((1, -1))))
    rng = random.Random(23)
    pairs = [golden_pair(), _staircase_pair(4)]
    pairs += [realize(f, mu).pair() for f, mu, _, _ in (random_filling(rng) for _ in range(8))]

    def outcomes():
        out = []
        for i, pair in enumerate(pairs):
            try:
                out.append(_json_sha256(to_mu_generic(pair, random.Random(i)).to_json()))
            except RetriesExhaustedError as exc:
                out.append(str(exc))
        return out

    want = outcomes()

    def forbidden(*args):
        raise AssertionError("lu_decompose or a gcd in the LU stage")

    monkeypatch.setattr(generic_mod, "lu_decompose", forbidden)
    for name in ("_lu_grid", "_lu_factors_in_ring", "_lu_product_consistent",
                 "_v_rows_times_units"):
        def guarded(*args, _real=getattr(generic_mod, name)):
            with monkeypatch.context() as m:
                m.setattr(ring_mod, "_pgcd_cof", forbidden)
                m.setattr(matrix_mod, "_pgcd_cof", forbidden)
                return _real(*args)

        monkeypatch.setattr(generic_mod, name, guarded)
    assert outcomes() == want


def test_lu_factors_built_on_first_read():
    cert = to_mu_generic(golden_pair(), random.Random(42))
    assert "_q_hat" not in vars(cert)
    b, c_hat = lu_decompose(cert.q)
    assert cert.q_hat_l == b and cert.q_hat_u == c_hat
    assert cert.q_hat_l is cert.q_hat_l and cert.q_hat_u is cert.q_hat_u


# ---------------------------------------------------------------------------
# the four checks against their enumerating oracles


@st.composite
def check_inputs(draw):
    """r <= 6, a partition mu, and tables with random orders, infinity at
    random pairs, zero or infinity off the comparable pairs when
    triangular, and per check a want table that passes it before up to
    three random entries change."""
    r = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    triangular = draw(st.booleans())
    inf_rate = draw(st.sampled_from([0.0, 0.05, 0.3]))
    edits = draw(st.integers(0, 3))
    mu = Partition(tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(0, r))),
                                reverse=True)))
    lattice = matrix_mod._lattice(r)
    pairs = list(checkoracle.pairs_to_check(r))
    weight = matrix_mod._mu_weights(mu, r)

    def table(keys=pairs):
        return {(i, j): 0 if not i else
                INFINITY if (triangular and not comparable(i, j)) or rng.random() < inf_rate
                else rng.randint(0, 6) for i, j in keys}

    def edited(tab):
        # an order is an int or the one INFINITY object, as in every table
        tab = dict(tab)
        for _ in range(edits):
            key = rng.choice(pairs)
            old = tab[key]
            tab[key] = rng.choice([0, 1, 2, 7, INFINITY, old if old is INFINITY else old + 1])
        return tab

    right, left = table(), table()
    v = table([(i, j) for i, j in pairs if comparable(i, j)])
    want_first = {(i, j): min(right[(s, j)] for s in lattice.up[i]) for i, j in pairs}
    want_third = {(i, j): min(left[(i, h)] for h in lattice.down[j]) for i, j in pairs}
    want_second = {(i, j): min(v[(h, j)] + weight[h] - weight[i] for h in lattice.down[i])
                   if comparable(i, j) else rng.randint(0, 3) for i, j in pairs}
    # rows and columns hold with equality: order(I, J) = c(J) - |mu_I|, c
    # falling in J; off the comparable pairs anything
    gaps = {(i, j): 40 - 3 * sum(j) - weight[i] if comparable(i, j) else rng.randint(0, 9)
            for i, j in pairs}
    return (r, mu, right, left, v, edited(want_first), edited(want_second),
            edited(want_third), edited(gaps))


_WITNESS = re.compile(r"I=(\([\d, ]*\)) H=(\([\d, ]*\)) J=(\([\d, ]*\)): (.*)")


def _order(text):
    return INFINITY if text == "inf" else int(text)


def assert_gap_witness(detail, table, mu, r, rows):
    """detail names a cover triple I <= H <= J (H an up-cover of I for the
    rows, J an up-cover of H for the columns) in one of the check's
    formats, with the table's orders at its keys, and the inequality fails
    there."""
    i_set, h_set, j_set, claim = _WITNESS.fullmatch(detail).groups()
    i_set, h_set, j_set = (ast.literal_eval(x) for x in (i_set, h_set, j_set))
    lattice = matrix_mod._lattice(r)
    index = lattice.index
    assert h_set in lattice.up[i_set] and j_set in lattice.up[h_set]
    lo, hi = (i_set, h_set) if rows else (h_set, j_set)
    assert index[hi] in lattice.up_covers[len(lo)][index[lo]]
    weight = matrix_mod._mu_weights(mu, r)
    step = weight[i_set] - weight[h_set]
    if not rows:
        a, b = map(_order, claim.split(" < "))
        assert (a, b) == (table[(i_set, h_set)], table[(i_set, j_set)])
        assert a < b
    elif claim.startswith("gap "):
        gap = re.fullmatch(r"gap (\S+) - (\S+) exceeds (-?\d+)", claim)
        v, base, s = _order(gap[1]), _order(gap[2]), int(gap[3])
        assert (v, base, s) == (table[(h_set, j_set)], table[(i_set, j_set)], step)
        assert base is not INFINITY and v > base + s
    else:
        a, b = map(_order, claim.split(" > "))
        assert (a, b) == (table[(i_set, j_set)], table[(h_set, j_set)])
        assert a > b


@settings(max_examples=150, deadline=None)
@given(check_inputs())
def test_checks_match_enumerating_oracles(inputs):
    r, mu, right, left, v, tab_first, tab_second, tab_third, tab_gaps = inputs
    assert check_equation_first(tab_first, right, r) == \
        checkoracle.equation_first(tab_first, right, r)
    assert check_equation_second(tab_second, v, mu, r) == \
        checkoracle.equation_second(tab_second, v, mu, r)
    assert check_equation_third(tab_third, left, r) == \
        checkoracle.equation_third(tab_third, left, r)
    for tab in (tab_gaps, tab_first, right):
        gaps = verify_mu_generic(RMatrix.identity(r), mu, table=tab).checks[1:]
        want = checkoracle.gap_failures(tab, mu, r)
        assert tuple(c.passed for c in gaps) == tuple(not w for w in want)
        # a failing check names a cover triple of its own walk, which may
        # differ from the oracle's first triple but fails as it says
        for check, rows in zip(gaps, (True, False)):
            assert (check.detail == "") == check.passed
            if check.detail:
                assert_gap_witness(check.detail, tab, mu, r, rows)
