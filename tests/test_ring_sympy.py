"""The ring arithmetic checked against sympy's rational-function cancel,
minor orders against sympy determinants, invariant partitions against
sympy's invariant factors over Q[t], and the LU factors and products with
an inverse against sympy's exact LU and inverse over Q(t).

Skipped when sympy is not installed."""

from hypothesis import assume, given, settings, strategies as st

import pytest

sympy = pytest.importorskip("sympy")

import lrpairs.matrix as matrix_mod  # noqa: E402
from lrpairs.errors import PrincipalMinorError, RankError  # noqa: E402
from lrpairs.matrix import (RMatrix, invariant_partition, inverse,  # noqa: E402
                            lu_decompose, minor_order_table, times_inverse)
from lrpairs.ring import INFINITY, RingElem  # noqa: E402
from lrpairs.tableaux import Partition  # noqa: E402
from test_matrix import all_pairs, shifted_matrices  # noqa: E402
from test_ring import planted_pairs  # noqa: E402

from sympy.matrices.normalforms import invariant_factors  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

t = sympy.Symbol("t")
QT = sympy.QQ.frac_field(t)


def to_sympy(p):
    return sympy.Add(*(c * t ** d for d, c in p.items()))


def check_against_cancel(got, expr):
    """got equals expr as a rational function, with the same degrees of the
    reduced numerator and denominator that sympy.cancel finds."""
    num, den = sympy.fraction(sympy.cancel(expr))
    assert sympy.expand(to_sympy(got.num) * den - num * to_sympy(got.den)) == 0
    if got.is_zero():
        assert num == 0
        return
    assert max(got.num) == sympy.degree(num, t)
    assert max(got.den) == sympy.degree(den, t)


@settings(max_examples=60, deadline=None)
@given(planted_pairs())
def test_ops_agree_with_sympy_cancel(pair):
    a, b = pair
    x = to_sympy(a.num) / to_sympy(a.den)
    y = to_sympy(b.num) / to_sympy(b.den)
    check_against_cancel(a + b, x + y)
    check_against_cancel(a - b, x - y)
    check_against_cancel(a * b, x * y)
    if not b.is_zero():
        check_against_cancel(a / b, x / y)


def sympy_order(expr):
    """Order at t = 0 of a rational function: lowest degree of the reduced
    numerator minus that of the denominator."""
    num, den = sympy.fraction(sympy.cancel(expr))
    if num == 0:
        return INFINITY
    low = lambda p: min(m[0] for m in sympy.Poly(p, t).monoms())
    return low(num) - low(den)


@settings(max_examples=40, deadline=None)
@given(shifted_matrices(max_r=3))
def test_minor_orders_agree_with_sympy_determinants(m):
    grid = sympy.Matrix([[to_sympy(e.num) / to_sympy(e.den) for e in row]
                         for row in m.entries])
    table = minor_order_table(m)
    for rows, cols in all_pairs(m.r):
        if not rows:
            continue
        sub = grid.extract([i - 1 for i in rows], [j - 1 for j in cols])
        assert table[(rows, cols)] == sympy_order(sub.det()), (rows, cols)


@st.composite
def polynomial_matrices(draw, max_r=4, r=None):
    """Integer polynomial entries of degree <= 3 with small coefficients."""
    if r is None:
        r = draw(st.integers(1, max_r))
    terms = st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)), max_size=3)
    return RMatrix([[RingElem.from_terms(draw(terms)) for _ in range(r)]
                    for _ in range(r)])


@settings(max_examples=40, deadline=None)
@given(polynomial_matrices())
def test_invariant_partition_agrees_with_sympy_invariant_factors(m):
    """Over Q[t] the Smith invariants d_1 | ... | d_r; over the valuation
    ring each becomes t^(order of d_i at t = 0)."""
    grid = sympy.Matrix([[to_sympy(e.num) for e in row] for row in m.entries])
    assume(grid.det() != 0)
    factors = invariant_factors(grid, domain=sympy.QQ[t])
    orders = sorted((sympy_order(f) for f in factors), reverse=True)
    assert invariant_partition(m) == Partition(tuple(orders))


def to_domain(m):
    """m as a sympy matrix over the exact field Q(t)."""
    return DomainMatrix([[QT.from_sympy(to_sympy(e.num) / to_sympy(e.den)) for e in row]
                         for row in m.entries], (m.r, m.r), QT)


def check_matrix_against_cancel(got, want):
    for row, want_row in zip(got.entries, want.to_Matrix().tolist()):
        for e, w in zip(row, want_row):
            check_against_cancel(e, w)


@settings(max_examples=60, deadline=None)
@given(shifted_matrices())
def test_lu_agrees_with_sympy_lu(m):
    """Factors equal sympy's LU over Q(t) entry by entry; where a leading
    principal minor vanishes, the first such k is reported."""
    dm = to_domain(m)
    vanishing = [k for k in range(1, m.r + 1) if not dm[:k, :k].det()]
    if vanishing:
        with pytest.raises(PrincipalMinorError) as exc:
            lu_decompose(m)
        assert exc.value.k == vanishing[0]
        return
    lower, upper, swaps = dm.lu()
    assert swaps == []
    b, c = lu_decompose(m)
    check_matrix_against_cancel(b, lower)
    check_matrix_against_cancel(c, upper)


DENOMINATORS = [RingElem.from_terms(terms) for terms in
                ([(1, 0)], [(1, 1)], [(1, 0), (1, 1)], [(2, 0), (-3, 1)])]


@st.composite
def fraction_matrices(draw, r):
    """polynomial_matrices' entries, each over 1, t, 1 + t or 2 - 3t."""
    m = draw(polynomial_matrices(r=r))
    return RMatrix([[e / draw(st.sampled_from(DENOMINATORS)) for e in row]
                    for row in m.entries])


@st.composite
def quotient_pairs(draw, max_r=4):
    """(a, b) of one size r <= max_r, both with denominators."""
    r = draw(st.integers(1, max_r))
    return draw(fraction_matrices(r)), draw(fraction_matrices(r))


@settings(max_examples=40, deadline=None)
@given(quotient_pairs())
def test_times_inverse_agrees_with_sympy_inverse(pair):
    a, b = pair
    db = to_domain(b)
    if not db.det():
        with pytest.raises(RankError):
            times_inverse(a, b)
        return
    check_matrix_against_cancel(times_inverse(a, b), to_domain(a).matmul(db.inv()))


def _no_determinant(*args):
    raise AssertionError("the adjugate took a determinant")


@settings(max_examples=40, deadline=None)
@given(quotient_pairs())
def test_adjugate_reads_det_off_its_cofactors(pair):
    """With ``det`` patched to raise, inverse and times_inverse
    still agree with sympy: det(G) is the Laplace sum of the cofactors."""
    a, b = pair
    db = to_domain(b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix_mod, "det", _no_determinant)
        if not db.det():
            for call in (lambda: times_inverse(a, b), lambda: inverse(b)):
                with pytest.raises(RankError):
                    call()
            return
        got, inv = times_inverse(a, b), inverse(b)
    check_matrix_against_cancel(got, to_domain(a).matmul(db.inv()))
    check_matrix_against_cancel(inv, db.inv())
