"""The ring arithmetic checked against sympy's rational-function cancel,
minor orders against sympy determinants, and invariant partitions against
sympy's invariant factors over Q[t].

Skipped when sympy is not installed."""

from hypothesis import assume, given, settings, strategies as st

import pytest

sympy = pytest.importorskip("sympy")

from lrpairs.matrix import (RMatrix, invariant_partition,  # noqa: E402
                            minor_order_table)
from lrpairs.ring import INFINITY, RingElem  # noqa: E402
from lrpairs.tableaux import Partition  # noqa: E402
from test_matrix import all_pairs, shifted_matrices  # noqa: E402
from test_ring import planted_pairs  # noqa: E402

from sympy.matrices.normalforms import invariant_factors  # noqa: E402

t = sympy.Symbol("t")


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
def polynomial_matrices(draw, max_r=4):
    """Integer polynomial entries of degree <= 3 with small coefficients."""
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
