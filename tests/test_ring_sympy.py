"""The ring arithmetic checked against sympy's rational-function cancel.

Skipped when sympy is not installed."""

from hypothesis import given, settings

import pytest

sympy = pytest.importorskip("sympy")

from test_ring import planted_pairs  # noqa: E402

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
