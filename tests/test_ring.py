"""Exact arithmetic in the valuation ring of rational functions at t = 0."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lrpairs.ring as ring_mod
from lrpairs.errors import InputError, NotInRingError
from lrpairs.ring import (_PONE, INFINITY, MAX_DEGREE, ONE, T, ZERO, RingElem,
                          _make, _pcontent, _pgcd_cof, _pgcd_subresultant,
                          _pmul, _pprimitive, _pshift, random_unit, residue,
                          valuation)


def poly(*terms):
    """Shorthand: poly((c, d), ...) -> sum of c * t**d."""
    return RingElem.from_terms(terms)


# ---------------------------------------------------------------------------
# construction and canonical form


def test_constants():
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    assert T == RingElem.t_pow(1)
    assert RingElem.const(0) is ZERO or RingElem.const(0) == ZERO
    assert RingElem.const(Fraction(4, 2)) == RingElem.const(2)
    assert RingElem.const("3/7") == RingElem.const(Fraction(3, 7))


def test_const_rejects_junk():
    with pytest.raises(TypeError):
        RingElem.const(1.5)


def test_const_rejects_a_bool():
    # True is an int to isinstance, and used to become the coefficient "True"
    with pytest.raises(TypeError):
        RingElem.const(True)


def test_from_terms_merges_and_cancels():
    assert poly((1, 2), (2, 2)) == poly((3, 2))
    assert poly((1, 1), (-1, 1)).is_zero()
    assert poly(("1/2", 0), ("1/2", 0)) == ONE


def test_from_terms_rejects_a_negative_degree():
    with pytest.raises(InputError):
        RingElem.from_terms([(1, -1)])


def test_from_terms_rejects_a_non_integer_degree():
    for d in (1.0, True, "2"):
        with pytest.raises(InputError):
            RingElem.from_terms([(1, d)])


def test_from_terms_rejects_a_float_coefficient():
    with pytest.raises(TypeError):
        RingElem.from_terms([(1.5, 0)])


def test_from_terms_rejects_a_bool_coefficient():
    with pytest.raises(TypeError):
        RingElem.from_terms([(True, 0)])


def test_reduction_cancels_common_factors():
    # (t^2 - 1) / (t - 1) = t + 1
    q = poly((1, 2), (-1, 0)) / poly((1, 1), (-1, 0))
    assert q == poly((1, 1), (1, 0))
    # shared powers of t cancel
    q = poly((1, 3)) / poly((1, 2))
    assert q == T


def test_negative_t_pow():
    x = RingElem.t_pow(-2)
    assert x.valuation() == -2
    assert not x.in_ring()
    assert x * RingElem.t_pow(2) == ONE


# ---------------------------------------------------------------------------
# valuation, units, residues


def test_valuation_basics():
    assert valuation(ZERO) is INFINITY
    assert valuation(ONE) == 0
    assert valuation(RingElem.t_pow(3)) == 3
    assert valuation(poly((2, 2), (1, 3))) == 2
    # order of a quotient subtracts
    assert valuation(poly((1, 5)) / poly((3, 2), (1, 4))) == 3


def test_unit_and_ring_membership():
    assert ONE.valuation() == 0
    assert poly((1, 0), (1, 1)).valuation() == 0  # 1 + t
    assert T.valuation() != 0
    assert T.in_ring()
    assert not (ONE / T).in_ring()
    assert ZERO.valuation() != 0
    assert ZERO.in_ring()


def test_residue_values():
    assert residue(poly((3, 0), (5, 1))) == 3
    assert residue(T) == 0
    assert residue(ZERO) == 0
    # (2 + t) / (4 - t) has residue 1/2
    assert residue(poly((2, 0), (1, 1)) / poly((4, 0), (-1, 1))) == Fraction(1, 2)
    with pytest.raises(NotInRingError):
        residue(ONE / T)


def test_random_unit_stream_is_frozen():
    rng = random.Random(1234)
    vals = [residue(random_unit(rng)) for _ in range(5)]
    assert vals == [4441, -6172, -9755, -7030, 9078]
    rng = random.Random(0)
    for _ in range(200):
        u = random_unit(rng)
        assert u.valuation() == 0
        c = residue(u)
        assert c != 0 and abs(c) <= 10000 and c.denominator == 1


# ---------------------------------------------------------------------------
# arithmetic laws (hypothesis)

small_polys = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(0, 5)), max_size=4
).map(RingElem.from_terms)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())
elems = st.builds(lambda n, d: n / d, small_polys, nonzero_polys)


@settings(max_examples=150, deadline=None)
@given(elems, elems, elems)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert (a - a).is_zero()
    assert a - b == a + (-b)


@settings(max_examples=150, deadline=None)
@given(elems, elems.filter(lambda x: not x.is_zero()))
def test_division_inverts_multiplication(a, b):
    assert (a * b) / b == a
    assert (a / b) * b == a


@settings(max_examples=150, deadline=None)
@given(elems, elems)
def test_valuation_arithmetic(a, b):
    va, vb = a.valuation(), b.valuation()
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
    else:
        assert (a * b).valuation() == va + vb
    assert (a + b).valuation() >= min(va, vb)


@settings(max_examples=150, deadline=None)
@given(elems)
def test_json_roundtrip(a):
    assert RingElem.from_json(a.to_json()) == a


def test_json_fractional_case():
    x = poly(("2/3", 1), (5, 4)) / poly((1, 0), ("-7/2", 2))
    y = RingElem.from_json(x.to_json())
    assert y == x
    assert y.valuation() == 1
    # the boundary encodings divide by lc(den), giving monic denominators
    assert x.to_json() == {"num": [["-4/21", 1], ["-10/7", 4]],
                           "den": [["-2/7", 0], ["1", 2]]}
    assert str(x) == "(-10/7*t^4 - 4/21*t)/(t^2 - 2/7)"


def test_json_constant_denominator_is_folded():
    x = poly((3, 0), (1, 2)) / 6
    assert x.to_json() == {"num": [["1/2", 0], ["1/6", 2]]}
    assert str(x) == "1/6*t^2 + 1/2"


# ---------------------------------------------------------------------------
# canonical form: integer num/den, coprime, joint content 1, lc(den) > 0


def assert_canonical(x):
    coeffs = list(x.num.values()) + list(x.den.values())
    assert all(type(c) is int for c in coeffs)
    assert x.den[max(x.den)] > 0
    assert math.gcd(*coeffs) == 1
    assert (x.den is _PONE) == (x.den == {0: 1})


def assert_identical(x, y):
    assert x.num == y.num and x.den == y.den
    assert (x.den is _PONE) == (y.den is _PONE)


@settings(max_examples=150, deadline=None)
@given(elems, elems)
def test_canonical_form(a, b):
    assert_canonical(a)
    for x in (a + b, a - b, a * b, -a, a + 3, Fraction(2, 5) * a):
        assert_canonical(x)
    if not b.is_zero():
        assert_canonical(a / b)


@settings(max_examples=150, deadline=None)
@given(elems, elems.filter(lambda x: not x.is_zero()))
def test_canonical_form_is_route_independent(a, b):
    assert_identical((a * b) / b, a)
    assert_identical(RingElem.from_json(a.to_json()), a)


def test_constant_routes_agree():
    x = RingElem.const(Fraction(3, 7))
    assert x.num == {0: 3} and x.den == {0: 7}
    for y in (RingElem.const("3/7"), poly(("3/7", 0)), RingElem.const(3) / 7,
              RingElem.from_json({"num": [["6/14", 0]]}),
              RingElem.from_json({"num": [["3", 0]], "den": [["7", 0]]})):
        assert_identical(y, x)
    assert_identical(RingElem.const(Fraction(8, 4)), RingElem.const(2))
    assert RingElem.const(Fraction(8, 4)).den is _PONE


# ---------------------------------------------------------------------------
# untrusted JSON


def test_json_degree_above_bound_is_rejected_while_parsing(monkeypatch):
    def no_arithmetic(*args):
        raise AssertionError("arithmetic ran on an unbounded input")

    monkeypatch.setattr(ring_mod, "_make", no_arithmetic)
    huge = {"num": [["1", 10 ** 9]], "den": [["1", 0], ["1", 1]]}
    with pytest.raises(InputError, match="exceeds the limit"):
        RingElem.from_json(huge)
    with pytest.raises(InputError, match="exceeds the limit"):
        RingElem.from_json({"num": [["1", 0]], "den": [["1", MAX_DEGREE + 1]]})


def test_json_degree_at_bound_is_accepted():
    x = RingElem.from_json({"num": [["1", MAX_DEGREE]]})
    assert x == RingElem.t_pow(MAX_DEGREE)


@pytest.mark.parametrize("item", [["1", True], [True, 0], [False, 1]],
                         ids=["bool-degree", "true-coefficient", "false-coefficient"])
def test_json_rejects_booleans(item):
    with pytest.raises(InputError):
        RingElem.from_json({"num": [item]})


@pytest.mark.parametrize("cs", ["1e5", "1E-3", "1.5", "0x10", " 1", "1_000",
                                "1/2/3", "", "inf", 1.5, None],
                         ids=repr)
def test_json_coefficient_forms_outside_the_grammar_are_rejected(cs):
    with pytest.raises(InputError):
        RingElem.from_json({"num": [[cs, 0]]})


def test_json_coefficient_integer_and_fraction_forms_load():
    for cs, want in ((7, 7), ("-3", -3), ("+2", 2), ("6/14", Fraction(3, 7)),
                     ("-10/7", Fraction(-10, 7)), ("007", 7)):
        assert RingElem.from_json({"num": [[cs, 2]]}) == RingElem.const(want) * T ** 2


def test_power_operator():
    assert T ** 0 == ONE
    assert T ** 3 == RingElem.t_pow(3)
    x = poly((1, 0), (1, 1))
    assert x ** 2 == x * x


def test_power_of_a_bool_raises():
    """A bool is no exponent, as it is no operand of + or *."""
    for n in (True, False):
        with pytest.raises(TypeError):
            T ** n
    with pytest.raises(TypeError):
        T ** 2.0


def test_equality_against_plain_ints():
    assert ONE == 1
    assert ZERO == 0
    assert RingElem.const(5) == 5
    assert T != 1


def test_equality_with_a_bool_answers_false():
    """A bool is no ring element: == and in answer False, where they used
    to raise TypeError, and arithmetic with a bool still raises."""
    assert not RingElem.const(1) == True  # noqa: E712
    assert RingElem.const(1) != True  # noqa: E712
    assert not ZERO == False  # noqa: E712
    assert True not in [ONE] and False not in [ZERO]
    assert ONE in [True, ONE]
    for op in (lambda x: x + True, lambda x: True * x, lambda x: x - False,
               lambda x: x / True):
        with pytest.raises(TypeError):
            op(ONE)


def test_hash_agrees_with_equality_on_constants():
    for value in (5, -3, 1, 0, Fraction(3, 7), Fraction(-8, 3)):
        x = RingElem.const(value)
        assert hash(x) == hash(value)
        assert value in {x} and x in {value}
        assert {value: "v"}[x] == "v" and {x: "x"}[value] == "x"
    assert 0 in {ZERO} and ZERO in {0} and hash(ZERO) == hash(0)
    assert Fraction(1, 2) in {ONE / 2} and ONE / 2 in {Fraction(1, 2)}
    # non-constant elements keep distinct hashes from their constant terms
    assert T + 1 not in {1} and len({T, T * 1, ONE / T, T / 2}) == 3


def test_gcd_handles_large_coefficient_growth():
    # repeated mixed operations drive the gcd/normalization machinery hard
    x = poly((1, 0), (1, 1)) / poly((3, 0), (-1, 2))
    step = RingElem.const(1) / poly((1, 0), (2, 1))
    acc = ONE
    for k in range(12):
        acc = acc * x + RingElem.const(k) * step
    assert (acc - acc).is_zero()
    assert acc / acc == ONE
    back = acc
    for k in reversed(range(12)):
        back = (back - RingElem.const(k) * step) / x
    assert back == ONE


# ---------------------------------------------------------------------------
# gcd with cofactors and cross-cancelling arithmetic

SHARED_FACTORS = ({0: 1, 1: 1}, {0: 2, 1: -1}, {0: 1, 2: 3})


def _ppow(p, k):
    out = _PONE
    for _ in range(k):
        out = _pmul(out, p)
    return out


int_polys = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(0, 4)), max_size=4
).map(lambda terms: RingElem.from_terms(terms).num)
nonzero_int_polys = int_polys.filter(bool)


@st.composite
def planted_polys(draw):
    """A nonzero integer polynomial times t^j, a constant and powers of a
    few fixed factors, so that independent draws often share factors."""
    p = draw(nonzero_int_polys)
    p = _pshift(p, draw(st.integers(0, 3)))
    p = {d: c * draw(st.sampled_from([1, 1, 2, -3, 6])) for d, c in p.items()}
    for f in SHARED_FACTORS:
        p = _pmul(p, _ppow(f, draw(st.integers(0, 2))))
    return p


@st.composite
def planted_elems(draw):
    """num/den with planted (1 + t)^k, t^j, other shared factors and
    constant denominators; zero now and then."""
    num = draw(planted_polys()) if draw(st.integers(0, 9)) else {}
    den = draw(st.one_of(planted_polys(), st.sampled_from([{0: 1}, {0: 4}, {0: -6}])))
    return _make(num, den)


@st.composite
def planted_pairs(draw):
    """(a, b) from planted_elems; half the time b = c - a for a third draw
    c, so that a + b cancels down to c past the gcd of the denominators."""
    a, c = draw(planted_elems()), draw(planted_elems())
    return (a, _unreduced("-", c, a)) if draw(st.booleans()) else (a, c)


def assert_coprime(p, q):
    """p and q share no nonconstant factor over Q (subresultant oracle)."""
    assert min(p) == 0 or min(q) == 0
    p = _pprimitive(_pshift(p, -min(p)))
    q = _pprimitive(_pshift(q, -min(q)))
    if max(p) and max(q):
        assert _pgcd_subresultant(p, q) is _PONE


def check_gcd_cof(a, b):
    g, qa, qb = _pgcd_cof(a, b)
    assert _pmul(g, qa) == a and _pmul(g, qb) == b
    assert _pcontent(g) == 1
    assert (g is _PONE) == (g == {0: 1})
    assert_coprime(qa, qb)


@settings(max_examples=150, deadline=None)
@given(planted_polys(), planted_polys())
def test_gcd_cofactors_heuristic_route(a, b):
    check_gcd_cof(a, b)


@settings(max_examples=100, deadline=None)
@given(planted_polys(), planted_polys())
def test_gcd_cofactors_subresultant_route(a, b):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring_mod, "_pheu", lambda a, b: None)
        check_gcd_cof(a, b)


def test_gcd_cofactors_known_cases():
    g, qa, qb = _pgcd_cof({2: 6, 3: 6}, {1: 4, 2: 8, 3: 4})  # 6t^2(1+t), 4t(1+t)^2
    assert g in ({1: 1, 2: 1}, {1: -1, 2: -1})
    assert _pmul(g, qa) == {2: 6, 3: 6} and _pmul(g, qb) == {1: 4, 2: 8, 3: 4}
    a, b = {0: 3, 1: 1}, {0: 2, 2: 5}
    g, qa, qb = _pgcd_cof(a, b)
    assert g is _PONE and qa is a and qb is b
    assert _pgcd_cof({3: 2}, {1: 7}) == ({1: 1}, {2: 2}, {0: 7})


def _unreduced(op, a, b):
    """_make applied to the cross products of a op b, unreduced."""
    if op in "+-":
        num = ring_mod._padd(_pmul(a.num, b.den), _pmul(b.num, a.den),
                             1 if op == "+" else -1)
        return _make(num, _pmul(a.den, b.den))
    if op == "*":
        return _make(_pmul(a.num, b.num), _pmul(a.den, b.den))
    return _make(_pmul(a.num, b.den), _pmul(a.den, b.num))


@settings(max_examples=300, deadline=None)
@given(planted_pairs())
def test_cross_cancelling_ops_match_make_of_cross_products(pair):
    a, b = pair
    results = {"+": a + b, "-": a - b, "*": a * b}
    if not b.is_zero():
        results["/"] = a / b
    for op, got in results.items():
        want = _unreduced(op, a, b)
        assert_identical(got, want)
        assert_canonical(got)


@pytest.mark.parametrize("a, b", [
    (poly((2, 0), (1, 1)), poly((-2, 0), (3, 2))),
    (poly((1, 0), (1, 1)), (T - 1) / (T + 1)),
    (ONE / (T * (T + 1)), poly((3, 1), (-1, 2))),
    (T / (2 * T + 1), (T + 1) / (2 * T + 1)),
    (T / (2 * T + 1), -T / (2 * T + 1)),
    ((T + 3) / 6, (T - 1) / 6),
], ids=["both-dens-one", "one-on-the-left", "one-on-the-right",
        "equal-polynomial-dens", "equal-dens-cancelling", "equal-integer-dens"])
def test_sums_over_each_denominator_class(a, b):
    """Every sum takes the one gcd route; the classes that once had routes
    of their own give the reduced cross products, as a general sum does."""
    for x, y in ((a, b), (b, a)):
        for op, got in (("+", x + y), ("-", x - y)):
            assert_identical(got, _unreduced(op, x, y))
            assert_canonical(got)


def test_cross_cancellation_known_cases():
    p = T + 1
    # (1/(1+t)) * ((1+t)/(t(t-1))): gcd(c, b) = 1 + t cancels across
    assert_identical(ONE / p * (p / (T * (T - 1))), ONE / (T * T - T))
    # ((1+t)/t) / ((1+t)/3): gcd(a, d) = 1 + t cancels across
    assert_identical(p / T / (p / 3), 3 / T)
    # 1/(1+t) + 1/(t(1+t)): g = 1 + t, num = t + 1 shares g again -> 1/t
    for x in (ONE / p + ONE / (T * p), ONE / (T * p) + ONE / p):
        assert_identical(x, ONE / T)
    assert_identical(ONE / p - ONE / (T * p), (T - 1) / (T * p))
