"""Exact scalar arithmetic valued by the order of vanishing at t = 0.

The working field is Q(t), rational functions in one variable with rational
coefficients.  Elements with non-negative order form a discrete valuation
ring with uniformizer t and residue field Q; ``valuation`` is the order, the
zero element gets the sentinel +infinity.  ``RingElem`` stores a reduced
fraction of integer polynomials (coprime, joint content 1, positive leading
coefficient in the denominator), so equality, order and residue are
canonical, every operation is exact, and the arithmetic never leaves the
integers.  Products and quotients cancel common factors across their
operands before multiplying (Henrici's cross-cancellation), and every sum
takes one route, whatever its denominators: the gcd of the two denominators
first, then only that gcd's gcd with the new numerator (Knuth, TAOCP
4.5.1).  So no gcd is ever taken of a full unreduced product.  Fractions
appear only at the boundaries: rational constants and JSON are cleared of
denominators on the way in, and ``to_json``/``str`` divide by the
denominator's leading coefficient on the way out.

Polynomials are plain dicts mapping degree -> nonzero int coefficient;
sparse on purpose, since most matrix entries in this package are short sums
of t-powers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd as _igcd

from .errors import InputError, NotInRingError

INFINITY = math.inf

_PZERO: dict = {}
_PONE = {0: 1}


# ---------------------------------------------------------------------------
# polynomial helpers (dicts degree -> coefficient, zero coefficients removed)

def _padd(a, b, sign=1):
    out = dict(a)
    for d, c in b.items():
        s = out.get(d, 0) + sign * c
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def _pmul(a, b):
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            d = d1 + d2
            s = out.get(d, 0) + c1 * c2
            if s:
                out[d] = s
            else:
                del out[d]
    return out


def _pdot(xs, ys):
    """The sum of the products x y over the paired integer polynomials of xs
    and ys, accumulated once and built without its zero terms."""
    acc = {}
    for x, y in zip(xs, ys):
        if x and y:
            for d1, c1 in x.items():
                for d2, c2 in y.items():
                    d = d1 + d2
                    acc[d] = acc.get(d, 0) + c1 * c2
    return {d: c for d, c in acc.items() if c}


def _pscale(a, c):
    if not c:
        return {}
    return {d: cc * c for d, cc in a.items()}


def _pshift(a, k):
    """Multiply by t**k (k may be negative when divisibility is known)."""
    return {d + k: c for d, c in a.items()}


def _pcontent(a, g=0):
    """gcd of g and the coefficients of the integer polynomial a."""
    for c in a.values():
        g = _igcd(g, c)
        if g == 1:
            break
    return g


def _pprimitive(a):
    """The integer polynomial a divided by its content."""
    g = _pcontent(a)
    if g > 1:
        return {d: c // g for d, c in a.items()}
    return a


def _pprem(a, b):
    """Pseudo-remainder lb^(deg a - deg b + 1) * a mod b over the integers."""
    db = max(b)
    lb = b[db]
    steps = max(a) - db + 1
    rem = dict(a)
    while rem:
        dr = max(rem)
        if dr < db:
            break
        lr = rem.pop(dr)
        steps -= 1
        rem = {d: c * lb for d, c in rem.items()}
        shift = dr - db
        for d, c in b.items():
            if d == db:
                continue
            dd = d + shift
            s = rem.get(dd, 0) - lr * c
            if s:
                rem[dd] = s
            else:
                rem.pop(dd, None)
    if steps > 0 and rem:
        m = lb ** steps
        rem = {d: c * m for d, c in rem.items()}
    return rem


def _phorner(a, xi):
    """Evaluate an integer polynomial at the integer point xi."""
    val = 0
    prev = None
    for d in sorted(a, reverse=True):
        if prev is not None:
            val *= xi ** (prev - d)
        val += a[d]
        prev = d
    if prev:
        val *= xi ** prev
    return val


def _pfromint(n, xi):
    """Rebuild a polynomial from its value at xi using balanced digits.

    Any polynomial with coefficients in (-xi/2, xi/2] is recovered exactly
    from its value, since the balanced base-xi expansion is unique."""
    out = {}
    d = 0
    while n:
        c = n % xi
        if 2 * c > xi:
            c -= xi
        if c:
            out[d] = c
        n = (n - c) // xi
        d += 1
    return out


def _pdivexact_int(a, b):
    """Quotient of a by b when the division is exact over the integers.

    Returns None as soon as a leading coefficient fails to divide or a
    remainder survives, so callers can use it as a divisibility test."""
    db = max(b)
    lb = b[db]
    rem = dict(a)
    quo = {}
    while rem:
        dr = max(rem)
        if dr < db:
            return None
        lr = rem.pop(dr)
        if lr % lb:
            return None
        c = lr // lb
        shift = dr - db
        quo[shift] = c
        for d, cb in b.items():
            if d == db:
                continue
            dd = d + shift
            s = rem.get(dd, 0) - c * cb
            if s:
                rem[dd] = s
            else:
                rem.pop(dd, None)
    return quo


def _pheu(a, b):
    """Heuristic gcd of two primitive integer polynomials with its cofactors,
    as (g, a/g, b/g), or None.

    Evaluates both at a large integer, takes the integer gcd, lifts it back
    with balanced digits and certifies the candidate by exact trial division,
    whose quotients are the cofactors (a certified candidate is the gcd: any
    proper multiple of it dividing both inputs would need a cofactor whose
    value at xi divides the lifted content, impossible once xi dwarfs every
    coefficient involved)."""
    na = max(abs(c) for c in a.values())
    nb = max(abs(c) for c in b.values())
    xi = 2 * min(na, nb) + 29
    for _ in range(6):
        g = _igcd(_phorner(a, xi), _phorner(b, xi))
        cand = _pprimitive(_pfromint(g, xi))
        if cand:
            if max(cand) == 0:
                return _PONE, a, b
            qa = _pdivexact_int(a, cand)
            if qa is not None:
                qb = _pdivexact_int(b, cand)
                if qb is not None:
                    return cand, qa, qb
        xi = xi * 73794 // 27011
    return None


def _pgcd_subresultant(a, b):
    """Gcd of two primitive integer polynomials by the subresultant sequence.

    Remainders are divided by the predicted g * h^d factors, which keeps the
    integer coefficients polynomially bounded (plain rational Euclid and the
    primitive sequence both blow up on the sizes seen here)."""
    if max(a) < max(b):
        a, b = b, a
    g = 1
    h = 1
    while True:
        delta = max(a) - max(b)
        rem = _pprem(a, b)
        if not rem:
            break
        if max(rem) == 0:
            return _PONE
        divisor = g * h ** delta
        a, b = b, {d: c // divisor for d, c in rem.items()}
        g = a[max(a)]
        if delta:
            h = g ** delta // h ** (delta - 1)
    return _pprimitive(b)


def _pgcd_cof(a, b):
    """(g, a/g, b/g) for nonzero integer polynomials a and b, where g is
    their gcd over Q as a primitive integer polynomial, powers of t included
    (sign unspecified); g is the shared ``_PONE`` exactly when it is 1.

    Each operand's own power of t and content are split off first, leaving
    primitive operands with nonzero constant terms for the heuristic gcd and
    its subresultant fallback; the cofactors get them back at the end."""
    ka, kb = min(a), min(b)
    ca, cb = _pcontent(a), _pcontent(b)
    pa = {d - ka: c // ca for d, c in a.items()} if ka or ca != 1 else a
    pb = {d - kb: c // cb for d, c in b.items()} if kb or cb != 1 else b
    g = _PONE
    if max(pa) and max(pb):
        res = _pheu(pa, pb)
        if res is None:
            g = _pgcd_subresultant(pa, pb)
            if g is not _PONE:
                # g is primitive, so by Gauss's lemma both quotients are integral
                pa, pb = _pdivexact_int(pa, g), _pdivexact_int(pb, g)
        else:
            g, pa, pb = res
    k = min(ka, kb)
    if k:
        g = {k: 1} if g is _PONE else _pshift(g, k)
    elif g is _PONE:
        return _PONE, a, b
    ka, kb = ka - k, kb - k
    if ka or ca != 1:
        pa = {d + ka: c * ca for d, c in pa.items()}
    if kb or cb != 1:
        pb = {d + kb: c * cb for d, c in pb.items()}
    return g, pa, pb


# ---------------------------------------------------------------------------


class RingElem:
    """An exact element of Q(t), stored as a reduced num/den pair.

    Canonical form: num and den are integer polynomials, coprime over Q[t]
    (so no shared power of t) and with joint integer content 1; den has a
    positive leading coefficient, and den is the shared ``_PONE`` exactly
    when it equals 1.  Equal elements therefore have equal num and den.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den, _raw=False):
        if _raw:
            self.num = num
            self.den = den
        else:
            e = _make(num, den)
            self.num = e.num
            self.den = e.den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "RingElem":
        """Constant polynomial from an int, Fraction or fraction string."""
        if isinstance(c, RingElem):
            return c
        c = _coefficient(c)
        if c == 0:
            return _ZERO
        if isinstance(c, int):
            return RingElem({0: c}, _PONE, _raw=True)
        den = c.denominator
        return RingElem({0: c.numerator}, _PONE if den == 1 else {0: den}, _raw=True)

    @staticmethod
    def t_pow(k: int) -> "RingElem":
        """The monomial t**k; negative k gives 1/t**(-k)."""
        if k >= 0:
            return RingElem({k: 1}, _PONE, _raw=True)
        return RingElem(_PONE, {-k: 1}, _raw=True)

    @staticmethod
    def from_terms(terms) -> "RingElem":
        """Polynomial from (coefficient, degree) pairs: an int, Fraction or
        fraction string at a non-negative int degree."""
        num: dict = {}
        for c, d in terms:
            if type(d) is not int or d < 0:
                raise InputError(f"degrees are non-negative integers, got {d!r}")
            s = num.get(d, 0) + _coefficient(c)
            if s:
                num[d] = s
            else:
                num.pop(d, None)
        return _from_rational(num, _PONE)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def valuation(self):
        """Order of vanishing at t = 0; +infinity for the zero element."""
        if not self.num:
            return INFINITY
        return min(self.num) - (min(self.den) if self.den is not _PONE else 0)

    def in_ring(self) -> bool:
        """True when the order is non-negative."""
        return not self.num or self.valuation() >= 0

    # -- arithmetic ----------------------------------------------------------

    def _add(self, other, sign):
        # one route for all denominators, 1 and equal ones included: a/b + c/d
        # with g = gcd(b, d) (the shared _PONE when b, d are coprime), then
        # num = a d' + c b' shares no factor with b' d', so only gcd(num, g)
        # is left to cancel (Knuth 4.5.1)
        g, sd, od = _pgcd_cof(self.den, other.den)
        num = _padd(_pmul(self.num, od), _pmul(other.num, sd), sign)
        if not num:
            return _ZERO
        if g is not _PONE:
            _, num, g = _pgcd_cof(num, g)
        return _normal(num, _pmul(_pmul(sd, od), g))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(other, -1)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return RingElem(_pscale(self.num, -1), self.den, _raw=True)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is _PONE and other.den is _PONE:
            num = _pmul(self.num, other.num)
            return RingElem(num, _PONE, _raw=True) if num else _ZERO
        return _mul(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero element")
        return _mul(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if type(n) is not int:  # a bool too, as in _coerce
            return NotImplemented
        if n < 0:
            return _ONE / self ** (-n)
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # constants hash as the int or Fraction they equal, as __eq__ needs
        num, den = self.num, self.den
        if num.keys() <= {0} and den.keys() == {0}:
            return hash(Fraction(num.get(0, 0), den[0]))
        return hash((tuple(sorted(num.items())), tuple(sorted(den.items()))))

    # -- presentation --------------------------------------------------------

    def __repr__(self):
        return f"RingElem({self})"

    def __str__(self):
        if not self.num:
            return "0"
        num, den = _monic(self)
        if den is None:
            return _poly_str(num)
        return f"({_poly_str(num)})/({_poly_str(den)})"

    # -- JSON ----------------------------------------------------------------

    def to_json(self):
        """Monomial-list encoding of num/den scaled to a monic den; den
        omitted when it is 1."""
        num, den = _monic(self)
        out = {"num": [[str(c), d] for d, c in sorted(num.items())]}
        if den is not None:
            out["den"] = [[str(c), d] for d, c in sorted(den.items())]
        return out

    @staticmethod
    def from_json(obj) -> "RingElem":
        if not isinstance(obj, dict) or "num" not in obj:
            raise InputError(f"ring element must be an object with a 'num' list, got {obj!r}")
        num = _poly_from_json(obj["num"], "num")
        den = _poly_from_json(obj["den"], "den") if "den" in obj else _PONE
        if not den:
            raise InputError("ring element denominator is zero")
        return _from_rational(num, den)


def _coefficient(c):
    """An int or Fraction as given, a fraction string parsed; anything else,
    bool included, raises TypeError."""
    if isinstance(c, str):
        c = Fraction(c)
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"cannot build a coefficient from {type(c).__name__}")
    return c


def _coerce(x):
    """x as a ring element, or NotImplemented for anything but a
    ``RingElem``, int or Fraction: a bool too, so x == True is False and
    x + True raises TypeError."""
    if isinstance(x, RingElem):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return RingElem.const(x)
    return NotImplemented


def _from_rational(num, den) -> RingElem:
    """Canonical element from polynomials with int or Fraction coefficients:
    both are scaled by one common denominator, then reduced."""
    lcm = 1
    for p in (num, den):
        for c in p.values():
            if isinstance(c, Fraction):
                lcm = lcm * c.denominator // _igcd(lcm, c.denominator)
    return _make({d: int(c * lcm) for d, c in num.items()},
                 {d: int(c * lcm) for d, c in den.items()})


def _monic(x):
    """(num, den) of x divided by lc(den), as the boundary encoding writes
    them; den is None when it is constant."""
    den = x.den
    if den is _PONE:
        return x.num, None
    lc = den[max(den)]
    num = {d: Fraction(c, lc) for d, c in x.num.items()}
    if len(den) == 1 and 0 in den:
        return num, None
    return num, {d: Fraction(c, lc) for d, c in den.items()}


# Highest degree a JSON polynomial may carry.  The gcd evaluates polynomials
# at large integers, so unbounded degrees would cost unbounded time and
# memory before any check could reject the input.
MAX_DEGREE = 10_000

# A JSON coefficient is an integer or a string "[+-]digits[/digits]".
# Fraction alone would also take exponent forms such as "1e200000", whose
# cost grows with the exponent, not with the length of the string.
_COEFF_STR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _poly_from_json(items, label):
    if not isinstance(items, list):
        raise InputError(f"'{label}' must be a list of [coefficient, degree] pairs")
    poly: dict = {}
    last = -1
    for it in items:
        if not (isinstance(it, list) and len(it) == 2):
            raise InputError(f"'{label}' entries must be [coefficient, degree] pairs, got {it!r}")
        cs, d = it
        if type(d) is not int or d < 0:
            raise InputError(f"'{label}' degree must be a non-negative integer, got {d!r}")
        if d > MAX_DEGREE:
            raise InputError(f"'{label}' degree {d} exceeds the limit {MAX_DEGREE}")
        if d <= last:
            raise InputError(f"'{label}' degrees must be strictly ascending")
        last = d
        if not (type(cs) is int or isinstance(cs, str) and _COEFF_STR.fullmatch(cs)):
            raise InputError(f"coefficient in '{label}' must be an integer or a "
                             f"string p or p/q, got {cs!r}")
        try:
            # "p" as an int; only "p/q" needs a Fraction
            c = Fraction(cs) if type(cs) is str and "/" in cs else int(cs)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad coefficient {cs!r} in '{label}'") from exc
        if c == 0:
            raise InputError(f"zero coefficient not allowed in '{label}'")
        poly[d] = c if type(c) is int or c.denominator != 1 else c.numerator
    return poly


def _poly_str(p) -> str:
    parts = []
    for d in sorted(p, reverse=True):
        c = p[d]
        if d == 0:
            parts.append(str(c))
        else:
            t = "t" if d == 1 else f"t^{d}"
            if c == 1:
                parts.append(t)
            elif c == -1:
                parts.append(f"-{t}")
            else:
                parts.append(f"{c}*{t}")
    out = parts[0]
    for piece in parts[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def _make(num, den) -> RingElem:
    """Reduce a pair of integer polynomials to canonical form."""
    if not num:
        return _ZERO
    if not den:
        raise ZeroDivisionError("zero denominator")
    if max(den) and max(num):
        _, num, den = _pgcd_cof(num, den)
    return _normal(num, den)


def _normal(num, den) -> RingElem:
    """Canonical element from coprime integer polynomials num != 0 and den:
    divide out the joint content and make lc(den) positive."""
    c = _pcontent(num, _pcontent(den))
    if den[max(den)] < 0:
        c = -c
    if c != 1:
        num = {d: v // c for d, v in num.items()}
        den = {d: v // c for d, v in den.items()}
    if len(den) == 1 and den.get(0) == 1:
        den = _PONE
    return RingElem(num, den, _raw=True)


def _mul(a, b, c, d) -> RingElem:
    """(a/b) * (c/d) for coprime pairs, by cross-cancellation: the gcds of c
    with b and of a with d are divided out before multiplying, and what is
    left is already coprime (Henrici; Knuth, TAOCP 4.5.1).  A constant side
    shares no factor over Q, so its gcd is skipped."""
    if not a or not c:
        return _ZERO
    if max(c) and max(b):
        _, c, b = _pgcd_cof(c, b)
    if max(a) and max(d):
        _, a, d = _pgcd_cof(a, d)
    return _normal(_pmul(a, c), _pmul(b, d))


_ZERO = RingElem(_PZERO, _PONE, _raw=True)
_ONE = RingElem(_PONE, _PONE, _raw=True)


# ---------------------------------------------------------------------------
# module-level operations


def residue(x: RingElem) -> Fraction:
    """Image of x in the residue field: num(0)/den(0) when the order is 0.

    Elements of positive order map to 0; negative order is outside the ring.
    """
    x = _coerce_strict(x)
    v = x.valuation()
    if v is not INFINITY and v < 0:
        raise NotInRingError(f"residue undefined for order {v} < 0")
    if v != 0:
        return Fraction(0)
    return Fraction(x.num[min(x.num)], x.den[min(x.den)])


def random_unit(rng) -> RingElem:
    """Random unit: a nonzero integer constant in [-10**4, 10**4]."""
    v = 0
    while v == 0:
        v = rng.randint(-10000, 10000)
    return RingElem.const(v)


def _coerce_strict(x) -> RingElem:
    e = _coerce(x)
    if e is NotImplemented:
        raise TypeError(f"expected a ring element, got {type(x).__name__}")
    return e


ZERO = _ZERO
ONE = _ONE
T = RingElem.t_pow(1)
