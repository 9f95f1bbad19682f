"""Exact rational arithmetic helpers.

All solver-facing numbers are exact rationals so that classification
thresholds, LP inputs and outputs and overshoot bounds compare exactly.
rat() builds them, always as a FastFraction; callers may also pass a plain
int or Fraction, which mix with it exactly.  The simplex itself pivots over
Python ints (see lp.py).

FastFraction is a fractions.Fraction subclass with no instance dict
(__slots__ = ()).  It overrides only the operators the solvers use: + - * /
from either side, unary -, abs, ** by an int, the six comparisons, float()
and bool().  Each override has a fast path for an operand whose type is
exactly int, Fraction or FastFraction: it computes the reduced pair with
the gcd steps of Fraction._add and Fraction._mul and writes it straight
into Fraction's _numerator and _denominator slots, skipping Fraction's
generic dispatch, its numbers-ABC checks and its property reads.  Any
other operand (bool, float, complex, Decimal, ...) and every division
by zero go to Fraction's own method, and everything not overridden is
Fraction's, so results, exceptions, hash and repr ("Fraction(n, d)") are
Fraction's; only a fast-path result is a FastFraction instead.  A rational
has one reduced pair, so every value, comparison, schedule and report is
the same as with plain Fractions.  The _numerator/_denominator slots are
an implementation detail of CPython's fractions module; they are present
in CPython 3.10 to 3.13, and the module has been tested on 3.11.7 only.

GeometricGrid holds the powers (1+eps)^e that both approximation schemes
round onto, and rounds a rational to its grid exponent in O(1) exact
comparisons.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import InvariantViolation

_gcd = math.gcd
_new = object.__new__


def _make(n: int, d: int) -> "FastFraction":
    """The FastFraction n/d, for coprime ints n and d > 0 (not checked)."""
    q = _new(FastFraction)
    q._numerator = n
    q._denominator = d
    return q


def _sum(na, da, nb, db):
    """na/da + nb/db, reduced as in Fraction._add."""
    g = _gcd(da, db)
    if g == 1:
        return _make(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = _gcd(t, g)
    if g2 == 1:
        return _make(t, s * db)
    return _make(t // g2, s * (db // g2))


def _product(na, da, nb, db):
    """(na/da) * (nb/db) for db > 0, reduced as in Fraction._mul."""
    g1 = _gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = _gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _make(na * nb, db * da)


def _quotient(na, da, nb, db):
    """(na/da) / (nb/db) for nb != 0, reduced as in Fraction._div."""
    g1 = _gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = _gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    if d < 0:
        return _make(-n, -d)
    return _make(n, d)


class FastFraction(Fraction):
    """A Fraction with fast paths for int, Fraction and FastFraction operands
    (see the module docstring); everything not overridden here is Fraction's."""

    __slots__ = ()
    __hash__ = Fraction.__hash__  # defining __eq__ would otherwise unset it

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    def __add__(a, b):
        tb = type(b)
        if tb is int:
            d = a._denominator
            return _make(a._numerator + b * d, d)
        if tb is FastFraction or tb is Fraction:
            return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
        return Fraction.__add__(a, b)

    def __radd__(a, b):
        tb = type(b)
        if tb is int:
            d = a._denominator
            return _make(b * d + a._numerator, d)
        if tb is FastFraction or tb is Fraction:
            return _sum(b._numerator, b._denominator, a._numerator, a._denominator)
        return Fraction.__radd__(a, b)

    def __sub__(a, b):
        tb = type(b)
        if tb is int:
            d = a._denominator
            return _make(a._numerator - b * d, d)
        if tb is FastFraction or tb is Fraction:
            return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(a, b):
        tb = type(b)
        if tb is int:
            d = a._denominator
            return _make(b * d - a._numerator, d)
        if tb is FastFraction or tb is Fraction:
            return _sum(b._numerator, b._denominator, -a._numerator, a._denominator)
        return Fraction.__rsub__(a, b)

    def __mul__(a, b):
        tb = type(b)
        if tb is int:
            da = a._denominator
            g = _gcd(b, da)
            if g > 1:
                return _make(a._numerator * (b // g), da // g)
            return _make(a._numerator * b, da)
        if tb is FastFraction or tb is Fraction:
            return _product(a._numerator, a._denominator, b._numerator, b._denominator)
        return Fraction.__mul__(a, b)

    def __rmul__(a, b):
        tb = type(b)
        if tb is int:
            da = a._denominator
            g = _gcd(b, da)
            if g > 1:
                return _make((b // g) * a._numerator, da // g)
            return _make(b * a._numerator, da)
        if tb is FastFraction or tb is Fraction:
            return _product(b._numerator, b._denominator, a._numerator, a._denominator)
        return Fraction.__rmul__(a, b)

    def __truediv__(a, b):
        tb = type(b)
        if tb is int:
            if b:
                return _quotient(a._numerator, a._denominator, b, 1)
        elif tb is FastFraction or tb is Fraction:
            if b._numerator:
                return _quotient(a._numerator, a._denominator, b._numerator, b._denominator)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(a, b):
        if a._numerator:
            tb = type(b)
            if tb is int:
                return _quotient(b, 1, a._numerator, a._denominator)
            if tb is FastFraction or tb is Fraction:
                return _quotient(b._numerator, b._denominator, a._numerator, a._denominator)
        return Fraction.__rtruediv__(a, b)

    def __neg__(a):
        return _make(-a._numerator, a._denominator)

    def __abs__(a):
        n = a._numerator
        return _make(-n, a._denominator) if n < 0 else a

    def __pow__(a, b):
        if type(b) is int:
            n, d = a._numerator, a._denominator
            if b >= 0:
                return _make(n ** b, d ** b)
            if n > 0:
                return _make(d ** -b, n ** -b)
            if n < 0:
                return _make((-d) ** -b, (-n) ** -b)
        return Fraction.__pow__(a, b)  # non-int exponent, or 0 ** -k

    def __eq__(a, b):
        tb = type(b)
        if tb is int:
            return a._numerator == b and a._denominator == 1
        if tb is FastFraction or tb is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        return Fraction.__eq__(a, b)

    def __lt__(a, b):
        tb = type(b)
        if tb is int:
            return a._numerator < b * a._denominator
        if tb is FastFraction or tb is Fraction:
            return a._numerator * b._denominator < a._denominator * b._numerator
        return Fraction.__lt__(a, b)

    def __le__(a, b):
        tb = type(b)
        if tb is int:
            return a._numerator <= b * a._denominator
        if tb is FastFraction or tb is Fraction:
            return a._numerator * b._denominator <= a._denominator * b._numerator
        return Fraction.__le__(a, b)

    def __gt__(a, b):
        tb = type(b)
        if tb is int:
            return a._numerator > b * a._denominator
        if tb is FastFraction or tb is Fraction:
            return a._numerator * b._denominator > a._denominator * b._numerator
        return Fraction.__gt__(a, b)

    def __ge__(a, b):
        tb = type(b)
        if tb is int:
            return a._numerator >= b * a._denominator
        if tb is FastFraction or tb is Fraction:
            return a._numerator * b._denominator >= a._denominator * b._numerator
        return Fraction.__ge__(a, b)

    def __float__(a):
        return a._numerator / a._denominator

    def __bool__(a):
        return a._numerator != 0


def rat(num, den=None):
    """num, or num/den, as a FastFraction."""
    if den is None:
        t = type(num)
        if t is FastFraction:
            return num  # immutable: no need to rebuild
        if t is int:
            return _make(num, 1)
        if t is Fraction:
            return _make(num._numerator, num._denominator)
        return FastFraction(num)
    if type(num) is int and type(den) is int and den > 0:
        g = _gcd(num, den)
        if g == 1:
            return _make(num, den)
        return _make(num // g, den // g)
    return FastFraction(num, den)


# rat() has one backend.  perfbench/run.py reads this flag to label its
# reports' rational backend, so it stays, always False.
HAVE_GMPY = False

ZERO = rat(0)
ONE = rat(1)


def parse_rational(value) -> "rat":
    """Parse ints, 'a/b' strings, floats (exactly) and Fractions."""
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return rat(int(num), int(den))
        return rat(int(text))
    return rat(value)


def rat_str(value) -> str:
    """Canonical 'a/b' (or plain integer) rendering."""
    value = rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rat_floor(value) -> int:
    """Exact floor of a rational."""
    value = rat(value)
    return value.numerator // value.denominator


def rat_ceil(value) -> int:
    value = rat(value)
    return -((-value.numerator) // value.denominator)


def is_integral(value) -> bool:
    return rat(value).denominator == 1


def power(value, p):
    """value^p for rationals value and p: exact when p is integral, a float
    otherwise (so power(0, p) is the zero to start a sum of such powers from).

    The float is C pow on float(value) and float(p).  float() of a rational
    is correctly rounded (relative error at most u = 2^-53) and pow is within
    one ulp (2u), so to first order power(v, p) = v^p (1 + r) with
    |r| <= (p (1 + |ln v|) + 2) u; the |ln v| term is absent when p's
    denominator is a power of two (3/2, 5/2), as float(p) is then exact.  A
    sum of n such terms adds at most (n - 1) u.  Its callers compare these
    floats with no slack: the oracle's L_p search (which computes the same
    floats on integer-scaled loads), evaluate_lp_norm_pow and greedy_schedule,
    lpnorm's guess bounds against its limit, and the bench ratio check.  Two
    values closer than that error may compare either way, which is why L_p
    full mode takes no greedy limit at non-integral p.
    """
    if p.denominator == 1:
        return value ** p.numerator
    return float(value) ** float(p)


def halve_until(eps_user, factor, *args):
    """Largest eps_user/2^k, k < 64, with factor(eps, *args) <= 1 + eps_user:
    the calibration of a scheme whose end-to-end factor is factor.

    eps_user outside (0, 1] is a ValueError (a plain check: python -O keeps it).
    Each calibration is computed once, cached by factor, args and the integer
    pair of eps_user (hashing a rational would take a modular inverse per call).
    """
    eps_user = parse_rational(eps_user)
    return _halve_until(eps_user.numerator, eps_user.denominator, factor, args)


@functools.lru_cache(maxsize=128)
def _halve_until(num: int, den: int, factor, args: tuple):
    eps_user = rat(num, den)
    if not 0 < eps_user <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {rat_str(eps_user)}")
    bound = ONE + eps_user
    for k in range(64):
        eps = eps_user / (2 ** k)
        if factor(eps, *args) <= bound:
            return eps
    raise InvariantViolation("calibration failed to terminate")


class GeometricGrid:
    """The exact powers (1+eps)^e, e any integer, with rounding onto them.

    A rounding starts from the float estimate log(x) / log(1+eps), rounded
    down or up, with log(x) taken as log(numerator) - log(denominator) so
    huge rationals cannot overflow, and corrects it by exact integer
    comparisons against the cached powers.  Results are exact; the float is
    only a starting point.  The cache is keyed by exponent, so it grows with
    the range of magnitudes rounded, never with the number of values.
    """

    def __init__(self, eps):
        eps = rat(eps)
        if eps <= 0:
            raise ValueError(f"grid needs eps > 0, got {eps}")
        self._up = eps.numerator + eps.denominator  # 1+eps = up/down
        self._down = eps.denominator
        self._log_base = math.log(self._up) - math.log(self._down)
        self._powers: dict = {}

    def value(self, e: int):
        """(1+eps)^e as an exact rational."""
        v = self._powers.get(e)
        if v is None:
            if e >= 0:
                v = rat(self._up ** e, self._down ** e)
            else:
                v = rat(self._down ** -e, self._up ** -e)
            self._powers[e] = v
        return v

    def _above(self, e: int, a, b) -> bool:
        """(1+eps)^e > a/b, for b > 0."""
        v = self.value(e)
        return v.numerator * b > a * v.denominator

    def round_down(self, x) -> int:
        """Largest e with (1+eps)^e <= x, for a rational x > 0."""
        a, b = x.numerator, x.denominator
        if a <= 0 or b <= 0:
            raise ValueError(f"grid rounding needs x > 0, got {a}/{b}")
        e = math.floor((math.log(a) - math.log(b)) / self._log_base)
        while self._above(e, a, b):
            e -= 1
        while not self._above(e + 1, a, b):
            e += 1
        return e

    def round_up(self, x) -> int:
        """Smallest e with (1+eps)^e >= x, for a rational x > 0.

        The estimate ceil(log(x) / log(1+eps)) is usually right, so the
        usual cost is two comparisons: (1+eps)^e >= x and (1+eps)^(e-1) < x.
        """
        a, b = x.numerator, x.denominator
        if a <= 0 or b <= 0:
            raise ValueError(f"grid rounding needs x > 0, got {a}/{b}")
        e = math.ceil((math.log(a) - math.log(b)) / self._log_base)
        while not self._at_least(e, a, b):
            e += 1
        while self._at_least(e - 1, a, b):
            e -= 1
        return e

    def _at_least(self, e: int, a, b) -> bool:
        """(1+eps)^e >= a/b, for b > 0."""
        v = self.value(e)
        return v.numerator * b >= a * v.denominator


@functools.lru_cache(maxsize=16)
def geometric_grid(eps) -> GeometricGrid:
    """The shared grid of one eps; a few eps values are live per process."""
    return GeometricGrid(eps)
