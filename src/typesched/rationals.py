"""Exact rational arithmetic helpers.

All solver-facing numbers are exact rationals so that classification
thresholds, LP inputs and outputs and overshoot bounds compare exactly.
gmpy2.mpq is used when available, otherwise fractions.Fraction; the two
types interoperate, so callers may pass either.  The simplex itself pivots
over Python ints (see lp.py), so its speed does not depend on the backend.

GeometricGrid holds the powers (1+eps)^e that both approximation schemes
round onto, and rounds a rational to its grid exponent in O(1) exact
comparisons.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import InvariantViolation

try:
    from gmpy2 import mpq as _mpq

    def rat(num, den=None):
        if den is None:
            if type(num) is _mpq:
                return num  # immutable: no need to rebuild
            if isinstance(num, float):
                return _mpq(Fraction(num))
            return _mpq(num)
        return _mpq(num, den)

    HAVE_GMPY = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    def rat(num, den=None):
        if den is None:
            if type(num) is Fraction:
                return num  # immutable: no need to rebuild
            return Fraction(num)
        return Fraction(num, den)

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
    if isinstance(value, float):
        return rat(Fraction(value))
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
    otherwise (so power(0, p) is the zero to start a sum of such powers from)."""
    if p.denominator == 1:
        return value ** p.numerator
    return float(value) ** float(p)


def halve_until(eps_user, fits):
    """Largest eps_user/2^k, k < 64, that passes a scheme's fit test.

    eps_user outside (0, 1] is a ValueError (a plain check: python -O keeps it).
    """
    eps_user = parse_rational(eps_user)
    if not 0 < eps_user <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {rat_str(eps_user)}")
    for k in range(64):
        eps = eps_user / (2 ** k)
        if fits(eps):
            return eps
    raise InvariantViolation("calibration failed to terminate")


class GeometricGrid:
    """The exact powers (1+eps)^e, e any integer, with rounding onto them.

    A rounding starts from the float estimate floor(log(x) / log(1+eps)),
    taken as log(numerator) - log(denominator) so huge rationals cannot
    overflow, and corrects it by exact integer comparisons against the
    cached powers.  Results are exact; the float is only a starting point.
    The cache is keyed by exponent, so it grows with the range of
    magnitudes rounded, never with the number of values.
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
        a, b = int(x.numerator), int(x.denominator)
        if a <= 0 or b <= 0:
            raise ValueError(f"grid rounding needs x > 0, got {a}/{b}")
        e = math.floor((math.log(a) - math.log(b)) / self._log_base)
        while self._above(e, a, b):
            e -= 1
        while not self._above(e + 1, a, b):
            e += 1
        return e

    def round_up(self, x) -> int:
        """Smallest e with (1+eps)^e >= x, for a rational x > 0."""
        e = self.round_down(x)
        v = self.value(e)
        return e if v.numerator * x.denominator == x.numerator * v.denominator else e + 1


@functools.lru_cache(maxsize=16)
def geometric_grid(eps) -> GeometricGrid:
    """The shared grid of one eps; a few eps values are live per process."""
    return GeometricGrid(eps)
