"""Differential tests: FastFraction against plain fractions.Fraction.

FastFraction is defined whatever the backend, so these tests run with or
without gmpy2.  Every overridden operator is run on random operands, with
FastFraction on either side, and on the same operands with each FastFraction
turned into a plain Fraction; the two outcomes must match exactly: the same
reduced (numerator, denominator), the same float or bool, or the same
exception.  Where both operands are ints, Fractions or FastFractions the
result must also be a FastFraction, the type the solvers keep working in.
"""

import copy
import math
import numbers
import operator
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from typesched import rationals
from typesched.rationals import FastFraction, _fast_rat

small = st.integers(min_value=-12, max_value=12)
large = st.integers(min_value=-(2 ** 80), max_value=2 ** 80)
ints = st.one_of(st.sampled_from([0, 1, -1]), small, large)
dens = st.one_of(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=2 ** 80))


def _ratio(cls):
    return st.builds(lambda n, d, neg: cls(n, -d if neg else d), ints, dens, st.booleans())


class OtherRational:
    """A third-party rational type, as gmpy2's mpq is: a registered
    numbers.Rational with no arithmetic of its own, so Fraction serves it
    from the reverse operators only."""

    def __init__(self, n, d):
        q = Fraction(n, d)
        self.numerator, self.denominator = q.numerator, q.denominator

    def __repr__(self):
        return f"OtherRational({self.numerator}, {self.denominator})"


numbers.Rational.register(OtherRational)

fasts = _ratio(FastFraction)
fractions_ = _ratio(Fraction)
exact = st.one_of(ints, fractions_, fasts)
inexact = st.one_of(
    st.sampled_from([True, False, 0.0, -0.0, 0.5, 1e300, math.inf, -math.inf, math.nan, 2j]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(Decimal, st.integers(min_value=-100, max_value=100)),
    st.just(Decimal("1.25")),
)
foreign = st.one_of(_ratio(OtherRational), inexact)
# rational exponents stay small: Fraction raises to an integral one exactly
exponents = st.one_of(
    *(st.builds(cls, st.integers(min_value=-8, max_value=8), st.integers(min_value=1, max_value=8))
      for cls in (Fraction, FastFraction, OtherRational)),
    inexact,
)

BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]
COMPARE = [operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne]


def plain(x):
    return Fraction(x.numerator, x.denominator) if type(x) is FastFraction else x


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raise", exc


def assert_same(got, want):
    """got and want are outcome() pairs; they must match exactly."""
    assert got[0] == want[0], (got, want)
    g, w = got[1], want[1]
    if got[0] == "raise":
        assert type(g) is type(w)
        if isinstance(w, ZeroDivisionError):
            assert str(g) == str(w)
    elif isinstance(w, Fraction):
        assert isinstance(g, Fraction)
        assert (g.numerator, g.denominator) == (w.numerator, w.denominator)
        assert type(g.numerator) is type(w.numerator) is int
        assert type(g.denominator) is type(w.denominator) is int
    else:
        assert type(g) is type(w)
        assert repr(g) == repr(w)  # floats: nan, inf and -0.0 compare by repr


def check(op, x, y):
    got = outcome(op, x, y)
    assert_same(got, outcome(op, plain(x), plain(y)))
    return got


@pytest.mark.parametrize("op", BINARY + COMPARE, ids=lambda op: op.__name__)
@settings(max_examples=150, deadline=None)
@given(fast=fasts, other=exact, fast_left=st.booleans())
def test_operators_match_fraction_on_exact_operands(op, fast, other, fast_left):
    x, y = (fast, other) if fast_left else (other, fast)
    kind, result = check(op, x, y)
    if kind == "value" and op in BINARY:
        assert type(result) is FastFraction


@pytest.mark.parametrize("op", BINARY + COMPARE, ids=lambda op: op.__name__)
@settings(max_examples=60, deadline=None)
@given(fast=fasts, other=foreign, fast_left=st.booleans())
def test_operators_match_fraction_on_foreign_operands(op, fast, other, fast_left):
    # bool, float, complex, Decimal and other rational types leave the fast paths
    check(op, *((fast, other) if fast_left else (other, fast)))


@pytest.mark.parametrize("op", BINARY, ids=lambda op: op.__name__)
@given(fast=fasts, other=exact, fast_left=st.booleans())
def test_zero_divisors_raise_like_fraction(op, fast, other, fast_left):
    zero = FastFraction(0) if fast_left else 0
    for x, y in ((fast, zero), (zero, fast), (other, FastFraction(0))):
        check(op, x, y)


@settings(max_examples=200, deadline=None)
@given(fast=fasts, k=st.integers(min_value=-6, max_value=6))
def test_integer_powers_match_fraction(fast, k):
    kind, result = check(operator.pow, fast, k)
    if kind == "value":
        assert type(result) is FastFraction
    check(operator.pow, FastFraction(0), k)


@given(fast=fasts, other=exponents)
def test_other_powers_match_fraction(fast, other):
    check(operator.pow, fast, other)


@given(fast=fasts)
@example(fast=FastFraction(10 ** 400, 10 ** 399 + 1))  # float(numerator) would overflow
def test_unary_operators_match_fraction(fast):
    for fn in (operator.neg, abs):
        kind, result = outcome(fn, fast)
        assert_same((kind, result), outcome(fn, plain(fast)))
        assert type(result) is FastFraction
    for fn in (float, bool, math.floor, math.ceil, int, round):
        assert_same(outcome(fn, fast), outcome(fn, plain(fast)))


@given(fast=fasts)
def test_hash_equality_repr_and_str_match_fraction(fast):
    twin = plain(fast)
    assert hash(fast) == hash(twin)
    assert fast == twin and twin == fast and not fast != twin
    assert repr(fast) == repr(twin)
    assert str(fast) == str(twin)
    if fast.denominator == 1:
        n = fast.numerator
        assert fast == n and n == fast and hash(fast) == hash(n)
    assert len({fast, twin}) == 1


@given(fast=fasts)
def test_pickle_and_copies_keep_the_type(fast):
    for clone in (pickle.loads(pickle.dumps(fast)), copy.copy(fast), copy.deepcopy(fast)):
        assert type(clone) is FastFraction
        assert (clone.numerator, clone.denominator) == (fast.numerator, fast.denominator)


def test_fast_type_has_no_instance_dict():
    assert FastFraction.__slots__ == ()
    with pytest.raises(AttributeError):
        FastFraction(1, 2).extra = 1


@given(fast=fasts)
def test_rat_returns_a_fast_value_itself(fast):
    assert _fast_rat(fast) is fast


@pytest.mark.parametrize(
    "args, want",
    [
        ((7,), Fraction(7)),
        ((0,), Fraction(0)),
        ((-12, 8), Fraction(-3, 2)),
        ((3, -6), Fraction(-1, 2)),
        ((-3, -6), Fraction(1, 2)),
        ((0, -5), Fraction(0)),
        (("-35/4",), Fraction(-35, 4)),
        (("2.5",), Fraction(5, 2)),
        ((0.1,), Fraction(0.1)),
        ((Fraction(6, 4),), Fraction(3, 2)),
        ((Fraction(1, 3), Fraction(2, 5)), Fraction(5, 6)),
        ((True,), Fraction(1)),
    ],
)
def test_rat_builds_the_same_pair_as_fraction(args, want):
    got = _fast_rat(*args)
    assert type(got) is FastFraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_rat_rejects_what_fraction_rejects():
    with pytest.raises(ZeroDivisionError):
        _fast_rat(1, 0)
    with pytest.raises(ValueError):
        _fast_rat("one half")
    with pytest.raises(TypeError):
        _fast_rat(1, 0.5)


@pytest.mark.skipif(rationals.HAVE_GMPY, reason="gmpy2 backs rat()")
def test_fallback_backend_is_the_fast_type():
    assert rationals.rat is _fast_rat
    values = [
        rationals.ZERO,
        rationals.ONE,
        rationals.rat(3, 4),
        rationals.parse_rational("5/6"),
        rationals.parse_rational(0.25),
        rationals.parse_rational(Fraction(1, 3)),
        rationals.geometric_grid(Fraction(1, 3)).value(-4),
        rationals.halve_until("1", lambda eps: 10 * eps),
    ]
    assert [type(v) for v in values] == [FastFraction] * len(values)
