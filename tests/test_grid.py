"""Differential tests: GeometricGrid against the power loops it replaced.

The reference functions below are the loop bodies that makespan and lpnorm
used before the shared grid: they rebuild the powers of (1+eps) one exact
multiply or divide at a time.  The grid must agree with them exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from typesched.makespan import klass_value, power_round_up
from typesched.rationals import GeometricGrid, geometric_grid, rat

EPS_VALUES = [Fraction(1, 2), Fraction(1, 16), Fraction(1, 32), Fraction(3, 7)]


def ref_power_round_up(value, eps):
    """Least power of 1/(1+eps) that is >= value, as (exponent, value)."""
    base = 1 + eps
    k = 0
    power = Fraction(1)
    if value <= 1:
        while power / base >= value:
            power = power / base
            k += 1
    else:
        while power < value:
            power = power * base
            k -= 1
    return k, power


def ref_size_class(cost, eps):
    """Largest e with (1+eps)^e <= cost."""
    base = 1 + eps
    e = 0
    power = Fraction(1)
    if cost >= 1:
        while power * base <= cost:
            power = power * base
            e += 1
    else:
        while power > cost:
            power = power / base
            e -= 1
    return e


def ref_large_class_ks(eps, dims):
    base = 1 + eps
    lo = eps * eps / dims
    ks = []
    k = 0
    while base ** (-k) >= lo:
        ks.append(k)
        k += 1
    return ks


class MpqShaped:
    """Stands in for a third-party rational: only numerator and denominator are read."""

    def __init__(self, value: Fraction):
        self.numerator = value.numerator
        self.denominator = value.denominator


def assert_grid_matches(x: Fraction, eps: Fraction):
    grid = geometric_grid(rat(eps))
    k, power = ref_power_round_up(x, eps)
    down = ref_size_class(x, eps)
    for arg in (rat(x), MpqShaped(x)):
        assert grid.round_up(arg) == -k
        assert grid.round_down(arg) == down
    assert grid.value(-k) == power
    assert grid.value(down) == (1 + eps) ** down
    assert power_round_up(x, eps) == (k, power)


positive_rationals = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


@pytest.mark.parametrize("eps", EPS_VALUES)
@given(x=positive_rationals)
def test_random_rationals_match_the_loops(eps, x):
    assert_grid_matches(x, eps)


@pytest.mark.parametrize("eps", EPS_VALUES)
@given(num=st.integers(min_value=1, max_value=999), den=st.integers(min_value=1000, max_value=10**6))
def test_rationals_below_one_match_the_loops(eps, num, den):
    assert_grid_matches(Fraction(num, den), eps)
    assert_grid_matches(Fraction(den, num), eps)


@pytest.mark.parametrize("eps", EPS_VALUES)
def test_exact_powers_and_neighbours(eps):
    step = Fraction(1, 10**6)
    for e in range(-40, 41):
        power = (1 + eps) ** e
        for x in (power - step, power, power + step):
            if x > 0:
                assert_grid_matches(x, eps)
        grid = geometric_grid(rat(eps))
        assert grid.value(e) == power
        assert grid.round_down(rat(power)) == grid.round_up(rat(power)) == e


@pytest.mark.parametrize("eps", EPS_VALUES)
def test_large_class_range_and_klass_values_match_the_loops(eps):
    # per dimension, the large classes k run while (1+eps)^(-k) >= eps^2/D
    for dims in (1, 2, 3):
        ks = ref_large_class_ks(eps, dims)
        assert ks == list(range(-geometric_grid(rat(eps)).round_up(rat(eps * eps / dims)) + 1))
    for k in ks:
        q = (k, ks[-1] - k)
        assert klass_value(geometric_grid(rat(eps)), q) == tuple((1 + eps) ** (-i) for i in q)


def test_grid_rejects_non_positive_input():
    with pytest.raises(ValueError):
        GeometricGrid(0)
    grid = GeometricGrid(Fraction(1, 2))
    with pytest.raises(ValueError):
        grid.round_down(Fraction(0))
    with pytest.raises(ValueError):
        grid.round_up(Fraction(-1, 3))
