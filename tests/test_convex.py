import itertools

import pytest

from typesched import convex
from typesched.convex import _line_min, solve_convex_over_polytope
from typesched.errors import InfeasibleRegion, ToleranceNotReached
from typesched.lp import EQ, GE, LE, LinearProgram, solve_extreme_point
from typesched.rationals import rat


class Quadratic:
    """f(x) = sum w_v (x_v - c_v)^2, with exact paths."""

    def __init__(self, centers, weights=None):
        self.centers = centers
        self.weights = weights or {v: 1 for v in centers}

    def value(self, x):
        return sum(self.weights[v] * (x.get(v, 0.0) - c) ** 2 for v, c in self.centers.items())

    def gradient(self, x):
        return {v: 2 * self.weights[v] * (x.get(v, 0.0) - c) for v, c in self.centers.items()}

    def exact_value(self, x):
        return sum(
            (rat(self.weights[v]) * (x.get(v, rat(0)) - rat(c)) ** 2 for v, c in self.centers.items()),
            rat(0),
        )

    def exact_gradient(self, x):
        return {
            v: 2 * rat(self.weights[v]) * (x.get(v, rat(0)) - rat(c))
            for v, c in self.centers.items()
        }


def region(variables, rows):
    lp = LinearProgram()
    for v in variables:
        lp.add_variable(v)
    for coeffs, rel, rhs in rows:
        lp.add_constraint(coeffs, rel, rhs)
    return lp


def test_single_point_region():
    # f(x) = x^2 over {x = 1} -> x = 1, gap 0
    reg = region(["x"], [({"x": 1}, EQ, 1)])
    res = solve_convex_over_polytope(reg, Quadratic({"x": 0}), 1e-6)
    assert res.x["x"] == 1
    assert res.duality_gap == 0


def test_symmetric_optimum_on_segment():
    # t1^2 + t2^2 over {t1 + t2 = 2} -> (1, 1), value 2
    reg = region(["t1", "t2"], [({"t1": 1, "t2": 1}, EQ, 2)])
    res = solve_convex_over_polytope(reg, Quadratic({"t1": 0, "t2": 0}), 1e-9)
    assert res.objective_value == pytest.approx(2.0, abs=1e-6)
    assert float(res.x["t1"]) == pytest.approx(1.0, abs=1e-4)
    assert res.duality_gap <= 1e-9


def test_exact_point_is_feasible_and_certified():
    reg = region(
        ["a", "b", "c"],
        [({"a": 1, "b": 1, "c": 1}, EQ, 1), ({"a": 2, "b": 1}, LE, rat(3, 2))],
    )
    obj = Quadratic({"a": 0.9, "b": 0.2, "c": 0.1})
    res = solve_convex_over_polytope(reg, obj, 1e-7)
    # returned point satisfies every constraint exactly
    assert res.x["a"] + res.x["b"] + res.x["c"] == 1
    assert 2 * res.x["a"] + res.x["b"] <= rat(3, 2)
    assert res.duality_gap <= 1e-7
    # exhaustive grid oracle over the 2-simplex face
    best = min(
        obj.value({"a": i / 200, "b": j / 200, "c": (200 - i - j) / 200})
        for i in range(201)
        for j in range(201 - i)
        if 2 * i / 200 + j / 200 <= 1.5
    )
    assert res.objective_value <= best + 1e-6 + obj.value({"a": 0, "b": 0, "c": 0}) * 0  # gap vs grid
    assert abs(res.objective_value - best) <= 1e-4


def test_objective_trace_monotone():
    reg = region(
        ["x", "y", "z"],
        [({"x": 1, "y": 1, "z": 1}, EQ, 1)],
    )
    res = solve_convex_over_polytope(reg, Quadratic({"x": 0.31, "y": 0.44, "z": 0.17}), 1e-8)
    for earlier, later in itertools.pairwise(res.objective_trace):
        assert later <= earlier + 1e-12


def test_infeasible_region_raises():
    reg = region(["x"], [({"x": 1}, GE, 2), ({"x": 1}, LE, 1)])
    with pytest.raises(InfeasibleRegion):
        solve_convex_over_polytope(reg, Quadratic({"x": 0}), 1e-6)


def test_warm_start_is_used():
    reg = region(["x", "y"], [({"x": 1, "y": 1}, EQ, 1)])
    start = {"x": rat(1, 2), "y": rat(1, 2)}
    res = solve_convex_over_polytope(reg, Quadratic({"x": 0.5, "y": 0.5}), 1e-9, start=start)
    assert res.duality_gap == 0
    assert res.x["x"] == rat(1, 2)
    assert res.iterations <= 2


def test_float_gap_is_a_float_on_a_region_without_variables():
    # the float certificate sums over no variables; the gap must still be a
    # float, as reports print it beside the gaps of other solves
    class Constant:
        def value(self, x):
            return 1.0

        def gradient(self, x):
            return {}

    res = solve_convex_over_polytope(region([], []), Constant(), 1e-6)
    assert type(res.duality_gap) is float
    assert res.duality_gap == 0.0


class Parabola:
    """f(x) = level + (x - center)^2 in one variable x, floats only."""

    def __init__(self, center, level=0.0):
        self.center = center
        self.level = level

    def value(self, x):
        return self.level + (x["x"] - self.center) ** 2

    def gradient(self, x):
        return {"x": 2 * (x["x"] - self.center)}


def test_line_min_stops_at_an_ascending_start():
    # the slope at t = 0 is already nonnegative
    assert _line_min(Parabola(0.25), {"x": 0.5}, {"x": 1.0}, 1.0) == 0.0


def test_line_min_runs_to_a_descending_end():
    # the slope at t = hi is still nonpositive
    assert _line_min(Parabola(3.0), {"x": 0.5}, {"x": 1.0}, 2.0) == 2.0


def test_line_min_finds_an_interior_minimizer():
    t = _line_min(Parabola(0.3), {"x": 0.0}, {"x": 1.0}, 1.0)
    assert abs(t - 0.3) <= 1e-12


def test_line_min_resolves_what_float_values_cannot():
    # 1e-8 from the minimum the value moves by 1e-16, below the spacing of
    # floats near 1, so no comparison of values can place the step
    objective = Parabola(0.5 + 1e-8, level=1.0)
    assert objective.value({"x": 0.5}) == objective.value({"x": 0.5 + 1e-8})
    t = _line_min(objective, {"x": 0.5}, {"x": 1.0}, 1.0)
    assert abs(t - 1e-8) <= 1e-14


def test_forced_stall_is_reported_after_one_iteration(monkeypatch):
    # the float gradient is 0, so no step can descend, while the exact
    # gradient 1 leaves the gap at x = 1 open; the second iteration would
    # repeat the first, so the solve must not run to its cap
    class FlatInFloats:
        def value(self, x):
            return 0.0

        def gradient(self, x):
            return {"x": 0.0}

        def exact_value(self, x):
            return x["x"]

        def exact_gradient(self, x):
            return {"x": rat(1)}

    lp_calls = []
    monkeypatch.setattr(
        convex, "solve_extreme_point",
        lambda lp, start=None: lp_calls.append(1) or solve_extreme_point(lp, start),
    )
    reg = region(["x"], [({"x": 1}, LE, 1)])
    with pytest.raises(ToleranceNotReached) as info:
        solve_convex_over_polytope(reg, FlatInFloats(), 1e-3, start={"x": rat(1)})
    assert info.value.iterations == 1
    # the error carries the exact gap certification measured (x - 0 = 1), not
    # the float gap 0 of the loop, and the stationary point is certified once:
    # one LMO call in the loop and one in certification
    assert info.value.gap == 1.0
    assert str(info.value) == "duality gap 1.0 above tolerance 0.001 after 1 iterations"
    assert len(lp_calls) == 2
    # the objective at the start and after the one iteration, flat in floats
    assert len(info.value.objective_trace) == 2
    assert info.value.objective_trace[-1] == 0.0


def test_early_certificate_skips_the_diameter_estimate(monkeypatch):
    # the cap is at least 1000 iterations, so a solve certified before that
    # never needs the estimate it is computed from
    calls = []
    monkeypatch.setattr(convex, "_diameter_estimate", lambda lp: calls.append(lp) or 1.0)
    reg = region(["t1", "t2"], [({"t1": 1, "t2": 1}, EQ, 2)])
    res = solve_convex_over_polytope(reg, Quadratic({"t1": 0, "t2": 0}), 1e-9)
    assert res.iterations < 1000
    assert calls == []


def test_long_solve_gets_the_cap_of_its_diameter(monkeypatch):
    # f(x) = x over [0, 1] from x = 1 with every step forced to length 1/1000:
    # the gap x = 0.999^k stays open, so the solve runs to its cap
    # min(500000, max(1000, 10 * ceil(1/tol) * diameter)) = 10 * 150 * 1
    class FlatLinear:
        def value(self, x):
            return 0.0  # flat, so no pairwise correction is taken

        def gradient(self, x):
            return {"x": 1.0}

    estimates = []
    real = convex._diameter_estimate

    def estimate(lp):
        estimates.append(real(lp))
        return estimates[-1]

    monkeypatch.setattr(convex, "_diameter_estimate", estimate)
    monkeypatch.setattr(convex, "_line_min", lambda objective, x, d, hi: min(hi, 1e-3))
    reg = region(["x"], [({"x": 1}, LE, 1)])
    with pytest.raises(ToleranceNotReached) as info:
        solve_convex_over_polytope(reg, FlatLinear(), 1 / 150, start={"x": rat(1)})
    assert estimates == [1.0]
    assert info.value.iterations == 1500
    assert info.value.gap == pytest.approx(0.999 ** 1500)
