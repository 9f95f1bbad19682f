"""Convex minimization over a polytope with a duality-gap certificate.

Conditional-gradient (Frank-Wolfe) scheme: every linear subproblem is an
exact extreme-point LP solve, iterates are kept as convex combinations of
the returned vertices, and line search keeps the objective monotone.  The
additive-error certificate is the standard gap  g(x) = grad f(x) . (x - s)
with s the linearization minimizer; for objectives that expose exact
rational gradients the final gap is certified in exact arithmetic at an
exactly feasible point (the convex combination is re-normalized in
rationals), so the reported bound f(x) - f* <= gap carries no float slack.

Pairwise steps move weight between active vertices when they descend
faster than the plain Frank-Wolfe step.  Every step length, Frank-Wolfe or
pairwise, is an exact line search: bisection on the sign of the
directional derivative, which still resolves where float values of the
objective no longer tell points apart.  An iteration that moves neither
the iterate nor a vertex weight would repeat forever, so it ends the
solve: the gap is certified there or ToleranceNotReached is raised.

Every LMO call prices its gradient over the region's rows, so phase 1 runs
once, in the first call, and the later calls begin from its tableau.  With
a warm start it does not run at all: every call, the first too, begins from
the tableau lp.vertex_start builds with the warm start as its basic
solution; only a warm start that is no vertex of the region leaves the
first call its phase 1.  Any optimal vertex is a valid LMO answer, since
the gap reads only the minimum value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Protocol

from .errors import Infeasible, InfeasibleRegion, InvariantViolation, ToleranceNotReached
from .lp import EQ, LE, LinearProgram, solve_extreme_point, vertex_start
from .rationals import ZERO, rat


class ConvexObjective(Protocol):
    """A convex differentiable objective evaluated in floats.

    Exact form: an objective may also carry exact_value(x) and
    exact_gradient(x) over rationals.  It carries both or neither, and it
    carries them iff it is to be certified in exact arithmetic: their
    presence alone switches the final gap check from floats to rationals.

    Support: an objective may also carry support, the set of variables its
    value and gradient read; its gradient is 0 off the support, and the line
    search then works on the support alone.
    """

    def value(self, x: dict) -> float: ...

    def gradient(self, x: dict) -> dict: ...


@dataclass
class ConvexSolveResult:
    x: dict  # exact rationals, exactly feasible
    objective_value: float
    duality_gap: float
    iterations: int
    objective_trace: list[float] = field(default_factory=list)


def _line_min(objective, x: dict, d: dict, hi: float) -> float:
    """Minimizer of objective on x + t*d, t in [0, hi], by bisection on the
    sign of the slope.

    The slope is summed over x in its variable order, so the result does not
    depend on the iteration order of d.  An objective with a support (the
    variables its gradient reads and may be nonzero on) has its probe point
    and slope taken over the variables of x in the support only: every
    skipped term is an exact +-0.0, which can flip only the sign of a zero
    sum, and the bisection's slope < 0 does not see that sign.
    """
    support = getattr(objective, "support", None)
    keys = list(x) if support is None else [v for v in x if v in support]

    def slope(t: float) -> float:
        grad = objective.gradient({v: x[v] + t * d.get(v, 0.0) for v in keys})
        return sum(grad.get(v, 0.0) * d.get(v, 0.0) for v in keys)

    if slope(0.0) >= 0:
        return 0.0
    if slope(hi) <= 0:
        return hi
    a, b = 0.0, hi
    for _ in range(64):
        m = (a + b) / 2
        if slope(m) < 0:
            a = m
        else:
            b = m
    return (a + b) / 2


_MIN_CAP = 1000  # the least iteration cap of a solve


def _diameter_estimate(lp: LinearProgram) -> float:
    """Crude per-variable upper bounds from all-nonnegative rows, default 1."""
    ub = {v: None for v in lp.variables}
    for c in lp.constraints:
        if c.rel not in (LE, EQ) or c.rhs < 0:
            continue
        if any(a < 0 for a in c.coeffs.values()):
            continue
        for v, a in c.coeffs.items():
            if a > 0:
                bound = c.rhs / a
                if ub[v] is None or bound < ub[v]:
                    ub[v] = bound
    return math.sqrt(sum(float(b if b is not None else 1) ** 2 for b in ub.values())) or 1.0


def _exactify(active: list[tuple[dict, float]], variables) -> dict:
    """Exactly feasible point: rationalized weights renormalized to sum 1."""
    weights = []
    scale = 1 << 48
    for _, w in active:
        weights.append(rat(max(0, round(w * scale)), scale))
    total = sum(weights, ZERO)
    if total <= 0:
        raise InvariantViolation("active vertex weights vanished")
    x = {v: ZERO for v in variables}
    for (vertex, _), w in zip(active, weights):
        if w == 0:
            continue
        share = w / total
        for v, val in vertex.items():
            if val != 0:
                x[v] = x[v] + share * val
    return x


def solve_convex_over_polytope(
    region: LinearProgram,
    objective: ConvexObjective,
    additive_tol: float,
    start: dict | None = None,
) -> ConvexSolveResult:
    """Minimize a convex differentiable objective to additive_tol over region.

    region carries the constraints (its objective, if any, is ignored);
    start may supply an exactly feasible warm-start point.
    """
    if additive_tol <= 0:
        raise ValueError("additive_tol must be positive")
    lp = LinearProgram(region.variables, region.constraints)
    phase1 = None  # the first solve's phase-1 tableau: every later solve starts there

    def lmo(gradient: dict) -> dict:
        """Vertex minimizing the linearization; gradient entries may be float or rational."""
        nonlocal phase1
        lp.objective = {v: rat(g) for v, g in gradient.items() if g != 0}
        sol = solve_extreme_point(lp, start=phase1)
        phase1 = sol.start
        return dict(sol.values)

    if start is not None:
        base = {v: rat(start.get(v, 0)) for v in region.variables}
        phase1 = vertex_start(lp, base)  # None: the first LMO call runs phase 1
    else:
        try:  # an empty objective: this is a feasibility vertex
            base = lmo({})
        except Infeasible as exc:
            raise InfeasibleRegion("empty polytope") from exc
    active: list[tuple[dict, float]] = [(base, 1.0)]
    x = {v: float(val) for v, val in base.items()}

    exact_mode = hasattr(objective, "exact_gradient")
    trace = [objective.value(x)]

    def certify() -> tuple[ConvexSolveResult | None, float]:
        """The result at the current point if its gap is within tolerance,
        and the gap measured there."""
        x_ex = _exactify(active, region.variables)
        if exact_mode:
            g_ex = objective.exact_gradient(x_ex)
            s_ex = lmo(g_ex)
            gap_ex = sum(
                (g * (x_ex[v] - s_ex[v]) for v, g in g_ex.items()), ZERO
            )
            if gap_ex < 0:
                raise InvariantViolation("negative exact duality gap")
            gap = float(gap_ex)
            if gap_ex <= rat(additive_tol):
                fval = float(objective.exact_value(x_ex))
                return ConvexSolveResult(x_ex, fval, gap, iteration, trace), gap
            return None, gap
        xf = {v: float(val) for v, val in x_ex.items()}
        g = objective.gradient(xf)
        s = lmo(g)
        gap = sum(g.get(v, 0.0) * (xf[v] - float(s[v])) for v in region.variables)
        gap = float(max(gap, 0.0))  # the sum is the int 0 when there are no variables
        if gap <= additive_tol * (1 - 1e-9):
            return ConvexSolveResult(x_ex, objective.value(xf), gap, iteration, trace), gap
        return None, gap

    def correct_over_active() -> float:
        """Pairwise weight transfers among the active vertices (no LP calls).

        These fully-corrective passes remove the zig-zagging that makes the
        plain conditional-gradient step slow once the optimal face is known.
        """
        current = trace[-1]
        for _ in range(40):
            if len(active) < 2:
                break
            g = objective.gradient(x)
            scores = [
                sum(g.get(v, 0.0) * float(val) for v, val in vert.items())
                for vert, _ in active
            ]
            hi = max(
                (i for i in range(len(active)) if active[i][1] > 1e-15),
                key=lambda i: scores[i],
            )
            lo = min(range(len(active)), key=lambda i: scores[i])
            if hi == lo or scores[hi] - scores[lo] <= 1e-14 * (1 + abs(current)):
                break
            hi_vert, hi_weight = active[hi]
            lo_vert = active[lo][0]
            d = {v: float(lo_vert.get(v, 0)) - float(hi_vert.get(v, 0)) for v in x}
            gamma = _line_min(objective, x, d, hi_weight)
            probe = {v: x[v] + gamma * d.get(v, 0.0) for v in x}
            val = objective.value(probe)
            if val >= current:
                break
            active[hi] = (hi_vert, hi_weight - gamma)
            active[lo] = (lo_vert, active[lo][1] + gamma)
            x.update(probe)
            current = val
            active[:] = [(vert, w) for vert, w in active if w > 1e-15]
        return current

    @functools.cache
    def max_iterations() -> int:
        """The iteration cap.  It is at least _MIN_CAP, so only a solve that
        gets that far pays for the diameter estimate; most certify at once."""
        return min(
            500_000, max(_MIN_CAP, int(10 * math.ceil(1 / additive_tol) * _diameter_estimate(lp)))
        )

    iteration = 0
    checked_gap = None  # gap certify() measured at the current point, if it ran there
    while iteration < _MIN_CAP or iteration < max_iterations():
        iteration += 1
        g = objective.gradient(x)
        s = lmo(g)
        sf = {v: float(val) for v, val in s.items()}
        gap = sum(g.get(v, 0.0) * (x[v] - sf[v]) for v in region.variables)

        if gap <= 0.5 * additive_tol:
            result, checked_gap = certify()
            if result is not None:
                return result

        d_fw = {v: sf.get(v, 0.0) - x[v] for v in x}
        g_fw = _line_min(objective, x, d_fw, 1.0)
        moved = {v: x[v] + g_fw * d_fw.get(v, 0.0) for v in x}
        val_fw = objective.value(moved)

        before = (list(x.values()), list(active))
        current = trace[-1]
        if val_fw <= current:
            active[:] = [(vert, w * (1 - g_fw)) for vert, w in active]
            _add_vertex(active, s, g_fw)
            x.update(moved)
            trace.append(val_fw)
        else:
            trace.append(current)
        trace[-1] = correct_over_active()
        active[:] = [(vert, w) for vert, w in active if w > 1e-15]
        if (list(x.values()), list(active)) == before:
            break  # stationary: every later iteration would repeat this one
        checked_gap = None

    if checked_gap is None:  # certify() has not run at this point
        result, checked_gap = certify()
        if result is not None:
            return result
    raise ToleranceNotReached(checked_gap, additive_tol, iteration, list(trace))


def _add_vertex(active: list, vertex: dict, weight: float) -> None:
    if weight <= 0:
        return
    for i, (vert, w) in enumerate(active):
        if vert == vertex:
            active[i] = (vert, w + weight)
            return
    active.append((vertex, weight))
