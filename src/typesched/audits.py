"""Independent cross-checks used by the CLI audit subcommand and the tests.

Everything here deliberately avoids the code paths it audits: LP optima are
recomputed by enumerating polytope vertices from square subsystems, and the
power-mean inequality behind the very-huge-job threshold is sampled on
random multisets.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .lp import EQ, GE, LE, LinearProgram
from .rationals import ONE, ZERO, rat


def _solve_square(matrix, rhs):
    """Exact solution of matrix x = rhs; None when the system is singular.

    Fraction-free (Bareiss) Gauss-Jordan: each row is scaled to integers by
    the lcm of its denominators, and every later entry stays an integer minor,
    so each division is exact.  At the end row r reads det * x_r = a[r][n].
    """
    n = len(matrix)
    a = []
    for row, b in zip(matrix, rhs):
        row = [rat(x) for x in row] + [rat(b)]
        scale = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (scale // x.denominator) for x in row])
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        pivot_row = a[col]
        p = pivot_row[col]
        for r in range(n):
            if r != col:
                row = a[r]
                f = row[col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return [rat(a[r][n], prev) for r in range(n)]


def enumerate_vertices(lp: LinearProgram) -> list[dict]:
    """All vertices of {x >= 0} intersected with lp's constraints.

    Brute force: every n-subset of candidate tight hyperplanes (constraint
    rows plus coordinate planes) is solved exactly and filtered for
    feasibility.  Exponential, used only on desk-size programs.
    """
    names = lp.variables
    n = len(names)
    planes = []
    for c in lp.constraints:
        planes.append(([c.coeffs.get(v, ZERO) for v in names], c.rhs))
    for j in range(n):
        row = [ZERO] * n
        row[j] = ONE
        planes.append((row, ZERO))

    seen = set()
    vertices = []
    for subset in itertools.combinations(range(len(planes)), n):
        matrix = [planes[i][0] for i in subset]
        rhs = [planes[i][1] for i in subset]
        x = _solve_square(matrix, rhs)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        point = {v: x[j] for j, v in enumerate(names)}
        if not all(c.holds(point) for c in lp.constraints):
            continue
        key = tuple(x)
        if key not in seen:
            seen.add(key)
            vertices.append(point)
    return vertices


def vertex_enumeration_optimum(lp: LinearProgram):
    """(optimum, argmin vertex) by exhaustive vertex enumeration; (None, None) if infeasible."""
    best = None
    arg = None
    for vert in enumerate_vertices(lp):
        val = sum((rat(a) * vert[v] for v, a in lp.objective.items()), ZERO)
        if best is None or val < best:
            best, arg = val, vert
    return best, arg


def random_lp(rng: random.Random, max_vars: int = 8, max_rows: int = 6) -> LinearProgram:
    """Small random LP with non-negative objective (hence never unbounded)."""
    nvars = rng.randint(1, max_vars)
    nrows = rng.randint(1, max_rows)
    lp = LinearProgram()
    for j in range(nvars):
        lp.add_variable(f"x{j}", objective=rng.randint(0, 5))
    for _ in range(nrows):
        coeffs = {f"x{j}": rng.randint(-3, 5) for j in range(nvars) if rng.random() < 0.8}
        rel = rng.choice([LE, GE, EQ])
        lp.add_constraint(coeffs, rel, rng.randint(-2, 10))
    return lp


@dataclass(frozen=True)
class AuditResult:
    name: str
    samples: int
    failures: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0


def lp_equivalence_audit(samples: int = 100, seed: int = 0, max_vars: int = 8, max_rows: int = 6) -> AuditResult:
    """Simplex optimum equals exhaustive vertex enumeration, exactly."""
    from .errors import Infeasible
    from .lp import solve_extreme_point

    rng = random.Random(seed)
    failures = 0
    detail = ""
    for i in range(samples):
        lp = random_lp(rng, max_vars=max_vars, max_rows=max_rows)
        expected, _ = vertex_enumeration_optimum(lp)
        try:
            sol = solve_extreme_point(lp)
            got = sol.objective_value
            sparse_ok = len(sol.positives()) <= lp.num_rows
        except Infeasible:
            got = None
            sparse_ok = True
        if got != expected or not sparse_ok:
            failures += 1
            if not detail:
                detail = f"first mismatch at sample {i}: simplex {got} vs enumeration {expected}"
    return AuditResult("lp-equivalence", samples, failures, detail)


def power_mean_audit(samples: int = 1000, seed: int = 0) -> AuditResult:
    """sum g^p + (2 min G)^p <= (1+eps)^p sum g^p whenever |G| >= f(p, eps)."""
    from .lpnorm import f_threshold

    rng = random.Random(seed)
    failures = 0
    detail = ""
    combos = [(p, e) for p in (2, 3) for e in (rat(1, 4), rat(1, 2), rat(1))]
    for i in range(samples):
        p, eps = combos[i % len(combos)]
        f = f_threshold(p, eps)
        G = [rng.uniform(0.05, 100.0) for _ in range(f)]
        lhs = sum(g ** p for g in G) + (2 * min(G)) ** p
        rhs = (1 + float(eps)) ** p * sum(g ** p for g in G)
        if lhs > rhs * (1 + 1e-12):
            failures += 1
            if not detail:
                detail = f"sample {i}: p={p} eps={eps} f={f}"
    return AuditResult("power-mean", samples, failures, detail)


def load_difference_audit(samples: int = 40, seed: int = 0, p: int = 2) -> AuditResult:
    """Non-huge machines of one type in an exact optimum: load >= c_max and
    pairwise load difference <= c_max."""
    from .model import GeneratorSpec, generate_instance, load_vector
    from .oracle import exact_solve

    rng = random.Random(seed)
    failures = 0
    detail = ""
    for i in range(samples):
        n = rng.randint(2, 7)
        m_total = rng.randint(2, 4)
        m1 = rng.randint(1, m_total - 1)
        inst = generate_instance(
            GeneratorSpec(n, 1, (m1, m_total - m1), 1, 10), seed * 1000 + i
        )
        res = exact_solve(inst, "lp_norm", p=p)
        loads = load_vector(inst, res.witness)
        jobs_on = {mk: 0 for mk in inst.machines()}
        for mk in res.witness.assignment:
            jobs_on[mk] += 1
        for t in range(inst.num_types):
            non_huge = [
                (t, k) for k in range(inst.machine_counts[t]) if jobs_on[(t, k)] != 1
            ]
            hosted = [
                inst.cost(j, t) for j, mk in enumerate(res.witness.assignment) if mk in non_huge
            ]
            if not hosted:
                continue
            c_max = max(hosted)
            nh_loads = [loads[mk][0] for mk in non_huge]
            if min(nh_loads) < c_max or max(nh_loads) - min(nh_loads) > c_max:
                failures += 1
                if not detail:
                    detail = f"sample {i} type {t}: loads {nh_loads} c_max {c_max}"
    return AuditResult("load-difference", samples, failures, detail)
