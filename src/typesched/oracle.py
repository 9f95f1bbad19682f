"""Exact brute-force solvers for desk-scale instances.

Exhaustive search over job assignments with within-type machine symmetry
broken canonically: jobs are placed in index order and may open at most the
first unused machine of each type, so every orbit of within-type machine
permutations is visited exactly once.  Branch-and-bound pruning is
admissible and never affects exactness; it can be disabled to count the
canonical search space.

One search serves every objective, on costs scaled by the lcm of their
denominators so that each load is an int.  A positive scale preserves every
comparison: the search visits the same leaves, prunes the same nodes and
keeps the same witness as on the rationals.  An objective is a start value,
the value after a job joins a machine, and how the bound on the jobs left
joins the value so far (the bound is their largest floor, or the sum of
their floors' p-th powers as (L + c)^p >= L^p + c^p; a floor is the least
value a job adds to an empty machine):

  makespan    0    max(cur, max(new load vector))                      max
  p = k       0    cur + ((old + c)**k - old**k)                       +
  other p     0.0  cur + (((old + c) / scale)**p - (old / scale)**p)   +

The optimum is rat(v, scale), rat(v, scale**k) or the float v.  int / int
is correctly rounded, so load / scale is float() of the rational load, the
float rationals.power takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add

from .errors import BadExponent, DimensionMismatch, TooLarge
from .model import Instance, Schedule
from .rationals import parse_rational, rat

JOB_CAP = 8
MACHINE_CAP = 5


@dataclass(frozen=True)
class OracleResult:
    optimum: object          # rational (makespan, integer p) or float
    witness: Schedule
    explored: int            # complete canonical assignments visited


def exact_solve(
    inst: Instance,
    objective: str = "makespan",
    p=None,
    *,
    prune: bool = True,
) -> OracleResult:
    """Exact optimum and witness for makespan or lp_norm objectives, on at
    most JOB_CAP jobs and MACHINE_CAP machines."""
    n = inst.num_jobs
    if n > JOB_CAP or inst.num_machines > MACHINE_CAP:
        raise TooLarge(
            f"{n} jobs / {inst.num_machines} machines exceed caps "
            f"({JOB_CAP} / {MACHINE_CAP})"
        )
    scale = math.lcm(*(int(c.denominator) for job in inst.costs for vec in job for c in vec))
    costs = [
        [tuple(int(c.numerator) * (scale // int(c.denominator)) for c in vec) for vec in job]
        for job in inst.costs
    ]
    open_types = [t for t, m in enumerate(inst.machine_counts) if m]
    if objective == "makespan":
        start, unit, join, step, empty = 0, scale, max, _makespan_step, (0,) * inst.dims
        floors = [min(max(job[t]) for t in open_types) for job in costs]
    elif objective == "lp_norm":
        if p is None:
            raise BadExponent("lp_norm objective needs p")
        if inst.dims != 1:
            raise DimensionMismatch("lp_norm oracle requires D=1")
        p = parse_rational(p)
        if p <= 1:
            raise BadExponent(f"need p > 1, got {p}")
        costs = [[vec[0] for vec in job] for job in costs]
        join, empty = add, 0
        if p.denominator == 1:
            k = int(p.numerator)
            start, unit = 0, scale ** k

            def step(cur, old, c):
                return old + c, cur + ((old + c) ** k - old ** k)
        else:
            fp, start, unit = float(p), 0.0, None

            def step(cur, old, c):
                return old + c, cur + (((old + c) / scale) ** fp - (old / scale) ** fp)
        floors = [step(start, 0, min(job[t] for t in open_types))[1] for job in costs]
    else:
        raise ValueError(f"unknown objective {objective!r}")
    bound = [start] * (n + 1)
    for j in range(n - 1, -1, -1):
        bound[j] = join(bound[j + 1], floors[j])
    search = _Search(inst, costs, step, join, bound if prune else None, empty)
    search.dfs(0, start)
    optimum = search.value if unit is None else rat(search.value, unit)
    return OracleResult(optimum, Schedule(search.witness), search.explored)


def _makespan_step(cur, old, vec):
    new = tuple(map(add, old, vec))
    return new, max(cur, *new)


class _Search:
    """State of one canonical depth-first search: the loads, the machines
    opened per type, the partial assignment and the best leaf so far.

    bound[j] is the admissible bound on what jobs j.. add (None: no pruning).
    """

    def __init__(self, inst: Instance, costs: list, step, join, bound, empty):
        self.n = inst.num_jobs
        self.counts = inst.machine_counts
        self.costs = costs
        self.step = step
        self.join = join
        self.bound = bound
        self.loads = [[empty] * m for m in self.counts]
        self.used = [0] * inst.num_types
        self.assignment: list = [None] * self.n
        self.value = None
        self.witness = None
        self.explored = 0

    def dfs(self, j: int, cur) -> None:
        if j == self.n:
            self.explored += 1
            if self.value is None or cur < self.value:
                self.value = cur
                self.witness = tuple(self.assignment)
            return
        bound = self.bound
        if bound is not None and self.value is not None:
            if self.join(cur, bound[j]) >= self.value:
                return
        step, counts, used, assignment = self.step, self.counts, self.used, self.assignment
        for t, cost in enumerate(self.costs[j]):
            loads = self.loads[t]
            for k in range(min(used[t] + 1, counts[t])):
                old = loads[k]
                loads[k], value = step(cur, old, cost)
                assignment[j] = (t, k)
                opened = k == used[t]
                if opened:
                    used[t] += 1
                self.dfs(j + 1, value)
                if opened:
                    used[t] -= 1
                loads[k] = old
        assignment[j] = None
