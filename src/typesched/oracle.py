"""Exact brute-force solvers for desk-scale instances.

Exhaustive search over job assignments with within-type machine symmetry
broken canonically: jobs are placed in index order and may open at most the
first unused machine of each type, so every orbit of within-type machine
permutations is visited exactly once.  Branch-and-bound pruning is
admissible and never affects exactness; it can be disabled to count the
canonical search space.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadExponent, DimensionMismatch, TooLarge
from .model import Instance, Schedule
from .rationals import ZERO, parse_rational, power

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
    if objective == "makespan":
        return _solve_makespan(inst, prune)
    if objective == "lp_norm":
        if p is None:
            raise BadExponent("lp_norm objective needs p")
        if inst.dims != 1:
            raise DimensionMismatch("lp_norm oracle requires D=1")
        p = parse_rational(p)
        if p <= 1:
            raise BadExponent(f"need p > 1, got {p}")
        return _solve_lp_norm(inst, p, prune)
    raise ValueError(f"unknown objective {objective!r}")


def _solve_makespan(inst: Instance, prune: bool) -> OracleResult:
    n, dims = inst.num_jobs, inst.dims
    counts = inst.machine_counts
    # per-job floor: wherever job j lands, some dimension carries at least this
    job_floor = [
        min(max(inst.cost_vec(j, t)) for t in range(inst.num_types) if counts[t] > 0)
        for j in range(n)
    ]
    suffix_floor = [ZERO] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_floor[j] = max(job_floor[j], suffix_floor[j + 1])
    search = _Search(inst, prune, suffix_floor, {m: [ZERO] * dims for m in inst.machines()})
    search.makespan_dfs(0, ZERO)
    return search.result()


def _solve_lp_norm(inst: Instance, p, prune: bool) -> OracleResult:
    n = inst.num_jobs
    counts = inst.machine_counts
    zero = power(ZERO, p)
    job_floor = [
        power(min(inst.cost(j, t) for t in range(inst.num_types) if counts[t] > 0), p)
        for j in range(n)
    ]
    suffix = [zero] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] + job_floor[j]
    search = _Search(inst, prune, suffix, {m: ZERO for m in inst.machines()})
    search.lp_norm_dfs(0, zero, p)
    return search.result()


class _Search:
    """State of one canonical depth-first search: the loads, the machines
    opened per type, the partial assignment and the best leaf so far.

    bound[j] is the admissible bound on what jobs j.. add: their largest
    floor for makespan, the sum of their floors' p-th powers for L_p.
    """

    def __init__(self, inst: Instance, prune: bool, bound: list, loads: dict):
        self.inst = inst
        self.prune = prune
        self.bound = bound
        self.loads = loads
        self.used = [0] * inst.num_types
        self.assignment: list = [None] * inst.num_jobs
        self.value = None
        self.witness = None
        self.explored = 0

    def result(self) -> OracleResult:
        return OracleResult(self.value, Schedule(self.witness), self.explored)

    def _leaf(self, value) -> None:
        self.explored += 1
        if self.value is None or value < self.value:
            self.value = value
            self.witness = tuple(self.assignment)

    def makespan_dfs(self, j: int, cur_max) -> None:
        inst, used, assignment = self.inst, self.used, self.assignment
        if j == inst.num_jobs:
            self._leaf(cur_max)
            return
        if self.prune and self.value is not None:
            if max(cur_max, self.bound[j]) >= self.value:
                return
        dims, counts, loads = inst.dims, inst.machine_counts, self.loads
        for t in range(inst.num_types):
            top = min(used[t] + 1, counts[t])
            vec = inst.cost_vec(j, t)
            for k in range(top):
                machine = loads[(t, k)]
                for d in range(dims):
                    machine[d] += vec[d]
                new_max = max(cur_max, max(machine))
                assignment[j] = (t, k)
                opened = k == used[t]
                if opened:
                    used[t] += 1
                self.makespan_dfs(j + 1, new_max)
                if opened:
                    used[t] -= 1
                for d in range(dims):
                    machine[d] -= vec[d]
        assignment[j] = None

    def lp_norm_dfs(self, j: int, cur_sum, p) -> None:
        inst, used, assignment = self.inst, self.used, self.assignment
        if j == inst.num_jobs:
            self._leaf(cur_sum)
            return
        if self.prune and self.value is not None:
            # (L + c)^p >= L^p + c^p for p > 1, so this bound is admissible
            if cur_sum + self.bound[j] >= self.value:
                return
        counts, loads = inst.machine_counts, self.loads
        for t in range(inst.num_types):
            top = min(used[t] + 1, counts[t])
            c = inst.cost(j, t)
            for k in range(top):
                old = loads[(t, k)]
                loads[(t, k)] = old + c
                assignment[j] = (t, k)
                delta = power(old + c, p) - power(old, p)
                opened = k == used[t]
                if opened:
                    used[t] += 1
                self.lp_norm_dfs(j + 1, cur_sum + delta, p)
                if opened:
                    used[t] -= 1
                loads[(t, k)] = old
        assignment[j] = None
