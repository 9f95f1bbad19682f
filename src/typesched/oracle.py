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
from .rationals import ZERO, parse_rational, power, rat

DEFAULT_JOB_CAP = 8
DEFAULT_MACHINE_CAP = 5


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
    job_cap: int = DEFAULT_JOB_CAP,
    machine_cap: int = DEFAULT_MACHINE_CAP,
    prune: bool = True,
) -> OracleResult:
    """Exact optimum and witness for makespan or lp_norm objectives."""
    n = inst.num_jobs
    if n > job_cap or inst.num_machines > machine_cap:
        raise TooLarge(
            f"{n} jobs / {inst.num_machines} machines exceed caps "
            f"({job_cap} / {machine_cap})"
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
        min(
            max(rat(inst.cost(j, t, d)) for d in range(dims))
            for t in range(inst.num_types)
            if counts[t] > 0
        )
        for j in range(n)
    ]
    suffix_floor = [ZERO] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_floor[j] = max(job_floor[j], suffix_floor[j + 1])

    loads = {m: [ZERO] * dims for m in inst.machines()}
    used = [0] * inst.num_types
    assignment: list = [None] * n
    best = {"value": None, "witness": None, "explored": 0}

    def dfs(j: int, cur_max):
        if j == n:
            best["explored"] += 1
            if best["value"] is None or cur_max < best["value"]:
                best["value"] = cur_max
                best["witness"] = tuple(assignment)
            return
        if prune and best["value"] is not None:
            if max(cur_max, suffix_floor[j]) >= best["value"]:
                return
        for t in range(inst.num_types):
            top = min(used[t] + 1, counts[t])
            vec = inst.cost_vec(j, t)
            for k in range(top):
                machine = loads[(t, k)]
                for d in range(dims):
                    machine[d] += rat(vec[d])
                new_max = max(cur_max, max(machine))
                assignment[j] = (t, k)
                opened = k == used[t]
                if opened:
                    used[t] += 1
                dfs(j + 1, new_max)
                if opened:
                    used[t] -= 1
                for d in range(dims):
                    machine[d] -= rat(vec[d])
        assignment[j] = None

    dfs(0, ZERO)
    return OracleResult(best["value"], Schedule(best["witness"]), best["explored"])


def _solve_lp_norm(inst: Instance, p, prune: bool) -> OracleResult:
    n = inst.num_jobs
    counts = inst.machine_counts

    def power_p(x):
        return power(x, p)

    zero = power_p(ZERO)

    job_floor = [
        power_p(min(rat(inst.cost(j, t, 0)) for t in range(inst.num_types) if counts[t] > 0))
        for j in range(n)
    ]
    suffix = [zero] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] + job_floor[j]

    loads = {m: ZERO for m in inst.machines()}
    used = [0] * inst.num_types
    assignment: list = [None] * n
    best = {"value": None, "witness": None, "explored": 0}

    def dfs(j: int, cur_sum):
        if j == n:
            best["explored"] += 1
            if best["value"] is None or cur_sum < best["value"]:
                best["value"] = cur_sum
                best["witness"] = tuple(assignment)
            return
        if prune and best["value"] is not None:
            # (L + c)^p >= L^p + c^p for p > 1, so this bound is admissible
            if cur_sum + suffix[j] >= best["value"]:
                return
        for t in range(inst.num_types):
            top = min(used[t] + 1, counts[t])
            c = rat(inst.cost(j, t, 0))
            for k in range(top):
                old = loads[(t, k)]
                loads[(t, k)] = old + c
                assignment[j] = (t, k)
                delta = power_p(old + c) - power_p(old)
                opened = k == used[t]
                if opened:
                    used[t] += 1
                dfs(j + 1, cur_sum + delta)
                if opened:
                    used[t] -= 1
                loads[(t, k)] = old
        assignment[j] = None

    dfs(0, zero)
    return OracleResult(best["value"], Schedule(best["witness"]), best["explored"])
