"""Core data model: instances, schedules, loads and objectives.

An instance has K machine types with multiplicities; machines of one type
are identical, so each job carries one cost vector per type (D entries).
Costs are exact rationals throughout: the approximation pipelines scale by
a binary-search target and round to geometric grids, and with rational
epsilon every comparison stays exact.

An Instance makes its costs exact (parse_rational) and checks them
(validate_instance) when it is built, raising BadSpec on a cost that is not
a rational or on any violation, so no solver checks or converts a cost again.
"""

from __future__ import annotations

import hashlib
import json
import operator
import random
from dataclasses import dataclass
from typing import Iterable

from .errors import BadExponent, BadSpec, DimensionMismatch, InvalidSchedule
from .rationals import ZERO, parse_rational, power, rat_str

#: machine identifier: (type index, slot-in-type index)
MachineId = tuple[int, int]


@dataclass(frozen=True)
class Instance:
    """Scheduling instance with typed machines; BadSpec unless valid.

    dims: number of load dimensions D.
    machine_counts: machines per type, K entries.
    costs: costs[j][t][d] > 0 is the requirement of job j in dimension d
        on any machine of type t, a rational after construction.
    """

    dims: int
    machine_counts: tuple[int, ...]
    costs: tuple[tuple[tuple[object, ...], ...], ...]

    def __post_init__(self):
        try:
            dims = _whole(self.dims)
            counts = tuple(map(_whole, self.machine_counts))
            costs = tuple(tuple(tuple(map(parse_rational, v)) for v in job) for job in self.costs)
        except _UNPARSED as exc:
            raise BadSpec(_unparsed(self.costs, exc)) from None
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "machine_counts", counts)
        object.__setattr__(self, "costs", costs)
        problems = validate_instance(self)
        if problems:
            raise BadSpec("; ".join(problems))

    @property
    def num_jobs(self) -> int:
        return len(self.costs)

    @property
    def num_types(self) -> int:
        return len(self.machine_counts)

    @property
    def num_machines(self) -> int:
        return sum(self.machine_counts)

    def machines(self) -> Iterable[MachineId]:
        for t, count in enumerate(self.machine_counts):
            for k in range(count):
                yield (t, k)

    def cost(self, job: int, mtype: int, dim: int = 0):
        return self.costs[job][mtype][dim]

    def cost_vec(self, job: int, mtype: int) -> tuple:
        return self.costs[job][mtype]


#: make_instance(dims, machine_counts, costs) is the Instance constructor
make_instance = Instance


_UNPARSED = (TypeError, ValueError, ZeroDivisionError, OverflowError)


def _whole(value) -> int:
    """value as an int; ValueError unless it is a whole number (int() would
    truncate a D of 1.9 to 1)."""
    q = parse_rational(value)
    if q.denominator != 1:
        raise ValueError(f"{value!r} is not a whole number")
    return q.numerator


def _unparsed(costs, exc) -> str:
    """BadSpec's message for a table that failed to parse with exc: where its
    first cost that is not a rational sits, unless its shape failed first."""
    try:
        for j, job in enumerate(costs):
            for t, vec in enumerate(job):
                for d, c in enumerate(vec):
                    try:
                        parse_rational(c)
                    except _UNPARSED:
                        return f"NonRationalCost: job {j} type {t} dim {d} cost {c!r}"
    except TypeError:
        pass
    return f"malformed instance: {exc}"


@dataclass(frozen=True)
class Schedule:
    """Total assignment of jobs to concrete machines."""

    assignment: tuple[MachineId, ...]


def validate_instance(inst: Instance) -> list[str]:
    """Return [] iff all instance invariants hold, else one message per violation."""
    errors = []
    if inst.num_jobs < 1:
        errors.append("EmptyJobSet: instance has no jobs")
    if inst.num_types < 1 or inst.num_machines < 1:
        errors.append("EmptyMachineSet: instance has no machines")
    if inst.dims < 1:
        errors.append("MissingCostEntry: dimension count must be >= 1")
    if any(m < 0 for m in inst.machine_counts):
        errors.append("EmptyMachineSet: negative machine count")
    for j, job in enumerate(inst.costs):
        if len(job) != inst.num_types:
            errors.append(f"MissingCostEntry: job {j} has {len(job)} type entries, expected {inst.num_types}")
            continue
        for t, vec in enumerate(job):
            if len(vec) != inst.dims:
                errors.append(f"MissingCostEntry: job {j} type {t} has {len(vec)} dims, expected {inst.dims}")
                continue
            for d, c in enumerate(vec):
                if c <= 0:
                    errors.append(f"NonPositiveCost: job {j} type {t} dim {d} cost {rat_str(c)}")
    return errors


def validate_schedule(inst: Instance, sched: Schedule) -> None:
    if len(sched.assignment) != inst.num_jobs:
        raise InvalidSchedule(
            f"schedule covers {len(sched.assignment)} jobs, instance has {inst.num_jobs}"
        )
    for j, (t, k) in enumerate(sched.assignment):
        if not (0 <= t < inst.num_types) or not (0 <= k < inst.machine_counts[t]):
            raise InvalidSchedule(f"job {j} assigned to nonexistent machine ({t},{k})")


def load_vector(inst: Instance, sched: Schedule) -> dict[MachineId, list]:
    """Exact per-machine, per-dimension loads (rational arithmetic)."""
    validate_schedule(inst, sched)
    loads: dict[MachineId, list] = {m: [ZERO] * inst.dims for m in inst.machines()}
    for j, (t, k) in enumerate(sched.assignment):
        vec = loads[(t, k)]
        for d in range(inst.dims):
            vec[d] = vec[d] + inst.costs[j][t][d]
    return loads


def evaluate_makespan(inst: Instance, sched: Schedule):
    """max over machines and dimensions of the load."""
    loads = load_vector(inst, sched)
    return max(v for vec in loads.values() for v in vec) if loads else ZERO


def evaluate_lp_norm_pow(inst: Instance, sched: Schedule, p):
    """Sum of load^p over machines, i.e. ||g||_p^p, for 1-dimensional jobs.

    Exact rational for integer p; float otherwise (rationals.power gives its
    error and who compares such values).
    """
    if inst.dims != 1:
        raise DimensionMismatch(f"L_p norm requires D=1, got D={inst.dims}")
    p = parse_rational(p)
    if p <= 1:
        raise BadExponent(f"norm exponent must be > 1, got {rat_str(p)}")
    loads = load_vector(inst, sched)
    return sum((power(vec[0], p) for vec in loads.values()), power(ZERO, p))


def list_schedule(inst: Instance, growth) -> Schedule:
    """The job of longest cheapest max cost first (ties by job id), each onto
    the first machine whose growth(load, cost) is least, for that machine's
    load vector and the job's cost vector on its type."""
    loads = {m: (ZERO,) * inst.dims for m in inst.machines()}
    cheapest = [min(max(vec) for vec in job) for job in inst.costs]
    assignment: list = [None] * inst.num_jobs
    for j in sorted(range(inst.num_jobs), key=lambda j: (-cheapest[j], j)):
        m = min(loads, key=lambda m: growth(loads[m], inst.cost_vec(j, m[0])))
        assignment[j] = m
        loads[m] = tuple(map(operator.add, loads[m], inst.cost_vec(j, m[0])))
    return Schedule(tuple(assignment))


def greedy_schedule(inst: Instance, p) -> Schedule:
    """List schedule for the L_p norm, 1-dimensional jobs: each job onto the
    machine whose load^p grows least.  Being feasible, its value bounds
    OPT_p^p above."""
    if inst.dims != 1:
        raise DimensionMismatch(f"L_p norm requires D=1, got D={inst.dims}")
    p = parse_rational(p)
    return list_schedule(inst, lambda load, cost: power(load[0] + cost[0], p) - power(load[0], p))


def greedy_makespan_schedule(inst: Instance) -> Schedule:
    """List schedule for the makespan: each job onto the machine whose
    largest finishing load is least.  Its makespan bounds OPT above."""
    return list_schedule(inst, lambda load, cost: max(map(operator.add, load, cost)))


# ---------------------------------------------------------------------------
# instance file format


def instance_to_dict(inst: Instance) -> dict:
    return {
        "D": inst.dims,
        "types": [{"machine_count": m} for m in inst.machine_counts],
        "jobs": [
            {"costs": [[rat_str(c) for c in per_type] for per_type in job]}
            for job in inst.costs
        ],
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        dims = data["D"]
        counts = [t["machine_count"] for t in data["types"]]
        costs = [job["costs"] for job in data["jobs"]]
    except (KeyError, TypeError) as exc:
        raise BadSpec(f"malformed instance document: {exc}") from exc
    return make_instance(dims, counts, costs)


def instance_to_json(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2, sort_keys=True)


def instance_from_json(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadSpec(f"malformed instance document: {exc}") from exc
    return instance_from_dict(data)


def instance_digest(inst: Instance) -> str:
    """Stable content hash used to key report rows."""
    blob = json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# deterministic generator


@dataclass(frozen=True)
class GeneratorSpec:
    num_jobs: int
    dims: int
    machine_counts: tuple[int, ...]
    cost_min: int
    cost_max: int


def generate_instance(spec: GeneratorSpec, seed: int) -> Instance:
    """Deterministic instance: integer costs uniform in [cost_min, cost_max]."""
    if spec.num_jobs < 1 or spec.dims < 1 or not spec.machine_counts:
        raise BadSpec(f"non-positive sizes in {spec}")
    if any(m < 0 for m in spec.machine_counts) or sum(spec.machine_counts) < 1:
        raise BadSpec("generator needs at least one machine")
    if spec.cost_min < 1 or spec.cost_max < spec.cost_min:
        raise BadSpec(f"empty cost range [{spec.cost_min}, {spec.cost_max}]")
    rng = random.Random(seed)
    costs = [
        [
            [rng.randint(spec.cost_min, spec.cost_max) for _ in range(spec.dims)]
            for _ in spec.machine_counts
        ]
        for _ in range(spec.num_jobs)
    ]
    return make_instance(spec.dims, spec.machine_counts, costs)
