"""Makespan minimization of D-dimensional jobs on machines of K types.

Binary search over a geometric target grid wraps a decision procedure:
scale costs by the target T, classify each (job, type) pair as large when
some dimension reaches eps, lift large costs to at least eps^2/D, round up
to powers of 1/(1+eps), enumerate (or extract from a certificate schedule)
per-type pattern profiles for the large-job slots, solve the slot LP, and
round it iteratively to an integral schedule.

Machines of one type are identical, so whether a profile can host the jobs
that are large on every usable type depends only on its slot counts per
(type, class).  Each profile first passes a count-level check, with no
slots, rows or LP built: every such job needs a slot group of its own
(type, class), and the jobs must match distinct slots (augmenting paths
over the groups, each with its slot count as capacity).  Both conditions
are necessary for the slot LP: its assignment and slot rows hold exactly a
fractional matching of these jobs, and a bipartite graph has one only if
it has an integral one.  A profile that fails is skipped like one whose LP
is infeasible, so full mode builds an LP only for profiles that pass.

A makespan-T solution survives the lift (+eps additively) and the round-up
(factor 1+eps), so rounded per-machine loads stay within (1+eps)^2; that is
the pattern capacity, and rem(i) is whatever the pattern leaves unused.
Small-job routes use unrounded scaled costs so the 2D*eps / 3D*eps
overshoot bounds of the rounding engine hold exactly.  The decision
guarantee factor is G(eps, D) = (1+eps)^3 + 3D*eps, and the internal eps is
calibrated so G(eps)*(1+eps) <= 1 + eps_user covers the grid granularity.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .errors import BudgetExhausted, Infeasible, InvariantViolation, PatternOverflow
from .model import Instance, Schedule, evaluate_makespan, require_valid
from .modes import FullEnum, Guided
from .rationals import ONE, ZERO, geometric_grid, halve_until, parse_rational, rat, rat_floor
from .rounding import (
    JobRoutes,
    RoundingEngine,
    RoundingProblem,
    RoundingStats,
    assemble_schedule,
    build_slots,
    pattern_multisets,
    slot_lp,
    slot_patterns,
    untangle,
)

Klass = tuple[int, ...]  # per-dimension exponents k, size (1+eps)^(-k)
Pattern = tuple[Klass, ...]  # sorted multiset of large-job types on one machine
Profile = tuple[tuple[Pattern, ...], ...]  # per type, one pattern per machine
SlotGroup = tuple[int, Klass]  # (machine type, class): slots a large job may take


@dataclass(frozen=True)
class ScaledEntry:
    large: bool
    raw: tuple       # cost / T, exact
    rounded: tuple   # after large-lift and round-up to powers of 1/(1+eps)
    klass: Klass | None  # None unless large with every rounded dim <= 1


@dataclass
class ScaledInstance:
    base: Instance
    eps: object
    target: object
    entries: list[list[ScaledEntry]]
    capacity: object       # (1+eps)^2
    large_cap: int         # floor(D/eps), max large jobs per machine

    def entry(self, job: int, mtype: int) -> ScaledEntry:
        return self.entries[job][mtype]


def power_round_up(value, eps) -> tuple[int, object]:
    """Least power of 1/(1+eps) that is >= value, as (exponent, value)."""
    value = rat(value)
    eps = rat(eps)
    if value <= 0 or eps <= 0:
        raise ValueError("power_round_up needs a positive value and eps")
    grid = geometric_grid(eps)
    e = grid.round_up(value)
    return -e, grid.value(e)


def make_scaled_instance(inst: Instance, target, eps) -> ScaledInstance:
    """Classify on cost/T, lift large costs to eps^2/D, then round up."""
    target = parse_rational(target)
    eps = parse_rational(eps)
    if target <= 0 or not 0 < eps < 1:
        raise ValueError("scaling needs a positive target and eps in (0, 1)")
    dims = inst.dims
    floor_val = eps * eps / dims
    entries: list[list[ScaledEntry]] = []
    for j in range(inst.num_jobs):
        row = []
        for t in range(inst.num_types):
            raw = tuple(rat(c) / target for c in inst.cost_vec(j, t))
            large = any(c >= eps for c in raw)
            ks, rounded = [], []
            for c in raw:
                lifted = max(c, floor_val) if large else c
                k, power = power_round_up(lifted, eps)
                ks.append(k)
                rounded.append(power)
            klass = tuple(ks) if large and all(p <= 1 for p in rounded) else None
            row.append(ScaledEntry(large, raw, tuple(rounded), klass))
        entries.append(row)
    return ScaledInstance(
        base=inst,
        eps=eps,
        target=target,
        entries=entries,
        capacity=(ONE + eps) ** 2,
        large_cap=rat_floor(rat(dims) / eps),
    )


def klass_value(eps, klass: Klass) -> tuple:
    grid = geometric_grid(rat(eps))
    return tuple(grid.value(-k) for k in klass)


def realized_types(scaled: ScaledInstance) -> dict[int, dict[Klass, int]]:
    """Large-job types actually achieved, per machine type, with job counts."""
    out: dict[int, dict[Klass, int]] = {t: {} for t in range(scaled.base.num_types)}
    for j in range(scaled.base.num_jobs):
        for t in range(scaled.base.num_types):
            if scaled.base.machine_counts[t] == 0:
                continue
            klass = scaled.entry(j, t).klass
            if klass is not None:
                out[t][klass] = out[t].get(klass, 0) + 1
    return out


def enumerate_large_job_types(scaled: ScaledInstance) -> set[Klass]:
    """Q restricted to realized size vectors (unrealizable slots cannot be filled)."""
    out: set[Klass] = set()
    for per_type in realized_types(scaled).values():
        out |= per_type.keys()
    return out


def feasible_patterns(scaled: ScaledInstance, counts: dict[Klass, int]) -> list[Pattern]:
    """Patterns over the realized classes of one type (counts, from
    realized_types): count and per-dimension mass limits."""
    return slot_patterns(
        counts,
        scaled.large_cap,
        lambda q: klass_value(scaled.eps, q),
        scaled.capacity,
        scaled.base.dims,
    )


def _type_profiles(
    scaled: ScaledInstance, mtype: int, counts: dict[Klass, int]
) -> list[tuple[Pattern, ...]]:
    """Multisets of patterns for the machines of one type, slot-count pruned."""
    m = scaled.base.machine_counts[mtype]
    if m == 0:
        return [()]
    return list(pattern_multisets(feasible_patterns(scaled, counts), m, counts))


def enumerate_pattern_profiles(scaled: ScaledInstance, budget: int) -> Iterator[Profile]:
    """Lazily yield profiles; raise BudgetExhausted when the cap cuts the stream."""
    realized = realized_types(scaled)
    per_type = [_type_profiles(scaled, t, realized[t]) for t in range(scaled.base.num_types)]
    yielded = 0
    for profile in itertools.product(*per_type):
        if yielded >= budget:
            raise BudgetExhausted(f"profile budget {budget} exhausted")
        yielded += 1
        yield profile


def profile_from_schedule(scaled: ScaledInstance, sched: Schedule) -> Profile:
    """The pattern profile an assignment induces (certificate-guided mode)."""
    per_machine: dict[tuple[int, int], list[Klass]] = {
        m: [] for m in scaled.base.machines()
    }
    for j, (t, k) in enumerate(sched.assignment):
        entry = scaled.entry(j, t)
        if entry.large:
            if entry.klass is None:
                raise PatternOverflow(
                    f"job {j} oversize on type {t} at this target"
                )
            per_machine[(t, k)].append(entry.klass)
    profile = []
    for t in range(scaled.base.num_types):
        pats = []
        for k in range(scaled.base.machine_counts[t]):
            qs = sorted(per_machine[(t, k)])
            if len(qs) > scaled.large_cap:
                raise PatternOverflow(
                    f"machine ({t},{k}) holds {len(qs)} large jobs, cap {scaled.large_cap}"
                )
            mass = [ZERO] * scaled.base.dims
            for q in qs:
                for d, s in enumerate(klass_value(scaled.eps, q)):
                    mass[d] += s
            if any(m > scaled.capacity for m in mass):
                raise PatternOverflow(f"machine ({t},{k}) pattern mass exceeds capacity")
            pats.append(tuple(qs))
        profile.append(tuple(sorted(pats)))
    return tuple(profile)


def slot_only_groups(scaled: ScaledInstance) -> list[tuple[SlotGroup, ...]]:
    """For each job that is large on every usable type (so it has no machine
    route), the slot groups it can take: one per usable type on which it is
    not oversize."""
    inst = scaled.base
    usable = [t for t in range(inst.num_types) if inst.machine_counts[t] > 0]
    out = []
    for row in scaled.entries:
        if all(row[t].large for t in usable):
            out.append(tuple((t, row[t].klass) for t in usable if row[t].klass is not None))
    return out


def profile_admits(groups: list[tuple[SlotGroup, ...]], profile: Profile) -> bool:
    """Count-level necessary condition for the slot LP of profile.

    groups is slot_only_groups(scaled).  Each of those jobs needs a slot of
    one of its groups (route check), and all of them need distinct slots
    (Hall check, by augmenting paths over group capacities).
    """
    capacity: dict[SlotGroup, int] = {}
    for t, patterns in enumerate(profile):
        for pattern in patterns:
            for q in pattern:
                capacity[(t, q)] = capacity.get((t, q), 0) + 1
    options = [[g for g in job_groups if g in capacity] for job_groups in groups]
    if not all(options):
        return False
    holders: dict[SlotGroup, list[int]] = {g: [] for g in capacity}

    def place(i: int, seen: set) -> bool:
        for g in options[i]:
            if g in seen:
                continue
            seen.add(g)
            if len(holders[g]) < capacity[g]:
                holders[g].append(i)
                return True
            for pos, other in enumerate(holders[g]):
                if place(other, seen):
                    holders[g][pos] = i
                    return True
        return False

    return all(place(i, set()) for i in range(len(options)))


def build_rounding_problem(scaled: ScaledInstance, profile: Profile) -> RoundingProblem:
    inst = scaled.base
    slots, mass, slots_of = build_slots(
        [(mk, profile[mk[0]][mk[1]]) for mk in inst.machines()],
        functools.partial(klass_value, scaled.eps),
        inst.dims,
    )
    # slot_patterns and profile_from_schedule both keep every pattern within
    # the capacity, so a negative remainder is a bug, not a wrong profile
    rem = {}
    for machine, used in mass.items():
        rem[machine] = tuple([scaled.capacity - u for u in used])
        if any(r < 0 for r in rem[machine]):
            raise InvariantViolation("pattern mass exceeds capacity")

    # large jobs route to the slots of their class, small ones to every machine
    # at unrounded scaled cost (keeping the 2D*eps overshoot bound exact)
    jobs: dict[int, JobRoutes] = {}
    for j in range(inst.num_jobs):
        machine_costs = {}
        slot_ids = set()
        for t in range(inst.num_types):
            if inst.machine_counts[t] == 0:
                continue
            entry = scaled.entry(j, t)
            if entry.large:
                slot_ids.update(slots_of.get((t, entry.klass), ()))
            else:
                for k in range(inst.machine_counts[t]):
                    machine_costs[(t, k)] = entry.raw
        jobs[j] = JobRoutes(machine_costs, slot_ids)

    return RoundingProblem(
        dims=inst.dims,
        jobs=jobs,
        slots=slots,
        capacities=rem,
        small_caps={m: scaled.eps for m in rem},
        type_budgets={},
        leaf_raw_cost=lambda j, t: max(scaled.entry(j, t).raw),
    )


def build_slot_lp(scaled: ScaledInstance, profile: Profile):
    """The initial Slot-LP (rows: n jobs + slots + D per machine)."""
    return slot_lp(build_rounding_problem(scaled, profile))


def guarantee_factor(eps, dims: int):
    eps = parse_rational(eps)
    return (ONE + eps) ** 3 + 3 * dims * eps


def calibrate_eps(eps_user, dims: int):
    """Largest eps_user/2^k whose end-to-end factor stays within 1 + eps_user."""
    bound = ONE + parse_rational(eps_user)
    return halve_until(eps_user, lambda eps: guarantee_factor(eps, dims) * (ONE + eps) <= bound)


@dataclass
class DecisionResult:
    schedule: Schedule
    makespan: object
    target: object
    profile: Profile
    stats: RoundingStats
    forest: dict = field(default_factory=dict)


@dataclass
class MakespanResult:
    schedule: Schedule
    makespan: object
    accepted_target: object
    eps_internal: object
    probes: int
    probe_stats: list[RoundingStats] = field(default_factory=list)
    forest: dict = field(default_factory=dict)


def makespan_decision(inst: Instance, target, eps, mode) -> DecisionResult:
    """Schedule with makespan <= G(eps, D) * target, or Infeasible.

    BudgetExhausted (full mode only) is not an infeasibility certificate and
    propagates distinctly.
    """
    scaled = make_scaled_instance(inst, target, eps)
    if isinstance(mode, Guided):
        try:
            profiles: Iterator[Profile] = iter([profile_from_schedule(scaled, mode.schedule)])
        except PatternOverflow as exc:
            raise Infeasible(str(exc)) from exc
    else:
        profiles = enumerate_pattern_profiles(scaled, mode.budget)

    bound = guarantee_factor(eps, inst.dims) * rat(parse_rational(target))
    groups = slot_only_groups(scaled)
    while True:
        try:
            profile = next(profiles)
        except StopIteration:
            raise Infeasible("every enumerated profile failed") from None
        if not profile_admits(groups, profile):
            continue
        problem = build_rounding_problem(scaled, profile)
        engine = RoundingEngine(problem)
        try:
            outcome = engine.run()
        except Infeasible:
            continue
        final = untangle(problem, outcome)
        schedule = assemble_schedule(problem, final, inst.num_jobs)
        makespan = evaluate_makespan(inst, schedule)
        if makespan > bound:
            raise InvariantViolation("decision exceeded its guarantee factor")
        return DecisionResult(
            schedule, makespan, parse_rational(target), profile, engine.stats, outcome.forest
        )


def _target_bounds(inst: Instance):
    usable = [t for t in range(inst.num_types) if inst.machine_counts[t] > 0]
    floors = [
        min(max(rat(c) for c in inst.cost_vec(j, t)) for t in usable)
        for j in range(inst.num_jobs)
    ]
    return max(floors), sum(floors, ZERO)


def makespan_ptas(inst: Instance, eps_user, mode) -> MakespanResult:
    """Schedule with makespan <= (1 + eps_user) * OPT."""
    require_valid(inst)
    eps_user = parse_rational(eps_user)
    eps = calibrate_eps(eps_user, inst.dims)
    lower, upper = _target_bounds(inst)
    # lower * (1+eps)^i up to the first value >= upper (upper >= lower)
    powers = geometric_grid(eps)
    grid = [lower * powers.value(i) for i in range(powers.round_up(upper / lower) + 1)]

    probes = 0
    probe_stats: list[RoundingStats] = []

    def probe(idx: int) -> DecisionResult | None:
        nonlocal probes
        probes += 1
        try:
            res = makespan_decision(inst, grid[idx], eps, mode)
            probe_stats.append(res.stats)
            return res
        except Infeasible:
            return None

    best = probe(0)
    if best is None:
        hi = len(grid) - 1
        best = probe(hi)
        if best is None:
            raise InvariantViolation("decision rejected a valid upper bound")
        lo = 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            res = probe(mid)
            if res is None:
                lo = mid
            else:
                hi = mid
                best = res
    return MakespanResult(
        schedule=best.schedule,
        makespan=best.makespan,
        accepted_target=best.target,
        eps_internal=eps,
        probes=probes,
        probe_stats=probe_stats,
        forest=best.forest,
    )
