"""Makespan minimization of D-dimensional jobs on machines of K types.

Binary search over a geometric target grid wraps a decision procedure:
scale costs by the target T, classify each (job, type) pair as large when
some dimension reaches eps, lift large costs to at least eps^2/D, round up
to powers of 1/(1+eps), enumerate (or extract from a certificate schedule)
per-type pattern profiles for the large-job slots, solve the slot LP, and
round it iteratively to an integral schedule.

The targets are lower*(1+eps)^i, so one scale ladder rounds every cost once,
against lower; the probe at target i shifts those grid exponents by i
instead of rounding every cost again (see ScaleLadder).

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
from .rationals import (
    ONE,
    ZERO,
    GeometricGrid,
    geometric_grid,
    halve_until,
    parse_rational,
    rat,
    rat_floor,
)
from .rounding import (
    JobRoutes,
    RoundingEngine,
    RoundingProblem,
    RoundingStats,
    assemble_schedule,
    build_slots,
    has_matching,
    pattern_multisets,
    slot_lp,
    slot_patterns,
    untangle,
)

Klass = tuple[int, ...]  # per-dimension exponents k, size (1+eps)^(-k)
Pattern = tuple[Klass, ...]  # sorted multiset of large-job types on one machine
Profile = tuple[tuple[Pattern, ...], ...]  # per type, one pattern per machine
SlotGroup = tuple[int, Klass]  # (machine type, class): slots a large job may take


class ScaledEntry:
    """One (job, type) cost vector at target T.

    raw: cost / T, exact; rounded: after large-lift and round-up to powers
    of 1/(1+eps); klass: None unless large with every rounded dim <= 1.
    The scale ladder passes raw=None with the costs and T, and raw is
    divided out on first read: a probe rejected before its rounding problem
    is built never reads it.
    """

    __slots__ = ("large", "_raw", "rounded", "klass", "_costs", "_target")

    def __init__(self, large: bool, raw: tuple | None, rounded: tuple,
                 klass: Klass | None, costs: tuple = (), target=None):
        self.large = large
        self._raw = raw
        self.rounded = rounded
        self.klass = klass
        self._costs = costs
        self._target = target

    @property
    def raw(self) -> tuple:
        if self._raw is None:
            self._raw = tuple(c / self._target for c in self._costs)
        return self._raw

    def _fields(self) -> tuple:
        return self.large, self.raw, self.rounded, self.klass

    def __eq__(self, other):
        if not isinstance(other, ScaledEntry):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "ScaledEntry(large={!r}, raw={!r}, rounded={!r}, klass={!r})".format(
            *self._fields()
        )


@dataclass
class ScaledInstance:
    base: Instance
    eps: object
    target: object
    entries: list[list[ScaledEntry]]
    capacity: object       # (1+eps)^2
    large_cap: int         # floor(D/eps), max large jobs per machine
    grid: GeometricGrid    # powers of 1+eps; class exponents index into it

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


class ScaleLadder:
    """The scaled instances of one instance at the targets base*(1+eps)^i.

    Every distinct cost c is rounded once, to its class exponent k against
    base: the least power (1+eps)^(-k) >= c/base, the exponent
    power_round_up gives, read off the ladder's grid.  At rung i, c/T_i is
    (c/base)*(1+eps)^(-i), whose exponent is k + i; rounding up is monotone,
    so a large cost lifted to eps^2/D has exponent min(k + i, lift), lift
    being the exponent of eps^2/D.  A rung therefore makes one exact
    comparison per (job, type), large iff max cost >= eps*T_i, and divides
    for raw = c/T_i only when an entry's raw is read.
    """

    def __init__(self, inst: Instance, base, eps):
        base = parse_rational(base)
        eps = parse_rational(eps)
        if base <= 0 or not 0 < eps < 1:
            raise ValueError("scaling needs a positive target and eps in (0, 1)")
        self.inst = inst
        self.base = base
        self.eps = eps
        self.grid = geometric_grid(eps)
        self.lift = power_round_up(eps * eps / inst.dims, eps)[0]
        self.capacity = (ONE + eps) ** 2
        self.large_cap = rat_floor(rat(inst.dims) / eps)
        # per (job, type): exact costs, their max, their exponents against base
        self._costs = []
        # exponent of each distinct cost, keyed by its integer pair: hashing
        # a rational would take a modular inverse per lookup
        exponents: dict[tuple[int, int], int] = {}
        for j in range(inst.num_jobs):
            row = []
            for t in range(inst.num_types):
                vec = tuple(rat(c) for c in inst.cost_vec(j, t))
                ks = []
                for c in vec:
                    key = (c.numerator, c.denominator)
                    k = exponents.get(key)
                    if k is None:
                        k = exponents[key] = -self.grid.round_up(c / base)
                    ks.append(k)
                row.append((vec, max(vec), tuple(ks)))
            self._costs.append(row)

    def rung(self, i: int) -> ScaledInstance:
        """The scaled instance at target base*(1+eps)^i."""
        target = self.base * self.grid.value(i)
        threshold = self.eps * target
        lift, grid = self.lift, self.grid
        entries: list[list[ScaledEntry]] = []
        for row in self._costs:
            out = []
            for vec, top, ks in row:
                if top >= threshold:
                    ks = tuple(min(k + i, lift) for k in ks)
                    klass = ks if min(ks) >= 0 else None
                    out.append(ScaledEntry(True, None, klass_value(grid, ks), klass, vec, target))
                else:
                    ks = tuple(k + i for k in ks)
                    out.append(ScaledEntry(False, None, klass_value(grid, ks), None, vec, target))
            entries.append(out)
        return ScaledInstance(
            self.inst, self.eps, target, entries, self.capacity, self.large_cap, grid
        )


def make_scaled_instance(inst: Instance, target, eps) -> ScaledInstance:
    """Classify on cost/T, lift large costs to eps^2/D, then round up: rung 0
    of the ladder whose base is target."""
    return ScaleLadder(inst, target, eps).rung(0)


def klass_value(grid: GeometricGrid, klass: Klass) -> tuple:
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
        lambda q: klass_value(scaled.grid, q),
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
                for d, s in enumerate(klass_value(scaled.grid, q)):
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
    return has_matching(options, capacity)


def build_rounding_problem(scaled: ScaledInstance, profile: Profile) -> RoundingProblem:
    inst = scaled.base
    slots, mass, slots_of = build_slots(
        [(mk, profile[mk[0]][mk[1]]) for mk in inst.machines()],
        functools.partial(klass_value, scaled.grid),
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
    return decide(make_scaled_instance(inst, target, eps), mode)


def decide(scaled: ScaledInstance, mode) -> DecisionResult:
    """The decision step of makespan_decision, at the target of scaled."""
    inst = scaled.base
    if isinstance(mode, Guided):
        try:
            profiles: Iterator[Profile] = iter([profile_from_schedule(scaled, mode.schedule)])
        except PatternOverflow as exc:
            raise Infeasible(str(exc)) from exc
    else:
        profiles = enumerate_pattern_profiles(scaled, mode.budget)

    bound = guarantee_factor(scaled.eps, inst.dims) * scaled.target
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
            schedule, makespan, scaled.target, profile, engine.stats, outcome.forest
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
    # rungs lower * (1+eps)^i up to the first target >= upper (upper >= lower)
    ladder = ScaleLadder(inst, lower, eps)
    top = ladder.grid.round_up(upper / lower)

    probes = 0
    probe_stats: list[RoundingStats] = []

    def probe(idx: int) -> DecisionResult | None:
        nonlocal probes
        probes += 1
        try:
            res = decide(ladder.rung(idx), mode)
            probe_stats.append(res.stats)
            return res
        except Infeasible:
            return None

    best = probe(0)
    if best is None:
        hi = top
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
