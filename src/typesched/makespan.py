"""Makespan minimization of D-dimensional jobs on machines of K types.

Binary search over a geometric target grid wraps a decision procedure:
scale costs by the target T, classify each (job, type) pair as large when
some dimension reaches eps, lift large costs to at least eps^2/D, round up
to powers of 1/(1+eps), enumerate (or extract from a certificate schedule)
per-type pattern profiles for the large-job slots, solve the slot LP, and
round it iteratively to an integral schedule.

The targets are lower*(1+eps)^i, so one scale ladder rounds every cost once,
against lower; the probe at target i shifts those grid exponents by i
instead of rounding every cost again (see ScaleLadder).  In guided mode
every rung whose target is at least the certificate's makespan is known to
accept (makespan_ptas gives the argument), so the search takes those rungs
as accepted without deciding them, and decides its final rung once if it
was one of them; probes counts the decisions run.  Full mode does the same
with a greedy schedule (model.greedy_makespan_schedule) as certificate, and
tries the guided decision on it at each probe before the enumeration.  No
rung's answer moves: that decision accepts only if the greedy profile's
first LP is feasible, and the enumeration yields that profile (realized
classes, within large_cap and the capacity, a slot per slot-only job) and
its count check passes it.  Only an accepting decision's schedule can move.

A certificate's profile at a rung is read off the ladder's grid exponents
(ScaleLadder.profile), with no rung built; every class is a power of
1/(1+eps), so its pattern masses are summed and checked as integers.  A
guided probe whose certificate overflows its patterns rejects there, and
only a probe whose certificate fits builds its rung.

Machines of one type are identical, so whether a profile can host the jobs
that are large on every usable type (slot-only jobs) depends only on its
slot counts per (type, class).  In full mode each profile passes two
checks, with no slots, rows or LP built: every such job needs a slot group
of its own (type, class), and the jobs must match distinct slots
(augmenting paths over the groups, each with its slot count as capacity).
Both conditions are necessary for the slot LP: its assignment and slot rows
hold exactly a fractional matching of these jobs, and a bipartite graph has
one only if it has an integral one.  The first is the profile walk's
(rounding.walk): each pattern multiset carries the bitmask of the jobs its
slots can serve, and only profiles whose masks cover every job are yielded.
The second is count_check's.  A profile that fails either is skipped like
one whose LP is infeasible, its walk node still charged to the budget.
Guided mode skips both, which cannot fail there: profile_from_schedule
puts the class of every such job into the pattern of the certificate
machine that job sits on, or raises PatternOverflow.

A guided decision hands the rounding engine the certificate's routes
(certificate_point, via rounding.route_point): each large job to its own
slot of its class on its own machine, each small job to that machine.
That point holds the first slot LP's assignment and slot rows, and a
makespan problem has no budget rows, so the engine's forced first round,
which commits it with no simplex call, is its only fit check: it raises
Infeasible exactly when some machine's small load exceeds its rem, and
phase 1 then decides on a fresh engine, as with no point.  The search
cannot move: a point that fits proves the first LP feasible, which phase
1 accepts.  So every accept and reject, probes and the accepted rung stay
those of handing no point, and only an accepting decision's schedule can
change, to the certificate with same-type machines relabelled.

A makespan-T solution survives the lift (+eps additively) and the round-up
(factor 1+eps), so rounded per-machine loads stay within (1+eps)^2; that is
the pattern capacity, and rem(i) is whatever the pattern leaves unused.
Small-job routes use unrounded scaled costs c/T, divided out per rounding
problem, so the 2D*eps / 3D*eps overshoot bounds of the rounding engine
hold exactly.  The decision guarantee factor is G(eps, D) = (1+eps)^3 +
3D*eps, and the internal eps is calibrated so G(eps)*(1+eps) <= 1 + eps_user
covers the grid granularity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

from .errors import BudgetExhausted, Infeasible, InvariantViolation, PatternOverflow
from .model import Instance, Schedule, evaluate_makespan, greedy_makespan_schedule
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
    Work,
    assemble_schedule,
    build_slots,
    has_matching,
    pattern_multisets,
    route_point,
    slot_patterns,
    untangle,
    walk,
)

Klass = tuple[int, ...]  # per-dimension exponents k, size (1+eps)^(-k)
Pattern = tuple[Klass, ...]  # sorted multiset of large-job types on one machine
Profile = tuple[tuple[Pattern, ...], ...]  # per type, one pattern per machine
SlotGroup = tuple[int, Klass]  # (machine type, class): slots a large job may take


class ScaledEntry(NamedTuple):
    """One (job, type) pair at target T: large iff some dimension of cost/T
    reaches eps; klass is None unless large with every lifted, rounded-up
    dimension <= 1."""

    large: bool
    klass: Klass | None


_SMALL = ScaledEntry(False, None)


@dataclass
class ScaledInstance:
    base: Instance
    eps: object
    target: object
    entries: list[list[ScaledEntry]]
    capacity: object       # (1+eps)^2
    large_cap: int         # floor(D/eps), max large jobs per machine
    grid: GeometricGrid    # powers of 1+eps; class exponents index into it
    ladder: ScaleLadder    # the ladder this is a rung of
    rung: int              # its index: target = ladder.base * (1+eps)^rung

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


class _Classes(NamedTuple):
    """The class constants of one (eps, D), 1+eps = up/down."""

    lift: int                 # exponent of eps^2/D, the largest class
    capacity: object          # (1+eps)^2
    large_cap: int            # floor(D/eps)
    weights: tuple[int, ...]  # w[k] = down^k * up^(lift-k): class k's mass times up^lift
    room: int                 # the largest integer mass, times up^lift, within capacity


@functools.lru_cache(maxsize=16)
def _classes(num: int, den: int, dims: int) -> _Classes:
    """Keyed by eps's integer pair: hashing a rational would take a modular
    inverse per lookup.  A sum s of weights is a mass s/up^lift, within
    (1+eps)^2 = up^2/down^2 iff s*down^2 <= up^(lift+2), that is s <= room."""
    eps = rat(num, den)
    lift = power_round_up(eps * eps / dims, eps)[0]
    up, down = num + den, den
    weights = tuple(down**k * up ** (lift - k) for k in range(lift + 1))
    return _Classes(lift, (ONE + eps) ** 2, rat_floor(rat(dims) / eps), weights,
                    up ** (lift + 2) // down**2)


class ScaleLadder:
    """The scaled instances of one instance at the targets base*(1+eps)^i.

    Every distinct cost c is rounded once, to its class exponent k against
    base: the least power (1+eps)^(-k) >= c/base, the exponent
    power_round_up gives, read off the ladder's grid.  At rung i, c/T_i is
    (c/base)*(1+eps)^(-i), whose exponent is k + i; rounding up is monotone,
    so a large cost lifted to eps^2/D has exponent min(k + i, lift), lift
    being the exponent of eps^2/D.  A rung therefore makes one exact
    comparison per (job, type), large iff max cost >= eps*T_i, and shifts
    exponents only for the large pairs; it divides no cost.

    profile decides a certificate's pattern profile at a rung from the same
    exponents, without building the rung: see its docstring.
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
        self._classes = _classes(eps.numerator, eps.denominator, inst.dims)
        self.lift, self.capacity, self.large_cap = self._classes[:3]
        # eps*T_0: a cost is large at rung i iff its max reaches _floor*(1+eps)^i
        self._floor = eps * base
        # per (job, type): max cost, and each cost's exponent against base
        self._costs = []
        # exponent of each distinct cost, keyed by its integer pair: hashing
        # a rational would take a modular inverse per lookup
        exponents: dict[tuple[int, int], int] = {}
        for job in inst.costs:
            out = []
            for vec in job:
                ks = []
                for c in vec:
                    key = (c.numerator, c.denominator)
                    k = exponents.get(key)
                    if k is None:
                        k = exponents[key] = -self.grid.round_up(c / base)
                    ks.append(k)
                out.append((max(vec), tuple(ks)))
            self._costs.append(out)
        # per certificate schedule, its table (see _table) and its profiles by rung
        self._tables: dict[Schedule, tuple[list, dict[int, Profile]]] = {}

    def rung(self, i: int) -> ScaledInstance:
        """The scaled instance at target base*(1+eps)^i."""
        value = self.grid.value(i)
        target = self.base * value
        threshold = self._floor * value
        lift = self.lift
        entries: list[list[ScaledEntry]] = []
        for row in self._costs:
            out = []
            for top, ks in row:
                if top >= threshold:
                    ks = tuple(min(k + i, lift) for k in ks)
                    out.append(ScaledEntry(True, ks if min(ks) >= 0 else None))
                else:
                    out.append(_SMALL)
            entries.append(out)
        return ScaledInstance(
            self.inst, self.eps, target, entries, self.capacity, self.large_cap, self.grid,
            self, i,
        )

    def _table(self, sched: Schedule) -> list:
        """Per machine of sched, in machines() order: ((t, k), jobs), jobs
        the (max cost, least exponent, exponents, job) of the jobs on it,
        by max cost descending, so a rung's large jobs are a prefix."""
        per_machine: dict[tuple[int, int], list] = {m: [] for m in self.inst.machines()}
        for j, (t, k) in enumerate(sched.assignment):
            top, ks = self._costs[j][t]
            per_machine[t, k].append((top, min(ks), ks, j))
        table = []
        for machine, jobs in per_machine.items():
            jobs.sort(key=lambda e: e[0], reverse=True)
            table.append((machine, jobs))
        return table

    def profile(self, i: int, sched: Schedule) -> Profile:
        """The pattern profile sched induces at rung i, or PatternOverflow.

        A job is large on its machine at rung i when its max cost reaches
        eps*T_i, with classes min(k + i, lift) over its exponents k.  The
        certificate overflows when a large job has no class (some k + i <
        0), when a machine holds more than large_cap large jobs, or when a
        machine's mass exceeds (1+eps)^2 in some dimension.  Every mass is
        a sum of class weights (_classes), so those tests are integer
        ones, made before any class or pattern is built; the rung itself
        is never built.  Each schedule's table is built once per ladder,
        and each profile given is kept for the rung's decision.
        """
        known = self._tables.get(sched)
        if known is None:
            known = self._tables[sched] = (self._table(sched), {})
        table, profiles = known
        if i in profiles:
            return profiles[i]
        threshold = self._floor * self.grid.value(i)
        lift, _, large_cap, weights, room = self._classes
        large = []  # per machine, its jobs that are large at rung i
        for _, jobs in table:
            n = 0
            while n < len(jobs) and jobs[n][0] >= threshold:
                n += 1
            large.append(jobs[:n])
        oversize = min(((j, t) for ((t, _), _), jobs in zip(table, large)
                        for _, kmin, _, j in jobs if kmin + i < 0), default=None)
        if oversize is not None:
            j, t = oversize
            raise PatternOverflow(f"job {j} oversize on type {t} at this target")
        for ((t, k), _), jobs in zip(table, large):
            if len(jobs) > large_cap:
                raise PatternOverflow(
                    f"machine ({t},{k}) holds {len(jobs)} large jobs, cap {large_cap}"
                )
            # one job has mass at most 1, a class being a power <= 1
            if len(jobs) > 1 and any(
                sum([weights[min(x + i, lift)] for x in dim]) > room
                for dim in zip(*(e[2] for e in jobs))
            ):
                raise PatternOverflow(f"machine ({t},{k}) pattern mass exceeds capacity")
        profile: list[list[Pattern]] = [[] for _ in self.inst.machine_counts]
        for ((t, _), _), jobs in zip(table, large):
            profile[t].append(tuple(sorted(tuple(min(x + i, lift) for x in e[2]) for e in jobs)))
        profiles[i] = tuple(tuple(sorted(pats)) for pats in profile)
        return profiles[i]


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


def _type_profiles(
    scaled: ScaledInstance, mtype: int, counts: dict[Klass, int], cap: int
) -> list[tuple[Pattern, ...]]:
    """Multisets of patterns for the machines of one type, slot-count pruned:
    patterns over the type's realized classes (counts, from realized_types)
    within the count and per-dimension mass limits; the first cap of them."""
    patterns = slot_patterns(
        counts,
        scaled.large_cap,
        functools.partial(klass_value, scaled.grid),
        scaled.capacity,
        scaled.base.dims,
    )
    return pattern_multisets(patterns, scaled.base.machine_counts[mtype], counts, cap)


def enumerate_pattern_profiles(scaled: ScaledInstance, budget: int) -> Iterator[Profile]:
    """Lazily yield, in product order, the profiles whose slots serve every
    slot-only job; BudgetExhausted once the work, one unit per multiset
    listed and per walk node, passes budget (a type lists at most one
    multiset past the budget left).  A multiset is the walk option (index,
    multiset, 0, mask, 0), bit i of mask set if it can serve slot-only job i."""
    groups = _slot_only_groups(scaled)
    serves: dict[SlotGroup, int] = {}
    for i, job_groups in enumerate(groups):
        for g in job_groups:
            serves[g] = serves.get(g, 0) | 1 << i
    realized = realized_types(scaled)
    work = Work(budget)
    options = []
    for t in range(scaled.base.num_types):
        multisets = _type_profiles(scaled, t, realized[t], work.budget - work.spent + 1)
        work.charge(len(multisets))
        opts = []
        for i, patterns in enumerate(multisets):
            served = (serves.get((t, q), 0) for pattern in patterns for q in pattern)
            opts.append((i, patterns, 0, functools.reduce(int.__or__, served, 0), ZERO))
        options.append(opts)
    for _, profile, _ in walk((1 << len(groups)) - 1, options, None, work):
        yield profile


def profile_from_schedule(scaled: ScaledInstance, sched: Schedule) -> Profile:
    """The pattern profile an assignment induces (certificate-guided mode):
    ScaleLadder.profile at the rung scaled is, or PatternOverflow."""
    return scaled.ladder.profile(scaled.rung, sched)


def _slot_only_groups(scaled: ScaledInstance) -> list[list[SlotGroup]]:
    """Per slot-only job, the (type, class) groups it can take: one per
    usable type on which it is not oversize."""
    usable = [t for t, m in enumerate(scaled.base.machine_counts) if m > 0]
    return [
        [(t, row[t].klass) for t in usable if row[t].klass is not None]
        for row in scaled.entries
        if all(row[t].large for t in usable)
    ]


def count_check(scaled: ScaledInstance) -> Callable[[Profile], bool] | None:
    """The matching of the module docstring, built once per decision: None
    when there is no slot-only job, so every profile passes; else profile
    -> whether those jobs match distinct slots of their groups, each group
    holding as many jobs as the profile has slots of its (type, class)."""
    groups = _slot_only_groups(scaled)
    if not groups:
        return None

    def admits(profile: Profile) -> bool:
        capacity: dict[SlotGroup, int] = {}
        for t, patterns in enumerate(profile):
            for pattern in patterns:
                for q in pattern:
                    capacity[t, q] = capacity.get((t, q), 0) + 1
        return has_matching([[g for g in gs if g in capacity] for gs in groups], capacity)

    return admits


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
                raw = tuple(c / scaled.target for c in inst.cost_vec(j, t))
                for k in range(inst.machine_counts[t]):
                    machine_costs[(t, k)] = raw
        jobs[j] = JobRoutes(machine_costs, slot_ids)

    return RoundingProblem(
        dims=inst.dims,
        jobs=jobs,
        slots=slots,
        capacities=rem,
        small_caps={m: scaled.eps for m in rem},
        type_budgets={},
        leaf_raw_cost=lambda j, t: max(inst.cost_vec(j, t)) / scaled.target,
    )


def guarantee_factor(eps, dims: int):
    eps = parse_rational(eps)
    return (ONE + eps) ** 3 + 3 * dims * eps


def calibrate_eps(eps_user, dims: int):
    """Largest eps_user/2^k whose end-to-end factor stays within 1 + eps_user."""
    return halve_until(eps_user, _end_to_end, dims)


def _end_to_end(eps, dims: int):
    """G(eps, D) * (1 + eps): the decision's overshoot times one ladder step."""
    return guarantee_factor(eps, dims) * (ONE + eps)


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
    probes: int  # decisions run; rungs known to accept are skipped
    probe_stats: list[RoundingStats] = field(default_factory=list)
    forest: dict = field(default_factory=dict)


def makespan_decision(inst: Instance, target, eps, mode) -> DecisionResult:
    """Schedule with makespan <= G(eps, D) * target, or Infeasible.

    BudgetExhausted (full mode only) is not an infeasibility certificate and
    propagates distinctly.
    """
    return decide(make_scaled_instance(inst, target, eps), mode)


def certificate_point(scaled: ScaledInstance, problem: RoundingProblem, sched: Schedule):
    """The certificate sched as a 0/1 route point (rounding.route_point) of
    problem, the rounding problem of profile_from_schedule(scaled, sched).
    No capacity row is checked: the engine's forced first round is the one
    fit check, and an overfilling certificate leaves decide to phase 1."""
    machines: dict = {mk: [] for mk in scaled.base.machines()}
    for j, (t, k) in enumerate(sched.assignment):
        machines[t, k].append((j, scaled.entry(j, t).klass))
    return route_point(problem.slots, machines)


def decide(scaled: ScaledInstance, mode) -> DecisionResult:
    """The decision step of makespan_decision, at the target of scaled."""
    if isinstance(mode, Guided):
        try:
            profile = profile_from_schedule(scaled, mode.schedule)
        except PatternOverflow as exc:
            raise Infeasible(str(exc)) from exc
        problem = build_rounding_problem(scaled, profile)
        point = certificate_point(scaled, problem, mode.schedule)
        try:
            return _round(scaled, profile, problem, point)
        except Infeasible:  # the certificate overfills a machine: phase 1 decides
            return _round(scaled, profile, problem)

    check = count_check(scaled)
    for profile in enumerate_pattern_profiles(scaled, mode.budget):
        if check is None or check(profile):
            try:
                return _round(scaled, profile, build_rounding_problem(scaled, profile))
            except Infeasible:
                continue
    raise Infeasible("every enumerated profile failed")


def _round(scaled: ScaledInstance, profile: Profile, problem: RoundingProblem,
           point: dict | None = None) -> DecisionResult:
    """The decision for problem, the rounding problem of profile; Infeasible
    when its first LP is."""
    inst = scaled.base
    engine = RoundingEngine(problem, point)
    outcome = engine.run()
    final = untangle(problem, outcome)
    schedule = assemble_schedule(problem, final, inst.num_jobs)
    makespan = evaluate_makespan(inst, schedule)
    if makespan > guarantee_factor(scaled.eps, inst.dims) * scaled.target:
        raise InvariantViolation("decision exceeded its guarantee factor")
    return DecisionResult(schedule, makespan, scaled.target, profile, engine.stats, outcome.forest)


def _target_bounds(inst: Instance):
    """(lower, upper): the largest and the sum of the jobs' least max costs
    over the usable types."""
    usable = [t for t in range(inst.num_types) if inst.machine_counts[t] > 0]
    floors = [min(max(job[t]) for t in usable) for job in inst.costs]
    return max(floors), sum(floors, ZERO)


def makespan_ptas(inst: Instance, eps_user, mode) -> MakespanResult:
    """Schedule with makespan <= (1 + eps_user) * OPT in full mode, and
    <= (1 + eps_user) * C in guided mode, C the certificate's makespan: the
    accepted target is at most T_{r_c} < (1+eps) * C, and G(eps, D) * (1+eps)
    <= 1 + eps_user.  A guided rung rejects when the certificate overflows
    its patterns or its own profile's LP, which proves nothing about OPT, so
    the guided bound is relative to C; it bounds OPT too when the
    certificate is optimal, as the oracle's is.

    r_c is the least rung whose target is >= C, and guided decide accepts
    every such rung, so the search decides none of them.  Scaled by such a
    T, a certificate machine has loads <= 1, so it holds at most
    floor(D/eps) large jobs, and as the lift adds at most eps^2/D per job,
    its pattern mass per dimension is at most (1+eps)(L + eps) <= (1+eps)^2,
    L <= 1 being its large load: profile_from_schedule raises no
    PatternOverflow.  Its small load is at most 1 - L <= (1+eps)(1 - L) <=
    rem, so the certificate is a point of the slot LP, and the rounding
    loop never turns a feasible first LP into Infeasible (a later failure
    raises InvariantViolation).  So the probes (rung 0, top, then the
    midpoints) and the accepted rung are those of deciding every probe.
    Each midpoint >= r_c moves hi down, so the final hi is at most r_c; if
    it was never decided, it is decided once at the end.  top is raised to
    r_c for a valid certificate above the ladder.

    Full mode takes r_g in place of r_c, r_g the greedy schedule's rung
    (at most top: a job's finishing load is at most the largest load so far
    plus its least max cost, so top stays), and enumerates a probe
    only when the greedy decision rejects it.  That attempt is charged as
    one unit of work against FullEnum.budget: a probe's enumeration has
    budget - 1 units left, and budget 0 raises BudgetExhausted before any
    decision.
    """
    eps_user = parse_rational(eps_user)
    eps = calibrate_eps(eps_user, inst.dims)
    lower, upper = _target_bounds(inst)
    # rungs lower * (1+eps)^i up to the first target >= upper (upper >= lower)
    ladder = ScaleLadder(inst, lower, eps)
    top = ladder.grid.round_up(upper / lower)
    if isinstance(mode, Guided):
        steps = (mode,)
    else:
        Work(mode.budget).charge()  # the greedy attempt is the first unit
        steps = (Guided(greedy_makespan_schedule(inst)), FullEnum(mode.budget - 1))
    # the certificate's rung: rungs >= known accept without a decision
    known = ladder.grid.round_up(evaluate_makespan(inst, steps[0].schedule) / lower)
    top = max(top, known)

    probes = 0
    probe_stats: list[RoundingStats] = []
    best: DecisionResult | None = None  # the last accepting decision run

    def accepts(idx: int) -> bool:
        nonlocal probes, best
        if idx >= known:
            return True
        probes += 1
        if isinstance(mode, Guided):  # an overflowing certificate rejects unbuilt
            try:
                ladder.profile(idx, mode.schedule)
            except PatternOverflow:
                return False
        scaled = ladder.rung(idx)
        for step in steps:
            try:
                best = decide(scaled, step)
            except Infeasible:
                continue
            except BudgetExhausted:  # report the budget asked for
                raise BudgetExhausted(f"work budget {mode.budget} exhausted") from None
            probe_stats.append(best.stats)
            return True
        return False

    hi = 0
    if not accepts(0):
        lo, hi = 0, top  # top >= known accepts
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if accepts(mid):
                hi = mid
            else:
                lo = mid
    if best is None:
        known += 1  # hi is r_c, accepted but not yet decided
        if not accepts(hi):
            raise InvariantViolation("decision rejected a rung its certificate proves")
    return MakespanResult(
        schedule=best.schedule,
        makespan=best.makespan,
        accepted_target=best.target,
        eps_internal=eps,
        probes=probes,
        probe_stats=probe_stats,
        forest=best.forest,
    )
