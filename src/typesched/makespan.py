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

Every class is a power of 1/(1+eps), so a pattern's mass is a sum of
integer class weights (_classes), checked against an integer room: the
enumeration lists patterns with those weights (_type_profiles), a
certificate's profile at a rung is read off the ladder's grid exponents
with them (ScaleLadder.certificate), and each machine's rem is one
rational from them (_Classes.rem).  Slots carry only their class.  A
rung's entries are built only when something reads them
(ScaledInstance.entries): the enumeration and phase 1 do, a guided
decision that overflows or fits its certificate does not.

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

A guided decision rounds the certificate's own routes first
(certificate_problem): the profile's slots and rem, and per job the one
route rounding.route_point gives it, each large job the slot of its class
on its own machine, each small job that machine.  Every other route of the
full problem is one the certificate's 0/1 point sets to 0, which the
engine would drop before its first round, so this is the round the engine
makes with the full problem and that point.  A makespan problem has no
budget rows, so that forced round, which commits the certificate with no
simplex call, is its only fit check: it raises Infeasible exactly when
some machine's small load exceeds its rem, and phase 1 then decides on the
full problem (build_rounding_problem), as with no point.  The search
cannot move: a point that fits proves the first LP feasible, which phase
1 accepts.  So every accept and reject, probes and the accepted rung stay
those of phase 1, and only an accepting decision's schedule can change, to
the certificate with same-type machines relabelled.

A makespan-T solution survives the lift (+eps additively) and the round-up
(factor 1+eps), so rounded per-machine loads stay within (1+eps)^2; that is
the pattern capacity, and rem(i) is whatever the pattern leaves unused, one
exact rational from the integer class weights (_Classes.rem).
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
    has_matching,
    number_slots,
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
    """One rung of a ScaleLadder.  Its entries are built on first read, so
    a rung whose decision reads only the ladder's certificate table (decide,
    Guided) costs no entry at all."""

    base: Instance
    eps: object
    target: object
    ladder: ScaleLadder    # the ladder this is a rung of; its classes and grid
    rung: int              # its index: target = ladder.base * (1+eps)^rung

    @functools.cached_property
    def entries(self) -> list[list[ScaledEntry]]:
        """Per job, per type, its entry at this target."""
        return self.ladder._entries(self.rung)

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

    def rem(self, pattern: Pattern, dims: int) -> tuple:
        """capacity minus pattern's mass, per dimension, each one exact
        rational from integers: a weight sum s is the mass s/up^lift, which
        leaves (up^(lift+2) - s*down^2) / (down^2*up^lift).  _type_profiles
        and ScaleLadder.certificate keep every pattern within room, so a
        pattern above it is a bug, not a wrong profile."""
        scale = self.weights[0]  # up^lift
        num, den = self.capacity.numerator * scale, self.capacity.denominator * scale
        out = []
        for d in range(dims):
            s = sum([self.weights[q[d]] for q in pattern])
            if s > self.room:
                raise InvariantViolation("pattern mass exceeds capacity")
            out.append(rat(num - s * self.capacity.denominator, den))
        return tuple(out)


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
    being the exponent of eps^2/D.  A rung's entries therefore take one
    exact comparison per (job, type), large iff max cost >= eps*T_i, and
    shift exponents only for the large pairs; they divide no cost.

    The pass that takes each (job, type)'s max cost also gives the target
    bounds: lower, the largest of the jobs' least max costs over the usable
    types, and upper, their sum.  base defaults to lower.

    certificate decides a certificate's pattern profile and routes at a
    rung from the same exponents, without building the rung's entries: see
    its docstring.
    """

    def __init__(self, inst: Instance, base, eps):
        usable = [t for t, m in enumerate(inst.machine_counts) if m > 0]
        tops = [[max(vec) for vec in job] for job in inst.costs]
        floors = [min([row[t] for t in usable]) for row in tops]
        self.lower, self.upper = max(floors), sum(floors, ZERO)
        base = self.lower if base is None else parse_rational(base)
        eps = parse_rational(eps)
        if base <= 0 or not 0 < eps < 1:
            raise ValueError("scaling needs a positive target and eps in (0, 1)")
        self.inst = inst
        self.base = base
        self.eps = eps
        self.grid = geometric_grid(eps)
        self._classes = _classes(eps.numerator, eps.denominator, inst.dims)
        # eps*T_0: a cost is large at rung i iff its max reaches _floor*(1+eps)^i
        self._floor = eps * base
        # per (job, type): max cost, and each cost's exponent against base
        self._costs = []
        # exponent of each distinct cost, keyed by its integer pair: hashing
        # a rational would take a modular inverse per lookup
        exponents: dict[tuple[int, int], int] = {}
        for job, row in zip(inst.costs, tops):
            out = []
            for vec, top in zip(job, row):
                ks = []
                for c in vec:
                    key = (c.numerator, c.denominator)
                    k = exponents.get(key)
                    if k is None:
                        k = exponents[key] = -self.grid.round_up(c / base)
                    ks.append(k)
                out.append((top, tuple(ks)))
            self._costs.append(out)
        # per certificate schedule, its table (see _table) and its
        # (profile, routes) by rung
        self._tables: dict[Schedule, tuple[list, dict[int, tuple]]] = {}

    def rung(self, i: int) -> ScaledInstance:
        """The scaled instance at target base*(1+eps)^i; its entries are
        built on first read (_entries)."""
        return ScaledInstance(self.inst, self.eps, self.base * self.grid.value(i), self, i)

    def _entries(self, i: int) -> list[list[ScaledEntry]]:
        """The entries of rung i."""
        threshold = self._floor * self.grid.value(i)
        lift = self._classes.lift
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
        return entries

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

    def certificate(self, i: int, sched: Schedule) -> tuple[Profile, dict]:
        """(profile, routes) of sched at rung i, or PatternOverflow.

        A job is large on its machine at rung i when its max cost reaches
        eps*T_i, with classes min(k + i, lift) over its exponents k.  The
        certificate overflows when a large job has no class (some k + i <
        0), when a machine holds more than large_cap large jobs, or when a
        machine's mass exceeds (1+eps)^2 in some dimension.  Every mass is
        a sum of class weights (_classes), so those tests are integer
        ones, made before any class or pattern is built; the rung's
        entries are never built.

        profile is the pattern profile sched induces; routes maps each
        machine (t, k) of sched to its (job, class) pairs, class None for a
        job small there: the machines argument of rounding.route_point.
        Each schedule's table is built once per ladder, and each rung's
        answer is kept for the rung's decision.
        """
        known = self._tables.get(sched)
        if known is None:
            known = self._tables[sched] = (self._table(sched), {})
        table, found = known
        if i in found:
            return found[i]
        threshold = self._floor * self.grid.value(i)
        lift, _, large_cap, weights, room = self._classes
        large = []  # per machine, its jobs that are large at rung i
        for _, jobs in table:
            n = 0
            while n < len(jobs) and jobs[n][0] >= threshold:
                n += 1
            large.append(n)
        oversize = min(((j, t) for ((t, _), jobs), n in zip(table, large)
                        for _, kmin, _, j in jobs[:n] if kmin + i < 0), default=None)
        if oversize is not None:
            j, t = oversize
            raise PatternOverflow(f"job {j} oversize on type {t} at this target")
        for ((t, k), jobs), n in zip(table, large):
            if n > large_cap:
                raise PatternOverflow(f"machine ({t},{k}) holds {n} large jobs, cap {large_cap}")
            # one job has mass at most 1, a class being a power <= 1
            if n > 1 and any(
                sum([weights[min(x + i, lift)] for x in dim]) > room
                for dim in zip(*(e[2] for e in jobs[:n]))
            ):
                raise PatternOverflow(f"machine ({t},{k}) pattern mass exceeds capacity")
        profile: list[list[Pattern]] = [[] for _ in self.inst.machine_counts]
        routes = {}
        for ((t, k), jobs), n in zip(table, large):
            pairs = [(e[3], tuple([min(x + i, lift) for x in e[2]])) for e in jobs[:n]]
            profile[t].append(tuple(sorted([q for _, q in pairs])))
            pairs += [(e[3], None) for e in jobs[n:]]
            routes[t, k] = pairs
        found[i] = tuple(tuple(sorted(pats)) for pats in profile), routes
        return found[i]


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
    of at most large_cap slots whose class weights sum within room in every
    dimension, that is whose mass is within (1+eps)^2; the first cap of them."""
    classes = scaled.ladder._classes
    patterns = slot_patterns(
        counts,
        classes.large_cap,
        lambda q: [classes.weights[k] for k in q],
        classes.room,
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
    ScaleLadder.certificate's profile at the rung scaled is, or
    PatternOverflow."""
    return scaled.ladder.certificate(scaled.rung, sched)[0]


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


def _machine_rows(scaled: ScaledInstance, profile: Profile):
    """The slots of profile (machine (t, k) takes pattern profile[t][k]), the
    slot ids of each (type, class), and each machine's rem: the capacity
    its pattern leaves, from the integer class weights (_Classes.rem)."""
    inst = scaled.base
    patterns = [(mk, profile[mk[0]][mk[1]]) for mk in inst.machines()]
    slots, slots_of = number_slots(patterns)
    classes = scaled.ladder._classes
    return slots, slots_of, {mk: classes.rem(pattern, inst.dims) for mk, pattern in patterns}


def _problem(scaled: ScaledInstance, jobs: dict[int, JobRoutes], slots, rem) -> RoundingProblem:
    inst = scaled.base
    return RoundingProblem(
        dims=inst.dims,
        jobs=jobs,
        slots=slots,
        capacities=rem,
        small_caps={m: scaled.eps for m in rem},
        type_budgets={},
        leaf_raw_cost=lambda j, t: max(inst.cost_vec(j, t)) / scaled.target,
    )


def build_rounding_problem(scaled: ScaledInstance, profile: Profile) -> RoundingProblem:
    """The rounding problem of profile with every route: each job large on a
    type to the slots of its class there, each job small on a type to every
    machine of it at unrounded scaled cost (keeping the 2D*eps overshoot
    bound exact)."""
    inst = scaled.base
    slots, slots_of, rem = _machine_rows(scaled, profile)
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
    return _problem(scaled, jobs, slots, rem)


def certificate_problem(scaled: ScaledInstance, profile: Profile,
                        sched: Schedule) -> RoundingProblem:
    """The rounding problem of profile, sched's profile at the rung of
    scaled, holding only sched's own routes (rounding.route_point): each
    large job the slot of its class on its machine, each small job its
    machine at cost c/T.  Its classes come from the ladder's certificate
    table, so the rung's entries are not built."""
    inst = scaled.base
    slots, _, rem = _machine_rows(scaled, profile)
    point = route_point(slots, scaled.ladder.certificate(scaled.rung, sched)[1])
    jobs: dict[int, JobRoutes] = {}
    for kind, j, to in point:
        if kind == "s":
            jobs[j] = JobRoutes({}, {to})
        else:
            cost = tuple([c / scaled.target for c in inst.cost_vec(j, to[0])])
            jobs[j] = JobRoutes({to: cost}, set())
    return _problem(scaled, jobs, slots, rem)


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


def decide(scaled: ScaledInstance, mode) -> DecisionResult:
    """The decision step of makespan_decision, at the target of scaled."""
    if isinstance(mode, Guided):
        try:
            profile = profile_from_schedule(scaled, mode.schedule)
        except PatternOverflow as exc:
            raise Infeasible(str(exc)) from exc
        problem = certificate_problem(scaled, profile, mode.schedule)
        try:
            return _round(scaled, profile, problem)
        except Infeasible:  # the certificate overfills a machine: phase 1 decides
            return _round(scaled, profile, build_rounding_problem(scaled, profile))

    check = count_check(scaled)
    for profile in enumerate_pattern_profiles(scaled, mode.budget):
        if check is None or check(profile):
            try:
                return _round(scaled, profile, build_rounding_problem(scaled, profile))
            except Infeasible:
                continue
    raise Infeasible("every enumerated profile failed")


def _round(scaled: ScaledInstance, profile: Profile, problem: RoundingProblem) -> DecisionResult:
    """The decision for problem, a rounding problem of profile; Infeasible
    when its first LP is."""
    inst = scaled.base
    engine = RoundingEngine(problem)
    outcome = engine.run()
    final = untangle(problem, outcome)
    schedule = assemble_schedule(problem, final, inst.num_jobs)
    makespan = evaluate_makespan(inst, schedule)
    if makespan > guarantee_factor(scaled.eps, inst.dims) * scaled.target:
        raise InvariantViolation("decision exceeded its guarantee factor")
    return DecisionResult(schedule, makespan, scaled.target, profile, engine.stats, outcome.forest)


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
    # rungs lower * (1+eps)^i up to the first target >= upper (upper >= lower)
    ladder = ScaleLadder(inst, None, eps)
    lower = ladder.base
    top = ladder.grid.round_up(ladder.upper / lower)
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
