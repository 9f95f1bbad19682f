"""Iterative rounding of slot-assignment LPs.

Shared by both approximation pipelines.  The LP shape is: one assignment
row per live job (machine routes for jobs small on the machine, slot routes
for matching large-size classes, optional per-type huge routes), one row
per slot (at most one job), D capacity rows per machine over the small
routes, and optional per-type budget rows over the huge routes.

Each iteration solves for an exact extreme point, fixes its integral
variables, and then applies one reduction:

  (a) a machine with at most 2D fractionally assigned small jobs gets those
      jobs committed to it and loses its capacity rows (overshoot at most
      2D times the machine's small-size cap, checked exactly);
  (b) a slot with at most two fractional jobs either receives its single
      fractional job or disposes itself into an artificial job that
      subsumes the two competitors (convex-combination costs, recorded in
      the subsumption forest);
  (c) a type whose huge-budget row has at most two fractional jobs parks
      them together on one designated improper machine and drops the row.

The extreme-point counting bound (#fractional <= 2*slots + 2D*machines +
2*budget rows) guarantees a case always applies; its failure is a fatal
CountingViolation.

A round in which every live job has exactly one live route is solved
without the simplex: the assignment rows fix every route at 1, so that
point is the LP's only candidate.  It is checked exactly against the slot,
capacity and budget rows the LP would hold and returned in the LP's column
order with the summed huge charges as its objective, which is the simplex's
own answer; a violated row raises Infeasible where the simplex would.  Such
a round commits every live job, so it is always the last.

The engine may be handed a point of its first LP, as the L_p pipeline
hands over its convex solution.  When every value of that point is 0 or 1,
its routes at 0 are dropped before the first round; the assignment rows
then leave each live job the one route the point takes, so the first round
is forced and commits the point itself once _forced_point has checked its
slot, capacity and budget rows exactly.  A point with a fractional value is
not read: the first round runs its own phase 1, a valid start for any LP.

Untangling then replaces every artificial job by real jobs: tree placement
for artificial jobs sitting in foreign slots or on huge machines, and a
per-machine covering LP whose extreme point has at most |AJ_i| + D nonzeros
for artificial jobs sitting in remaining space.

The slots of a pattern profile, the route columns, the assignment and slot
rows (SlotRows, also the base of the L_p convex region) and the final
schedule assembly live here too, so both pipelines build and read one LP
shape; so do the matcher (has_matching) behind both pipelines' count
checks, full mode's product walk (walk) and the route point of a
certificate (route_point): the point a guided makespan decision hands the
engine, and the L_p warm start.  Each LP column is the route it stands
for, the triple (kind, job, target) of route_vars, so reading a value
needs no decoding.  Untangling reads slot fit from the routes alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .errors import (
    BudgetExhausted,
    CountingViolation,
    ForestInconsistent,
    Infeasible,
    InvariantViolation,
)
from .lp import EQ, GE, LE, LinearProgram, solve_extreme_point
from .model import Schedule
from .rationals import ONE, ZERO, rat

MachineKey = tuple[int, int]
JobKey = object  # int for real jobs, "a<N>" strings for artificial ones


@dataclass(frozen=True)
class SlotInfo:
    slot_id: int
    machine: MachineKey
    klass: object
    size: tuple  # reserved mass per dimension, exact


@dataclass
class JobRoutes:
    machine_costs: dict[MachineKey, tuple]
    slots: set[int]
    huge: dict[int, tuple] = field(default_factory=dict)  # type -> (cost, charge)

    def clone(self) -> "JobRoutes":
        return JobRoutes(dict(self.machine_costs), set(self.slots), dict(self.huge))


@dataclass
class RoundingProblem:
    dims: int
    jobs: dict[int, JobRoutes]
    slots: dict[int, SlotInfo]
    capacities: dict[MachineKey, tuple]
    small_caps: dict[MachineKey, object]
    type_budgets: dict[int, int] = field(default_factory=dict)
    # raw cost used to break ties when choosing slot occupants
    leaf_raw_cost: Callable[[int, int], object] = lambda j, t: ZERO


@dataclass
class MergeNode:
    key: str
    child1: JobKey
    child2: JobKey
    slot: int
    machine_weights: dict[MachineKey, tuple]


@dataclass
class RoundingStats:
    iterations: int = 0
    lp_solves: int = 0  # rounds solved, by the simplex or by the forced-route check
    counting_checks: int = 0
    case_machine_drop: int = 0
    case_slot_single: int = 0
    case_slot_merge: int = 0
    case_improper: int = 0
    overshoot_drop_checks: int = 0
    overshoot_final_checks: int = 0
    lp_objectives: list = field(default_factory=list)
    art_lp_solves: int = 0


@dataclass
class RoundingOutcome:
    slot_assign: dict[int, JobKey]
    machine_assign: dict[int, MachineKey]          # real jobs only
    huge_assign: dict[JobKey, int]
    improper: dict[int, list[JobKey]]
    forest: dict[str, MergeNode]
    committed: dict[MachineKey, list]
    committed_real: dict[MachineKey, list]
    art_on_machine: dict[MachineKey, list[str]]
    art_costs: dict[tuple, tuple]                  # (artificial, machine) -> cost vector
    stats: RoundingStats


@dataclass
class FinalAssignment:
    """Artificial-free placements produced by untangling."""

    slot_assign: dict[int, int]
    machine_assign: dict[int, MachineKey]
    huge_assign: dict[int, int]
    improper: dict[int, list[int]]
    final_loads: dict[MachineKey, list]


def assemble_schedule(
    problem: RoundingProblem,
    final: FinalAssignment,
    num_jobs: int,
    pinned: dict[int, MachineKey] | None = None,
    free_huge: dict[int, list[MachineKey]] | None = None,
) -> Schedule:
    """Total schedule from untangled placements.

    pinned jobs keep their machines; each huge-routed job, then each type's
    improper lineup, takes the next free huge machine of its type.
    """
    assignment: list = [None] * num_jobs
    for j, mk in (pinned or {}).items():
        assignment[j] = mk
    free = {t: list(machines) for t, machines in (free_huge or {}).items()}

    def place(j: int, mk: MachineKey) -> None:
        if assignment[j] is not None:
            raise InvariantViolation(f"job {j} placed twice")
        assignment[j] = mk

    def next_free(t: int, failure: str) -> MachineKey:
        if not free.get(t):
            raise InvariantViolation(failure)
        return free[t].pop(0)

    for j, mk in final.machine_assign.items():
        place(j, mk)
    for s, j in final.slot_assign.items():
        place(j, problem.slots[s].machine)
    for j in sorted(final.huge_assign):
        place(j, next_free(final.huge_assign[j], "huge budget exceeded the free machines"))
    for t, members in sorted(final.improper.items()):
        if members:
            mk = next_free(t, "no free machine left for the improper lineup")
            for j in members:
                place(j, mk)
    if None in assignment:
        raise InvariantViolation("schedule not total")
    return Schedule(tuple(assignment))


def _job_sort_key(key: JobKey):
    return (0, key, "") if isinstance(key, int) else (1, int(key[1:]), key)


def slot_patterns(counts: dict, slot_cap: int, size, mass_cap, dims: int = 1) -> list[tuple]:
    """Sorted distinct slot patterns: sorted tuples of classes q, at most
    slot_cap slots and counts[q] slots of class q, whose sizes size(q) (one
    entry per dimension) add up to at most mass_cap in every dimension.

    A depth-first walk over non-decreasing class indices, each pattern
    listed before its extensions and those in class order, meets every
    pattern once and in sorted order.
    """
    klasses = sorted(counts)
    sizes = [size(q) for q in klasses]
    out: list[tuple] = []
    # (pattern, its mass, index of its last class, copies of that class)
    stack = [((), [ZERO] * dims, 0, 0)]
    while stack:
        chosen, mass, last, run = stack.pop()
        out.append(chosen)
        if len(chosen) >= slot_cap:
            continue
        children = []
        for i in range(last, len(klasses)):
            copies = run + 1 if i == last else 1
            if copies > counts[klasses[i]]:
                continue
            new_mass = [m + s for m, s in zip(mass, sizes[i])]
            if any(m > mass_cap for m in new_mass):
                continue
            children.append((chosen + (klasses[i],), new_mass, i, copies))
        stack.extend(reversed(children))
    return out


def build_slots(patterns, size, dims: int):
    """The slots of (machine, pattern) pairs, numbered in the order given.

    size(q) is a class-q slot's reserved mass per dimension.  Returns the
    slots by id, each machine's pattern mass (a list per dimension), and the
    ascending slot ids of each (machine type, class), so a job's slot routes
    take one lookup instead of a scan over all slots.
    """
    slots: dict[int, SlotInfo] = {}
    mass: dict[MachineKey, list] = {}
    slots_of: dict[tuple, list[int]] = {}
    for machine, pattern in patterns:
        used = mass[machine] = [ZERO] * dims
        for q in pattern:
            sid = len(slots)
            slots[sid] = SlotInfo(sid, machine, q, size(q))
            slots_of.setdefault((machine[0], q), []).append(sid)
            for d in range(dims):
                used[d] += slots[sid].size[d]
    return slots, mass, slots_of


def route_point(slots: dict[int, SlotInfo], machines: dict[MachineKey, list]) -> dict:
    """The 0/1 route point of an integral assignment, such as a certificate.

    machines maps each assignment machine (t, k) to the (job, class) pairs
    on it, class None for a job routed to the machine itself.  A type's
    machines are ranked by (sorted classes, k), the order in which a profile
    lists its patterns, and machine (t, k) of rank i becomes machine (t, i)
    of slots.  Each job with a class takes the lowest free slot of that
    class there, and every other job that machine.
    """
    free: dict[tuple, list[int]] = {}  # descending, so pop() takes the lowest
    for sid in sorted(slots, reverse=True):
        free.setdefault((slots[sid].machine, slots[sid].klass), []).append(sid)
    ranked: dict[int, list] = {}
    for (t, k), pairs in machines.items():
        ranked.setdefault(t, []).append((sorted(q for _, q in pairs if q is not None), k, pairs))
    point = {}
    for t, order in ranked.items():
        for i, (_, _, pairs) in enumerate(sorted(order, key=lambda m: m[:2])):
            for j, q in pairs:
                if q is None:
                    point["m", j, (t, i)] = ONE
                else:
                    point["s", j, free[(t, i), q].pop()] = ONE
    return point


def pattern_multisets(patterns: list[tuple], machines: int, counts: dict, cap=None) -> list[tuple]:
    """Multisets of `machines` patterns needing at most counts[q] jobs of each
    class q, in itertools.combinations_with_replacement order, up to cap of
    them.  Every class of a pattern must be a key of counts.

    Each pattern's class counts are packed once into one int, a field of
    `width` bits per class, and a multiset's counts are the sum of its
    patterns' ints.  Class q's field starts at half - 1 - counts[q], where
    half = 2^(width-1) exceeds every count and every sum of `machines`
    pattern lengths, so no field carries into the next and a field's top
    bit is set iff its class is over its count.  The walk runs over
    non-decreasing pattern indices and stops extending a prefix that is
    over; counts only grow along a path, so it keeps the multisets and the
    order of the filtered combinations.
    """
    if machines == 0:
        return [()]
    longest = max(map(len, patterns), default=0)
    half = 1 << max(max(counts.values(), default=0), machines * longest).bit_length()
    width = half.bit_length()
    shift = {q: width * i for i, q in enumerate(counts)}
    start = over = 0
    for q, s in shift.items():
        start += (half - 1 - counts[q]) << s
        over += half << s
    need = []
    for pat in patterns:
        packed = 0
        for q in pat:
            packed += 1 << shift[q]
        need.append(packed)
    out: list[tuple] = []
    # at depth d: picks[d] is the pattern index tried there, used[d] the
    # packed counts of the patterns picked above it
    picks = [0] * machines
    used = [start] + [0] * machines
    last = machines - 1
    d = 0
    while True:
        i = picks[d]
        if i == len(patterns):
            if d == 0:
                return out
            d -= 1
            picks[d] += 1
            continue
        total = used[d] + need[i]
        if total & over:
            picks[d] += 1
        elif d == last:
            out.append(tuple([patterns[k] for k in picks]))
            if len(out) == cap:
                return out
            picks[d] += 1
        else:
            d += 1
            used[d] = total
            picks[d] = i


def has_matching(options: list[list], capacity: dict) -> bool:
    """Whether job i can take one of the groups options[i], every group g
    holding at most capacity[g] jobs (Hall's condition, by augmenting paths).

    Every option must be a key of capacity.
    """
    if not all(options):
        return False
    holders: dict = {g: [] for g in capacity}
    return all(_augment(i, set(), options, capacity, holders) for i in range(len(options)))


def _augment(i: int, seen: set, options: list[list], capacity: dict, holders: dict) -> bool:
    """Place job i, moving the holders of groups not in seen along an
    augmenting path when its groups are full."""
    for g in options[i]:
        if g in seen:
            continue
        seen.add(g)
        if len(holders[g]) < capacity[g]:
            holders[g].append(i)
            return True
        for pos, other in enumerate(holders[g]):
            if _augment(other, seen, options, capacity, holders):
                holders[g][pos] = i
                return True
    return False


class Work:
    """A full mode's budget: one unit per option listed and per node the
    product walk enters; BudgetExhausted as soon as the units pass budget."""

    def __init__(self, budget=float("inf")):
        self.budget = budget
        self.spent = 0

    def charge(self, units: int = 1) -> None:
        self.spent += units
        if self.spent > self.budget:
            raise BudgetExhausted(f"work budget {self.budget} exhausted")


def walk(every: int, options: list, limit, work: Work) -> Iterator[tuple[tuple, tuple, object]]:
    """(keys, items, bound) of every product of one option per type that
    pins no job twice and pins or routes every job of the mask every,
    depth-first over each type's options (key, item, pinned mask, route
    mask, share) in the order given; bound is the sum of the shares, and
    work is charged one unit per node the walk enters.

    With a limit, each type's options must be sorted by share and none
    empty, and a type's loop stops at the first option whose bound plus the
    least share of every later type exceeds limit: no later option of that
    loop gives a product within limit.  Without one the walk yields every
    product, in product order when the options are."""
    caps = None  # per type, the most a prefix through it may cost
    if limit is not None:
        caps = [limit] * len(options)
        for t in range(len(options) - 2, -1, -1):
            caps[t] = caps[t + 1] - options[t + 1][0][4]
    return _descend(options, caps, every, work, 0, (), (), 0, 0, ZERO)


def _descend(options, caps, every, work, t, keys, chosen, pinned, covered, bound):
    """The walk below a prefix over the types before t: its keys and items,
    the jobs it pins, the jobs it pins or routes, and its bound."""
    room = None if caps is None else caps[t] - bound
    for key, item, vh, routes, share in options[t]:
        if room is not None and share > room:
            break
        if pinned & vh:
            continue
        work.charge()
        if t + 1 < len(options):
            yield from _descend(options, caps, every, work, t + 1, keys + (key,), chosen + (item,),
                                pinned | vh, covered | vh | routes, bound + share)
        elif covered | vh | routes == every:
            yield keys + (key,), chosen + (item,), bound + share


def route_vars(jkey: JobKey, routes: JobRoutes):
    """The column (kind, jkey, target) of every route of jkey, in column
    order: to a machine ("m"), a slot ("s") or a huge type ("h")."""
    for mk in routes.machine_costs:
        yield "m", jkey, mk
    for s in sorted(routes.slots):
        yield "s", jkey, s
    for t in sorted(routes.huge):
        yield "h", jkey, t


class SlotRows:
    """The rows every slot LP starts with.

    One column per route, huge routes priced at their charge; one assignment
    row per job, in the order given; one row per routed slot, in slot order.
    Callers append capacity, budget or allowance rows after these.
    """

    def __init__(self, jobs: dict[JobKey, JobRoutes], slots):
        self.lp = LinearProgram()
        self.machine_vars: dict[MachineKey, list] = {}  # machine -> [(column, cost vector)]
        self.budget_vars: dict[int, list] = {}
        slot_vars: dict[int, list] = {s: [] for s in slots}
        for jkey, routes in jobs.items():
            row = {}
            for var in route_vars(jkey, routes):
                kind, _, target = var
                if kind == "h":
                    self.lp.add_variable(var, objective=routes.huge[target][1])
                    self.budget_vars.setdefault(target, []).append(var)
                else:
                    self.lp.add_variable(var)
                    if kind == "m":
                        cost = routes.machine_costs[target]
                        self.machine_vars.setdefault(target, []).append((var, cost))
                    else:
                        slot_vars[target].append(var)
                row[var] = 1
            self.lp.add_constraint(row, EQ, 1)
        for s in sorted(slot_vars):
            if slot_vars[s]:
                self.lp.add_constraint({v: 1 for v in slot_vars[s]}, LE, 1)

    def add_budget_rows(self, budgets: dict[int, int]) -> None:
        """At most budgets[t] huge routes per type that has any."""
        for t in sorted(budgets):
            if t in self.budget_vars:
                self.lp.add_constraint({v: 1 for v in self.budget_vars[t]}, LE, budgets[t])


class RoundingEngine:
    """The iterative rounding of problem.  point, when given, maps route
    columns (kind, job, target) to values (an absent column counts as 0);
    only a point whose values are all 0 or 1 is read (module docstring)."""

    def __init__(self, problem: RoundingProblem, point: dict | None = None):
        self.problem = problem
        self.dims = problem.dims
        self.live: dict[JobKey, JobRoutes] = {
            j: routes.clone() for j, routes in sorted(problem.jobs.items())
        }
        # rows still in the LP: slot rows, capacity rows, huge-budget rows
        self.live_slots: set[int] = set(problem.slots)
        self.live_machines: set[MachineKey] = set(problem.capacities)
        self.live_types: set[int] = set(problem.type_budgets)
        self.committed: dict[MachineKey, list] = {
            m: [ZERO] * self.dims for m in problem.capacities
        }
        self.committed_real: dict[MachineKey, list] = {
            m: [ZERO] * self.dims for m in problem.capacities
        }
        self.budget_left: dict[int, int] = dict(problem.type_budgets)
        self.slot_assign: dict[int, JobKey] = {}
        self.machine_assign: dict[JobKey, MachineKey] = {}
        self.huge_assign: dict[JobKey, int] = {}
        self.improper: dict[int, list[JobKey]] = {}
        self.forest: dict[str, MergeNode] = {}
        self.art_on_machine: dict[MachineKey, list[str]] = {}
        self.art_costs: dict[tuple, tuple] = {}
        self.stats = RoundingStats()
        self._art_counter = 0
        self._committed_charge = ZERO
        if point is not None and all(x == 0 or x == 1 for x in point.values()):
            self._fix_integrals({v: ZERO for j, routes in self.live.items()
                                 for v in route_vars(j, routes) if point.get(v, ZERO) == 0})

    # -- LP construction ---------------------------------------------------

    def _build_lp(self):
        """This round's LP."""
        rows = SlotRows({j: self.live[j] for j in sorted(self.live, key=_job_sort_key)},
                        self.live_slots)
        lp = rows.lp
        for mk in sorted(self.live_machines & rows.machine_vars.keys()):
            for d in range(self.dims):
                coeffs = {var: vec[d] for var, vec in rows.machine_vars[mk] if vec[d] != 0}
                lp.add_constraint(coeffs, LE, self._room(mk, d))
        rows.add_budget_rows({t: self.budget_left[t] for t in self.live_types})
        return lp

    def _room(self, mk: MachineKey, d: int):
        """The rhs of machine mk's capacity row in dimension d."""
        return self.problem.capacities[mk][d] - self.committed[mk][d]

    def _forced_point(self, by_machine, by_slot, by_type):
        """(values, objective) of a round in which every live job
        has exactly one live route.

        The assignment rows then fix every route at 1, so that point is the
        LP's only candidate: it is returned, in _build_lp's column order, when
        it satisfies the slot, capacity and budget rows _build_lp would emit,
        and Infeasible is raised otherwise, as the simplex would.
        """
        if any(len(by_slot[s]) > 1 for s in self.live_slots):
            raise Infeasible("forced routes share a slot")
        for mk in self.live_machines:
            for d in range(self.dims):
                load = sum((self.live[j].machine_costs[mk][d] for j in by_machine[mk]), ZERO)
                if load > self._room(mk, d):
                    raise Infeasible("forced routes exceed a machine's capacity")
        if any(len(by_type[t]) > self.budget_left[t] for t in self.live_types):
            raise Infeasible("forced huge routes exceed a type's budget")
        values, objective = {}, ZERO
        for jkey in sorted(self.live, key=_job_sort_key):
            routes = self.live[jkey]
            (kind, _, target), = route_vars(jkey, routes)
            values[kind, jkey, target] = ONE
            if kind == "h":
                objective += rat(routes.huge[target][1])
        return values, objective

    def _solve_round(self, by_machine, by_slot, by_type):
        """(values, objective) of an extreme point of this round's LP; the
        row clean-up has run, so every live row has a live route."""
        if all(len(r.machine_costs) + len(r.slots) + len(r.huge) == 1 for r in self.live.values()):
            return self._forced_point(by_machine, by_slot, by_type)
        sol = solve_extreme_point(self._build_lp())
        return sol.values, sol.objective_value

    def _route_index(self):
        """The live jobs routed to each machine, slot and huge type."""
        by_machine: dict[MachineKey, list] = {}
        by_slot: dict[int, list] = {}
        by_type: dict[int, list] = {}
        for jkey, routes in self.live.items():
            for mk in routes.machine_costs:
                by_machine.setdefault(mk, []).append(jkey)
            for s in routes.slots:
                by_slot.setdefault(s, []).append(jkey)
            for t in routes.huge:
                by_type.setdefault(t, []).append(jkey)
        return by_machine, by_slot, by_type

    # -- commitments --------------------------------------------------------

    def _commit_machine(self, jkey: JobKey, mk: MachineKey):
        cost = self.live.pop(jkey).machine_costs[mk]
        for d in range(self.dims):
            self.committed[mk][d] += cost[d]
        if isinstance(jkey, int):
            self.machine_assign[jkey] = mk
            for d in range(self.dims):
                self.committed_real[mk][d] += cost[d]
        else:
            self.art_on_machine.setdefault(mk, []).append(jkey)
            self.art_costs[(jkey, mk)] = cost

    def _commit_slot(self, jkey: JobKey, s: int):
        if s in self.slot_assign:
            raise InvariantViolation("slot filled twice")
        self.slot_assign[s] = jkey
        self.live_slots.discard(s)
        del self.live[jkey]

    def _commit_huge(self, jkey: JobKey, t: int):
        _, charge = self.live.pop(jkey).huge[t]
        self._committed_charge += charge
        self.budget_left[t] -= 1
        if self.budget_left[t] < 0:
            raise InvariantViolation("huge budget overdrawn")
        self.huge_assign[jkey] = t

    def _fix_integrals(self, values):
        ones = []
        for (kind, jkey, target), value in values.items():
            if value == 1:
                ones.append((kind, jkey, target))
            elif value == 0:
                routes = self.live[jkey]
                if kind == "m":
                    del routes.machine_costs[target]
                elif kind == "s":
                    routes.slots.discard(target)
                else:
                    del routes.huge[target]
        touched = set()
        for kind, jkey, target in ones:
            if kind == "m":
                self._commit_machine(jkey, target)
                touched.add(target)
            elif kind == "s":
                self._commit_slot(jkey, target)
            else:
                self._commit_huge(jkey, target)
        for mk in touched & self.live_machines:
            if any(c > b for c, b in zip(self.committed[mk], self.problem.capacities[mk])):
                raise InvariantViolation("capacity exceeded while rows were live")

    # -- case reductions ----------------------------------------------------

    def _apply_case(self, values) -> None:
        by_machine, by_slot, by_type = self._route_index()

        for mk in sorted(self.live_machines):
            jobs = by_machine.get(mk, [])
            if len(jobs) <= 2 * self.dims:
                for jkey in sorted(jobs, key=_job_sort_key):
                    self._commit_machine(jkey, mk)
                self.live_machines.discard(mk)
                cap = self.problem.capacities[mk]
                slack = 2 * self.dims * rat(self.problem.small_caps[mk])
                if any(c > b + slack for c, b in zip(self.committed[mk], cap)):
                    raise InvariantViolation("machine-drop overshoot above 2D*smallcap")
                self.stats.overshoot_drop_checks += 1
                self.stats.case_machine_drop += 1
                return

        for s in sorted(self.live_slots):
            jobs = by_slot.get(s, [])
            if len(jobs) > 2:
                continue
            if len(jobs) == 1:
                self._commit_slot(jobs[0], s)
                self.stats.case_slot_single += 1
            else:
                j1, j2 = sorted(jobs, key=_job_sort_key)
                self._merge(j1, j2, s, values)
                self.stats.case_slot_merge += 1
            return

        for t in sorted(self.live_types):
            jobs = by_type.get(t, [])
            if len(jobs) <= 2:
                lineup = self.improper.setdefault(t, [])
                for jkey in sorted(jobs, key=_job_sort_key):
                    lineup.append(jkey)
                    del self.live[jkey]
                self.live_types.discard(t)
                self.stats.case_improper += 1
                return

        raise CountingViolation("no machine, slot, or type was reducible")

    def _merge(self, j1: JobKey, j2: JobKey, s: int, values) -> None:
        r1, r2 = self.live.pop(j1), self.live.pop(j2)
        key = f"a{self._art_counter}"
        self._art_counter += 1

        def weights(kind: str, target, in1: bool, in2: bool) -> tuple:
            """Each parent's share of a route: its LP value over both, or all of it alone."""
            if in1 and in2:
                x1 = values.get((kind, j1, target), ZERO)
                x2 = values.get((kind, j2, target), ZERO)
                w1 = x1 / (x1 + x2)
                return w1, ONE - w1
            return (ONE, ZERO) if in1 else (ZERO, ONE)

        machine_costs = {}
        machine_weights = {}
        zero = (ZERO,) * self.dims
        for mk in sorted(set(r1.machine_costs) | set(r2.machine_costs)):
            in1, in2 = mk in r1.machine_costs, mk in r2.machine_costs
            w1, w2 = machine_weights[mk] = weights("m", mk, in1, in2)
            c1 = r1.machine_costs.get(mk, zero)
            c2 = r2.machine_costs.get(mk, zero)
            combo = machine_costs[mk] = tuple(w1 * a + w2 * b for a, b in zip(c1, c2))
            # convex-combination invariant: each dimension between the parents
            for d in range(self.dims):
                inputs = [c[d] for c, inside in ((c1, in1), (c2, in2)) if inside]
                if not min(inputs) <= combo[d] <= max(inputs):
                    raise InvariantViolation("merged cost outside its parents' range")

        huge = {}
        for t in sorted(set(r1.huge) | set(r2.huge)):
            w1, w2 = weights("h", t, t in r1.huge, t in r2.huge)
            cost1, charge1 = r1.huge.get(t, (ZERO, ZERO))
            cost2, charge2 = r2.huge.get(t, (ZERO, ZERO))
            huge[t] = (w1 * cost1 + w2 * cost2, w1 * charge1 + w2 * charge2)

        self.forest[key] = MergeNode(key, j1, j2, s, machine_weights)
        self.live_slots.discard(s)  # disposed
        self.live[key] = JobRoutes(machine_costs, (r1.slots | r2.slots) - {s}, huge)

    # -- main loop -----------------------------------------------------------

    def run(self) -> RoundingOutcome:
        first = True
        prev_objective = None
        while self.live:
            # drop rows that no longer constrain a live variable; a dropped slot stays empty
            by_machine, by_slot, by_type = self._route_index()
            self.live_slots &= by_slot.keys()
            self.live_machines &= by_machine.keys()
            self.live_types &= by_type.keys()
            try:
                values, objective = self._solve_round(by_machine, by_slot, by_type)
            except Infeasible:
                if first:
                    raise
                raise InvariantViolation(
                    "reduced LP became infeasible; reduction invariants broken"
                ) from None
            first = False
            self.stats.lp_solves += 1
            frac = sum(1 for v in values.values() if 0 < v < 1)
            # after the clean-up every live row constrains a live route
            bound = (2 * len(self.live_slots) + 2 * self.dims * len(self.live_machines)
                     + 2 * len(self.live_types))
            if frac > bound:
                raise CountingViolation(
                    f"{frac} fractional variables exceeds bound {bound}"
                )
            self.stats.counting_checks += 1
            full_objective = objective + self._committed_charge
            if prev_objective is not None and full_objective > prev_objective:
                raise InvariantViolation("reduced-LP optimum increased across an iteration")
            prev_objective = full_objective
            self.stats.lp_objectives.append(full_objective)

            self._fix_integrals(values)
            if not self.live:
                break
            self._apply_case(values)
            self.stats.iterations += 1

        return RoundingOutcome(
            slot_assign=self.slot_assign,
            machine_assign=self.machine_assign,
            huge_assign=self.huge_assign,
            improper=self.improper,
            forest=self.forest,
            committed=self.committed,
            committed_real=self.committed_real,
            art_on_machine=self.art_on_machine,
            art_costs=self.art_costs,
            stats=self.stats,
        )


# ---------------------------------------------------------------------------
# untangling


class _ForestView:
    def __init__(self, problem: RoundingProblem, forest: dict[str, MergeNode]):
        self.problem = problem
        self.forest = forest

    def leaves(self, key: JobKey) -> list[int]:
        if isinstance(key, int):
            return [key]
        node = self.forest[key]
        return self.leaves(node.child1) + self.leaves(node.child2)

    def slots_of(self, key: JobKey) -> list[int]:
        if isinstance(key, int):
            return []
        node = self.forest[key]
        return [node.slot] + self.slots_of(node.child1) + self.slots_of(node.child2)

    def fits_slot(self, leaf: int, slot: SlotInfo) -> bool:
        return slot.slot_id in self.problem.jobs[leaf].slots

    def pick_for_slot(self, key: JobKey, slot: SlotInfo) -> int:
        candidates = [l for l in self.leaves(key) if self.fits_slot(l, slot)]
        if not candidates:
            raise ForestInconsistent(
                f"no leaf of {key} fits slot {slot.slot_id}"
            )
        raw = self.problem.leaf_raw_cost
        return max(candidates, key=lambda l: (raw(l, slot.machine[0]), -l))

    def pick_for_huge(self, key: JobKey, t: int) -> int:
        candidates = [
            l
            for l in self.leaves(key)
            if t in self.problem.jobs[l].huge
        ]
        if not candidates:
            raise ForestInconsistent(f"no leaf of {key} is huge-capable on type {t}")
        # the cheapest capable leaf keeps the realized cost at or below the
        # convex-combination charge the LP accounted for
        return min(candidates, key=lambda l: (self.problem.jobs[l].huge[t][0], l))

    def place_rest(self, key: str, withheld: int, slot_assign: dict[int, int]) -> None:
        """Fill the merge slots of key's tree with all its leaves but withheld."""
        node = self.forest[key]
        side1 = withheld in self.leaves(node.child1)
        if not side1 and withheld not in self.leaves(node.child2):
            raise ForestInconsistent(f"withheld leaf {withheld} not under {key}")
        inner, outer = (node.child1, node.child2) if side1 else (node.child2, node.child1)
        slot = self.problem.slots[node.slot]
        if isinstance(outer, int):
            if not self.fits_slot(outer, slot):
                raise ForestInconsistent(f"real child {outer} does not fit its merge slot")
            occupant = outer
        else:
            occupant = self.pick_for_slot(outer, slot)
        if node.slot in slot_assign:
            raise InvariantViolation("merge slot filled twice")
        slot_assign[node.slot] = occupant
        if isinstance(outer, str):
            self.place_rest(outer, occupant, slot_assign)
        if isinstance(inner, str):
            self.place_rest(inner, withheld, slot_assign)
        elif inner != withheld:
            raise InvariantViolation("withheld leaf is not the inner child")

    def resolve(self, jkey: JobKey, pick, slot_assign: dict[int, int]) -> int:
        """The real job standing in for jkey: itself, or the leaf pick(jkey)
        chooses, with the rest of its tree placed in the tree's slots."""
        if isinstance(jkey, int):
            return jkey
        leaf = pick(jkey)
        self.place_rest(jkey, leaf, slot_assign)
        return leaf

    def seed_weights(self, key: JobKey, mk: MachineKey) -> dict[int, object]:
        """Exact decomposition of the artificial job's unit mass on machine mk."""
        if isinstance(key, int):
            return {key: ONE}
        node = self.forest[key]
        if mk not in node.machine_weights:
            return {}
        w1, w2 = node.machine_weights[mk]
        out: dict[int, object] = {}
        if w1 != 0:
            for leaf, w in self.seed_weights(node.child1, mk).items():
                out[leaf] = out.get(leaf, ZERO) + w1 * w
        if w2 != 0:
            for leaf, w in self.seed_weights(node.child2, mk).items():
                out[leaf] = out.get(leaf, ZERO) + w2 * w
        return out


def untangle(problem: RoundingProblem, outcome: RoundingOutcome) -> FinalAssignment:
    """Replace artificial jobs by the real jobs they subsume."""
    view = _ForestView(problem, outcome.forest)
    stats = outcome.stats

    children = {c for node in outcome.forest.values() for c in (node.child1, node.child2)}
    roots = [k for k in outcome.forest if k not in children]
    _check_forest_shape(outcome, view, roots)

    slot_assign: dict[int, int] = {}
    machine_assign: dict[int, MachineKey] = {}
    huge_assign: dict[int, int] = {}
    improper: dict[int, list[int]] = {}

    # artificial jobs sitting in foreign slots
    for s, jkey in sorted(outcome.slot_assign.items()):
        slot_assign[s] = view.resolve(
            jkey, lambda k: view.pick_for_slot(k, problem.slots[s]), slot_assign
        )

    # artificial jobs routed to huge machines, integrally or as improper pairs
    for jkey, t in sorted(outcome.huge_assign.items(), key=lambda kv: _job_sort_key(kv[0])):
        huge_assign[view.resolve(jkey, lambda k: view.pick_for_huge(k, t), slot_assign)] = t
    for t, members in sorted(outcome.improper.items()):
        improper[t] = [
            view.resolve(jkey, lambda k: view.pick_for_huge(k, t), slot_assign)
            for jkey in members
        ]

    # artificial jobs in remaining space: per-machine covering LP
    final_loads = {mk: list(vec) for mk, vec in outcome.committed_real.items()}
    for jkey, mk in outcome.machine_assign.items():
        if not isinstance(jkey, int):
            raise InvariantViolation("artificial job in the real machine assignment")
        machine_assign[jkey] = mk

    for mk in sorted(outcome.art_on_machine):
        arts = outcome.art_on_machine[mk]
        reps = _solve_art_lp(problem, outcome, view, mk, arts)
        stats.art_lp_solves += 1
        for key, rep in reps.items():
            machine_assign[rep] = mk
            cost = problem.jobs[rep].machine_costs[mk]
            for d in range(problem.dims):
                final_loads[mk][d] += cost[d]
            view.place_rest(key, rep, slot_assign)
        slack = 3 * problem.dims * rat(problem.small_caps[mk])
        if any(g > b + slack for g, b in zip(final_loads[mk], problem.capacities[mk])):
            raise InvariantViolation("untangled load above cap + 3D*smallcap")
        stats.overshoot_final_checks += 1

    return FinalAssignment(
        slot_assign=slot_assign,
        machine_assign=machine_assign,
        huge_assign=huge_assign,
        improper=improper,
        final_loads=final_loads,
    )


def _check_forest_shape(outcome, view, roots) -> None:
    seen_leaves: set[int] = set()
    seen_slots: set[int] = set()
    slotted = {j for j in outcome.slot_assign.values() if isinstance(j, int)}
    for root in roots:
        leaf_list, slot_list = view.leaves(root), view.slots_of(root)
        leaves, slots = set(leaf_list), set(slot_list)
        # disjointness across trees and the |J| = |S| + 1 merge-tree shape
        if len(leaves) != len(leaf_list) or leaves & seen_leaves:
            raise InvariantViolation("merge trees share a leaf")
        if len(slots) != len(slot_list) or slots & seen_slots:
            raise InvariantViolation("merge trees share a slot")
        if len(leaf_list) != len(slot_list) + 1:
            raise InvariantViolation("merge tree without one more leaf than slots")
        seen_leaves |= leaves
        seen_slots |= slots
        if leaves & (outcome.machine_assign.keys() | outcome.huge_assign.keys()):
            raise InvariantViolation("subsumed job assigned directly")
        if leaves & slotted:
            raise InvariantViolation("subsumed job sits in a slot")
        if slots & outcome.slot_assign.keys():
            raise InvariantViolation("disposed slot used by the rounding")


def _solve_art_lp(problem, outcome, view, mk: MachineKey, arts: list[str]):
    """Extreme point of (Art-LP) for machine mk; returns root -> representative leaf."""
    lp = LinearProgram()
    members: dict[str, list[int]] = {}
    for key in arts:
        mem = [
            leaf for leaf in view.leaves(key) if mk in problem.jobs[leaf].machine_costs
        ]
        if not mem:
            raise ForestInconsistent(f"artificial {key} has no leaf small on {mk}")
        members[key] = mem
        for leaf in mem:
            lp.add_variable(leaf, objective=1)  # min total mass keeps values in [0,1]
    for key, mem in members.items():
        lp.add_constraint(dict.fromkeys(mem, 1), GE, 1)
    cap = problem.capacities[mk]
    slack = 2 * problem.dims * rat(problem.small_caps[mk])
    for d in range(problem.dims):
        coeffs = {}
        for key, mem in members.items():
            for leaf in mem:
                c = problem.jobs[leaf].machine_costs[mk][d]
                if c != 0:
                    coeffs[leaf] = coeffs.get(leaf, ZERO) + c
        rhs = cap[d] + slack - outcome.committed_real[mk][d]
        lp.add_constraint(coeffs, LE, rhs)

    # the recorded convex-combination weights reconstruct each artificial
    # job's cost exactly, certifying feasibility before we solve
    for key in arts:
        seeds = view.seed_weights(key, mk)
        if sum(seeds.values(), ZERO) != 1:
            raise InvariantViolation("decomposition weights must sum to one")
        committed_cost = outcome.art_costs[(key, mk)]
        for d in range(problem.dims):
            rebuilt = sum(
                (w * problem.jobs[l].machine_costs[mk][d] for l, w in seeds.items()),
                ZERO,
            )
            if rebuilt != committed_cost[d]:
                raise InvariantViolation(
                    "weight decomposition does not reproduce the artificial cost"
                )
    try:
        sol = solve_extreme_point(lp)
    except Infeasible as exc:  # seed argument above makes this impossible
        raise ForestInconsistent("Art-LP infeasible despite decomposition seed") from exc
    if len(sol.positives()) > len(arts) + problem.dims:
        raise InvariantViolation("Art-LP extreme point above |AJ_i| + D nonzeros")

    reps: dict[str, int] = {}
    for key, mem in members.items():
        # round fractional values up to 1; the lowest-index covered leaf stays
        # on the machine, surplus members flow back to the tree slots
        chosen = [leaf for leaf in mem if sol.values[leaf] > 0]
        if not chosen:
            raise InvariantViolation("coverage row unsatisfied after rounding")
        reps[key] = min(chosen)
    return reps


def forest_dot(forest: dict[str, MergeNode]) -> str:
    """DOT-style rendering of the subsumption forest (debug dump)."""
    lines = ["digraph subsumption {"]
    for key in sorted(forest):
        node = forest[key]
        lines.append(f'  "j{node.child1}" -> "slot{node.slot}";')
        lines.append(f'  "j{node.child2}" -> "slot{node.slot}";')
        lines.append(f'  "slot{node.slot}" -> "j{key}";')
    lines.append("}")
    return "\n".join(lines)
