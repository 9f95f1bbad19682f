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
CountingViolation.  Untangling then replaces every artificial job by real
jobs: tree placement for artificial jobs sitting in foreign slots or on
huge machines, and a per-machine covering LP whose extreme point has at
most |AJ_i| + D nonzeros for artificial jobs sitting in remaining space.

The slots of a pattern profile, the route column names, the assignment
and slot rows (SlotRows, also the base of the L_p convex region) and the
final schedule assembly live here too, so both pipelines build and read one
LP shape.  Untangling reads slot fit from the routes alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .errors import CountingViolation, ForestInconsistent, Infeasible, InvariantViolation
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
    huge_weights: dict[int, tuple]


@dataclass
class RoundingStats:
    iterations: int = 0
    lp_solves: int = 0
    counting_checks: int = 0
    max_fractional_slack: int = 0  # max of bound - F observed (diagnostic)
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
    entry per dimension) add up to at most mass_cap in every dimension."""
    klasses = sorted(counts)
    out: list[tuple] = []

    def extend(idx: int, chosen: list, mass: list) -> None:
        out.append(tuple(chosen))
        for i in range(idx, len(klasses)):
            q = klasses[i]
            if len(chosen) >= slot_cap or chosen.count(q) >= counts[q]:
                continue
            new_mass = [m + s for m, s in zip(mass, size(q))]
            if any(m > mass_cap for m in new_mass):
                continue
            chosen.append(q)
            extend(i, chosen, new_mass)
            chosen.pop()

    extend(0, [], [ZERO] * dims)
    return sorted(set(out))


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


def pattern_multisets(patterns: list[tuple], machines: int, counts: dict):
    """Multisets of `machines` patterns needing at most counts[q] jobs of each class q."""
    for combo in itertools.combinations_with_replacement(patterns, machines):
        used: dict = {}
        for pat in combo:
            for q in pat:
                used[q] = used.get(q, 0) + 1
        if all(used[q] <= counts[q] for q in used):
            yield combo


def route_var(kind: str, jkey: JobKey, target) -> str:
    """Name of the column routing jkey to a machine ("m"), slot ("s") or huge type ("h")."""
    if kind == "m":
        return f"m|{jkey}|{target[0]}|{target[1]}"
    return f"{kind}|{jkey}|{target}"


def route_vars(jkey: JobKey, routes: JobRoutes):
    """(name, kind, target) of every route of jkey, in column order."""
    for mk in routes.machine_costs:
        yield route_var("m", jkey, mk), "m", mk
    for s in sorted(routes.slots):
        yield route_var("s", jkey, s), "s", s
    for t in sorted(routes.huge):
        yield route_var("h", jkey, t), "h", t


class SlotRows:
    """The rows every slot LP starts with.

    One column per route, huge routes priced at their charge; one assignment
    row per job, in the order given; one row per routed slot, in slot order.
    Callers append capacity, budget or allowance rows after these.
    """

    def __init__(self, jobs: dict[JobKey, JobRoutes], slots):
        self.lp = LinearProgram()
        self.registry: dict[str, tuple] = {}
        self.machine_vars: dict[MachineKey, list] = {}  # machine -> [(name, cost vector)]
        self.budget_vars: dict[int, list] = {}
        slot_vars: dict[int, list] = {s: [] for s in slots}
        for jkey, routes in jobs.items():
            row = {}
            for name, kind, target in route_vars(jkey, routes):
                if kind == "h":
                    self.lp.add_variable(name, objective=routes.huge[target][1])
                    self.budget_vars.setdefault(target, []).append(name)
                else:
                    self.lp.add_variable(name)
                    if kind == "m":
                        cost = routes.machine_costs[target]
                        self.machine_vars.setdefault(target, []).append((name, cost))
                    else:
                        slot_vars[target].append(name)
                self.registry[name] = (kind, jkey, target)
                row[name] = 1
            self.lp.add_constraint(row, EQ, 1)
        self.slot_rows = 0
        for s in sorted(slot_vars):
            if slot_vars[s]:
                self.lp.add_constraint({v: 1 for v in slot_vars[s]}, LE, 1)
                self.slot_rows += 1

    def add_budget_rows(self, budgets: dict[int, int]) -> int:
        """At most budgets[t] huge routes per type that has any; returns the row count."""
        added = 0
        for t in sorted(budgets):
            if t in self.budget_vars:
                self.lp.add_constraint({v: 1 for v in self.budget_vars[t]}, LE, budgets[t])
                added += 1
        return added


class RoundingEngine:
    def __init__(self, problem: RoundingProblem):
        self.problem = problem
        self.dims = problem.dims
        self.live: dict[JobKey, JobRoutes] = {
            j: routes.clone() for j, routes in sorted(problem.jobs.items())
        }
        self.live_slots: set[int] = set(problem.slots)
        self.machine_live: dict[MachineKey, bool] = {m: True for m in problem.capacities}
        self.committed: dict[MachineKey, list] = {
            m: [ZERO] * self.dims for m in problem.capacities
        }
        self.committed_real: dict[MachineKey, list] = {
            m: [ZERO] * self.dims for m in problem.capacities
        }
        self.budget_left: dict[int, int] = dict(problem.type_budgets)
        self.budget_live: dict[int, bool] = {t: True for t in problem.type_budgets}
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

    # -- LP construction ---------------------------------------------------

    def _build_lp(self):
        rows = SlotRows({j: self.live[j] for j in sorted(self.live, key=_job_sort_key)},
                        self.live_slots)
        lp = rows.lp
        n_cap_machines = 0
        for mk in sorted(self.machine_live):
            if not self.machine_live[mk] or mk not in rows.machine_vars:
                continue
            n_cap_machines += 1
            for d in range(self.dims):
                coeffs = {name: vec[d] for name, vec in rows.machine_vars[mk] if vec[d] != 0}
                rhs = self.problem.capacities[mk][d] - self.committed[mk][d]
                lp.add_constraint(coeffs, LE, rhs)
        live_budgets = {t: self.budget_left[t] for t in self.budget_live if self.budget_live[t]}
        n_budget_rows = rows.add_budget_rows(live_budgets)
        return lp, rows.registry, (rows.slot_rows, n_cap_machines, n_budget_rows)

    def _cleanup_structures(self):
        """Drop rows that no longer constrain any live variable."""
        routed_slots = set()
        routed_machines = set()
        routed_types = set()
        for routes in self.live.values():
            routed_slots |= routes.slots
            routed_machines |= routes.machine_costs.keys()
            routed_types |= routes.huge.keys()
        for s in list(self.live_slots):
            if s not in routed_slots:
                self.live_slots.discard(s)  # slot stays empty
        for mk, is_live in self.machine_live.items():
            if is_live and mk not in routed_machines:
                self.machine_live[mk] = False
        for t, is_live in self.budget_live.items():
            if is_live and t not in routed_types:
                self.budget_live[t] = False

    # -- commitments --------------------------------------------------------

    def _remove_job(self, jkey: JobKey):
        del self.live[jkey]

    def _commit_machine(self, jkey: JobKey, mk: MachineKey):
        cost = self.live[jkey].machine_costs[mk]
        for d in range(self.dims):
            self.committed[mk][d] += cost[d]
        if isinstance(jkey, int):
            self.machine_assign[jkey] = mk
            for d in range(self.dims):
                self.committed_real[mk][d] += cost[d]
        else:
            self.art_on_machine.setdefault(mk, []).append(jkey)
            self.art_costs[(jkey, mk)] = cost
        self._remove_job(jkey)

    def _commit_slot(self, jkey: JobKey, s: int):
        assert s not in self.slot_assign
        self.slot_assign[s] = jkey
        self.live_slots.discard(s)
        self._remove_job(jkey)

    def _commit_huge(self, jkey: JobKey, t: int):
        _, charge = self.live[jkey].huge[t]
        self._committed_charge += charge
        self.budget_left[t] -= 1
        assert self.budget_left[t] >= 0
        self.huge_assign[jkey] = t
        self._remove_job(jkey)

    def _fix_integrals(self, sol, registry):
        ones = []
        for name, value in sol.values.items():
            kind, jkey, target = registry[name]
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
        for mk in touched:
            if self.machine_live[mk]:
                for d in range(self.dims):
                    assert self.committed[mk][d] <= self.problem.capacities[mk][d], (
                        "capacity exceeded while rows were live"
                    )

    # -- case reductions ----------------------------------------------------

    def _fractional_by_structure(self):
        by_machine: dict[MachineKey, list] = {}
        by_slot: dict[int, list] = {}
        by_type: dict[int, list] = {}
        for jkey in self.live:
            routes = self.live[jkey]
            for mk in routes.machine_costs:
                by_machine.setdefault(mk, []).append(jkey)
            for s in routes.slots:
                by_slot.setdefault(s, []).append(jkey)
            for t in routes.huge:
                by_type.setdefault(t, []).append(jkey)
        return by_machine, by_slot, by_type

    def _apply_case(self, sol, registry) -> None:
        by_machine, by_slot, by_type = self._fractional_by_structure()

        for mk in sorted(self.machine_live):
            if not self.machine_live[mk]:
                continue
            jobs = by_machine.get(mk, [])
            if len(jobs) <= 2 * self.dims:
                for jkey in sorted(jobs, key=_job_sort_key):
                    self._commit_machine(jkey, mk)
                self.machine_live[mk] = False
                cap = self.problem.capacities[mk]
                slack = 2 * self.dims * rat(self.problem.small_caps[mk])
                for d in range(self.dims):
                    assert self.committed[mk][d] <= cap[d] + slack, (
                        "machine-drop overshoot above 2D*smallcap"
                    )
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
                self._merge(j1, j2, s, sol)
                self.stats.case_slot_merge += 1
            return

        for t in sorted(self.budget_live):
            if not self.budget_live[t]:
                continue
            jobs = by_type.get(t, [])
            if len(jobs) <= 2:
                lineup = self.improper.setdefault(t, [])
                for jkey in sorted(jobs, key=_job_sort_key):
                    lineup.append(jkey)
                    self._remove_job(jkey)
                self.budget_live[t] = False
                self.stats.case_improper += 1
                return

        raise CountingViolation("no machine, slot, or type was reducible")

    def _merge(self, j1: JobKey, j2: JobKey, s: int, sol) -> None:
        r1, r2 = self.live[j1], self.live[j2]
        key = f"a{self._art_counter}"
        self._art_counter += 1

        def val(kind, jkey, target):
            return sol.values.get(route_var(kind, jkey, target), ZERO)

        machine_costs = {}
        machine_weights = {}
        for mk in sorted(set(r1.machine_costs) | set(r2.machine_costs)):
            in1, in2 = mk in r1.machine_costs, mk in r2.machine_costs
            if in1 and in2:
                x1, x2 = val("m", j1, mk), val("m", j2, mk)
                w1 = x1 / (x1 + x2)
                w2 = ONE - w1
            elif in1:
                w1, w2 = ONE, ZERO
            else:
                w1, w2 = ZERO, ONE
            c1 = r1.machine_costs.get(mk, (ZERO,) * self.dims)
            c2 = r2.machine_costs.get(mk, (ZERO,) * self.dims)
            combo = tuple(w1 * a + w2 * b for a, b in zip(c1, c2))
            # convex-combination invariant: each dimension between the parents
            for d in range(self.dims):
                inputs = []
                if in1:
                    inputs.append(c1[d])
                if in2:
                    inputs.append(c2[d])
                assert min(inputs) <= combo[d] <= max(inputs)
            machine_costs[mk] = combo
            machine_weights[mk] = (w1, w2)

        huge = {}
        huge_weights = {}
        for t in sorted(set(r1.huge) | set(r2.huge)):
            in1, in2 = t in r1.huge, t in r2.huge
            if in1 and in2:
                x1, x2 = val("h", j1, t), val("h", j2, t)
                w1 = x1 / (x1 + x2)
                w2 = ONE - w1
            elif in1:
                w1, w2 = ONE, ZERO
            else:
                w1, w2 = ZERO, ONE
            cost1, charge1 = r1.huge.get(t, (ZERO, ZERO))
            cost2, charge2 = r2.huge.get(t, (ZERO, ZERO))
            huge[t] = (w1 * cost1 + w2 * cost2, w1 * charge1 + w2 * charge2)
            huge_weights[t] = (w1, w2)

        slots = (r1.slots | r2.slots) - {s}
        node = MergeNode(key, j1, j2, s, machine_weights, huge_weights)
        self.forest[key] = node
        del self.live[j1]
        del self.live[j2]
        self.live_slots.discard(s)  # disposed
        self.live[key] = JobRoutes(machine_costs, slots, huge)

    # -- main loop -----------------------------------------------------------

    def run(self) -> RoundingOutcome:
        first = True
        prev_objective = None
        while self.live:
            self._cleanup_structures()
            lp, registry, (s_rows, m_rows, t_rows) = self._build_lp()
            try:
                sol = solve_extreme_point(lp)
            except Infeasible:
                if first:
                    raise
                raise InvariantViolation(
                    "reduced LP became infeasible; reduction invariants broken"
                ) from None
            first = False
            self.stats.lp_solves += 1
            frac = sum(1 for v in sol.values.values() if 0 < v < 1)
            bound = 2 * s_rows + 2 * self.dims * m_rows + 2 * t_rows
            if frac > bound:
                raise CountingViolation(
                    f"{frac} fractional variables exceeds bound {bound}"
                )
            self.stats.counting_checks += 1
            self.stats.max_fractional_slack = max(
                self.stats.max_fractional_slack, bound - frac
            )
            full_objective = sol.objective_value + self._committed_charge
            if prev_objective is not None:
                assert full_objective <= prev_objective, (
                    "reduced-LP optimum increased across an iteration"
                )
            prev_objective = full_objective
            self.stats.lp_objectives.append(full_objective)

            self._fix_integrals(sol, registry)
            if not self.live:
                break
            self._apply_case(sol, registry)
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


def slot_lp(problem: RoundingProblem) -> LinearProgram:
    """The first LP the engine solves for problem."""
    return RoundingEngine(problem)._build_lp()[0]


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

    roots = [k for k in outcome.forest if not _is_child(outcome.forest, k)]
    _assert_forest_shape(problem, outcome, view, roots)

    slot_assign: dict[int, int] = {}
    machine_assign: dict[int, MachineKey] = {}
    huge_assign: dict[int, int] = {}
    improper: dict[int, list[int]] = {}

    def place_rest(key: str, withheld: int) -> None:
        node = outcome.forest[key]
        side1 = withheld in view.leaves(node.child1)
        if not side1 and withheld not in view.leaves(node.child2):
            raise ForestInconsistent(f"withheld leaf {withheld} not under {key}")
        inner, outer = (node.child1, node.child2) if side1 else (node.child2, node.child1)
        slot = problem.slots[node.slot]
        if isinstance(outer, int):
            if not view.fits_slot(outer, slot):
                raise ForestInconsistent(f"real child {outer} does not fit its merge slot")
            occupant = outer
        else:
            occupant = view.pick_for_slot(outer, slot)
        assert node.slot not in slot_assign
        slot_assign[node.slot] = occupant
        if isinstance(outer, str):
            place_rest(outer, occupant)
        if isinstance(inner, str):
            place_rest(inner, withheld)
        else:
            assert inner == withheld

    # artificial jobs sitting in foreign slots
    for s, jkey in sorted(outcome.slot_assign.items()):
        if isinstance(jkey, int):
            slot_assign[s] = jkey
            continue
        leaf = view.pick_for_slot(jkey, problem.slots[s])
        slot_assign[s] = leaf
        place_rest(jkey, leaf)

    # artificial jobs routed to huge machines, integrally or as improper pairs
    for jkey, t in sorted(outcome.huge_assign.items(), key=lambda kv: _job_sort_key(kv[0])):
        if isinstance(jkey, int):
            huge_assign[jkey] = t
            continue
        leaf = view.pick_for_huge(jkey, t)
        huge_assign[leaf] = t
        place_rest(jkey, leaf)
    for t, members in sorted(outcome.improper.items()):
        reals = []
        for jkey in members:
            if isinstance(jkey, int):
                reals.append(jkey)
            else:
                leaf = view.pick_for_huge(jkey, t)
                reals.append(leaf)
                place_rest(jkey, leaf)
        improper[t] = reals

    # artificial jobs in remaining space: per-machine covering LP
    final_loads = {mk: list(vec) for mk, vec in outcome.committed_real.items()}
    for jkey, mk in outcome.machine_assign.items():
        assert isinstance(jkey, int)
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
            place_rest(key, rep)
        cap = problem.capacities[mk]
        slack = 3 * problem.dims * rat(problem.small_caps[mk])
        for d in range(problem.dims):
            assert final_loads[mk][d] <= cap[d] + slack, (
                "untangled load above cap + 3D*smallcap"
            )
        stats.overshoot_final_checks += 1

    return FinalAssignment(
        slot_assign=slot_assign,
        machine_assign=machine_assign,
        huge_assign=huge_assign,
        improper=improper,
        final_loads=final_loads,
    )


def _is_child(forest: dict[str, MergeNode], key: str) -> bool:
    return any(key in (n.child1, n.child2) for n in forest.values())


def _assert_forest_shape(problem, outcome, view, roots) -> None:
    seen_leaves: set[int] = set()
    seen_slots: set[int] = set()
    for root in roots:
        leaves = view.leaves(root)
        slots = view.slots_of(root)
        # disjointness across trees and the |J| = |S| + 1 merge-tree shape
        assert len(leaves) == len(set(leaves)) and not (set(leaves) & seen_leaves)
        assert len(slots) == len(set(slots)) and not (set(slots) & seen_slots)
        assert len(leaves) == len(slots) + 1
        seen_leaves |= set(leaves)
        seen_slots |= set(slots)
        slotted = {j for j in outcome.slot_assign.values() if isinstance(j, int)}
        for leaf in leaves:
            assert leaf not in outcome.machine_assign, "subsumed job assigned directly"
            assert leaf not in outcome.huge_assign
            assert leaf not in slotted, "subsumed job sits in a slot"
        for s in slots:
            assert s not in outcome.slot_assign, "disposed slot used by the rounding"


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
            lp.add_variable(f"x{leaf}", objective=1)  # min total mass keeps values in [0,1]
    for key, mem in members.items():
        lp.add_constraint({f"x{leaf}": 1 for leaf in mem}, GE, 1)
    cap = problem.capacities[mk]
    slack = 2 * problem.dims * rat(problem.small_caps[mk])
    for d in range(problem.dims):
        coeffs = {}
        for key, mem in members.items():
            for leaf in mem:
                c = problem.jobs[leaf].machine_costs[mk][d]
                if c != 0:
                    coeffs[f"x{leaf}"] = coeffs.get(f"x{leaf}", ZERO) + c
        rhs = cap[d] + slack - outcome.committed_real[mk][d]
        lp.add_constraint(coeffs, LE, rhs)

    # the recorded convex-combination weights reconstruct each artificial
    # job's cost exactly, certifying feasibility before we solve
    for key in arts:
        seeds = view.seed_weights(key, mk)
        total = sum(seeds.values(), ZERO)
        assert total == 1, "decomposition weights must sum to one"
        committed_cost = outcome.art_costs[(key, mk)]
        for d in range(problem.dims):
            rebuilt = sum(
                (w * problem.jobs[l].machine_costs[mk][d] for l, w in seeds.items()),
                ZERO,
            )
            assert rebuilt == committed_cost[d], (
                "weight decomposition does not reproduce the artificial cost"
            )
    try:
        sol = solve_extreme_point(lp)
    except Infeasible as exc:  # seed argument above makes this impossible
        raise ForestInconsistent("Art-LP infeasible despite decomposition seed") from exc
    assert len(sol.positives()) <= len(arts) + problem.dims

    reps: dict[str, int] = {}
    for key, mem in members.items():
        # round fractional values up to 1; the lowest-index covered leaf stays
        # on the machine, surplus members flow back to the tree slots
        chosen = [leaf for leaf in mem if sol.values[f"x{leaf}"] > 0]
        assert chosen, "coverage row unsatisfied after rounding"
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
