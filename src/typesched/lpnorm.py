"""L_p-norm minimization of one-dimensional jobs on machines of K types.

Pipeline per guess (enumerated, or extracted from a certificate schedule):

  * huge machines per type (machines executing exactly one job), the very
    huge jobs pinned alone to machines, the longest non-huge job length
    c_max per type, a load scale alpha with every non-huge load inside
    [alpha*c_max, (alpha+2)*c_max], and large-job patterns for the
    non-huge machines (sizes rounded down to powers of 1+eps);
  * a convex relaxation over assignment/slot/huge-budget constraints whose
    objective charges each non-huge machine max(small_load + B_i,
    alpha*c_max)^p and each huge-routed job c^p, solved to a certified
    additive error by conditional gradients;
  * a linear program freezing each machine's allowance t*_i =
    max(small_load, alpha*c_max - B_i), rounded iteratively with the slot
    engine extended by the improper-machine case.

The rounding LP is the region's assignment, slot and budget rows, with
one capacity row per machine that holds each allowance frozen at t*_i.
The rounding engine is handed the convex solution x itself, which is a
point of that LP: its assignment, slot and budget rows are the region's
own rows, and each capacity row holds because t*_i = max(small_load,
alpha*c_max - B_i) is at least the small load at x.  So the first round
is never infeasible; if it is, this argument has failed, and _run_guess
raises InvariantViolation, not Infeasible.  When x is integral the engine
keeps each job's one route at 1, so its first round is forced:
_forced_point checks every row exactly and commits x, whose LP value is
its own huge charge, a term the CP objective already counts; an integral
point has no fractional variable, so the counting bound holds trivially.
A fractional x gets the first round's own phase 1, a valid start for any
LP.  Either way _assert_quality_chain checks the per-machine bound and the
(1+4eps)^p chain after untangling.

In guided mode the convex solve's LMO calls begin at the warm start
(_warm_start: each job's one route at 1, each allowance t_i =
max(small_load, alpha*c_max - B_i)), from the tableau lp.vertex_start
builds, with no phase 1.  The warm start is a vertex of the region, so
that basis exists: its positive columns, slacks included, are
independent.  Each job's one route column has a 1 in its own job row,
where no other positive column has an entry, so a vanishing combination of
the columns gives every route weight 0.  What remains are the slacks of the
slot and budget rows, each alone in its row, and per machine t_i with the
slacks of its rows  small_load - t_i <= 0  and  t_i >= alpha*c_max - B_i.
t_i is the larger of the two bounds, so one of the rows is tight and at
most one of the slacks is positive; t_i with either slack is a nonsingular
2x2 block, and without the second row t_i is the small load, which leaves
the first row tight.

Slot sizes are rounded DOWN so the relaxation never exceeds the integral
optimum (the correctness chain then pays a (1+eps) factor when real jobs
replace slot masses); the load lower bound applies to the full modeled
load t_i + B_i, and the huge budget excludes the pinned very-huge
machines.  Both adjustments keep the end-to-end ratio provable and are
covered by the eps calibration (1+4e)(1+e)^2 <= 1 + eps_user.

Full mode lists each type's options once (_type_options), each with its
share of a lower bound, and walks only the guesses whose bound is at most a
limit (see below), with rounding.walk.  Each type's options within its room
(the limit less the other types' least shares) are sorted by share and the
types walked depth-first: a type's loop stops at the first option whose
bound, plus the least share of every later type, exceeds the limit; an
option that pins a job twice is skipped, and a guess that leaves a job
without a route is dropped.  The survivors are sorted back into product
order and run under the live limit.  Under a limit, _type_options lists a
(c_max, alpha) group only for the very-huge tuples whose charge plus its
least share is within it, as no guess under the limit takes the others;
each option's key sorts it as in the product, so the same guesses run in
the same order.  guesses_tried counts the guesses run, one CP model each;
the budget counts one unit per type option listed and per walk node.

Each guess's CP model then passes a count-level check before its region is
built (region_admits): the jobs without a machine route need distinct
slots of their (type, class) groups or free huge machines, at most
budgets[t] of them on type t, found by augmenting paths as in makespan's
profile check.  Unlike that check, this one is exact.  A job with a
machine route can always take it, since the allowance variables t_i are
unbounded above and their rows never bind; so the region is nonempty iff
the remaining jobs have a fractional b-matching onto the slots (capacity
1) and the huge budgets.  A bipartite b-matching polytope is integral, so
that holds iff an integral matching exists, which is Hall's condition.  A
refuted guess raises InfeasibleRegion, as its convex solve would.  That is
the one error full mode skips a guess for: enumerated guesses are consistent
by construction, and the rounding of a point of a nonempty region never
turns infeasible, so any other error is a bug and propagates.

A guess also runs only when its lower bound is at most a limit: for
integral p, the value of the greedy list schedule (model.greedy_schedule),
lowered to each better run's value.  The bound holds for every schedule
consistent with the guess, so the guess of an optimal schedule has bound
at most OPT^p; each limit is the value of a feasible schedule, at least
OPT^p, and the test is strict (bound > limit skips), so that guess always
runs and the (1 + eps) guarantee stands.  The walk runs the guesses a pass
over the whole stream would run, in the same order: such a pass runs a
guess iff its bound is at most the live limit when its turn comes, the live
limit never exceeds the starting one, so each such guess is a survivor, and
the survivors meet the same test in product order.  For non-integral p the
bounds and the greedy value are float powers rounded differently, so a
tight optimum guess could read above the greedy value; there the limit is
unset until the first run and then the best run's value.  Until that run
full mode takes the stream in product order; it walks the rest under the
run's value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

from .errors import (
    BadExponent,
    BudgetExhausted,
    DimensionMismatch,
    GuessInconsistent,
    Infeasible,
    InfeasibleRegion,
    InvariantViolation,
)
from .lp import GE, LE, LinearProgram
from .convex import ConvexSolveResult, solve_convex_over_polytope
from .model import Instance, Schedule, evaluate_lp_norm_pow, greedy_schedule, load_vector
from .modes import FullEnum, Guided
from .rationals import (
    ONE,
    ZERO,
    geometric_grid,
    halve_until,
    is_integral,
    parse_rational,
    power,
    rat,
    rat_ceil,
    rat_floor,
)
from .rounding import (
    JobRoutes,
    RoundingEngine,
    RoundingProblem,
    RoundingStats,
    SlotInfo,
    SlotRows,
    Work,
    assemble_schedule,
    build_slots,
    has_matching,
    pattern_multisets,
    route_point,
    route_vars,
    slot_patterns,
    untangle,
    walk,
)

Pattern = tuple[int, ...]  # sorted size-class exponents e, size (1+eps)^e


@dataclass(frozen=True)
class TypeGuess:
    huge_count: int
    very_huge: tuple[int, ...]        # job ids, pinned alone, longest first
    c_max: object | None
    alpha: int
    profile: tuple[Pattern, ...]      # one pattern per non-huge machine


@dataclass(frozen=True)
class Guess:
    types: tuple[TypeGuess, ...]
    # exact lower bound on the schedules consistent with the guess, the sum
    # of its types' shares (see _type_options); set by the guess walk only.  It
    # does not bound the guess's run, whose rounded schedule may leave the
    # guess: a run can come out below it
    lower_bound: object = field(default=None, compare=False, repr=False)


def f_threshold(p, eps) -> int:
    """Smallest f with 1 + 2^p / f <= (1+eps)^p.

    Listing this many longest one-job machines per type makes the improper
    machine's cost absorbable: sum g^p + (2 min G)^p <= (1+eps)^p sum g^p
    for any |G| >= f.
    """
    p = parse_rational(p)
    eps = parse_rational(eps)
    if p <= 1 or eps <= 0:
        raise BadExponent("need p > 1 and eps > 0")
    if is_integral(p):
        k = int(p)
        f = rat_ceil((rat(2) ** k) / ((ONE + eps) ** k - 1))
    else:
        f = math.ceil(2 ** float(p) / ((1 + float(eps)) ** float(p) - 1))
        while 1 + 2 ** float(p) / f > (1 + float(eps)) ** float(p):
            f += 1
        while f > 1 and 1 + 2 ** float(p) / (f - 1) <= (1 + float(eps)) ** float(p):
            f -= 1
    return max(1, f)


def calibrate_eps(eps_user):
    """Largest eps_user/2^k with (1+4e)(1+e)^2 <= 1 + eps_user."""
    return halve_until(eps_user, _end_to_end)


def _end_to_end(e):
    return (ONE + 4 * e) * (ONE + e) ** 2


HUGE, LARGE, SMALL = "huge", "large", "small"


def job_kind(c_max, alpha: int, eps):
    """The huge/large/small split of a type guess as cost -> kind: huge above
    c_max (every cost when c_max is None), large above eps*alpha*c_max."""
    if c_max is None:
        return lambda c: HUGE
    threshold = rat(eps) * alpha * c_max

    def kind(c):
        if c > c_max:
            return HUGE
        return LARGE if c > threshold else SMALL

    return kind


# ---------------------------------------------------------------------------
# guess extraction and enumeration


def _pattern_caps(alpha: int, c_max, eps) -> tuple[int, object]:
    """(max slots per machine, max pattern mass) under the alpha load window."""
    count_cap = rat_floor(rat(alpha + 2) / (rat(eps) * alpha))
    mass_cap = (alpha + 2) * c_max
    return count_cap, mass_cap


def guess_from_schedule(inst: Instance, p, eps, sched: Schedule) -> Guess:
    """Structural guess induced by a schedule (certificate-guided mode).

    Raises GuessInconsistent when the schedule violates the load-difference
    properties every optimal solution has.  Nothing falls back to
    enumeration: lpnorm_ptas in Guided mode lets the error propagate, so a
    certificate that is not optimal (a greedy list schedule, say) can fail
    the solve, and the caller must retry with FullEnum or another schedule.
    """
    if inst.dims != 1:
        raise DimensionMismatch("L_p pipeline requires D=1")
    eps = parse_rational(eps)
    grid = geometric_grid(eps)
    f = f_threshold(p, eps)
    loads = load_vector(inst, sched)

    per_type = []
    for t in range(inst.num_types):
        huge_jobs, non_huge = _certificate_machines(inst, sched, t)
        huge_jobs.sort(key=lambda j: (-inst.cost(j, t), j))
        vh = tuple(huge_jobs[: min(f, len(huge_jobs))])
        if len(vh) < len(huge_jobs):
            floor = min(inst.cost(j, t) for j in vh)
            for j in huge_jobs[len(vh):]:
                if inst.cost(j, t) > floor:
                    raise GuessInconsistent("non-listed huge job longer than a listed one")

        hosted = [j for jobs in non_huge.values() for j in jobs]
        if not hosted:
            per_type.append(
                TypeGuess(len(huge_jobs), vh, None, 1, tuple(() for _ in non_huge))
            )
            continue
        c_max = max(inst.cost(j, t) for j in hosted)
        nh_loads = [loads[(t, k)][0] for k in non_huge]
        if min(nh_loads) < c_max or max(nh_loads) - min(nh_loads) > c_max:
            raise GuessInconsistent("non-huge loads violate the load-difference property")
        alpha = max(1, min(inst.num_jobs, rat_floor(min(nh_loads) / c_max)))
        if max(nh_loads) > (alpha + 2) * c_max:
            raise GuessInconsistent("no load window of width 2*c_max fits")
        if len(vh) < len(huge_jobs):
            spill = [j for j in huge_jobs[len(vh):] if inst.cost(j, t) <= c_max]
            if spill:
                raise GuessInconsistent("huge machine hosts a job not huge on its type")

        kind = job_kind(c_max, alpha, eps)
        count_cap, mass_cap = _pattern_caps(alpha, c_max, eps)
        pats = tuple(pattern for pattern, _ in _large_patterns(inst, t, grid, kind, non_huge))
        for pattern in pats:
            if len(pattern) > count_cap:
                raise GuessInconsistent("pattern slot count exceeds its cap")
            if sum((grid.value(e) for e in pattern), ZERO) > mass_cap:
                raise GuessInconsistent("pattern mass exceeds the load window")
        per_type.append(TypeGuess(len(huge_jobs), vh, c_max, alpha, pats))
    return Guess(tuple(per_type))


def _certificate_machines(
    inst: Instance, sched: Schedule, t: int
) -> tuple[list[int], dict[int, list[int]]]:
    """Type t's machines under a certificate schedule: the jobs alone on a
    machine (its huge machines, in machine order), and the job lists of the
    other machines by index."""
    jobs_on: dict[int, list[int]] = {k: [] for k in range(inst.machine_counts[t])}
    for j, (tt, k) in enumerate(sched.assignment):
        if tt == t:
            jobs_on[k].append(j)
    huge = [jobs[0] for jobs in jobs_on.values() if len(jobs) == 1]
    return huge, {k: jobs for k, jobs in jobs_on.items() if len(jobs) != 1}


def _large_patterns(inst: Instance, t: int, grid, kind, machines) -> list[tuple[Pattern, int]]:
    """(pattern, k) of each machine k of type t in machines (index -> jobs), in
    canonical order; a pattern is the sorted size classes of its large jobs."""
    out = []
    for k, jobs in machines.items():
        costs = [inst.cost(j, t) for j in jobs]
        out.append((tuple(sorted(grid.round_down(c) for c in costs if kind(c) is LARGE)), k))
    return sorted(out)


def _cost_table(inst: Instance, t: int, eps) -> list[tuple]:
    """(cost, size class) of every job on type t, computed once per enumeration."""
    grid = geometric_grid(eps)
    return [(c, grid.round_down(c)) for c in (job[t][0] for job in inst.costs)]


def _type_options(inst: Instance, t: int, p, eps, limit=None, work=None) -> list[tuple]:
    """Type t's options in product order, each (key, guess, mask of its
    very-huge jobs, mask of the jobs it can route, its lower-bound share).

    A key (h, r, g, i) is the huge-machine count, the very-huge tuple's rank
    in itertools.combinations order, the (c_max, alpha) group's index and the
    profile's index in it, so keys compare in product order.  A share is the
    very-huge charge plus max(alpha*c_max, pattern mass)^p per non-huge
    machine, at least the charge plus the group's non_huge*(alpha*c_max)^p.
    Under a limit, a (tuple, group) pair above it is not listed, and a group
    is listed at its first pair within it.  work is charged one unit per
    listed option, a group at a time; a group lists at most one profile past
    the budget left.
    """
    n = inst.num_jobs
    m = inst.machine_counts[t]
    f = f_threshold(p, eps)
    work = Work() if work is None else work
    table = _cost_table(inst, t, eps)
    costs = sorted({c for c, _ in table})
    grid = geometric_grid(eps)
    terms: dict[tuple, object] = {}  # (alpha*c_max, pattern) -> max(alpha*c_max, mass)^p

    def term(floor_val, pat: Pattern):
        if (floor_val, pat) not in terms:
            mass = sum((grid.value(e) for e in pat), ZERO)
            terms[floor_val, pat] = rat(power(max(floor_val, mass), p))
        return terms[floor_val, pat]

    out = []
    for h in range(0, m + 1):
        non_huge = m - h
        # (c_max, alpha, least share) per group; group 0 has no large job
        groups = [(None, 1, ZERO)] + [
            (c_max, alpha, non_huge * rat(power(alpha * c_max, p)))
            for c_max in (costs if non_huge else ()) for alpha in range(1, n + 1)
        ]
        listed = {0: [(tuple(() for _ in range(non_huge)), frozenset(), ZERO)]}
        masks: dict[tuple, dict] = {}  # (shortest very-huge cost, group) -> classes -> mask
        for r, vh in enumerate(itertools.combinations(range(n), min(f, h))):
            vh = tuple(sorted(vh, key=lambda j: (-table[j][0], j)))
            pinned = sum(1 << j for j in vh)
            vh_charge = sum((rat(power(table[j][0], p)) for j in vh), ZERO)
            shortest = min((table[j][0] for j in vh), default=None)
            for g, (c_max, alpha, least) in enumerate(groups):
                if limit is not None and vh_charge + least > limit:
                    continue
                if g not in listed:  # (profile, its classes, its pattern terms)
                    listed[g] = [
                        (profile, frozenset(e for pat in profile for e in pat),
                         sum((term(alpha * c_max, pat) for pat in profile), ZERO))
                        for profile in _profiles_for(table, non_huge, c_max, alpha, eps,
                                                     work.budget - work.spent + 1)
                    ]
                work.charge(len(listed[g]))
                route_masks = masks.setdefault((shortest, g), {})
                for i, (profile, classes, pattern_terms) in enumerate(listed[g]):
                    tg = TypeGuess(h, vh, c_max, alpha, profile)
                    if classes not in route_masks:
                        route_masks[classes] = _routable_mask(inst, eps, t, tg, table)
                    out.append(((h, r, g, i), tg, pinned, route_masks[classes],
                                vh_charge + pattern_terms))
    return out


def _profiles_for(table, machines, c_max, alpha, eps, cap=None) -> list[tuple[Pattern, ...]]:
    kind = job_kind(c_max, alpha, eps)
    counts: dict[int, int] = {}
    for c, e in table:
        if kind(c) is LARGE:
            counts[e] = counts.get(e, 0) + 1
    count_cap, mass_cap = _pattern_caps(alpha, c_max, eps)
    grid = geometric_grid(eps)
    patterns = slot_patterns(counts, count_cap, lambda e: (grid.value(e),), mass_cap)
    return pattern_multisets(patterns, machines, counts, cap)


def enumerate_guesses(inst: Instance, p, eps, budget: int) -> Iterator[Guess]:
    """Lazily yield structural guesses; BudgetExhausted when truncated.

    The guesses are the combinations of one option per type, in product
    order, that pin no job on two types and leave no unpinned job without a
    route on some type; the others can never be feasible and are not charged
    against the budget, which counts yields.  This is the walk of full mode
    with no limit.  Each yielded guess carries its lower_bound, the
    left-to-right sum of per-type shares priced once per type option.
    """
    if inst.dims != 1:
        raise DimensionMismatch("L_p pipeline requires D=1")
    p = parse_rational(p)
    eps = parse_rational(eps)
    options = [_type_options(inst, t, p, eps) for t in range(inst.num_types)]
    every = (1 << inst.num_jobs) - 1
    for yielded, (_, types, bound) in enumerate(walk(every, options, None, Work())):
        if yielded >= budget:
            raise BudgetExhausted(f"guess budget {budget} exhausted")
        yield Guess(types, bound)


def _survivors(num_jobs: int, options: list, limit, work: Work) -> list[tuple[tuple, Guess]]:
    """(keys, guess) of every guess with bound at most limit, in product
    order: the walk over each type's options sorted by share (a stable sort,
    so options of equal share stay in key order).  Under a limit, the
    options above their type's room, the limit less the other types' least
    shares, are dropped first, as the walk never enters them."""
    if limit is not None:  # every type lists its all-empty option, share 0
        least = [min(o[4] for o in opts) for opts in options]
        total = sum(least, ZERO)
        options = [[o for o in opts if o[4] <= limit - total + own]
                   for opts, own in zip(options, least)]
        if not all(options):
            return []
    ranked = [sorted(opts, key=lambda o: o[4]) for opts in options]
    found = walk((1 << num_jobs) - 1, ranked, limit, work)
    return sorted((keys, Guess(types, bound)) for keys, types, bound in found)


def _type_routes(inst, eps, t: int, tg: TypeGuess, table) -> list:
    """Each job's route kind on type t under tg, or None when it has no route there.

    Huge jobs up to the shortest very-huge one may take a free huge machine,
    large ones the slots of their class, small ones any non-huge machine.
    """
    if inst.machine_counts[t] == 0:
        return [None] * len(table)
    free_huge = tg.huge_count > len(tg.very_huge)
    floor = min((table[j][0] for j in tg.very_huge), default=None)
    classes = {e for pat in tg.profile for e in pat}
    small_ok = inst.machine_counts[t] > tg.huge_count
    kind = job_kind(tg.c_max, tg.alpha, eps)
    out = []
    for c, e in table:
        k = kind(c)
        if k is HUGE:
            ok = free_huge and floor is not None and c <= floor
        else:
            ok = e in classes if k is LARGE else small_ok
        out.append(k if ok else None)
    return out


def _routable_mask(inst, eps, t: int, tg: TypeGuess, table) -> int:
    """Bit j set when type t offers job j a route under tg."""
    routes = _type_routes(inst, eps, t, tg, table)
    return sum(1 << j for j, k in enumerate(routes) if k is not None)


# ---------------------------------------------------------------------------
# Slot-CP model


@dataclass
class CpModel:
    inst: Instance
    p: object
    eps: object
    guess: Guess
    small_machines: list[tuple[int, int]]
    pattern_mass: dict[tuple[int, int], object]      # B_i
    load_floor: dict[tuple[int, int], object]        # alpha_l * c_max_l
    slots: dict[int, SlotInfo]
    routes: dict[int, JobRoutes]
    budgets: dict[int, int]
    free_huge: dict[int, list[tuple[int, int]]]     # huge machines past the pinned ones
    vh_machines: dict[int, tuple[int, int]]          # job -> pinned machine
    vh_loads: dict[tuple[int, int], object]          # t*_i of very huge machines
    small_caps: dict[tuple[int, int], object]


@dataclass
class CpSolution:
    x: dict
    t_star: dict[tuple[int, int], object]
    objective_value: float
    duality_gap: float
    iterations: int
    tolerance: float


def build_cp_model(inst: Instance, p, eps, guess: Guess) -> CpModel:
    if inst.dims != 1:
        raise DimensionMismatch("L_p pipeline requires D=1")
    p = parse_rational(p)
    eps = parse_rational(eps)
    if len(guess.types) != inst.num_types:
        raise GuessInconsistent("guess covers the wrong number of types")

    small_machines: list[tuple[int, int]] = []
    load_floor: dict[tuple[int, int], object] = {}
    small_caps: dict[tuple[int, int], object] = {}
    vh_machines: dict[int, tuple[int, int]] = {}
    vh_loads: dict[tuple[int, int], object] = {}
    budgets: dict[int, int] = {}
    free_huge: dict[int, list[tuple[int, int]]] = {}
    patterns: list = []  # (machine, pattern) of every non-huge machine

    for t, tg in enumerate(guess.types):
        m = inst.machine_counts[t]
        if tg.huge_count > m or len(tg.very_huge) > tg.huge_count:
            raise GuessInconsistent(f"type {t}: huge counts exceed machines")
        non_huge = m - tg.huge_count
        if len(tg.profile) != non_huge:
            raise GuessInconsistent(f"type {t}: profile does not cover non-huge machines")
        for r, j in enumerate(tg.very_huge):
            mk = (t, non_huge + r)
            vh_machines[j] = mk
            vh_loads[mk] = inst.cost(j, t)
        free_huge[t] = [(t, k) for k in range(non_huge + len(tg.very_huge), m)]
        if free_huge[t]:
            budgets[t] = len(free_huge[t])
        for i in range(non_huge):
            mk = (t, i)
            small_machines.append(mk)
            patterns.append((mk, tg.profile[i]))
            if tg.c_max is None and tg.profile[i]:
                raise GuessInconsistent(f"type {t}: pattern without c_max")
            load_floor[mk] = ZERO if tg.c_max is None else tg.alpha * tg.c_max
            small_caps[mk] = eps * load_floor[mk]
    grid = geometric_grid(eps)
    slots, mass, slots_of = build_slots(patterns, lambda e: (grid.value(e),), 1)

    tables = [_cost_table(inst, t, eps) for t in range(inst.num_types)]
    route_kinds = [_type_routes(inst, eps, t, tg, tables[t]) for t, tg in enumerate(guess.types)]
    routes: dict[int, JobRoutes] = {}
    for j in range(inst.num_jobs):
        if j in vh_machines:
            continue
        machine_costs: dict[tuple[int, int], tuple] = {}
        slot_ids: set[int] = set()
        huge: dict[int, tuple] = {}
        for t, tg in enumerate(guess.types):
            c, e = tables[t][j]
            kind = route_kinds[t][j]
            if kind is HUGE:
                huge[t] = (c, rat(power(c, p)))
            elif kind is LARGE:
                slot_ids.update(slots_of[(t, e)])
            elif kind is SMALL:
                for i in range(inst.machine_counts[t] - tg.huge_count):
                    machine_costs[(t, i)] = (c,)
        routes[j] = JobRoutes(machine_costs, slot_ids, huge)

    return CpModel(
        inst=inst,
        p=p,
        eps=eps,
        guess=guess,
        small_machines=small_machines,
        pattern_mass={mk: mass[mk][0] for mk in small_machines},
        load_floor=load_floor,
        slots=slots,
        routes=routes,
        budgets=budgets,
        free_huge=free_huge,
        vh_machines=vh_machines,
        vh_loads=vh_loads,
        small_caps=small_caps,
    )


def build_cp_region(model: CpModel) -> LinearProgram:
    """Slot-LP rows, huge-budget rows, then one allowance variable per
    non-huge machine with the rows  small_load <= t_i  and
    t_i >= alpha*c_max - B_i.  Machine mk's allowance is the column ("t", mk).

    Loads live in the objective.  The solver iterates on this smooth
    formulation (the eliminated max() form puts a kink exactly where optima
    sit, which stalls float iterates and inflates subgradient-based gap
    certificates).  The huge routes carry their charges as the LP objective,
    which the convex solver ignores.
    """
    rows = SlotRows({j: model.routes[j] for j in sorted(model.routes)}, model.slots)
    rows.add_budget_rows(model.budgets)
    lp = rows.lp
    for mk in model.small_machines:
        tvar = lp.add_variable(("t", mk))
        coeffs = {var: cost[0] for var, cost in rows.machine_vars.get(mk, [])}
        coeffs[tvar] = -1
        lp.add_constraint(coeffs, LE, 0)
        floor_val = model.load_floor[mk] - model.pattern_mass[mk]
        if floor_val > 0:
            lp.add_constraint({tvar: 1}, GE, floor_val)
    return lp


class LoadObjective:
    """The slot CP's objective, each form written once over the number type.

    The solver minimizes the smooth form  sum (t_i + B_i)^p  over the
    allowance variables t_i; it is differentiable everywhere, so the
    conditional-gradient certificate is the plain gradient gap.  Route
    points (warm-start incumbent, reported value) are priced by the
    eliminated form  sum max(u_i + B_i, alpha*c_max)^p  over the small loads
    u_i.  Both add the linear huge charges and the constant very-huge term.
    value and gradient run in floats for the Frank-Wolfe iterates; when p is
    an integer, exact_value and exact_gradient run over rationals, and the
    convex solver certifies in exact arithmetic iff they exist.  Both forms
    read only the support: the huge routes and the allowance variables.
    """

    def __init__(self, model: CpModel):
        self.exact_p = is_integral(model.p)
        coeffs_of: dict[tuple[int, int], dict] = {mk: {} for mk in model.small_machines}
        self.linear: dict = {}
        for j, routes in model.routes.items():
            for var in route_vars(j, routes):
                kind, _, target = var
                if kind == "m":
                    coeffs_of[target][var] = routes.machine_costs[target][0]
                elif kind == "h":
                    self.linear[var] = routes.huge[target][1]
        # (machine, allowance variable, small-load coefficients, B_i, alpha*c_max)
        self.machines = [
            (mk, ("t", mk), coeffs_of[mk], model.pattern_mass[mk], model.load_floor[mk])
            for mk in model.small_machines
        ]
        self.const = sum((rat(power(v, model.p)) for v in model.vh_loads.values()), ZERO)
        self.support = frozenset(self.linear).union(tvar for _, tvar, *_ in self.machines)
        # (conversion, zero, exponent) of each number type
        self._floats = (float, 0.0, float(model.p))
        if self.exact_p:
            self._exact = (rat, ZERO, int(model.p))

    def value(self, x: dict) -> float:
        return self._value(x, *self._floats)

    def gradient(self, x: dict) -> dict:
        return self._gradient(x, *self._floats)

    @property
    def exact_value(self):
        return self._exact_form(self._value)

    @property
    def exact_gradient(self):
        return self._exact_form(self._gradient)

    def _exact_form(self, form):
        """form over rationals.  Raises AttributeError unless p is integral,
        so hasattr, the convex solver's switch to exact mode, sees the exact
        forms just then; none is stored on the objective."""
        if not self.exact_p:
            raise AttributeError("the exact forms need an integral p")
        return lambda x: form(x, *self._exact)

    def _charges(self, x: dict, num, zero):
        return sum((num(c) * x.get(v, zero) for v, c in self.linear.items()), zero)

    def _value(self, x: dict, num, zero, exponent):
        total = num(self.const)
        for _, tvar, _, B, _ in self.machines:
            total += (x.get(tvar, zero) + num(B)) ** exponent
        total += self._charges(x, num, zero)
        return total

    def _gradient(self, x: dict, num, zero, exponent) -> dict:
        g = {v: num(c) for v, c in self.linear.items()}
        for _, tvar, _, B, _ in self.machines:
            g[tvar] = exponent * (x.get(tvar, zero) + num(B)) ** (exponent - 1)
        return g

    def eliminated_value(self, x: dict, exact: bool) -> float:
        """The eliminated form at route point x, summed exactly or in floats."""
        num, zero, exponent = self._exact if exact else self._floats
        x = {v: num(val) for v, val in x.items()}
        total = num(self.const)
        for _, _, coeffs, B, floor_val in self.machines:
            u = sum((num(c) * x.get(v, zero) for v, c in coeffs.items()), zero)
            total += max(u + num(B), num(floor_val)) ** exponent
        total += self._charges(x, num, zero)
        return float(total)

    def allowances(self, x: dict) -> dict:
        """Exact t_i = max(small_load, alpha*c_max - B_i) at route point x."""
        out = {}
        for mk, _, coeffs, B, floor_val in self.machines:
            u = sum((c * rat(x.get(v, ZERO)) for v, c in coeffs.items()), ZERO)
            out[mk] = max(u, floor_val - B)
        return out


def additive_tolerance(model: CpModel, incumbent: float) -> float:
    """eps^p (min alpha*c_max)^p / 4, floored at 1e-6 of the incumbent."""
    floors = [v for v in model.load_floor.values() if v > 0]
    if floors:
        base = float(model.eps) ** float(model.p) * float(min(floors)) ** float(model.p) / 4
    else:
        base = 0.0
    return max(base, 1e-6 * abs(incumbent), 1e-9)


def solve_slot_cp(
    model: CpModel, additive_tol: float | None = None, start: dict | None = None
) -> CpSolution:
    """Certified additive-error solve of the convex relaxation.

    The solver iterates over explicit allowance variables (smooth
    objective); the returned allowances are then the analytic elimination
    t_i = max(small_load, alpha*c_max - B_i), which never increases the
    objective, so the certificate carries over to the reported values.
    Without additive_tol, the tolerance is additive_tolerance at the
    eliminated value of start, or of the zero point when there is no start.
    """
    region = build_cp_region(model)
    objective = LoadObjective(model)
    if additive_tol is None:
        # the zero point is priced in floats even for integral p; the
        # tolerance, and so the Frank-Wolfe stopping point, rest on its bits
        exact = start is not None and objective.exact_p
        incumbent = objective.eliminated_value({} if start is None else start, exact)
        additive_tol = additive_tolerance(model, incumbent)
    if start is not None:
        start = dict(start)
        for mk, t in objective.allowances(start).items():
            start["t", mk] = t
        _assert_region_point(region, start)
    res: ConvexSolveResult = solve_convex_over_polytope(
        region, objective, additive_tol, start=start
    )
    # drop the allowance coordinates and re-evaluate at their eliminated
    # values; the point only improves, so f(x) - f* <= gap still holds
    x_routes = {v: val for v, val in res.x.items() if v[0] != "t"}
    return CpSolution(
        x=x_routes,
        t_star=objective.allowances(x_routes),
        objective_value=objective.eliminated_value(x_routes, objective.exact_p),
        duality_gap=res.duality_gap,
        iterations=res.iterations,
        tolerance=additive_tol,
    )


def _assert_region_point(region: LinearProgram, point: dict) -> None:
    vals = {v: rat(point.get(v, 0)) for v in region.variables}
    if not all(c.holds(vals) for c in region.constraints):
        raise InvariantViolation("warm-start point is not exactly feasible")


def build_rounding_from_cp(model: CpModel, t_star: dict) -> RoundingProblem:
    return RoundingProblem(
        dims=1,
        jobs=model.routes,
        slots=model.slots,
        capacities={mk: (t_star[mk],) for mk in model.small_machines},
        small_caps={mk: model.small_caps[mk] for mk in model.small_machines},
        type_budgets=dict(model.budgets),
        leaf_raw_cost=model.inst.cost,
    )


# ---------------------------------------------------------------------------
# full pipeline


@dataclass
class LpnormRun:
    schedule: Schedule
    objective_pow: object
    cp_objective: float
    cp_gap: float
    cp_tolerance: float
    guess: Guess
    stats: RoundingStats
    forest: dict = field(default_factory=dict)


@dataclass
class LpnormResult:
    schedule: Schedule
    objective_pow: object
    eps_internal: object
    guesses_tried: int
    run: LpnormRun


def _warm_start(model: CpModel, sched: Schedule) -> dict:
    """Exact CP point induced by a schedule consistent with the guess: the
    route point (rounding.route_point) of its non-huge machines, and the
    huge route for every other job."""
    inst = model.inst
    grid = geometric_grid(model.eps)
    machines: dict = {}
    for t, tg in enumerate(model.guess.types):
        if inst.machine_counts[t] == 0 or tg.c_max is None:
            continue
        _, non_huge = _certificate_machines(inst, sched, t)
        kind = job_kind(tg.c_max, tg.alpha, model.eps)
        pats = tuple(pattern for pattern, _ in _large_patterns(inst, t, grid, kind, non_huge))
        if pats != tg.profile:
            raise InvariantViolation("profile out of sync")
        for k, jobs in non_huge.items():
            costs = [inst.cost(j, t) for j in jobs]
            machines[t, k] = [(j, grid.round_down(c) if kind(c) is LARGE else None)
                              for j, c in zip(jobs, costs)]
    point = route_point(model.slots, machines)
    # remaining unpinned jobs on huge machines travel the huge route
    for j, routes in model.routes.items():
        if not any(point.get(v, ZERO) == ONE for v in route_vars(j, routes)):
            t = sched.assignment[j][0]
            if t not in routes.huge:
                raise InvariantViolation("guided schedule routed a job outside the guess")
            point["h", j, t] = ONE
    return point


def region_admits(model: CpModel) -> bool:
    """Whether the CP region of model is nonempty (the count check of the
    module docstring): the jobs without a machine route take distinct slots
    of their (type, class) groups or free huge machines, at most
    model.budgets[t] of them on type t."""
    capacity: dict = {("h", t): b for t, b in model.budgets.items()}
    for info in model.slots.values():
        group = (info.machine[0], info.klass)
        capacity[group] = capacity.get(group, 0) + 1
    options = []
    for routes in model.routes.values():
        if routes.machine_costs:
            continue  # its allowance absorbs any small load
        groups = {(model.slots[s].machine[0], model.slots[s].klass) for s in routes.slots}
        options.append([*groups, *(("h", t) for t in routes.huge)])
    return has_matching(options, capacity)


def _run_guess(inst: Instance, p, eps, guess: Guess, start_schedule=None) -> LpnormRun:
    model = build_cp_model(inst, p, eps, guess)
    if not region_admits(model):
        raise InfeasibleRegion("the jobs without a machine route cannot take distinct places")
    start = _warm_start(model, start_schedule) if start_schedule is not None else None
    cp = solve_slot_cp(model, start=start)
    problem = build_rounding_from_cp(model, cp.t_star)
    engine = RoundingEngine(problem, cp.x)
    try:
        outcome = engine.run()
    except Infeasible as exc:  # cp.x is a point of the first round's LP
        raise InvariantViolation("the rounding LP rejected the convex solution") from exc
    final = untangle(problem, outcome)
    schedule = assemble_schedule(problem, final, inst.num_jobs, model.vh_machines, model.free_huge)
    total = evaluate_lp_norm_pow(inst, schedule, p)
    _assert_quality_chain(model, cp, final, total)
    return LpnormRun(
        schedule=schedule,
        objective_pow=total,
        cp_objective=cp.objective_value,
        cp_gap=cp.duality_gap,
        cp_tolerance=cp.tolerance,
        guess=guess,
        stats=engine.stats,
        forest=outcome.forest,
    )


def _assert_quality_chain(model: CpModel, cp: CpSolution, final, total) -> None:
    eps = rat(model.eps)
    # per-machine bound: g_i <= (1+eps) B_i + t*_i + 3 eps alpha c_max
    for mk in model.small_machines:
        load = final.final_loads.get(mk, [ZERO])[0]
        slot_true = ZERO
        for s, j in final.slot_assign.items():
            if model.slots[s].machine == mk:
                slot_true += model.inst.cost(j, mk[0])
        g = load + slot_true
        bound = (ONE + eps) * model.pattern_mass[mk] + cp.t_star[mk] + 3 * model.small_caps[mk]
        if g > bound:
            raise InvariantViolation("per-machine load above the rounding bound")
    if is_integral(model.p):
        # whole-solution chain against the certified relaxation value
        factor = float((ONE + 4 * eps) ** int(model.p))
        if float(total) > factor * (cp.objective_value + 1e-9) * (1 + 1e-9):
            raise InvariantViolation("final cost above (1+4eps)^p times the relaxation value")


def lpnorm_ptas(inst: Instance, p, eps_user, mode) -> LpnormResult:
    """Schedule with ||g||_p <= (1 + eps_user) * OPT_p.

    Guided mode runs the guess of mode.schedule.  Full mode runs every
    enumerated guess whose lower bound is at most the limit (the greedy
    schedule's value for integral p, then each better run's value; see the
    module docstring for why the optimum's guess always runs), walking only
    the guesses under it, and returns the best run.  guesses_tried counts
    the guesses run, one CP model each (guided mode's 1 is its one run);
    mode.budget caps the work, one unit per type option listed under the
    limit and per node of the walk.
    """
    if inst.dims != 1:
        raise DimensionMismatch("L_p pipeline requires D=1")
    p = parse_rational(p)
    if p <= 1:
        raise BadExponent(f"need p > 1, got {p}")
    eps_user = parse_rational(eps_user)
    eps = calibrate_eps(eps_user)

    if isinstance(mode, Guided):
        guess = guess_from_schedule(inst, p, eps, mode.schedule)
        run = _run_guess(inst, p, eps, guess, start_schedule=mode.schedule)
        return LpnormResult(run.schedule, run.objective_pow, eps, 1, run)

    work = Work(mode.budget)
    limit = evaluate_lp_norm_pow(inst, greedy_schedule(inst, p), p) if is_integral(p) else None
    options = [_type_options(inst, t, p, eps, limit, work) for t in range(inst.num_types)]
    tried = 0  # guesses handed to _run_guess, one CP model each
    best: LpnormRun | None = None
    incumbent = None  # rat(best.objective_pow)
    walked = ()  # keys of the guess whose run set the first limit
    if limit is None:  # take the stream in product order until a guess runs
        for walked, types, bound in walk((1 << inst.num_jobs) - 1, options, None, work):
            tried += 1
            try:
                best = _run_guess(inst, p, eps, Guess(types, bound))
            except InfeasibleRegion:
                continue  # wrong guess, not an instance failure
            incumbent = limit = rat(best.objective_pow)
            break
        else:
            raise InvariantViolation("no guess produced a schedule")
    for keys, guess in _survivors(inst.num_jobs, options, limit, work):
        if keys <= walked or guess.lower_bound > limit:
            continue
        tried += 1
        try:
            run = _run_guess(inst, p, eps, guess)
        except InfeasibleRegion:
            continue
        value = rat(run.objective_pow)
        if incumbent is None or value < incumbent:
            best, incumbent = run, value
            limit = min(limit, value)
    if best is None:
        raise InvariantViolation("no guess produced a schedule")
    return LpnormResult(best.schedule, best.objective_pow, eps, tried, best)

