import collections
import itertools
import random

import pytest

from typesched import lp as lp_module
from typesched import lpnorm, makespan, rounding
from typesched.cli import ExperimentConfig
from typesched.errors import (
    ForestInconsistent,
    GuessInconsistent,
    Infeasible,
    InvariantViolation,
    PatternOverflow,
)
from typesched.makespan import build_rounding_problem, make_scaled_instance, profile_from_schedule
from typesched.model import GeneratorSpec, Instance, Schedule, generate_instance, greedy_schedule
from typesched.modes import FullEnum, Guided
from typesched.oracle import exact_solve
from typesched.rationals import ONE, ZERO, geometric_grid, rat
from typesched.rounding import (
    FinalAssignment,
    JobRoutes,
    MergeNode,
    RoundingEngine,
    RoundingOutcome,
    RoundingProblem,
    RoundingStats,
    SlotInfo,
    assemble_schedule,
    number_slots,
    pattern_multisets,
    route_point,
    route_vars,
    slot_patterns,
    untangle,
)


def simple_problem(jobs, slots, capacities, small_caps=None, budgets=None):
    return RoundingProblem(
        dims=1,
        jobs=jobs,
        slots=slots,
        capacities=capacities,
        small_caps=small_caps or {m: rat(1, 2) for m in capacities},
        type_budgets=budgets or {},
        leaf_raw_cost=lambda j, t: rat(1),
    )


def test_already_integral_no_reductions():
    problem = simple_problem(
        jobs={0: JobRoutes({(0, 0): (rat(1, 4),)}, set())},
        slots={},
        capacities={(0, 0): (rat(1),)},
    )
    outcome = RoundingEngine(problem).run()
    assert outcome.machine_assign == {0: (0, 0)}
    assert outcome.stats.iterations == 0
    assert not outcome.forest


def test_single_large_job_forced_into_slot():
    slots = {0: SlotInfo(0, (0, 0), "q")}
    problem = simple_problem(
        jobs={0: JobRoutes({}, {0})},
        slots=slots,
        capacities={(0, 0): (rat(1),)},
    )
    outcome = RoundingEngine(problem).run()
    assert outcome.slot_assign == {0: 0}


def test_first_lp_infeasible_signals_wrong_guess():
    problem = simple_problem(
        jobs={0: JobRoutes({}, set())},  # no routes at all
        slots={},
        capacities={},
    )
    with pytest.raises(Infeasible):
        RoundingEngine(problem).run()


def test_merge_equal_costs_yields_same_cost_artificial():
    # white-box check of the convex-combination construction
    problem = simple_problem(
        jobs={
            0: JobRoutes({(0, 0): (rat(1, 4),)}, {0}),
            1: JobRoutes({(0, 0): (rat(1, 4),)}, {0}),
        },
        slots={0: SlotInfo(0, (0, 1), "q")},
        capacities={(0, 0): (rat(1),), (0, 1): (rat(1),)},
    )
    engine = RoundingEngine(problem)
    values = {
        ("m", 0, (0, 0)): rat(1, 2),
        ("s", 0, 0): rat(1, 2),
        ("m", 1, (0, 0)): rat(1, 2),
        ("s", 1, 0): rat(1, 2),
    }
    engine._merge(0, 1, 0, values)
    assert "a0" in engine.live
    art = engine.live["a0"]
    assert art.machine_costs[(0, 0)] == (rat(1, 4),)  # convex combination of equals
    assert art.slots == set()
    node = engine.forest["a0"]
    assert node.machine_weights[(0, 0)] == (rat(1, 2), rat(1, 2))


def test_merge_one_sided_route_inherits_cost():
    problem = simple_problem(
        jobs={
            0: JobRoutes({(0, 0): (rat(1, 8),)}, {0}),
            1: JobRoutes({(0, 1): (rat(1, 3),)}, {0}),
        },
        slots={0: SlotInfo(0, (1, 0), "q")},
        capacities={(0, 0): (rat(1),), (0, 1): (rat(1),), (1, 0): (rat(1),)},
    )
    engine = RoundingEngine(problem)
    values = {
        ("m", 0, (0, 0)): rat(1, 2),
        ("s", 0, 0): rat(1, 2),
        ("m", 1, (0, 1)): rat(1, 2),
        ("s", 1, 0): rat(1, 2),
    }
    engine._merge(0, 1, 0, values)
    art = engine.live["a0"]
    assert art.machine_costs[(0, 0)] == (rat(1, 8),)
    assert art.machine_costs[(0, 1)] == (rat(1, 3),)
    assert engine.forest["a0"].machine_weights[(0, 0)] == (ONE, ZERO)


def build_nested_forest_outcome(problem, foreign_slot=5):
    """Nested two-level tree: 5 leaves, 4 disposed slots, root in a foreign slot.

    merges: a0=(0,1)@s0, a1=(a0,2)@s1, a2=(3,4)@s2, a3=(a1,a2)@s3.
    """
    forest = {
        "a0": MergeNode("a0", 0, 1, 0, {}),
        "a1": MergeNode("a1", "a0", 2, 1, {}),
        "a2": MergeNode("a2", 3, 4, 2, {}),
        "a3": MergeNode("a3", "a1", "a2", 3, {}),
    }
    return RoundingOutcome(
        slot_assign={foreign_slot: "a3"},
        machine_assign={},
        huge_assign={},
        improper={},
        forest=forest,
        committed={m: [ZERO] for m in problem.capacities},
        committed_real={m: [ZERO] for m in problem.capacities},
        art_on_machine={},
        art_costs={},
        stats=RoundingStats(),
    )


@pytest.mark.parametrize("withheld", [0, 1, 2, 3, 4])
def test_nested_forest_untangles_for_every_withheld_leaf(withheld):
    # every leaf/slot pair is compatible; raw costs steer the top-level pick
    slots = {s: SlotInfo(s, (0, 0), "q") for s in range(6)}
    jobs = {j: JobRoutes({}, set(range(6))) for j in range(5)}
    problem = RoundingProblem(
        dims=1,
        jobs=jobs,
        slots=slots,
        capacities={(0, 0): (rat(10),)},
        small_caps={(0, 0): rat(1, 2)},
        leaf_raw_cost=lambda j, t: rat(100 if j == withheld else 5 - j),
    )
    outcome = build_nested_forest_outcome(problem)
    final = untangle(problem, outcome)
    # the withheld leaf lands in the foreign slot, the rest fill s0..s3
    assert final.slot_assign[5] == withheld
    assert sorted(final.slot_assign) == [0, 1, 2, 3, 5]
    assert sorted(final.slot_assign.values()) == [0, 1, 2, 3, 4]


def test_forest_rejects_incompatible_leaves():
    # a leaf fits a slot exactly when it has a route there; these reach none
    slots = {s: SlotInfo(s, (0, 0), "q") for s in range(6)}
    jobs = {j: JobRoutes({}, set()) for j in range(5)}
    problem = RoundingProblem(
        dims=1,
        jobs=jobs,
        slots=slots,
        capacities={(0, 0): (rat(10),)},
        small_caps={(0, 0): rat(1, 2)},
        leaf_raw_cost=lambda j, t: rat(1),
    )
    outcome = build_nested_forest_outcome(problem)
    with pytest.raises(ForestInconsistent):
        untangle(problem, outcome)


def test_untangle_without_artificials_is_identity():
    problem = simple_problem(
        jobs={0: JobRoutes({(0, 0): (rat(1, 4),)}, set())},
        slots={},
        capacities={(0, 0): (rat(1),)},
    )
    outcome = RoundingEngine(problem).run()
    final = untangle(problem, outcome)
    assert final.machine_assign == {0: (0, 0)}
    assert final.final_loads[(0, 0)] == [rat(1, 4)]


def test_improper_case_semantics_whitebox():
    # drive case (c) directly: two fractional huge variables on type 0 land
    # together in the improper lineup and the budget row dies
    cost = rat(3)
    problem = RoundingProblem(
        dims=1,
        jobs={
            0: JobRoutes({}, set(), {0: (cost, cost ** 2)}),
            1: JobRoutes({}, set(), {0: (cost, cost ** 2)}),
        },
        slots={},
        capacities={},
        small_caps={},
        type_budgets={0: 2},
        leaf_raw_cost=lambda j, t: rat(1),
    )
    engine = RoundingEngine(problem)
    engine._apply_case({("h", 0, 0): rat(1, 2), ("h", 1, 0): rat(1, 2)})
    assert engine.improper == {0: [0, 1]}
    assert not engine.live
    assert 0 not in engine.live_types
    assert engine.stats.case_improper == 1


def test_integral_huge_routes_consume_budget():
    cost = rat(3)
    problem = RoundingProblem(
        dims=1,
        jobs={
            0: JobRoutes({}, set(), {0: (cost, cost ** 2)}),
            1: JobRoutes({}, set(), {0: (cost, cost ** 2)}),
        },
        slots={},
        capacities={},
        small_caps={},
        type_budgets={0: 2},
        leaf_raw_cost=lambda j, t: rat(1),
    )
    outcome = RoundingEngine(problem).run()
    final = untangle(problem, outcome)
    assert final.huge_assign == {0: 0, 1: 0}
    assert final.improper == {}
    # monotonicity bookkeeping: committed charges appear in the objective trace
    assert outcome.stats.lp_objectives[0] == 2 * cost ** 2


def test_rounded_loads_within_two_d_eps_on_sampled_decisions():
    rng = random.Random(23)
    checked = 0
    for trial in range(12):
        spec = GeneratorSpec(
            num_jobs=rng.randint(3, 6),
            dims=rng.choice([1, 2]),
            machine_counts=(rng.randint(1, 2), rng.randint(1, 2)),
            cost_min=1,
            cost_max=10,
        )
        inst = generate_instance(spec, 700 + trial)
        opt = exact_solve(inst)
        eps = rat(1, 16)
        scaled = make_scaled_instance(inst, opt.optimum, eps)
        profile = profile_from_schedule(scaled, opt.witness)
        problem = build_rounding_problem(scaled, profile)
        outcome = RoundingEngine(problem).run()
        slack = 2 * inst.dims * eps
        for mk, committed in outcome.committed.items():
            for d in range(inst.dims):
                assert committed[d] <= rat(problem.capacities[mk][d]) + slack
        final = untangle(problem, outcome)
        slack3 = 3 * inst.dims * eps
        for mk, loads in final.final_loads.items():
            for d in range(inst.dims):
                assert loads[d] <= rat(problem.capacities[mk][d]) + slack3
        checked += 1
        assert outcome.stats.counting_checks > 0
    assert checked == 12


def test_art_lp_untangles_machine_committed_artificial():
    # artificial a0 = merge(job0, job1) sits in machine M's remaining space;
    # untangling must put one leaf back on M and the other into the disposed slot
    M = (0, 0)
    c0, c1 = (rat(1, 4),), (rat(1, 3),)
    problem = RoundingProblem(
        dims=1,
        jobs={
            0: JobRoutes({M: c0}, {0}),
            1: JobRoutes({M: c1}, {0}),
        },
        slots={0: SlotInfo(0, (1, 0), "q")},
        capacities={M: (rat(1, 2),)},
        small_caps={M: rat(1, 2)},
        leaf_raw_cost=lambda j, t: rat(j + 1),
    )
    w = (rat(1, 2), rat(1, 2))
    combo = (w[0] * c0[0] + w[1] * c1[0],)
    outcome = RoundingOutcome(
        slot_assign={},
        machine_assign={},
        huge_assign={},
        improper={},
        forest={"a0": MergeNode("a0", 0, 1, 0, {M: w})},
        committed={M: [combo[0]]},
        committed_real={M: [ZERO]},
        art_on_machine={M: ["a0"]},
        art_costs={("a0", M): combo},
        stats=RoundingStats(),
    )
    final = untangle(problem, outcome)
    assert outcome.stats.art_lp_solves == 1
    # exactly one leaf stays on the machine, the other occupies the slot
    assert len(final.machine_assign) == 1 and len(final.slot_assign) == 1
    (rep, mk), = final.machine_assign.items()
    (slot, occupant), = final.slot_assign.items()
    assert mk == M and slot == 0
    assert {rep, occupant} == {0, 1}
    # untangling bound: final load within cap + 3 * smallcap
    assert final.final_loads[M][0] <= rat(1, 2) + 3 * rat(1, 2)


def test_art_lp_seed_mismatch_is_detected():
    # corrupting the recorded weights must trip the decomposition check
    M = (0, 0)
    problem = RoundingProblem(
        dims=1,
        jobs={
            0: JobRoutes({M: (rat(1, 4),)}, {0}),
            1: JobRoutes({M: (rat(1, 3),)}, {0}),
        },
        slots={0: SlotInfo(0, (1, 0), "q")},
        capacities={M: (rat(1, 2),)},
        small_caps={M: rat(1, 2)},
        leaf_raw_cost=lambda j, t: rat(1),
    )
    outcome = RoundingOutcome(
        slot_assign={},
        machine_assign={},
        huge_assign={},
        improper={},
        forest={"a0": MergeNode("a0", 0, 1, 0, {M: (rat(1), ZERO)})},
        committed={M: [rat(7, 24)]},
        committed_real={M: [ZERO]},
        art_on_machine={M: ["a0"]},
        art_costs={("a0", M): (rat(7, 24),)},  # combo of (1/2,1/2), weights say (1,0)
        stats=RoundingStats(),
    )
    with pytest.raises(InvariantViolation, match="weight decomposition"):
        untangle(problem, outcome)


from hypothesis import given, settings, strategies as st

from typesched.errors import Infeasible as _Infeasible


@st.composite
def slot_problems(draw):
    """Random tiny slot systems, with the class drawn for each slot-routed job."""
    n_machines = draw(st.integers(1, 3))
    n_slots = draw(st.integers(0, 3))
    n_jobs = draw(st.integers(1, 5))
    machines = {(0, k): (rat(draw(st.integers(2, 12)), 4),) for k in range(n_machines)}
    slots = {
        s: SlotInfo(s, (1, s), draw(st.sampled_from(["a", "b"])))
        for s in range(n_slots)
    }
    jobs = {}
    klass_of = {}
    for j in range(n_jobs):
        small = draw(st.booleans())
        routes = JobRoutes({}, set())
        if small or not slots:
            for k in range(n_machines):
                if draw(st.booleans()) or k == 0:
                    routes.machine_costs[(0, k)] = (rat(draw(st.integers(1, 4)), 8),)
        else:
            klass_of[j] = draw(st.sampled_from(["a", "b"]))
            routes.slots = {s for s in slots if slots[s].klass == klass_of[j]}
        jobs[j] = routes
    problem = RoundingProblem(
        dims=1,
        jobs=jobs,
        slots=slots,
        capacities=machines,
        small_caps={mk: rat(1, 2) for mk in machines},
        leaf_raw_cost=lambda j, t: rat(j + 1),
    )
    return problem, klass_of


@settings(max_examples=120, deadline=None)
@given(slot_problems())
def test_engine_places_every_job_or_reports_infeasible(drawn):
    problem, klass_of = drawn
    try:
        outcome = RoundingEngine(problem).run()
    except _Infeasible:
        return  # wrong-guess signal is a legitimate outcome
    final = untangle(problem, outcome)
    placed = set(final.machine_assign)
    for s, j in final.slot_assign.items():
        assert klass_of.get(j) == problem.slots[s].klass
        assert j not in placed
        placed.add(j)
    assert placed == set(problem.jobs)
    for mk, loads in final.final_loads.items():
        cap = problem.capacities[mk][0]
        assert loads[0] <= cap + 3 * rat(problem.small_caps[mk])


def test_assemble_schedule_places_every_route_kind():
    # job 0 pinned, 1 on a machine, 2 in a slot, 3 huge, 4 and 5 improper
    problem = simple_problem({}, {0: SlotInfo(0, (0, 1), "q")}, {(0, 0): (ONE,)})
    final = FinalAssignment({0: 2}, {1: (0, 0)}, {3: 0}, {0: [4, 5]}, {})
    free = {0: [(0, 3), (0, 4)]}
    sched = assemble_schedule(problem, final, 6, {0: (0, 2)}, free)
    assert sched.assignment == ((0, 2), (0, 0), (0, 1), (0, 3), (0, 4), (0, 4))
    assert free == {0: [(0, 3), (0, 4)]}  # the caller's lists are not consumed


@pytest.mark.parametrize("final,free,message", [
    (FinalAssignment({}, {0: (0, 0)}, {}, {}, {}), {}, "not total"),
    (FinalAssignment({}, {0: (0, 0), 1: (0, 0)}, {1: 0}, {}, {}), {0: [(0, 1)]}, "placed twice"),
    (FinalAssignment({}, {0: (0, 0)}, {1: 0}, {}, {}), {}, "huge budget"),
    (FinalAssignment({}, {0: (0, 0)}, {}, {0: [1]}, {}), {0: []}, "improper lineup"),
])
def test_assemble_schedule_raises_typed_errors(final, free, message):
    problem = simple_problem({}, {}, {(0, 0): (ONE,)})
    with pytest.raises(InvariantViolation, match=message):
        assemble_schedule(problem, final, 2, None, free)


def test_lp_columns_are_the_route_triples():
    # a column is the route it stands for: the slot LP's columns are each
    # job's route_vars, jobs in order, and the L_p region appends one
    # allowance column ("t", mk) per small machine
    def columns(jobs):
        return [v for j in sorted(jobs) for v in route_vars(j, jobs[j])]

    inst = generate_instance(GeneratorSpec(6, 2, (2, 2), 1, 10), 2400)
    opt = exact_solve(inst)
    scaled = make_scaled_instance(inst, opt.optimum, rat(1, 4))
    problem = build_rounding_problem(scaled, profile_from_schedule(scaled, opt.witness))
    assert RoundingEngine(problem)._build_lp().variables == columns(problem.jobs)
    assert {kind for kind, _, _ in columns(problem.jobs)} == {"m", "s"}

    # a guess with machine, slot and huge routes
    half = rat(1, 2)
    inst = generate_instance(GeneratorSpec(10, 1, (6, 1), 1, 10), 301)
    guess = lpnorm.guess_from_schedule(inst, 2, half, greedy_schedule(inst, 2))
    model = lpnorm.build_cp_model(inst, 2, half, guess)
    routes = columns(model.routes)
    assert {kind for kind, _, _ in routes} == {"m", "s", "h"}
    allowances = [("t", mk) for mk in model.small_machines]
    assert allowances and lpnorm.build_cp_region(model).variables == routes + allowances
    frozen = lpnorm.build_rounding_from_cp(model, dict.fromkeys(model.small_machines, ONE))
    assert RoundingEngine(frozen)._build_lp().variables == routes


# ---------------------------------------------------------------------------
# reference code: the class rules untangling read before slot fit came from
# the routes, namely makespan's ScaledEntry.klass and lpnorm._lp_job_class
# (copied unchanged apart from its name)


def ref_lp_job_class(model, j: int, t: int):
    tg = model.guess.types[t]
    if tg.c_max is None:
        return None
    c = rat(model.inst.cost(j, t))
    if c > rat(tg.c_max) or c <= rat(model.eps) * tg.alpha * rat(tg.c_max):
        return None
    return geometric_grid(rat(model.eps)).round_down(c)


def test_slot_routes_agree_with_the_old_class_rules(monkeypatch):
    # every rounding problem the pipelines build: a job has a route to a slot
    # exactly when the old rule gave it the slot's class on the slot's type;
    # a makespan certificate problem keeps one of those routes per job
    problems = []  # (old class rule, rounding problem, whether it holds every route)

    def record(module, name, rule_of, every=True):
        original = getattr(module, name)

        def recording(*args):
            problem = original(*args)
            problems.append((rule_of(*args[:2]), problem, every))
            return problem

        monkeypatch.setattr(module, name, recording)

    makespan_rule = lambda scaled, profile: lambda j, t: scaled.entry(j, t).klass  # noqa: E731
    record(makespan, "build_rounding_problem", makespan_rule)
    record(makespan, "certificate_problem", makespan_rule, every=False)
    record(lpnorm, "build_rounding_from_cp",
           lambda model, t_star: lambda j, t: ref_lp_job_class(model, j, t))

    half = rat(1, 2)
    for seed in range(16):
        inst = generate_instance(GeneratorSpec(5, 1 + seed % 2, (2, 2), 1, 10), 1500 + seed)
        makespan.makespan_ptas(inst, half, Guided(exact_solve(inst).witness))
        inst = generate_instance(GeneratorSpec(5, 1, (2, 2), 1, 10), 1600 + seed)
        lpnorm.lpnorm_ptas(inst, 2, half, Guided(exact_solve(inst, "lp_norm", p=2).witness))
    for seed in range(4):
        inst = generate_instance(GeneratorSpec(4, 1, (2, 2), 1, 10), 1700 + seed)
        makespan.makespan_ptas(inst, half, FullEnum())
        inst = generate_instance(GeneratorSpec(3, 1, (1, 1), 1, 10), 1800 + seed)
        lpnorm.lpnorm_ptas(inst, 2, half, FullEnum())
        inst = generate_instance(GeneratorSpec(20, 1, (3, 3), 1, 10), 1900 + seed)
        lpnorm.lpnorm_ptas(inst, 2, half, Guided(greedy_schedule(inst, 2)))

    pairs = routed = certified = 0
    for klass, problem, every in problems:
        for j, routes in problem.jobs.items():
            if not every:
                assert len(routes.machine_costs) + len(routes.slots) == 1
                certified += len(routes.slots)
            for s, slot in problem.slots.items():
                fits = klass(j, slot.machine[0]) == slot.klass
                assert fits == (s in routes.slots) if every else fits >= (s in routes.slots)
                pairs += 1
                routed += fits
    assert {type(p.slots[0].klass) for _, p, _ in problems if p.slots} == {tuple, int}
    assert routed > 0 and pairs > routed and certified > 0


# ---------------------------------------------------------------------------
# forced rounds: every live job has one live route, so the round is checked
# without the simplex; the simplex on the same round's LP is the reference


class SimplexEngine(RoundingEngine):
    """The engine with every forced round solved by the simplex instead."""

    def _forced_point(self, by_machine, by_slot, by_type):
        sol = lp_module.solve_extreme_point(self._build_lp())
        return sol.values, sol.objective_value


def no_simplex(lp, start=None):
    raise AssertionError("a forced round reached the simplex")


def forced_problems():
    """Hand-built problems whose first round is forced, by expected outcome."""
    half, quarter = rat(1, 2), rat(1, 4)
    m0, m1 = (0, 0), (0, 1)
    feasible = RoundingProblem(
        dims=2,
        jobs={
            0: JobRoutes({m0: (half, quarter)}, set()),
            1: JobRoutes({}, {0}),
            2: JobRoutes({}, set(), {1: (rat(3), rat(9))}),
            3: JobRoutes({m0: (half, quarter)}, set()),
            4: JobRoutes({}, set(), {1: (rat(2), rat(4))}),
            5: JobRoutes({m1: (ONE, ZERO)}, set()),
        },
        slots={0: SlotInfo(0, m1, "q"), 1: SlotInfo(1, m1, "q")},
        capacities={m0: (ONE, half), m1: (ONE, ONE)},
        small_caps={m0: half, m1: half},
        type_budgets={1: 2},
    )
    clash = simple_problem(
        jobs={0: JobRoutes({}, {0}), 1: JobRoutes({}, {0})},
        slots={0: SlotInfo(0, (0, 1), "q")},
        capacities={(0, 0): (ONE,), (0, 1): (ONE,)},
    )
    # dimension 0 fits exactly, dimension 1 is over by 1/4
    overflow = RoundingProblem(
        dims=2,
        jobs={0: JobRoutes({m0: (half, half)}, set()), 1: JobRoutes({m0: (half, quarter)}, set())},
        slots={},
        capacities={m0: (ONE, half)},
        small_caps={m0: half},
    )
    budget = simple_problem(
        jobs={j: JobRoutes({}, set(), {0: (rat(3), rat(9))}) for j in range(3)},
        slots={},
        capacities={},
        budgets={0: 2},
    )
    return {"feasible": feasible, "slot-clash": clash, "capacity": overflow, "budget": budget}


@pytest.mark.parametrize("name", ["feasible", "slot-clash", "capacity", "budget"])
def test_forced_round_gives_the_simplex_outcome(monkeypatch, name):
    problem = forced_problems()[name]
    try:
        expected = SimplexEngine(problem).run()
    except Infeasible:
        expected = Infeasible
    assert (expected is Infeasible) == (name != "feasible")
    monkeypatch.setattr(rounding, "solve_extreme_point", no_simplex)
    if expected is Infeasible:
        with pytest.raises(Infeasible):
            RoundingEngine(problem).run()
        return
    outcome = RoundingEngine(problem).run()
    assert outcome == expected  # stats included
    assert outcome.stats.lp_solves == outcome.stats.counting_checks == 1
    assert outcome.stats.lp_objectives == [rat(13)]
    assert outcome.slot_assign == {0: 1}
    assert outcome.huge_assign == {2: 1, 4: 1}
    assert outcome.machine_assign == {0: (0, 0), 3: (0, 0), 5: (0, 1)}


@pytest.mark.parametrize("committed, fits", [(rat(1, 2), True), (rat(3, 4), False)],
                         ids=["fits", "over"])
def test_forced_capacity_check_counts_committed_load(monkeypatch, committed, fits):
    # a capacity row's rhs is the capacity less the load already committed
    m0 = (0, 0)
    problem = simple_problem(
        jobs={0: JobRoutes({m0: (rat(1, 2),)}, set())}, slots={}, capacities={m0: (ONE,)},
    )
    outcomes = []
    for engine_class in (SimplexEngine, RoundingEngine):
        if engine_class is RoundingEngine:
            monkeypatch.setattr(rounding, "solve_extreme_point", no_simplex)
        engine = engine_class(problem)
        engine.committed[m0] = [committed]
        try:
            outcomes.append(engine.run().machine_assign)
        except Infeasible:
            outcomes.append(Infeasible)
    assert outcomes == ([{0: m0}] if fits else [Infeasible]) * 2


def point_problem():
    """Three jobs with two or three routes each, over two machines, two
    slots and one huge type with a budget of 1."""
    half, m0, m1 = rat(1, 2), (0, 0), (0, 1)
    return simple_problem(
        jobs={
            0: JobRoutes({m0: (half,), m1: (half,)}, {0}),
            1: JobRoutes({m0: (half,), m1: (ONE,)}, {0, 1}),
            2: JobRoutes({m1: (half,)}, set(), {1: (rat(3), rat(9))}),
        },
        slots={0: SlotInfo(0, m1, "q"), 1: SlotInfo(1, m0, "q")},
        capacities={m0: (ONE,), m1: (half,)},
        budgets={1: 1},
    )


def test_an_integral_point_is_committed_in_one_forced_round(monkeypatch):
    problem = point_problem()
    m0, m1 = (0, 0), (0, 1)
    monkeypatch.setattr(rounding, "solve_extreme_point", no_simplex)
    # every route at 0 or 1, one route per job; absent routes count as 0
    point = {("m", 0, m0): ONE, ("m", 0, m1): ZERO, ("s", 1, 1): ONE, ("h", 2, 1): ONE}
    outcome = RoundingEngine(problem, point).run()
    assert outcome.machine_assign == {0: m0}
    assert outcome.slot_assign == {1: 1}
    assert outcome.huge_assign == {2: 1}
    assert not outcome.forest and not outcome.improper
    stats = outcome.stats
    assert (stats.lp_solves, stats.iterations, stats.lp_objectives) == (1, 0, [rat(9)])
    assert problem.jobs == point_problem().jobs  # the engine drops routes from its copies
    # jobs 0 and 2 overfill machine 1's capacity of 1/2
    overfull = {("m", 0, m1): ONE, ("m", 1, m0): ONE, ("m", 2, m1): ONE}
    with pytest.raises(Infeasible):
        RoundingEngine(problem, overfull).run()


def test_a_fractional_point_rounds_as_no_point(monkeypatch):
    problem = point_problem()
    half = rat(1, 2)
    point = {("m", 0, (0, 0)): half, ("s", 0, 0): half, ("s", 1, 1): ONE, ("h", 2, 1): ONE}
    solved = []
    simplex = rounding.solve_extreme_point

    def counted(lp, start=None):
        solved.append(lp.num_rows)
        return simplex(lp, start)

    monkeypatch.setattr(rounding, "solve_extreme_point", counted)
    expected = RoundingEngine(problem).run()
    first = list(solved)
    assert RoundingEngine(problem, point).run() == expected  # stats included
    assert first and solved == first * 2  # the first round reached the simplex


def test_forced_rounds_match_the_simplex_in_the_pipelines(monkeypatch):
    # every forced round of seeded makespan (guided, full) and L_p runs: the
    # simplex on that round's LP gives the same values over the LP's columns
    # in their order, and the same objective, or both raise Infeasible.  Full-mode L_p points are all
    # integral, so every round is forced; the L_p simplex rounds come from
    # guided runs of the lpnorm-guided shape whose convex point is fractional.
    # Guided makespan hands the engine its certificate's routes, so its oracle
    # certificates make only forced rounds; its simplex rounds come from a
    # certificate that overfills a machine's rem at a decided rung (twenty
    # unit jobs on one of two machines), where the decision runs phase 1
    seen = collections.defaultdict(collections.Counter)  # pipeline -> round kinds
    pipeline = [None]
    check_forced = RoundingEngine._forced_point
    simplex = rounding.solve_extreme_point

    def checked(self, by_machine, by_slot, by_type):
        lp = self._build_lp()
        try:
            sol = lp_module.solve_extreme_point(lp)
        except Infeasible:
            with pytest.raises(Infeasible):
                check_forced(self, by_machine, by_slot, by_type)
            seen[pipeline[0]]["infeasible"] += 1
            raise
        values, objective = check_forced(self, by_machine, by_slot, by_type)
        assert list(values.items()) == list(sol.values.items())
        assert list(values) == lp.variables
        assert objective == sol.objective_value
        seen[pipeline[0]]["forced"] += 1
        return values, objective

    def counted(lp, start=None):
        seen[pipeline[0]]["simplex"] += 1
        return simplex(lp, start)

    monkeypatch.setattr(RoundingEngine, "_forced_point", checked)
    monkeypatch.setattr(rounding, "solve_extreme_point", counted)
    half = rat(1, 2)
    for seed in range(2100, 2130):
        pipeline[0] = "makespan guided"
        inst = generate_instance(ExperimentConfig("makespan", 1, seed, half).trial_spec(0), seed)
        makespan.makespan_ptas(inst, half, Guided(exact_solve(inst).witness))
    overfilling = Schedule(((0, 0),) * 20)
    makespan.makespan_ptas(Instance(1, (2,), (((1,),),) * 20), half, Guided(overfilling))
    for seed in range(10):
        pipeline[0] = "makespan full"
        inst = generate_instance(GeneratorSpec(4, 1, (2, 2), 1, 10), 2200 + seed)
        makespan.makespan_ptas(inst, half, FullEnum())
        pipeline[0] = "lpnorm"
        inst = generate_instance(GeneratorSpec(3, 1, (1, 1), 1, 10), 2300 + seed)
        lpnorm.lpnorm_ptas(inst, 2, half, FullEnum())
    for seed in (3, 29, 33):
        inst = generate_instance(GeneratorSpec(20, 1, (3, 3), 1, 10), seed)
        lpnorm.lpnorm_ptas(inst, 2, half, Guided(greedy_schedule(inst, 2)))
    assert set(seen) == {"makespan guided", "makespan full", "lpnorm"}
    for tally in seen.values():
        assert tally["forced"] > 0 and tally["simplex"] > 0, seen


def test_route_point_ranks_machines_and_takes_the_lowest_slots():
    # type 0's machines hold the patterns (b,), (a, a), () and (), so they
    # rank 3, 2, 0, 1; machine 2 of the profile has two slots of class a
    slots, _ = number_slots(
        [((0, 0), ()), ((0, 1), ()), ((0, 2), ("a", "a")), ((0, 3), ("b",)), ((1, 0), ())]
    )
    machines = {
        (0, 0): [(0, "b"), (1, None)],
        (0, 1): [(2, "a"), (3, "a"), (4, None)],
        (0, 2): [(5, None)],
        (0, 3): [],
        (1, 0): [(6, None)],
    }
    assert route_point(slots, machines) == {
        ("s", 0, 2): ONE, ("m", 1, (0, 3)): ONE,
        ("s", 2, 0): ONE, ("s", 3, 1): ONE, ("m", 4, (0, 2)): ONE,
        ("m", 5, (0, 0)): ONE,
        ("m", 6, (1, 0)): ONE,
    }


def ref_certificate_point(scaled, problem, sched):
    # the makespan certificate point as it stood before route_point: its own
    # ranking and slot pool, the highest slot id first, and a capacity check
    inst = scaled.base
    klasses = [scaled.entry(j, t).klass for j, (t, _) in enumerate(sched.assignment)]
    patterns = {mk: [] for mk in inst.machines()}
    for mk, klass in zip(sched.assignment, klasses):
        if klass is not None:
            patterns[mk].append(klass)
    relabel = {}
    for t in range(inst.num_types):
        order = sorted(range(inst.machine_counts[t]), key=lambda k: (sorted(patterns[t, k]), k))
        relabel.update({(t, k): (t, i) for i, k in enumerate(order)})
    free = {}
    for sid, slot in problem.slots.items():
        free.setdefault((slot.machine, slot.klass), []).append(sid)
    point = {}
    loads = {mk: [ZERO] * inst.dims for mk in problem.capacities}
    for j, (mk, klass) in enumerate(zip(sched.assignment, klasses)):
        mk = relabel[mk]
        if klass is not None:
            point["s", j, free[mk, klass].pop()] = ONE
        else:
            point["m", j, mk] = ONE
            for d, c in enumerate(problem.jobs[j].machine_costs[mk]):
                loads[mk][d] += c
    for mk, rem in problem.capacities.items():
        if any(load > r for load, r in zip(loads[mk], rem)):
            return None
    return point


def ref_warm_start(model, sched):
    # lpnorm._warm_start as it stood before route_point
    inst = model.inst
    grid = geometric_grid(model.eps)
    point = {}
    slot_pool = {}
    for s, info in sorted(model.slots.items()):
        slot_pool.setdefault((info.machine, info.klass), []).append(s)
    for t, tg in enumerate(model.guess.types):
        if inst.machine_counts[t] == 0 or tg.c_max is None:
            continue
        jobs_on = {k: [] for k in range(inst.machine_counts[t])}
        for j, (tt, k) in enumerate(sched.assignment):
            if tt == t:
                jobs_on[k].append(j)
        non_huge = {k: jobs for k, jobs in jobs_on.items() if len(jobs) != 1}
        kind = lpnorm.job_kind(tg.c_max, tg.alpha, model.eps)
        patterns = sorted(
            (tuple(sorted(grid.round_down(inst.cost(j, t)) for j in jobs
                          if kind(inst.cost(j, t)) is lpnorm.LARGE)), k)
            for k, jobs in non_huge.items()
        )
        for canon, (pattern, orig) in enumerate(patterns):
            mk = (t, canon)
            assert pattern == tg.profile[canon]
            for j in non_huge[orig]:
                c = inst.cost(j, t)
                if kind(c) is lpnorm.LARGE:
                    point["s", j, slot_pool[(mk, grid.round_down(c))].pop(0)] = ONE
                else:
                    point["m", j, mk] = ONE
    for j, routes in model.routes.items():
        if not any(point.get(v, ZERO) == ONE for v in route_vars(j, routes)):
            point["h", j, sched.assignment[j][0]] = ONE
    return point


def placements(slots, point):
    """job -> (route kind, machine) of a 0/1 route point."""
    return {j: (kind, slots[target].machine if kind == "s" else target)
            for kind, j, target in point}


def taken_patterns(slots, point):
    """The sorted classes of the slots point takes, per machine."""
    taken = collections.defaultdict(list)
    for kind, _, target in point:
        if kind == "s":
            taken[slots[target].machine].append(slots[target].klass)
    return {mk: tuple(sorted(qs)) for mk, qs in taken.items()}


def profile_patterns(profile):
    """The non-empty patterns of a profile (one tuple of patterns per type),
    by machine."""
    return {(t, i): pattern for t, patterns in enumerate(profile)
            for i, pattern in enumerate(patterns) if pattern}


def guided_decisions():
    """(scaled, profile, certificate) of guided makespan decisions: n=5 on
    machines (2, 1), D 1 and 2, oracle certificates, at the ladder's first
    twelve rungs, and the rung where twenty unit jobs on one of two machines
    overfill its rem."""
    half = rat(1, 2)
    cases = [generate_instance(GeneratorSpec(5, dims, (2, 1), 1, 10), seed)
             for seed in range(150) for dims in (1, 2)]
    for inst in cases:
        cert = exact_solve(inst).witness
        ladder = makespan.ScaleLadder(inst, None, makespan.calibrate_eps(half, inst.dims))
        for i in range(12):
            scaled = ladder.rung(i)
            try:
                profile = profile_from_schedule(scaled, cert)
            except PatternOverflow:
                continue
            yield scaled, profile, cert
    inst = Instance(1, (2,), (((1,),),) * 20)
    cert = Schedule(((0, 0),) * 20)
    ladder = makespan.ScaleLadder(inst, None, makespan.calibrate_eps(half, 1))
    scaled = ladder.rung(46)
    yield scaled, profile_from_schedule(scaled, cert), cert


def test_certificate_points_place_jobs_as_the_old_builder():
    # a certificate problem is the full problem's slots and rows with one
    # route per job, the route point's; the old builder took the highest free
    # slot of a class, so only the slot ids may differ; where it found a
    # machine's small load above its rem, the engine's forced round rejects
    decided = overfilled = 0
    for scaled, profile, cert in guided_decisions():
        problem = build_rounding_problem(scaled, profile)
        certified = makespan.certificate_problem(scaled, profile, cert)
        assert (certified.slots, certified.capacities, certified.small_caps) == (
            problem.slots, problem.capacities, problem.small_caps)
        point = {v: ONE for j, routes in certified.jobs.items() for v in route_vars(j, routes)}
        assert len(point) == len(certified.jobs) == scaled.base.num_jobs
        for kind, j, target in point:
            routes = problem.jobs[j]
            if kind == "m":
                assert certified.jobs[j].machine_costs[target] == routes.machine_costs[target]
            else:
                assert target in routes.slots
        assert taken_patterns(problem.slots, point) == profile_patterns(profile)
        ref = ref_certificate_point(scaled, problem, cert)
        if ref is None:
            with pytest.raises(Infeasible):
                RoundingEngine(certified).run()
            overfilled += 1
        else:
            assert placements(problem.slots, point) == placements(problem.slots, ref)
            decided += 1
    assert decided > 1000 and overfilled > 0


def guided_models():
    """(model, certificate) of guided L_p guesses, p = 2: n=20 on machines
    (3, 3) with greedy certificates, n=7 on (2, 2) and n=5 on (1, 2) with
    oracle certificates."""
    eps = lpnorm.calibrate_eps(rat(1, 2))
    for seed in range(40):
        for n, counts in ((20, (3, 3)), (7, (2, 2)), (5, (1, 2))):
            inst = generate_instance(GeneratorSpec(n, 1, counts, 1, 10), seed)
            if n == 20:
                cert = greedy_schedule(inst, 2)
            else:
                cert = exact_solve(inst, "lp_norm", p=2).witness
            try:
                guess = lpnorm.guess_from_schedule(inst, 2, eps, cert)
            except GuessInconsistent:
                continue
            yield lpnorm.build_cp_model(inst, 2, eps, guess), cert


def test_warm_starts_equal_the_old_builder():
    runs = 0
    for model, cert in guided_models():
        point = lpnorm._warm_start(model)
        assert list(point.items()) == list(ref_warm_start(model, cert).items())
        profile = tuple(tg.profile for tg in model.guess.types)
        assert taken_patterns(model.slots, point) == profile_patterns(profile)
        runs += 1
    assert runs == 120


def ref_slot_patterns(counts, slot_cap, size, mass_cap, dims=1):
    # the recursive walk and its sorted(set(...)) pass, as they stood before
    klasses = sorted(counts)
    out = []

    def extend(idx, chosen, mass):
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


def ref_pattern_multisets(patterns, machines, counts):
    out = []
    for combo in itertools.combinations_with_replacement(patterns, machines):
        used = collections.Counter(q for pat in combo for q in pat)
        if all(used[q] <= counts[q] for q in used):
            out.append(combo)
    return out


def test_pattern_walks_match_the_filtered_combinations():
    # classes are int exponents (L_p) or per-dimension tuples (makespan); the
    # multisets are also drawn from patterns built for larger counts, so
    # single patterns over a count are filtered too
    rng = random.Random(57)
    machine_counts = collections.Counter()
    for _ in range(400):
        dims = rng.choice([1, 2])
        klasses = rng.sample(range(-2, 6), rng.randint(0, 4))
        if dims == 2 or rng.random() < 0.3:
            klasses = [(k, rng.randint(0, 3)) for k in klasses]
        counts = {q: rng.randint(1, 4) for q in klasses}
        sizes = {
            q: tuple(rat(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(dims))
            for q in klasses
        }
        mass_cap = rat(rng.randint(1, 12), rng.randint(1, 3))
        args = (rng.randint(0, 5), sizes.__getitem__, mass_cap, dims)
        patterns = slot_patterns(counts, *args)
        assert patterns == ref_slot_patterns(counts, *args)
        if rng.random() < 0.3:
            wider = {q: c + rng.randint(0, 2) for q, c in counts.items()}
            patterns = slot_patterns(wider, *args)
        machines = rng.randint(0, 4 if len(patterns) <= 12 else 2)
        machine_counts[machines] += 1
        got = pattern_multisets(patterns, machines, counts)
        assert got == ref_pattern_multisets(patterns, machines, counts)
    assert machine_counts[0] > 0 and machine_counts[1] > 0
