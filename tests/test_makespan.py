import functools
import itertools
import random
import time

import pytest

from typesched import makespan, rounding
from typesched.cli import ExperimentConfig
from typesched.errors import (
    BudgetExhausted,
    Infeasible,
    InvalidSchedule,
    InvariantViolation,
    PatternOverflow,
)
from typesched.lp import solve_extreme_point
from typesched.makespan import (
    FullEnum,
    Guided,
    ScaleLadder,
    build_rounding_problem,
    calibrate_eps,
    count_check,
    decide,
    enumerate_pattern_profiles,
    guarantee_factor,
    klass_value,
    make_scaled_instance,
    makespan_decision,
    makespan_ptas,
    power_round_up,
    profile_from_schedule,
    realized_types,
)
from typesched.model import (
    GeneratorSpec,
    Instance,
    Schedule,
    evaluate_makespan,
    generate_instance,
    greedy_makespan_schedule,
    make_instance,
)
from typesched.oracle import exact_solve
from typesched.rationals import ONE, geometric_grid, parse_rational, rat, rat_floor
from typesched.rounding import (
    RoundingEngine,
    assemble_schedule,
    has_matching,
    pattern_multisets,
    slot_patterns,
    untangle,
)


def round_up_oracle(x, eps=rat(1, 2)):
    # least power of 1/(1+eps) >= x, from an explicit descending power list
    v = rat(1)
    while v < x:
        v = v * rat(3, 2)
    candidates = [v]
    w = v * rat(2, 3)
    while w >= x:
        candidates.append(w)
        w = w * rat(2, 3)
    return min(candidates)


def test_power_round_up_examples():
    # 0.3 -> 4/9 (powers of 2/3 are 1, 2/3, 4/9, 8/27, ...)
    assert round_up_oracle(rat(3, 10)) == rat(4, 9)
    assert power_round_up(rat(3, 10), rat(1, 2))[1] == rat(4, 9)
    # 0.7 -> 1
    assert round_up_oracle(rat(7, 10)) == 1
    assert power_round_up(rat(7, 10), rat(1, 2))[1] == 1
    # values above 1 round to positive powers of 1+eps
    assert power_round_up(rat(5, 4), rat(1, 2))[1] == rat(3, 2)


def test_scaled_instance_classification():
    # single type; T = 10; eps = 1/2; D = 1
    inst = make_instance(1, [1], [[[3]], [[7]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    small = scaled.entry(0, 0)
    assert not small.large and small.klass is None
    large = scaled.entry(1, 0)
    assert large.large and large.klass == (0,)
    assert klass_value(scaled.ladder.grid, large.klass) == (ONE,)


def test_scaled_boundary_is_large():
    # c/T exactly eps classifies large (>= test per dimension)
    inst = make_instance(1, [1], [[[5]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    assert scaled.entry(0, 0).large


def test_large_lift_applies_only_to_large_jobs():
    # D=2: dim0 0.6 >= eps makes the job large; dim1 0.01 lifts to eps^2/D = 1/8
    inst = make_instance(2, [1], [[[60, 1]]])
    scaled = make_scaled_instance(inst, 100, rat(1, 2))
    entry = scaled.entry(0, 0)
    assert entry.large
    assert klass_value(scaled.ladder.grid, entry.klass)[1] >= rat(1, 8)


def target_bounds(inst):
    """(lower, upper) of makespan_ptas's ladder: the largest and the sum of
    the jobs' least max costs over the usable types."""
    ladder = ScaleLadder(inst, None, rat(1, 2))
    return ladder.lower, ladder.upper


def reference_scaled(inst, target, eps):
    """(entries, target, capacity, large_cap) from the per-cost loop that
    scaled every instance before the scale ladder: each cost is divided by
    the target and rounded on its own."""
    target = parse_rational(target)
    eps = parse_rational(eps)
    dims = inst.dims
    floor_val = eps * eps / dims
    entries = []
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
            row.append(makespan.ScaledEntry(large, klass))
        entries.append(row)
    return entries, target, (ONE + eps) ** 2, rat_floor(rat(dims) / eps)


def assert_ladder_matches_reference(inst, base, eps, rungs):
    ladder = ScaleLadder(inst, base, eps)
    for i in rungs:
        target = rat(base) * (1 + rat(eps)) ** i
        expected = reference_scaled(inst, target, eps)
        scaled = ladder.rung(i)
        classes = ladder._classes
        assert (scaled.entries, scaled.target, classes.capacity, classes.large_cap) == expected
        direct = make_scaled_instance(inst, target, eps)
        classes = direct.ladder._classes
        assert (direct.entries, direct.target, classes.capacity, classes.large_cap) == expected
    return ladder


def test_ladder_rungs_match_the_per_cost_loop():
    # every rung of the makespan_ptas target grid, on A1-shape instances
    # (D 1 and 2) and (2,2) instances of D 1 and 2, at the calibrated eps
    # and at coarse ones, where the eps^2/D lift binds
    cases = [generate_instance(ExperimentConfig("makespan", 1, s, 1).trial_spec(0), s)
             for s in range(300, 330)]
    cases += [generate_instance(GeneratorSpec(4, dims, (2, 2), 1, 10), 600 + s)
              for dims in (1, 2) for s in range(10)]
    rungs = lifted = 0
    for inst in cases:
        lower, upper = target_bounds(inst)
        for eps in (calibrate_eps(rat(1, 2), inst.dims), rat(1, 2), rat(1, 3)):
            top = ScaleLadder(inst, lower, eps).grid.round_up(upper / lower)
            ladder = assert_ladder_matches_reference(inst, lower, eps, range(top + 1))
            rungs += top + 1
            for i in range(top + 1):
                rung = ladder.rung(i)
                lifted += sum(
                    e.large and min(inst.cost_vec(j, t)) / rung.target < eps * eps / inst.dims
                    for j, row in enumerate(rung.entries) for t, e in enumerate(row)
                )
    assert rungs > 1000 and lifted > 0


def test_ladder_exponents_are_the_power_round_up_exponents():
    # the ladder rounds each distinct cost once, off its grid; on A1-shape
    # instances every exponent is the one power_round_up gives
    checked = 0
    for s in range(300, 340):
        inst = generate_instance(ExperimentConfig("makespan", 1, s, 1).trial_spec(0), s)
        lower, _ = target_bounds(inst)
        for eps in (calibrate_eps(rat(1, 2), inst.dims), rat(1, 3)):
            ladder = ScaleLadder(inst, lower, eps)
            for j, row in enumerate(ladder._costs):
                for t, (top, ks) in enumerate(row):
                    vec = tuple(rat(c) for c in inst.cost_vec(j, t))
                    assert top == max(vec)
                    assert ks == tuple(power_round_up(c / lower, eps)[0] for c in vec)
                    checked += len(ks)
    assert checked > 500


def test_ladder_boundaries_match_the_per_cost_loop():
    eps = rat(1, 2)
    # max cost exactly eps*T: 5 at T = 10 (rung 2 of base 40/9) is large
    inst = make_instance(1, [1], [[[5]]])
    ladder = assert_ladder_matches_reference(inst, rat(40, 9), eps, range(-1, 5))
    assert ladder.rung(2).target == 10
    assert ladder.rung(2).entry(0, 0).large and not ladder.rung(3).entry(0, 0).large
    # a lifted cost exactly eps^2/D = 1/8: (5, 1) at T = 8 (rung 2 of base
    # 32/9); (10, 1) stays large above it, where 1/T lifts to 1/8
    inst = make_instance(2, [1], [[[5, 1]], [[10, 1]]])
    ladder = assert_ladder_matches_reference(inst, rat(32, 9), eps, range(-1, 6))
    rung = ladder.rung(2)
    entry = rung.entry(0, 0)
    assert entry.large and rung.target == 8
    grid = ladder.grid
    assert klass_value(grid, entry.klass)[1] == power_round_up(rat(1, 8), eps)[1] == rat(32, 243)
    assert klass_value(grid, ladder.rung(4).entry(1, 0).klass)[1] == rat(32, 243)
    # costs exactly on a grid power: 4/9 = (2/3)^2 small, 6/9 = (2/3)^1 large
    inst = make_instance(1, [1], [[[4]], [[6]]])
    ladder = assert_ladder_matches_reference(inst, 4, eps, range(-1, 5))
    small, large = ladder.rung(2).entries
    assert not small[0].large and small[0].klass is None
    assert large[0].large and large[0].klass == (1,)
    assert klass_value(ladder.grid, large[0].klass) == (rat(2, 3),)


def test_small_routes_cost_exactly_cost_over_target_at_every_rung():
    # build_rounding_problem divides each small route's costs by the rung's
    # target; on A1-shape and (2,2) instances, at every rung of the
    # makespan_ptas grid where the oracle certificate gives a profile, the
    # routes cost exactly cost/T_i and each leaf max(cost)/T_i (at the
    # calibrated eps few pairs are small, so coarse eps values join it)
    cases = [generate_instance(ExperimentConfig("makespan", 1, s, 1).trial_spec(0), s)
             for s in range(300, 316)]
    cases += [generate_instance(GeneratorSpec(4, dims, (2, 2), 1, 10), 600 + s)
              for dims in (1, 2) for s in range(6)]
    routes = {}
    for inst in cases:
        witness = exact_solve(inst).witness
        lower, upper = target_bounds(inst)
        for eps in (calibrate_eps(rat(1, 2), inst.dims), rat(1, 2), rat(1, 3)):
            ladder = ScaleLadder(inst, lower, eps)
            for i in range(ladder.grid.round_up(upper / lower) + 1):
                scaled = ladder.rung(i)
                target = lower * (1 + eps) ** i
                try:
                    profile = profile_from_schedule(scaled, witness)
                except PatternOverflow:
                    continue
                problem = build_rounding_problem(scaled, profile)
                for j, job in problem.jobs.items():
                    for (t, _), cost in job.machine_costs.items():
                        assert cost == tuple(rat(c) / target for c in inst.cost_vec(j, t))
                        routes[i > 0] = routes.get(i > 0, 0) + 1
                    for t in range(inst.num_types):
                        assert problem.leaf_raw_cost(j, t) == max(inst.cost_vec(j, t)) / target
    assert routes[False] > 50 and routes[True] > 1000


def test_guided_acceptance_implies_full_acceptance_at_every_rung():
    # full mode enumerates the profile the certificate induces (its patterns
    # keep the slot cap and the capacity, its slot counts the job counts), so
    # a rung the guided decision accepts is one the full decision accepts
    accepted = rejected = 0
    for seed in range(40):
        dims = 1 + seed % 2
        machines = ((1, 1), (2, 1))[seed // 2 % 2]
        inst = generate_instance(GeneratorSpec(3, dims, machines, 1, 10), 700 + seed)
        witness = exact_solve(inst).witness
        lower, upper = target_bounds(inst)
        ladder = ScaleLadder(inst, lower, calibrate_eps(rat(1, 2), dims))
        for i in range(ladder.grid.round_up(upper / lower) + 1):
            scaled = ladder.rung(i)
            try:
                decide(scaled, Guided(witness))
            except Infeasible:
                rejected += 1
                continue
            decide(scaled, FullEnum(budget=10**6))
            accepted += 1
    assert accepted > 0 and rejected > 0


def test_certificate_profiles_pass_the_count_check_at_every_rung():
    # guided decide runs no count check: profile_from_schedule puts the
    # class of every slot-only job into its own machine's pattern, so the
    # certificate profile always passes the check
    shapes = {"D=1": (1, (2, 2)), "D=2": (2, (2, 2)), "K=3": (1, (1, 1, 1)),
              "machines (2,1)": (1, (2, 1))}
    checked = dict.fromkeys(shapes, 0)  # certificate profiles with slot-only jobs
    for name, (dims, machines) in shapes.items():
        for seed in range(8):
            inst = generate_instance(GeneratorSpec(4, dims, machines, 1, 10), 800 + seed)
            witness = exact_solve(inst).witness
            lower, upper = target_bounds(inst)
            ladder = ScaleLadder(inst, lower, calibrate_eps(rat(1, 2), dims))
            for i in range(ladder.grid.round_up(upper / lower) + 1):
                scaled = ladder.rung(i)
                try:
                    profile = profile_from_schedule(scaled, witness)
                except PatternOverflow:
                    continue
                check = count_check(scaled)
                assert check is None or check(profile), (name, seed, i)
                checked[name] += check is not None
    assert min(checked.values()) >= 5, checked


def test_realized_types_restriction():
    # all large jobs round to size 1 -> Q restricted to {(0,)}
    inst = make_instance(1, [1], [[[9]], [[10]], [[2]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    assert realized_types(scaled) == {0: {(0,): 2}}


def product_profiles(scaled) -> list:
    """Every profile of the product over the types' pattern multisets, in
    product order: the stream the enumeration yielded before it walked."""
    realized = realized_types(scaled)
    return list(itertools.product(*[
        makespan._type_profiles(scaled, t, realized[t], None)
        for t in range(scaled.base.num_types)
    ]))


def test_profile_enumeration_tiny_cases():
    # no large jobs -> exactly one (all-empty) profile
    inst = make_instance(1, [2], [[[1]], [[1]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    profiles = list(enumerate_pattern_profiles(scaled, 100))
    assert profiles == [((tuple(), tuple()),)]
    # 1 machine, 1 large job -> the product holds the empty pattern and one
    # slot, and the walk yields the one whose slot serves the job
    inst2 = make_instance(1, [1], [[[8]]])
    scaled2 = make_scaled_instance(inst2, 10, rat(1, 2))
    klass = scaled2.entry(0, 0).klass
    assert product_profiles(scaled2) == [(((),),), (((klass,),),)]
    profiles2 = list(enumerate_pattern_profiles(scaled2, 100))
    assert profiles2 == [(((klass,),),)]
    # slot totals never exceed the number of large jobs
    counts = [sum(len(p) for pats in prof for p in pats) for prof in profiles2]
    assert max(counts) <= 1


def test_profile_budget_exhaustion(monkeypatch):
    # one type, so the walk enters one node per product profile after
    # charging one unit per multiset listed: a budget of listed + k walks
    # the first k profiles and yields the covering ones among them
    inst = make_instance(1, [2], [[[8]], [[9]], [[10]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    product = product_profiles(scaled)
    listed = len(product)
    groups = slot_only_groups(scaled)
    for k in range(listed):
        covering = [p for p in product[:k] if _slot_classes_routed(groups, p)]
        gen = enumerate_pattern_profiles(scaled, listed + k)
        assert [next(gen) for _ in covering] == covering
        with pytest.raises(BudgetExhausted, match=f"work budget {listed + k} exhausted"):
            next(gen)
    # profiles the walk drops and profiles the count check rejects still
    # use up the budget, and no rounding problem is built for them
    check = count_check(scaled)
    verdicts = [_slot_classes_routed(groups, p) and check(p) for p in product]
    first = verdicts.index(True)
    assert not _slot_classes_routed(groups, product[0])
    built = []
    real_build = makespan.build_rounding_problem
    monkeypatch.setattr(
        makespan, "build_rounding_problem", lambda *args: built.append(1) or real_build(*args)
    )
    with pytest.raises(BudgetExhausted):
        makespan_decision(inst, 10, rat(1, 2), FullEnum(budget=listed + first))
    assert built == []
    res = makespan_decision(inst, 10, rat(1, 2), FullEnum(budget=listed + first + 1))
    assert len(built) == 1
    assert res.makespan <= guarantee_factor(rat(1, 2), 1) * 10


def decision_work(scaled, monkeypatch) -> int:
    """The units a full decision at the default budget charges: one per
    pattern multiset listed and per node of the profile walk."""
    ledgers = []

    class Ledger(rounding.Work):
        def __init__(self, budget):
            super().__init__(budget)
            ledgers.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(makespan, "Work", Ledger)
        try:
            decide(scaled, FullEnum())
        except Infeasible:
            pass
    (ledger,) = ledgers
    return ledger.spent


def test_a_decision_runs_on_exactly_its_work(monkeypatch):
    # as in L_p full mode, the budget counts work: a decision passes on its
    # own count, with the same answer, and one unit less does not
    inst = generate_instance(GeneratorSpec(6, 1, (2, 2), 1, 10), 0)
    lower, upper = target_bounds(inst)
    ladder = ScaleLadder(inst, lower, calibrate_eps(rat(1, 2), 1))
    outcomes = set()
    for i in range(ladder.grid.round_up(upper / lower) + 1):
        scaled = ladder.rung(i)
        work = decision_work(scaled, monkeypatch)
        assert work > 1
        try:
            expected = decide(scaled, FullEnum())
        except Infeasible:
            expected = None
            with pytest.raises(Infeasible):
                decide(scaled, FullEnum(work))
        else:
            res = decide(scaled, FullEnum(work))
            assert (res.profile, res.schedule) == (expected.profile, expected.schedule)
        with pytest.raises(BudgetExhausted, match=f"work budget {work - 1} exhausted"):
            decide(scaled, FullEnum(work - 1))
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def _lp_feasible(scaled, profile) -> bool:
    try:
        solve_extreme_point(RoundingEngine(build_rounding_problem(scaled, profile))._build_lp())
    except Infeasible:
        return False
    return True


def slot_only_groups(scaled) -> list[list]:
    """Per job that is large on every usable type, the (type, class) slot
    groups it can take: one per usable type on which it is not oversize."""
    inst = scaled.base
    usable = [t for t in range(inst.num_types) if inst.machine_counts[t] > 0]
    return [
        [(t, row[t].klass) for t in usable if row[t].klass is not None]
        for row in scaled.entries
        if all(row[t].large for t in usable)
    ]


def reference_admits(groups, profile) -> bool:
    """The count check from scratch, groups being slot_only_groups: the
    profile's slot count per (type, class), and a matching of the jobs of
    groups onto distinct slots of their groups."""
    capacity = {}
    for t, patterns in enumerate(profile):
        for pattern in patterns:
            for q in pattern:
                capacity[(t, q)] = capacity.get((t, q), 0) + 1
    return has_matching([[g for g in gs if g in capacity] for gs in groups], capacity)


def _slot_classes_routed(groups, profile) -> bool:
    present = {(t, q) for t, pats in enumerate(profile) for pat in pats for q in pat}
    return all(any(g in present for g in job_groups) for job_groups in groups)


COUNT_CHECK_SHAPES = [(1, (2, 2)), (2, (2, 2)), (1, (1, 1, 2))]


def count_check_rungs(dims, machines):
    """Scaled instances around the optimum: three rungs per seed."""
    for seed in range(880, 900):
        inst = generate_instance(GeneratorSpec(4, dims, machines, 1, 10), seed)
        opt = rat(exact_solve(inst).optimum)
        eps = calibrate_eps(rat(1, 2), dims)
        for k in (-3, 0, 3):
            yield seed, k, make_scaled_instance(inst, opt * (1 + eps) ** k, eps)


@pytest.mark.parametrize("dims, machines", COUNT_CHECK_SHAPES)
def test_the_walk_yields_the_covering_product_profiles(dims, machines):
    # the profiles of the product, in product order, whose slots serve
    # every slot-only job on some type: exactly those the walk yields
    dropped = 0
    for seed, k, scaled in count_check_rungs(dims, machines):
        groups = slot_only_groups(scaled)
        product = product_profiles(scaled)
        covering = [p for p in product if _slot_classes_routed(groups, p)]
        assert list(enumerate_pattern_profiles(scaled, 10**6)) == covering, (seed, k)
        dropped += len(product) - len(covering)
    assert dropped > 0


@pytest.mark.parametrize("dims, machines", COUNT_CHECK_SHAPES)
def test_count_check_rejects_only_lp_infeasible_profiles(dims, machines):
    # every product profile around the optimum: a rejection, by the walk
    # (a profile it does not yield) or by count_check, must be a profile
    # whose slot LP is infeasible (both are only necessary conditions), and
    # the sweep must reject profiles both ways
    route_rejects = hall_rejects = 0
    for seed, k, scaled in count_check_rungs(dims, machines):
        check = count_check(scaled)
        yielded = set(enumerate_pattern_profiles(scaled, 10**6))
        for profile in product_profiles(scaled):
            if profile not in yielded:
                route_rejects += 1
            elif check is None or check(profile):
                continue
            else:
                hall_rejects += 1
            assert not _lp_feasible(scaled, profile), (seed, k, profile)
    assert route_rejects > 0 and hall_rejects > 0


def reference_full_decide(scaled):
    """Full-mode decide over the whole product with every profile checked
    from scratch by reference_admits.  (profile, schedule, stats) of the
    first that rounds, or None when none does."""
    groups = slot_only_groups(scaled)
    for profile in product_profiles(scaled):
        if not reference_admits(groups, profile):
            continue
        problem = build_rounding_problem(scaled, profile)
        engine = RoundingEngine(problem)
        try:
            outcome = engine.run()
        except Infeasible:
            continue
        final = untangle(problem, outcome)
        return profile, assemble_schedule(problem, final, scaled.base.num_jobs), engine.stats
    return None


@pytest.mark.parametrize(
    "n, dims, machines", [(4, 1, (2, 2)), (4, 2, (2, 2)), (4, 1, (1, 1, 2)), (5, 1, (2, 1))]
)
def test_route_mask_decides_as_the_matching_loop(n, dims, machines):
    # the walk's route masks and count_check together give the from-scratch
    # verdict on every product profile, so decide picks the profile,
    # schedule and rounding stats the reference loop over the product
    # picks, at rungs on both sides of the optimum; the sweep covers
    # profiles that leave a slot-only job without a group
    masked = accepted = rejected = 0
    for seed in range(900, 912):
        inst = generate_instance(GeneratorSpec(n, dims, machines, 1, 10), seed)
        opt = rat(exact_solve(inst).optimum)
        eps = calibrate_eps(rat(1, 2), dims)
        for k in (-4, -2, -1, 0, 1, 3):
            scaled = make_scaled_instance(inst, opt * (1 + eps) ** k, eps)
            check = count_check(scaled)
            groups = slot_only_groups(scaled)
            yielded = set(enumerate_pattern_profiles(scaled, 10**6))
            for profile in product_profiles(scaled):
                verdict = reference_admits(groups, profile)
                passes = profile in yielded and (check is None or check(profile))
                assert passes == verdict, (seed, k, profile)
                masked += not _slot_classes_routed(groups, profile)
            expected = reference_full_decide(scaled)
            try:
                res = decide(scaled, FullEnum())
            except Infeasible:
                assert expected is None, (seed, k)
                rejected += 1
                continue
            assert (res.profile, res.schedule, res.stats) == expected, (seed, k)
            accepted += 1
    assert masked > 0 and accepted > 0 and rejected > 0


def test_hall_check_counts_slots_per_group():
    # two jobs large on the single type, one slot of their class: each has a
    # route, but they cannot both have a slot
    inst = make_instance(1, [2], [[[8]], [[9]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    check = count_check(scaled)
    q = scaled.entry(0, 0).klass
    assert slot_only_groups(scaled) == [[(0, q)], [(0, q)]]
    assert not check((((), (q,)),))
    assert check((((q,), (q,)),))
    assert check((((), (q, q)),))
    assert not _lp_feasible(scaled, (((), (q,)),))


def test_count_check_is_none_without_slot_only_jobs():
    # each job is small on one of the two types, so it has a machine route
    # and every profile passes; making job 0 large on both types (and on
    # the type with no machines) builds the check
    inst = make_instance(1, [1, 1], [[[8], [1]], [[1], [9]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    assert count_check(scaled) is None
    assert decide(scaled, FullEnum()).makespan == 1
    inst = make_instance(1, [1, 1, 0], [[[8], [9], [7]], [[1], [9], [1]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    check = count_check(scaled)
    assert check is not None and not check(((), (), ()))


def test_profile_from_schedule():
    inst = make_instance(1, [2], [[[1]], [[8]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    # only the small job on each machine -> all-empty profile
    small_only = make_scaled_instance(make_instance(1, [2], [[[1]], [[2]]]), 10, rat(1, 2))
    prof0 = profile_from_schedule(small_only, Schedule(((0, 0), (0, 1))))
    assert prof0 == (((), ()),)
    # the large job contributes exactly one slot with its rounded class
    prof = profile_from_schedule(scaled, Schedule(((0, 0), (0, 1))))
    klass = scaled.entry(1, 0).klass
    assert sorted(prof[0]) == sorted([(), (klass,)])


def test_profile_overflow_when_target_too_small():
    # 3 large jobs on one machine with floor(D/eps) = 2
    inst = make_instance(1, [1], [[[6]], [[6]], [[6]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    assert scaled.ladder._classes.large_cap == 2
    with pytest.raises(PatternOverflow):
        profile_from_schedule(scaled, Schedule(((0, 0), (0, 0), (0, 0))))


def test_pattern_over_capacity_is_a_bug():
    # slot_patterns and profile_from_schedule never yield this profile: three
    # class-(0,) slots have mass 3, above the capacity (1 + 1/2)^2 = 9/4
    inst = make_instance(1, [1], [[[10]], [[10]], [[10]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    assert scaled.ladder._classes.capacity == rat(9, 4)
    with pytest.raises(InvariantViolation):
        build_rounding_problem(scaled, ((((0,), (0,), (0,)),),))


def reference_profile(scaled, sched):
    """profile_from_schedule as it stood before the ladder decided it: read
    off the rung's entries, masses summed from klass_value rationals."""
    per_machine = {m: [] for m in scaled.base.machines()}
    for j, (t, k) in enumerate(sched.assignment):
        entry = scaled.entry(j, t)
        if entry.large:
            if entry.klass is None:
                raise PatternOverflow(f"job {j} oversize on type {t} at this target")
            per_machine[(t, k)].append(entry.klass)
    profile = []
    for t in range(scaled.base.num_types):
        pats = []
        for k in range(scaled.base.machine_counts[t]):
            qs = sorted(per_machine[(t, k)])
            cap = scaled.ladder._classes.large_cap
            if len(qs) > cap:
                raise PatternOverflow(f"machine ({t},{k}) holds {len(qs)} large jobs, cap {cap}")
            values = (klass_value(scaled.ladder.grid, q) for q in qs)
            mass = [sum(dim, rat(0)) for dim in zip(*values)]
            if any(m > scaled.ladder._classes.capacity for m in mass):
                raise PatternOverflow(f"machine ({t},{k}) pattern mass exceeds capacity")
            pats.append(tuple(qs))
        profile.append(tuple(sorted(pats)))
    return tuple(profile)


def profile_outcome(fn, *args):
    try:
        return fn(*args)
    except PatternOverflow as exc:
        return str(exc)


def test_ladder_profiles_match_the_rung_reference():
    # ScaleLadder.certificate decides from grid exponents in integers, with
    # no rung built; on A1-shape, (2,2) and (1,1) instances, D 1 and 2,
    # oracle and greedy certificates, at every rung and three eps, its
    # profile is the reference's profile or its PatternOverflow, through
    # profile_from_schedule too
    cases = [generate_instance(ExperimentConfig("makespan", 1, s, 1).trial_spec(0), s)
             for s in range(300, 312)]
    cases += [generate_instance(GeneratorSpec(n, dims, machines, 1, 10), 620 + s)
              for n, machines in ((5, (2, 2)), (6, (1, 1))) for dims in (1, 2) for s in range(4)]
    # n equal jobs on one machine: more large jobs than large_cap at some rungs
    cases += [make_instance(1, [1], [[[6]]] * n) for n in (3, 4, 5)]
    seen = {"profile": 0, "oversize": 0, "large jobs": 0, "mass": 0}
    for inst in cases:
        lower, upper = target_bounds(inst)
        for cert in (exact_solve(inst).witness, greedy_makespan_schedule(inst)):
            for eps in (calibrate_eps(rat(1, 2), inst.dims), rat(1, 2), rat(1, 3)):
                rungs, ladder = ScaleLadder(inst, lower, eps), ScaleLadder(inst, lower, eps)
                for i in range(ladder.grid.round_up(upper / lower) + 1):
                    expected = profile_outcome(reference_profile, rungs.rung(i), cert)
                    got = profile_outcome(lambda: ladder.certificate(i, cert)[0])
                    assert got == expected, (inst, eps, i)
                    scaled = rungs.rung(i)
                    assert profile_outcome(profile_from_schedule, scaled, cert) == expected
                    kind = next((k for k in seen if k in str(expected)), "profile")
                    seen[kind] += 1
    assert min(seen.values()) >= 10, seen


def test_guided_search_builds_rung_entries_only_for_phase_1(monkeypatch):
    # a guided decision reads its classes off the ladder's certificate table
    # and builds only the certificate's routes: a rung's entries and its full
    # rounding problem are built only where the forced round rejects and
    # phase 1 decides, so an overflowing or fitting certificate builds
    # neither; the search keeps the reference's accepted rung and schedule
    built, full, certified, rejected = [], [], set(), []
    entries, build = ScaleLadder._entries, makespan.build_rounding_problem
    certify, round_ = makespan.certificate_problem, makespan._round

    def counted_entries(self, i):
        built.append(i)
        return entries(self, i)

    def counted_build(scaled, profile):
        full.append(scaled.rung)
        return build(scaled, profile)

    def counted_certify(scaled, profile, sched):
        problem = certify(scaled, profile, sched)
        certified.add(id(problem))
        return problem

    def counted_round(scaled, profile, problem):
        try:
            return round_(scaled, profile, problem)
        except Infeasible:
            if id(problem) in certified:
                rejected.append(scaled.rung)
            raise

    cases = [(inst, exact_solve(inst).witness) for inst in reference_cases()]
    cases.append(overfilling_case()[:2])
    expected = [reference_search(inst, rat(1, 2), Guided(cert)) for inst, cert in cases]
    monkeypatch.setattr(ScaleLadder, "_entries", counted_entries)
    monkeypatch.setattr(makespan, "build_rounding_problem", counted_build)
    monkeypatch.setattr(makespan, "certificate_problem", counted_certify)
    monkeypatch.setattr(makespan, "_round", counted_round)
    probes = phase_1 = 0
    for (inst, cert), (ref, ref_probes) in zip(cases, expected):
        built.clear()
        full.clear()
        rejected.clear()
        res = makespan_ptas(inst, rat(1, 2), Guided(cert))
        assert built == full == rejected
        probes += res.probes
        phase_1 += len(built)
        assert (res.schedule, res.makespan, res.accepted_target) == (
            ref.schedule, ref.makespan, ref.target)
        assert res.probes <= ref_probes
    assert 0 < phase_1 < probes // 20, (phase_1, probes)


# eps = num/den: calibrate_eps gives 1/16 and 3/32 at D = 1 (eps_user 1/2
# and 3/4), 1/32 and 3/64 at D = 2, and 1/24 for eps_user 1/3 at D = 1
EPS_PAIRS = [(1, 16), (1, 32), (3, 32), (3, 64), (1, 24)]
EPS_IDS = [str(den) if num == 1 else f"{num}over{den}" for num, den in EPS_PAIRS]


@pytest.mark.parametrize("num, den", EPS_PAIRS, ids=EPS_IDS)
@pytest.mark.parametrize("dims", [1, 2])
def test_class_weights_are_class_values(num, den, dims):
    # w[k] / up^lift is class k's value (1+eps)^(-k), and a weight sum is
    # within room exactly when its mass is within (1+eps)^2
    eps = rat(num, den)
    up, grid = num + den, geometric_grid(eps)
    lift, capacity, large_cap, weights, room = makespan._classes(num, den, dims)
    assert lift == power_round_up(eps * eps / dims, eps)[0]
    assert (capacity, large_cap) == ((1 + eps) ** 2, rat_floor(dims / eps))
    assert len(weights) == lift + 1
    for k, w in enumerate(weights):
        assert rat(w, up**lift) == klass_value(grid, (k,))[0]
    # room is the boundary: room passes, room + 1 does not
    assert rat(room, up**lift) <= capacity < rat(room + 1, up**lift)
    # every pair and a sweep of triples of classes, the tightest among them
    fits = tried = 0
    for pattern in itertools.chain(
        itertools.combinations_with_replacement(range(lift + 1), 2),
        ((0, a, b) for a in range(lift + 1) for b in range(a, lift + 1, 7)),
    ):
        mass = sum((klass_value(grid, (k,))[0] for k in pattern), rat(0))
        assert (sum(weights[k] for k in pattern) <= room) == (mass <= capacity), pattern
        fits += mass <= capacity
        tried += 1
    assert 0 < fits < tried


@pytest.mark.parametrize("num, den", EPS_PAIRS, ids=EPS_IDS)
@pytest.mark.parametrize("dims", [1, 2])
def test_integer_room_is_capacity_minus_the_summed_mass(num, den, dims):
    # at every rung, each type's patterns listed by their integer class
    # weights within room are the multisets the rational rule lists
    # (klass_value sizes within (1+eps)^2), and a rounding problem's rem, one
    # rational from integer class weights, is the capacity minus the pattern
    # mass summed from klass_value rationals: for every profile the
    # enumeration lists and every certificate profile (oracle and greedy)
    eps = rat(num, den)
    listed = certified = 0
    for seed in range(6):
        inst = generate_instance(GeneratorSpec(3, dims, (2, 2), 1, 10), 7100 + seed)
        certs = (exact_solve(inst).witness, greedy_makespan_schedule(inst))
        ladder = ScaleLadder(inst, None, eps)
        classes = ladder._classes
        value = functools.partial(klass_value, ladder.grid)
        for i in range(ladder.grid.round_up(ladder.upper / ladder.lower) + 1):
            scaled = ladder.rung(i)
            realized = realized_types(scaled)
            for t, counts in realized.items():
                rational = slot_patterns(counts, classes.large_cap, value, classes.capacity, dims)
                assert makespan._type_profiles(scaled, t, counts, None) == pattern_multisets(
                    rational, inst.machine_counts[t], counts)
            profiles = list(enumerate_pattern_profiles(scaled, 10**6))
            listed += len(profiles)
            for cert in certs:
                try:
                    profiles.append(profile_from_schedule(scaled, cert))
                except PatternOverflow:
                    continue
                certified += 1
            for profile in profiles:
                rem = build_rounding_problem(scaled, profile).capacities
                for mk in inst.machines():
                    pattern = profile[mk[0]][mk[1]]
                    mass = [sum((value(q)[d] for q in pattern), rat(0)) for d in range(dims)]
                    assert rem[mk] == tuple(classes.capacity - m for m in mass)
    assert listed > 1000 and certified > 100, (listed, certified)


def test_slot_lp_row_count():
    # rows = n + slots + D * machines
    inst = make_instance(2, [2, 1], [[[2, 3], [4, 1]], [[9, 1], [2, 2]], [[1, 1], [1, 1]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    profiles = list(enumerate_pattern_profiles(scaled, 10**6))
    profile = max(profiles, key=lambda p: sum(len(x) for pats in p for x in pats))
    lp = RoundingEngine(build_rounding_problem(scaled, profile))._build_lp()
    n_slots = len(build_rounding_problem(scaled, profile).slots)
    assert n_slots > 0
    assert lp.num_rows == inst.num_jobs + n_slots + inst.dims * inst.num_machines


def test_calibrate_eps_against_direct_scan():
    # independent evaluation of G on the halving grid
    def scan(eps_user, dims):
        e = rat(eps_user)
        while True:
            G = (1 + e) ** 3 + 3 * dims * e
            if G * (1 + e) <= 1 + rat(eps_user):
                return e
            e = e / 2

    assert calibrate_eps(rat(1, 2), 1) == scan(rat(1, 2), 1) == rat(1, 16)
    # the formula gives 1/16 at eps_user = 1 as well: G(1/8,1)*(9/8) = 8289/4096 > 2
    assert guarantee_factor(rat(1, 8), 1) * rat(9, 8) == rat(8289, 4096)
    assert calibrate_eps(1, 1) == scan(1, 1) == rat(1, 16)
    for dims in (1, 2, 3):
        for eps_user in (rat(1, 2), rat(1, 4), 1):
            e = calibrate_eps(eps_user, dims)
            assert guarantee_factor(e, dims) * (1 + e) <= 1 + rat(eps_user)


def test_guarantee_factor_monotone():
    values = [guarantee_factor(rat(1, 2 ** k), 2) for k in range(1, 8)]
    assert values == sorted(values, reverse=True)


def test_decision_single_job_at_exact_target():
    inst = make_instance(1, [1], [[[5]]])
    res = makespan_decision(inst, 5, rat(1, 2), FullEnum())
    assert res.makespan == 5


def test_decision_infeasible_below_floor():
    # T below max_j min_t max_d c: the job fits nowhere
    inst = make_instance(1, [1], [[[5]]])
    with pytest.raises(Infeasible):
        makespan_decision(inst, 4, rat(1, 2), FullEnum())
    with pytest.raises(Infeasible):
        makespan_decision(inst, 4, rat(1, 2), Guided(Schedule(((0, 0),))))


def test_decision_guided_at_oracle_optimum():
    rng = random.Random(42)
    for trial in range(15):
        spec = GeneratorSpec(
            num_jobs=rng.randint(2, 6),
            dims=rng.choice([1, 2]),
            machine_counts=(rng.randint(1, 2), rng.randint(1, 2)),
            cost_min=1,
            cost_max=10,
        )
        inst = generate_instance(spec, 500 + trial)
        opt = exact_solve(inst)
        eps = rat(1, 16)
        res = makespan_decision(inst, opt.optimum, eps, Guided(opt.witness))
        assert res.makespan <= guarantee_factor(eps, inst.dims) * rat(opt.optimum)


def test_ptas_single_machine_is_exact():
    inst = make_instance(1, [1], [[[4]], [[9]]])
    res = makespan_ptas(inst, rat(1, 2), FullEnum())
    assert res.makespan == 13


def test_ptas_identical_jobs_balanced():
    # n unit jobs on m identical machines: OPT = ceil(n/m)
    for n, m in [(4, 2), (5, 2), (7, 3)]:
        inst = make_instance(1, [m], [[[1]] for _ in range(n)])
        opt = exact_solve(inst)
        assert opt.optimum == -(-n // m)
        res = makespan_ptas(inst, rat(1, 2), Guided(opt.witness))
        assert rat(res.makespan) <= rat(3, 2) * rat(opt.optimum)


def test_ptas_guided_ratio_sampled():
    rng = random.Random(7)
    for trial in range(20):
        spec = GeneratorSpec(
            num_jobs=rng.randint(2, 6),
            dims=rng.choice([1, 2]),
            machine_counts=(rng.randint(1, 2), rng.randint(1, 2)),
            cost_min=1,
            cost_max=10,
        )
        inst = generate_instance(spec, 900 + trial)
        opt = exact_solve(inst)
        res = makespan_ptas(inst, rat(1, 2), Guided(opt.witness))
        assert rat(res.makespan) <= rat(3, 2) * rat(opt.optimum)
        assert rat(res.makespan) >= rat(opt.optimum)


def test_decision_monotone_above_optimum():
    # acceptance is provable for every target at or above the certificate
    # makespan; sample successors of the accepted grid point
    rng = random.Random(11)
    for trial in range(5):
        spec = GeneratorSpec(4, 1, (1, 1), 1, 9)
        inst = generate_instance(spec, 300 + trial)
        opt = exact_solve(inst)
        eps = rat(1, 16)
        base = rat(opt.optimum)
        for k in range(3):
            t = base * (1 + eps) ** k
            res = makespan_decision(inst, t, eps, Guided(opt.witness))
            assert res.makespan <= guarantee_factor(eps, 1) * t


def test_full_enum_matches_guided_on_tiny_instances():
    rng = random.Random(3)
    for trial in range(5):
        spec = GeneratorSpec(3, 1, (1, 1), 1, 9)
        inst = generate_instance(spec, 40 + trial)
        opt = exact_solve(inst)
        res = makespan_ptas(inst, rat(1, 2), FullEnum(budget=10**6))
        assert rat(res.makespan) <= rat(3, 2) * rat(opt.optimum)


def certificate_ladder(inst, eps_user, cert):
    """(ladder, r_c, top) of makespan_ptas under Guided(cert): r_c is the
    least rung whose target is >= the certificate's makespan, and top the
    ladder's last rung before it is raised to r_c."""
    lower, upper = target_bounds(inst)
    ladder = ScaleLadder(inst, lower, calibrate_eps(eps_user, inst.dims))
    r_c = ladder.grid.round_up(evaluate_makespan(inst, cert) / lower)
    return ladder, r_c, ladder.grid.round_up(upper / lower)


def random_schedule(inst, rng) -> Schedule:
    machines = list(inst.machines())
    return Schedule(tuple(rng.choice(machines) for _ in range(inst.num_jobs)))


def test_every_rung_from_the_certificate_rung_accepts():
    # the argument of the makespan_ptas docstring: at a target at or above
    # the certificate's makespan, decide accepts its profile, so the guided
    # search may skip those rungs; oracle and random (mostly non-optimal)
    # certificates, up to the raised top
    shapes = [(1, (2, 1)), (2, (1, 2)), (3, (2, 2)), (2, (1, 1, 1))]
    rungs = poor = 0
    for s, (dims, machines) in enumerate(shapes):
        for e, eps_user in enumerate((rat(1, 4), rat(1, 2), rat(1))):
            for seed in range(2):
                spec = GeneratorSpec(5, dims, machines, 1, 10)
                inst = generate_instance(spec, 3000 + 6 * s + 2 * e + seed)
                opt = exact_solve(inst)
                for cert in (opt.witness, random_schedule(inst, random.Random(seed))):
                    ladder, r_c, top = certificate_ladder(inst, eps_user, cert)
                    for i in range(r_c, max(top, r_c) + 1):
                        decide(ladder.rung(i), Guided(cert))
                        rungs += 1
                    poor += evaluate_makespan(inst, cert) > opt.optimum
    assert rungs > 1000 and poor > 10, (rungs, poor)


def reference_search(inst, eps_user, mode):
    """makespan_ptas's bisection with every probe decided, as it stood
    before the guided search skipped its certificate's rungs:
    (decision at the accepted rung, probes)."""
    lower, upper = target_bounds(inst)
    ladder = ScaleLadder(inst, lower, calibrate_eps(eps_user, inst.dims))
    probes = 0

    def probe(i):
        nonlocal probes
        probes += 1
        try:
            return decide(ladder.rung(i), mode)
        except Infeasible:
            return None

    best = probe(0)
    if best is None:
        lo, hi = 0, ladder.grid.round_up(upper / lower)
        best = probe(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            res = probe(mid)
            if res is None:
                lo = mid
            else:
                hi, best = mid, res
    return best, probes


def reference_cases():
    """A1-shape instances, the bench-pinned guided ones among them, and the
    instance of the pinned guided `solve` outputs."""
    half = rat(1, 2)
    for trials, seed in ((6, 21), (40, 4000)):
        cfg = ExperimentConfig("makespan", trials, seed, half)
        for i in range(cfg.trials):
            yield generate_instance(cfg.trial_spec(i), cfg.seed + i)
    yield generate_instance(GeneratorSpec(5, 2, (2, 1), 1, 10), 3)


def test_guided_search_returns_the_reference_decision():
    # the same accepted rung, schedule and makespan with fewer decisions;
    # when rung 0 accepts, both make exactly one
    fewer = first_accepts = 0
    for inst in reference_cases():
        mode = Guided(exact_solve(inst).witness)
        expected, ref_probes = reference_search(inst, rat(1, 2), mode)
        res = makespan_ptas(inst, rat(1, 2), mode)
        assert (res.schedule, res.makespan, res.accepted_target) == (
            expected.schedule, expected.makespan, expected.target)
        assert res.probes <= ref_probes
        if res.accepted_target == target_bounds(inst)[0]:
            assert res.probes == ref_probes == 1
            first_accepts += 1
        fewer += res.probes < ref_probes
    assert fewer > 10 and first_accepts > 5, (fewer, first_accepts)


def test_guided_search_checks_the_rung_it_never_decided(monkeypatch):
    # a case whose accepted rung is its certificate's rung r_c > 0: the
    # search decides it only at the end, and a rejection there is a bug
    half = rat(1, 2)
    for inst in reference_cases():
        cert = exact_solve(inst).witness
        ladder, r_c, _ = certificate_ladder(inst, half, cert)
        target = ladder.rung(r_c).target
        if r_c > 0 and makespan_ptas(inst, half, Guided(cert)).accepted_target == target:
            break
    else:
        pytest.fail("no case accepts at its certificate's rung")
    real = makespan.decide

    def rejecting(scaled, mode):
        if scaled.target == target:
            raise Infeasible("rejected")
        return real(scaled, mode)

    monkeypatch.setattr(makespan, "decide", rejecting)
    with pytest.raises(InvariantViolation, match="rung its certificate proves"):
        makespan_ptas(inst, half, Guided(cert))


def shape_cases(seeds: int):
    """(eps_user, instance) over oracle-sized shapes: n=5, D 1-2, machines
    (2,1), (1,2), (2,2) and (1,1,1), eps_user 1/4, 1/2 and 1."""
    for dims in (1, 2):
        for machines in ((2, 1), (1, 2), (2, 2), (1, 1, 1)):
            for e, eps_user in enumerate((rat(1, 4), rat(1, 2), rat(1))):
                for seed in range(seeds):
                    spec = GeneratorSpec(5, dims, machines, 1, 10)
                    yield eps_user, generate_instance(spec, 5000 + 10 * e + seed)


def accepts(scaled, mode) -> bool:
    try:
        decide(scaled, mode)
    except Infeasible:
        return False
    return True


def test_greedy_first_decides_every_rung_as_the_enumeration():
    # the greedy profile is one the enumeration lists and its count check
    # passes, so a greedy accept is an enumeration accept, and a greedy
    # reject leaves the enumeration to decide: greedy first accepts iff the
    # enumeration does.  From the greedy schedule's rung r_g up, the greedy
    # decision itself accepts (the certificate argument of makespan_ptas),
    # so full mode skips those rungs
    fallbacks = skipped = 0
    for eps_user, inst in shape_cases(2):
        greedy = greedy_makespan_schedule(inst)
        ladder, r_g, top = certificate_ladder(inst, eps_user, greedy)
        assert r_g <= top
        for i in range(top + 1):
            scaled = ladder.rung(i)
            full, first = accepts(scaled, FullEnum()), accepts(scaled, Guided(greedy))
            assert (first or full) == full, (inst, eps_user, i)
            assert first or i < r_g, (inst, eps_user, i)
            fallbacks += full and not first
            skipped += i >= r_g
    assert fallbacks > 30 and skipped > 1000, (fallbacks, skipped)


def test_full_search_keeps_the_reference_rung():
    # against deciding every probe by the enumeration: the same accepted
    # rung in no more decisions, within 1 + eps_user of the optimum
    half = rat(1, 2)
    cases = [(half, inst) for inst in reference_cases()] + list(shape_cases(1))
    fewer = 0
    for eps_user, inst in cases:
        expected, ref_probes = reference_search(inst, eps_user, FullEnum())
        res = makespan_ptas(inst, eps_user, FullEnum())
        assert res.accepted_target == expected.target
        assert res.probes <= ref_probes
        assert res.makespan <= (1 + eps_user) * exact_solve(inst).optimum
        fewer += res.probes < ref_probes
    assert fewer > 10, fewer


def test_the_greedy_attempt_is_charged_to_the_budget():
    # one unit of work per greedy attempt: budget 0 raises before any
    # decision, budget 1 is enough when every greedy decision accepts, and a
    # probe left to enumerate with no unit to spare reports the budget asked
    easy = make_instance(1, [2], [[[1]], [[1]]])
    with pytest.raises(BudgetExhausted, match="work budget 0 exhausted"):
        makespan_ptas(easy, rat(1, 2), FullEnum(0))
    assert makespan_ptas(easy, rat(1, 2), FullEnum(1)).probes == 1
    hard = make_instance(1, [1], [[[4]], [[9]]])
    with pytest.raises(BudgetExhausted, match="work budget 1 exhausted"):
        makespan_ptas(hard, rat(1, 2), FullEnum(1))


def test_the_greedy_rung_is_at_most_top():
    # full mode takes the greedy schedule's rung r_g as its certificate rung
    # and raises top to it, which leaves top as it was because r_g <= top: a
    # job's finishing load is at most the largest load so far plus its least
    # max cost.  Checked on the makespan-full pool shape and on D=2 shapes
    specs = [(GeneratorSpec(4, 1, (2, 2), 1, 10), range(1760))] + [
        (GeneratorSpec(n, 2, machines, 1, 10), range(100))
        for n in (4, 8) for machines in ((2, 2), (3, 1), (1, 1, 1))
    ]
    for spec, seeds in specs:
        for seed in seeds:
            inst = generate_instance(spec, seed)
            for eps_user in (rat(1, 4), rat(1, 2)):
                _, r_g, top = certificate_ladder(inst, eps_user, greedy_makespan_schedule(inst))
                assert r_g <= top, (spec, seed, eps_user)


def test_a_budget_lists_at_most_one_multiset_past_it(monkeypatch):
    # each type's pattern multisets are listed up to one past the budget
    # left, so a budget of 1 lists at most 2 per type where (2,2), n=8,
    # rung 0 has 22 and 45; of the 990 profiles of their product the walk
    # yields the 2 whose slots serve every slot-only job
    inst = generate_instance(GeneratorSpec(8, 1, (2, 2), 1, 10), 0)
    scaled = certificate_ladder(inst, rat(1, 2), greedy_makespan_schedule(inst))[0].rung(0)
    lengths = []
    listing = makespan._type_profiles

    def spy(*args):
        lengths.append(len(out := listing(*args)))
        return out

    monkeypatch.setattr(makespan, "_type_profiles", spy)
    assert len(list(enumerate_pattern_profiles(scaled, 10**6))) == 2
    assert lengths == [22, 45]
    lengths.clear()
    with pytest.raises(BudgetExhausted, match="work budget 1 exhausted"):
        decide(scaled, FullEnum(1))
    assert 0 < max(lengths) <= 2, lengths


def test_a_budget_of_one_runs_out_at_once_on_many_machines():
    # at (5,5), n=14, rung 16 the types' full multiset lists take about a
    # minute and a gigabyte to build; a budget of 1 lists two multisets of
    # the first type and stops
    inst = generate_instance(GeneratorSpec(14, 1, (5, 5), 1, 10), 0)
    ladder = certificate_ladder(inst, rat(1, 2), greedy_makespan_schedule(inst))[0]
    start = time.perf_counter()
    with pytest.raises(BudgetExhausted, match="work budget 1 exhausted"):
        decide(ladder.rung(16), FullEnum(1))
    assert time.perf_counter() - start < 5


def test_certificate_above_the_ladder_is_solved():
    # three jobs of cost 1 on type 0 and 10 on type 1, all on machine (1, 0):
    # makespan 30, while the ladder ends at the sum of floors, 3.  The search
    # takes its 7 probes and accepts rung 55 as when the decision ran phase 1
    # (which put every job on type 0, makespan 3); the certificate fits that
    # rung's slot LP, so the decision now commits it.  A certificate's rungs
    # reject by PatternOverflow, which proves nothing about the optimum, so
    # the bound is relative to the certificate, not to the optimum
    inst = Instance(1, (1, 1), (((1,), (10,)),) * 3)
    cert = Schedule(((1, 0),) * 3)
    ladder, r_c, top = certificate_ladder(inst, rat(1, 2), cert)
    assert top < r_c
    res = makespan_ptas(inst, rat(1, 2), Guided(cert))
    assert (res.probes, res.accepted_target) == (7, ladder.rung(55).target)
    assert res.makespan == 30
    assert res.makespan <= rat(3, 2) * evaluate_makespan(inst, cert)


def test_guided_search_rejects_an_invalid_certificate():
    # the certificate's makespan is evaluated first, which validates it
    inst = Instance(1, (1, 1), (((1,), (10,)),) * 3)
    for cert in (Schedule(((0, 5),) * 3), Schedule(((0, 0),) * 2)):
        with pytest.raises(InvalidSchedule):
            makespan_ptas(inst, rat(1, 2), Guided(cert))


def test_random_certificates_keep_the_certificate_bound():
    # makespan <= (1 + eps_user) * the certificate's makespan, also for the
    # certificates whose rung lies above the ladder
    above = 0
    for seed in range(200):
        inst = generate_instance(GeneratorSpec(5, 1 + seed % 2, (2, 1), 1, 10), seed)
        cert = random_schedule(inst, random.Random(seed))
        _, r_c, top = certificate_ladder(inst, rat(1, 2), cert)
        above += r_c > top
        res = makespan_ptas(inst, rat(1, 2), Guided(cert))
        assert res.makespan <= rat(3, 2) * evaluate_makespan(inst, cert), seed
    assert above > 5, above


def phase_1_decide(scaled, mode) -> makespan.DecisionResult:
    """decide with every guided decision run by phase 1 on its rung's full
    rounding problem, as deciding with no certificate point did."""
    if not isinstance(mode, Guided):
        return decide(scaled, mode)
    try:
        profile = profile_from_schedule(scaled, mode.schedule)
    except PatternOverflow as exc:
        raise Infeasible(str(exc)) from exc
    return makespan._round(scaled, profile, build_rounding_problem(scaled, profile))


def no_point(monkeypatch):
    """Make makespan_ptas decide by phase_1_decide: the reference that
    deciding on the certificate's routes must match."""
    monkeypatch.setattr(makespan, "decide", phase_1_decide)


def is_relabelled(cert: Schedule, sched: Schedule) -> bool:
    """Whether sched is cert with the machines of each type permuted."""
    image: dict = {}
    for (t, k), (u, to) in zip(cert.assignment, sched.assignment):
        if t != u or image.setdefault((t, k), to) != to:
            return False
    return len({(t, to) for (t, _), to in image.items()}) == len(image)


def a1_cases(dims: int) -> list[Instance]:
    cfg = ExperimentConfig("makespan", 300, 6000, rat(1, 2), dims_choices=(dims,))
    return [generate_instance(cfg.trial_spec(i), cfg.seed + i) for i in range(cfg.trials)]


def pool_cases(seed: int) -> list[Instance]:
    """The makespan-guided benchmark pool of seed: 800 A1-shape instances."""
    return [generate_instance(ExperimentConfig("makespan", 1, s, rat(1, 2)).trial_spec(0), s)
            for s in range(800 * seed, 800 * (seed + 1))]


@pytest.mark.parametrize("sweep, arg", [(a1_cases, 1), (a1_cases, 2), (pool_cases, 1),
                                        (pool_cases, 1000)],
                         ids=["A1 D=1", "A1 D=2", "pool 1", "pool 1000"])
def test_certificate_points_keep_the_search(monkeypatch, sweep, arg):
    # a point that fits proves the first LP feasible, which phase 1 accepts,
    # and one that does not leaves phase 1 to decide: the probes, the
    # accepted rung and (on these oracle certificates) the makespan are those
    # of handing no point, and a schedule that moves is the certificate
    half = rat(1, 2)
    cases = [(inst, Guided(exact_solve(inst).witness)) for inst in sweep(arg)]
    results = [makespan_ptas(inst, half, mode) for inst, mode in cases]
    no_point(monkeypatch)
    moved = 0
    for (inst, mode), res in zip(cases, results):
        ref = makespan_ptas(inst, half, mode)
        assert (res.probes, res.accepted_target, res.makespan) == (
            ref.probes, ref.accepted_target, ref.makespan)
        if res.schedule != ref.schedule:
            assert is_relabelled(mode.schedule, res.schedule)
            moved += 1
    assert moved > 0


def overfilling_case():
    """Twenty unit jobs on one of two identical machines.  The search
    decides rung 46 (target about 16.3), where every job is small and the
    certificate's small load, about 1.23, is above rem = (1 + 1/16)^2."""
    inst = Instance(1, (2,), (((1,),),) * 20)
    cert = Schedule(((0, 0),) * 20)
    ladder, _, _ = certificate_ladder(inst, rat(1, 2), cert)
    return inst, cert, ladder.rung(46)


def test_an_overfilling_certificate_decides_as_with_no_point(monkeypatch):
    inst, cert, scaled = overfilling_case()
    problem = makespan.certificate_problem(scaled, profile_from_schedule(scaled, cert), cert)
    with pytest.raises(Infeasible):  # the forced round is the certificate's fit check
        RoundingEngine(problem).run()
    decision, res = decide(scaled, Guided(cert)), makespan_ptas(inst, rat(1, 2), Guided(cert))
    assert res.accepted_target == scaled.target
    assert decision == phase_1_decide(scaled, Guided(cert))
    no_point(monkeypatch)
    assert res == makespan_ptas(inst, rat(1, 2), Guided(cert))


def reference_certificate_decision(scaled, cert):
    """The guided decision as it stood before it read the ladder's table:
    (decision or None, whether the forced round rejected).  A fresh ladder
    builds the rung's entries, the full rounding problem holds every route,
    and the engine gets the certificate's 0/1 point (route_point over the
    entries' classes); where that forced round rejects, phase 1 decides on
    the same problem."""
    inst = scaled.base
    rung = ScaleLadder(inst, scaled.ladder.base, scaled.eps).rung(scaled.rung)
    assert rung.entries == scaled.ladder._entries(scaled.rung)
    try:
        profile = profile_from_schedule(rung, cert)
    except PatternOverflow:
        return None, False
    problem = build_rounding_problem(rung, profile)
    machines = {mk: [] for mk in inst.machines()}
    for j, (t, k) in enumerate(cert.assignment):
        machines[t, k].append((j, rung.entry(j, t).klass))
    for point in (rounding.route_point(problem.slots, machines), None):
        engine = RoundingEngine(problem, point)
        try:
            outcome = engine.run()
        except Infeasible:
            continue
        schedule = assemble_schedule(problem, untangle(problem, outcome), inst.num_jobs)
        decision = makespan.DecisionResult(schedule, evaluate_makespan(inst, schedule),
                                           rung.target, profile, engine.stats, outcome.forest)
        return decision, point is None
    return None, True


def differential_cases(sweep, arg):
    if sweep is overfilling_case:
        return [overfilling_case()[:2]]
    return [(inst, exact_solve(inst).witness) for inst in sweep(arg)]


@pytest.mark.parametrize("sweep, arg", [(a1_cases, 2), (pool_cases, 1), (pool_cases, 1000),
                                        (overfilling_case, None)],
                         ids=["A1 D=2", "pool 1", "pool 1000", "overfilling"])
def test_certificate_decisions_equal_the_full_problem_with_the_point(monkeypatch, sweep, arg):
    # at every rung the guided search probes, deciding on the certificate's
    # routes alone gives the decision (schedule, makespan, target, profile,
    # stats, forest) of the full problem handed the certificate's point, and
    # where that point's forced round rejects, the phase-1 decision
    seen = []

    def recording(scaled, mode):
        try:
            result = decide(scaled, mode)
        except Infeasible:
            result = None
            raise
        finally:
            seen.append((scaled, mode.schedule, result))
        return result

    monkeypatch.setattr(makespan, "decide", recording)
    kinds = {"accepted": 0, "rejected": 0, "phase 1": 0}
    for inst, cert in differential_cases(sweep, arg):
        seen.clear()
        makespan_ptas(inst, rat(1, 2), Guided(cert))
        for scaled, sched, result in seen:
            expected, phase_1 = reference_certificate_decision(scaled, sched)
            assert result == expected, (inst, scaled.rung)
            if phase_1:
                assert result == phase_1_decide(scaled, Guided(sched))
                kinds["phase 1"] += 1
            kinds["accepted" if result else "rejected"] += 1
    assert kinds["accepted"] > 0 and kinds["rejected"] > 0, kinds
    if sweep is overfilling_case:
        assert kinds["phase 1"] == 1, kinds


def test_a_fitting_certificate_is_committed_without_the_simplex(monkeypatch):
    # at its own rung r_c the overfilling case's certificate fits (small load
    # 20/T <= 1 <= rem), so one forced round commits it with no simplex call
    inst, cert, _ = overfilling_case()
    ladder, r_c, _ = certificate_ladder(inst, rat(1, 2), cert)
    monkeypatch.setattr(rounding, "solve_extreme_point", None)
    res = decide(ladder.rung(r_c), Guided(cert))
    assert res.schedule == cert and res.makespan == 20
    assert (res.stats.lp_solves, res.stats.iterations) == (1, 0)


from hypothesis import given, strategies as st


@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([2, 3, 4, 8, 16]),
)
def test_round_up_within_one_grid_step(num, den, inv_eps):
    # next-greater-power rounding never exceeds one factor of (1+eps)
    v = rat(num, den)
    eps = rat(1, inv_eps)
    _, power = power_round_up(v, eps)
    assert v <= power < v * (1 + eps)
