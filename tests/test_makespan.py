import random

import pytest

from typesched import makespan
from typesched.cli import ExperimentConfig
from typesched.errors import BudgetExhausted, Infeasible, InvariantViolation, PatternOverflow
from typesched.lp import solve_extreme_point
from typesched.makespan import (
    FullEnum,
    Guided,
    ScaleLadder,
    build_rounding_problem,
    build_slot_lp,
    calibrate_eps,
    decide,
    enumerate_large_job_types,
    enumerate_pattern_profiles,
    guarantee_factor,
    make_scaled_instance,
    makespan_decision,
    makespan_ptas,
    power_round_up,
    profile_admits,
    profile_from_schedule,
    slot_only_groups,
)
from typesched.model import GeneratorSpec, Schedule, generate_instance, make_instance
from typesched.oracle import exact_solve
from typesched.rationals import ONE, parse_rational, rat, rat_floor
from typesched.rounding import slot_lp


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
    assert not small.large and small.raw == (rat(3, 10),)
    assert small.rounded == (rat(4, 9),)
    assert small.klass is None
    large = scaled.entry(1, 0)
    assert large.large and large.rounded == (ONE,)
    assert large.klass == (0,)


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
    assert entry.rounded[1] >= rat(1, 8)


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
            row.append(makespan.ScaledEntry(large, raw, tuple(rounded), klass))
        entries.append(row)
    return entries, target, (ONE + eps) ** 2, rat_floor(rat(dims) / eps)


def assert_ladder_matches_reference(inst, base, eps, rungs):
    ladder = ScaleLadder(inst, base, eps)
    for i in rungs:
        target = rat(base) * (1 + rat(eps)) ** i
        expected = reference_scaled(inst, target, eps)
        scaled = ladder.rung(i)
        assert (scaled.entries, scaled.target, scaled.capacity, scaled.large_cap) == expected
        direct = make_scaled_instance(inst, target, eps)
        assert (direct.entries, direct.target, direct.capacity, direct.large_cap) == expected
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
        lower, upper = makespan._target_bounds(inst)
        for eps in (calibrate_eps(rat(1, 2), inst.dims), rat(1, 2), rat(1, 3)):
            top = ScaleLadder(inst, lower, eps).grid.round_up(upper / lower)
            ladder = assert_ladder_matches_reference(inst, lower, eps, range(top + 1))
            rungs += top + 1
            lifted += sum(
                e.large and min(e.raw) < eps * eps / inst.dims
                for i in range(top + 1) for row in ladder.rung(i).entries for e in row
            )
    assert rungs > 1000 and lifted > 0


def test_ladder_exponents_are_the_power_round_up_exponents():
    # the ladder rounds each distinct cost once, off its grid; on A1-shape
    # instances every exponent is the one power_round_up gives
    checked = 0
    for s in range(300, 340):
        inst = generate_instance(ExperimentConfig("makespan", 1, s, 1).trial_spec(0), s)
        lower, _ = makespan._target_bounds(inst)
        for eps in (calibrate_eps(rat(1, 2), inst.dims), rat(1, 3)):
            ladder = ScaleLadder(inst, lower, eps)
            for j, row in enumerate(ladder._costs):
                for t, (vec, _, ks) in enumerate(row):
                    assert vec == tuple(rat(c) for c in inst.cost_vec(j, t))
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
    entry = ladder.rung(2).entry(0, 0)
    assert entry.large and entry.raw[1] == rat(1, 8)
    assert entry.rounded[1] == power_round_up(rat(1, 8), eps)[1] == rat(32, 243)
    assert ladder.rung(4).entry(1, 0).rounded[1] == rat(32, 243)
    # costs exactly on a grid power: 4/9 = (2/3)^2 small, 6/9 = (2/3)^1 large
    inst = make_instance(1, [1], [[[4]], [[6]]])
    ladder = assert_ladder_matches_reference(inst, 4, eps, range(-1, 5))
    small, large = ladder.rung(2).entries
    assert small[0].rounded == (rat(4, 9),) and small[0].klass is None
    assert large[0].rounded == (rat(2, 3),) and large[0].klass == (1,)


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
        lower, upper = makespan._target_bounds(inst)
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


def test_realized_types_restriction():
    # all large jobs round to size 1 -> Q restricted to {(0,)}
    inst = make_instance(1, [1], [[[9]], [[10]], [[2]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    assert enumerate_large_job_types(scaled) == {(0,)}


def test_profile_enumeration_tiny_cases():
    # no large jobs -> exactly one (all-empty) profile
    inst = make_instance(1, [2], [[[1]], [[1]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    profiles = list(enumerate_pattern_profiles(scaled, 100))
    assert profiles == [((tuple(), tuple()),)]
    # 1 machine, 1 large job -> empty pattern or one slot: 2 profiles
    inst2 = make_instance(1, [1], [[[8]]])
    scaled2 = make_scaled_instance(inst2, 10, rat(1, 2))
    profiles2 = list(enumerate_pattern_profiles(scaled2, 100))
    assert len(profiles2) == 2
    # slot totals never exceed the number of large jobs
    counts = [sum(len(p) for pats in prof for p in pats) for prof in profiles2]
    assert max(counts) <= 1


def test_profile_budget_exhaustion(monkeypatch):
    inst = make_instance(1, [2], [[[8]], [[9]], [[10]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    gen = enumerate_pattern_profiles(scaled, 1)
    next(gen)
    with pytest.raises(BudgetExhausted):
        next(gen)
    # profiles the count check rejects still use up the budget, and no
    # rounding problem is built for them
    groups = slot_only_groups(scaled)
    verdicts = [profile_admits(groups, p) for p in enumerate_pattern_profiles(scaled, 10**6)]
    first = verdicts.index(True)
    assert first > 0
    built = []
    real_build = makespan.build_rounding_problem
    monkeypatch.setattr(
        makespan, "build_rounding_problem", lambda *args: built.append(1) or real_build(*args)
    )
    with pytest.raises(BudgetExhausted):
        makespan_decision(inst, 10, rat(1, 2), FullEnum(budget=first))
    assert built == []
    res = makespan_decision(inst, 10, rat(1, 2), FullEnum(budget=first + 1))
    assert len(built) == 1
    assert res.makespan <= guarantee_factor(rat(1, 2), 1) * 10


def _lp_feasible(scaled, profile) -> bool:
    try:
        solve_extreme_point(slot_lp(build_rounding_problem(scaled, profile)))
    except Infeasible:
        return False
    return True


def _slot_classes_routed(groups, profile) -> bool:
    present = {(t, q) for t, pats in enumerate(profile) for pat in pats for q in pat}
    return all(any(g in present for g in job_groups) for job_groups in groups)


@pytest.mark.parametrize("dims, machines", [(1, (2, 2)), (2, (2, 2)), (1, (1, 1, 2))])
def test_count_check_rejects_only_lp_infeasible_profiles(dims, machines):
    # every enumerated profile around the optimum: a rejection must be a
    # profile whose slot LP is infeasible (the check is only a necessary
    # condition), and the sweep must reject profiles by both parts of it
    route_rejects = hall_rejects = 0
    for seed in range(880, 900):
        inst = generate_instance(GeneratorSpec(4, dims, machines, 1, 10), seed)
        opt = rat(exact_solve(inst).optimum)
        eps = calibrate_eps(rat(1, 2), dims)
        for k in (-3, 0, 3):
            scaled = make_scaled_instance(inst, opt * (1 + eps) ** k, eps)
            groups = slot_only_groups(scaled)
            for profile in enumerate_pattern_profiles(scaled, 10**6):
                if profile_admits(groups, profile):
                    continue
                assert not _lp_feasible(scaled, profile), (seed, k, profile)
                if _slot_classes_routed(groups, profile):
                    hall_rejects += 1
                else:
                    route_rejects += 1
    assert route_rejects > 0 and hall_rejects > 0


def test_hall_check_counts_slots_per_group():
    # two jobs large on the single type, one slot of their class: each has a
    # route, but they cannot both have a slot
    inst = make_instance(1, [2], [[[8]], [[9]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    groups = slot_only_groups(scaled)
    q = scaled.entry(0, 0).klass
    assert groups == [((0, q),), ((0, q),)]
    assert not profile_admits(groups, (((), (q,)),))
    assert profile_admits(groups, (((q,), (q,)),))
    assert profile_admits(groups, (((), (q, q)),))
    assert not _lp_feasible(scaled, (((), (q,)),))


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
    assert scaled.large_cap == 2
    with pytest.raises(PatternOverflow):
        profile_from_schedule(scaled, Schedule(((0, 0), (0, 0), (0, 0))))


def test_pattern_over_capacity_is_a_bug():
    # slot_patterns and profile_from_schedule never yield this profile: three
    # class-(0,) slots have mass 3, above the capacity (1 + 1/2)^2 = 9/4
    inst = make_instance(1, [1], [[[10]], [[10]], [[10]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    assert scaled.capacity == rat(9, 4)
    with pytest.raises(InvariantViolation):
        build_rounding_problem(scaled, ((((0,), (0,), (0,)),),))


def test_slot_lp_row_count():
    # rows = n + slots + D * machines
    inst = make_instance(2, [2, 1], [[[2, 3], [4, 1]], [[9, 1], [2, 2]], [[1, 1], [1, 1]]])
    scaled = make_scaled_instance(inst, 10, rat(1, 2))
    profiles = list(enumerate_pattern_profiles(scaled, 10**6))
    profile = max(profiles, key=lambda p: sum(len(x) for pats in p for x in pats))
    lp = build_slot_lp(scaled, profile)
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
