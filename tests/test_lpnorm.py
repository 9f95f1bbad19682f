import collections
import functools
import hashlib
import itertools
import operator
import random
import time

import pytest

from typesched import convex, lpnorm, rounding
from typesched.errors import (
    BadExponent,
    BudgetExhausted,
    DimensionMismatch,
    GuessInconsistent,
    Infeasible,
    InfeasibleRegion,
    InvariantViolation,
)
from typesched.lpnorm import (
    FullEnum,
    Guess,
    _cost_table,
    _routable_mask,
    _run_guess,
    _type_options,
    HUGE,
    LARGE,
    Guided,
    LoadObjective,
    additive_tolerance,
    build_cp_model,
    build_cp_region,
    build_rounding_from_cp,
    calibrate_eps,
    enumerate_guesses,
    f_threshold,
    guess_from_schedule,
    region_admits,
    lpnorm_ptas,
    job_kind,
    solve_slot_cp,
)
from typesched.lp import EQ, GE, LE, LinearProgram, solve_extreme_point, vertex_start
from typesched.model import (
    GeneratorSpec,
    Schedule,
    evaluate_lp_norm_pow,
    generate_instance,
    greedy_schedule,
    make_instance,
)
from typesched.oracle import exact_solve
from typesched.rationals import ONE, ZERO, geometric_grid, is_integral, power, rat, rat_str
from typesched.rounding import RoundingEngine


def brute_f(p, eps):
    # smallest f with 1 + 2^p / f <= (1+eps)^p, by direct scan
    f = 1
    while 1 + 2 ** p / f > (1 + eps) ** p:
        f += 1
    return f


def test_f_threshold_examples():
    assert f_threshold(2, rat(1, 2)) == brute_f(2.0, 0.5) == 4
    assert f_threshold(2, 1) == brute_f(2.0, 1.0) == 2
    for p in (2, 3):
        for eps in (rat(1, 4), rat(1, 2), ONE):
            assert f_threshold(p, eps) == brute_f(float(p), float(eps))
    # ceiling floor case: huge eps makes f = 1
    assert f_threshold(2, 10) == 1


def test_f_threshold_guards():
    with pytest.raises(BadExponent):
        f_threshold(1, rat(1, 2))
    with pytest.raises(BadExponent):
        f_threshold(2, 0)


def test_power_mean_property_sampled():
    # power-mean check: sum g^p + (2 min G)^p <= (1+eps)^p sum g^p
    rng = random.Random(99)
    for _ in range(200):
        p = rng.choice([2, 3])
        eps = rng.choice([rat(1, 4), rat(1, 2), rat(1)])
        f = f_threshold(p, eps)
        G = [rng.uniform(0.1, 50.0) for _ in range(f)]
        lhs = sum(g ** p for g in G) + (2 * min(G)) ** p
        rhs = (1 + float(eps)) ** p * sum(g ** p for g in G)
        assert lhs <= rhs * (1 + 1e-12)


def test_calibrate_eps_lpnorm():
    def scan(eps_user):
        e = rat(eps_user)
        while not ((1 + 4 * e) * (1 + e) ** 2 <= 1 + rat(eps_user)):
            e = e / 2
        return e

    assert calibrate_eps(rat(1, 2)) == scan(rat(1, 2)) == rat(1, 16)
    assert calibrate_eps(1) == scan(1)
    e = calibrate_eps(rat(1, 4))
    assert (1 + 4 * e) * (1 + e) ** 2 <= rat(5, 4)


def test_size_class_round_down():
    eps = rat(1, 2)
    grid = geometric_grid(eps)
    # (3/2)^e <= c: c = 4 -> e = 3 ((3/2)^3 = 27/8 = 3.375 <= 4 < 5.0625)
    assert grid.round_down(rat(4)) == 3
    assert class_value_check(3, eps) <= 4 < class_value_check(4, eps)
    assert grid.value(3) == class_value_check(3, eps)
    assert grid.round_down(rat(1)) == 0
    assert grid.round_down(rat(1, 2)) == -2  # (2/3)^2 = 4/9 <= 1/2 < 2/3


def class_value_check(e, eps):
    return (1 + eps) ** e


def test_guess_extraction_all_huge():
    # every machine holds exactly one job: all huge, empty profiles
    inst = make_instance(1, [2], [[[5], ], [[7], ]])
    sched = Schedule(((0, 0), (0, 1)))
    guess = guess_from_schedule(inst, 2, rat(1, 2), sched)
    tg = guess.types[0]
    assert tg.huge_count == 2
    assert sorted(tg.very_huge) == [0, 1]
    assert tg.c_max is None and tg.profile == ()


def test_guess_extraction_identical_spread():
    # identical jobs spread evenly: h = 0, alpha = floor(load / c_max)
    inst = make_instance(1, [2], [[[3]], [[3]], [[3]], [[3]]])
    sched = Schedule(((0, 0), (0, 0), (0, 1), (0, 1)))
    guess = guess_from_schedule(inst, 2, rat(1, 2), sched)
    tg = guess.types[0]
    assert tg.huge_count == 0
    assert tg.c_max == 3
    assert tg.alpha == 2  # load 6 / c_max 3


def test_guess_extraction_rejects_unbalanced():
    inst = make_instance(1, [2], [[[3]], [[3]], [[3]], [[3]]])
    lopsided = Schedule(((0, 0), (0, 0), (0, 0), (0, 0)))
    # machine 1 empty while machine 0 carries 4 jobs: load difference 12 > 3
    with pytest.raises(GuessInconsistent):
        guess_from_schedule(inst, 2, rat(1, 2), lopsided)


def test_guided_guess_is_enumerable():
    rng = random.Random(17)
    for trial in range(5):
        spec = GeneratorSpec(3, 1, (1, 1), 1, 9)
        inst = generate_instance(spec, 60 + trial)
        opt = exact_solve(inst, "lp_norm", p=2)
        eps = rat(1, 2)  # coarse grid keeps the enumeration small
        guess = guess_from_schedule(inst, 2, eps, opt.witness)
        stream = list(enumerate_guesses(inst, 2, eps, 10**6))
        assert guess in stream
        # the carried bound takes no part in equality; extraction leaves it unset
        assert guess.lower_bound is None
        assert stream[stream.index(guess)].lower_bound is not None


@pytest.mark.parametrize(
    "n, machines", [(3, (1, 1)), (3, (2, 1)), (4, (2, 1)), (3, (1, 1, 1)), (4, (2, 2)), (4, (3,))]
)
def test_guided_guess_is_a_full_mode_guess_with_a_sound_bound(n, machines):
    # full mode enumerates the guess the oracle certificate induces, and the
    # bound it carries there is at most the optimum's p-th power (the
    # certificate is consistent with the guess), so at most the greedy
    # schedule's value too: full mode's greedy limit never skips that guess;
    # p alternates 2 and 3
    eps = rat(1, 2)  # coarse grid keeps the streams small
    tight = 0
    for seed in range(5000, 5020):
        p = 2 + seed % 2
        inst = generate_instance(GeneratorSpec(n, 1, machines, 1, 10), seed)
        opt = exact_solve(inst, "lp_norm", p=p)
        guess = guess_from_schedule(inst, p, eps, opt.witness)
        streamed = next(g for g in enumerate_guesses(inst, p, eps, 10**6) if g == guess)
        assert streamed.lower_bound <= opt.optimum, seed
        assert streamed.lower_bound <= evaluate_lp_norm_pow(inst, greedy_schedule(inst, p), p)
        tight += streamed.lower_bound == opt.optimum
    assert tight > 0


@pytest.mark.parametrize("machines", [(1, 1), (2, 1), (1, 1, 1)])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("eps_user", [rat(1, 2), ONE])
def test_seeded_full_mode_is_within_the_ratio_of_the_oracle(machines, p, eps_user):
    # full mode, pruning from the greedy value, against the brute-force
    # optimum in exact rationals
    for seed in range(7200, 7204):
        inst = generate_instance(GeneratorSpec(3, 1, machines, 1, 10), seed)
        opt = exact_solve(inst, "lp_norm", p=p)
        res = lpnorm_ptas(inst, p, eps_user, FullEnum(10**6))
        assert res.objective_pow <= (1 + eps_user) ** p * opt.optimum, seed


def test_cp_single_machine_all_small():
    # one non-huge machine, all jobs small (cost <= eps*alpha*c_max):
    # t1 = max(alpha*c_max, total load) and the objective is t1^p
    n = 16
    inst = make_instance(1, [1], [[[2]]] * n)
    sched = Schedule(tuple((0, 0) for _ in range(n)))
    eps = rat(1, 16)
    guess = guess_from_schedule(inst, 2, eps, sched)
    tg = guess.types[0]
    assert tg.c_max == 2 and tg.alpha == n  # load 32 / c_max 2
    assert rat(2) <= eps * tg.alpha * rat(tg.c_max)  # genuinely small
    model = build_cp_model(inst, 2, eps, guess)
    assert not model.slots
    cp = solve_slot_cp(model, 1e-6)
    assert cp.t_star[(0, 0)] == 32
    assert cp.objective_value == pytest.approx(1024.0, abs=1e-6)


def test_cp_two_machines_splits_evenly():
    # 2k identical small jobs on two identical machines: symmetric optimum
    inst = make_instance(1, [2], [[[1]]] * 6)
    sched = Schedule(((0, 0), (0, 0), (0, 0), (0, 1), (0, 1), (0, 1)))
    eps = rat(1, 16)
    guess = guess_from_schedule(inst, 2, eps, sched)
    model = build_cp_model(inst, 2, eps, guess)
    cp = solve_slot_cp(model, 1e-5)
    assert cp.objective_value == pytest.approx(18.0, abs=1e-3)


def test_cp_relaxation_below_oracle_and_lp_consistency():
    rng = random.Random(31)
    for trial in range(8):
        spec = GeneratorSpec(
            num_jobs=rng.randint(2, 6),
            dims=1,
            machine_counts=(rng.randint(1, 2), rng.randint(1, 2)),
            cost_min=1,
            cost_max=10,
        )
        inst = generate_instance(spec, 800 + trial)
        opt = exact_solve(inst, "lp_norm", p=2)
        eps = rat(1, 16)
        guess = guess_from_schedule(inst, 2, eps, opt.witness)
        model = build_cp_model(inst, 2, eps, guess)
        cp = solve_slot_cp(model, start=_start(model, opt.witness))
        # relaxation: CP value minus its certified gap lower-bounds the oracle
        assert cp.objective_value - cp.duality_gap <= float(opt.optimum) * (1 + 1e-9)
        # the CP point is feasible for the frozen-allowance LP
        lp = RoundingEngine(build_rounding_from_cp(model, cp.t_star))._build_lp()
        sol = solve_extreme_point(lp)
        huge_part = sum(
            float(model.routes[j].huge[t][1]) * float(cp.x.get(("h", j, t), 0))
            for j in model.routes
            for t in model.routes[j].huge
        )
        assert float(sol.objective_value) <= huge_part + 1e-9


def _start(model, schedule):
    from typesched.lpnorm import _warm_start

    return _warm_start(model, schedule)


def test_cp_against_grid_oracle():
    # 2 machines, 3 small jobs, K=1: exhaustive grid over the assignment polytope
    inst = make_instance(1, [2], [[[2]], [[3]], [[4]]])
    opt = exact_solve(inst, "lp_norm", p=2)
    eps = rat(1, 16)
    guess = guess_from_schedule(inst, 2, eps, opt.witness)
    model = build_cp_model(inst, 2, eps, guess)
    tol = 1e-4
    cp = solve_slot_cp(model, tol)
    tg = guess.types[0]
    floor_val = float(tg.alpha * rat(tg.c_max))
    costs = [2.0, 3.0, 4.0]
    steps = 60
    best = None
    for a in range(steps + 1):
        for b in range(steps + 1):
            for c in range(steps + 1):
                u0 = costs[0] * a / steps + costs[1] * b / steps + costs[2] * c / steps
                u1 = sum(costs) - u0
                val = max(u0, floor_val) ** 2 + max(u1, floor_val) ** 2
                if best is None or val < best:
                    best = val
    assert cp.objective_value <= best + tol + 1e-6


def test_ptas_single_machine_ratio_one():
    inst = make_instance(1, [1], [[[4]], [[9]]])
    opt = exact_solve(inst, "lp_norm", p=2)
    res = lpnorm_ptas(inst, 2, rat(1, 2), Guided(opt.witness))
    assert res.objective_pow == opt.optimum == 169


def test_ptas_identical_jobs_one_per_machine():
    # m identical jobs on m identical machines: strict convexity favors spreading
    for m in (2, 3):
        inst = make_instance(1, [m], [[[5]]] * m)
        opt = exact_solve(inst, "lp_norm", p=2)
        assert opt.optimum == m * 25
        res = lpnorm_ptas(inst, 2, rat(1, 2), Guided(opt.witness))
        assert rat(res.objective_pow) <= rat(9, 4) * rat(opt.optimum)


def test_ptas_guided_ratio_sampled():
    rng = random.Random(13)
    for trial in range(12):
        spec = GeneratorSpec(
            num_jobs=rng.randint(2, 6),
            dims=1,
            machine_counts=(rng.randint(1, 2), rng.randint(1, 2)),
            cost_min=1,
            cost_max=10,
        )
        inst = generate_instance(spec, 1200 + trial)
        opt = exact_solve(inst, "lp_norm", p=2)
        res = lpnorm_ptas(inst, 2, rat(1, 2), Guided(opt.witness))
        # ||g||_2 ratio <= 1.5 means the squared objective ratio is <= 2.25
        assert rat(res.objective_pow) <= rat(9, 4) * rat(opt.optimum)
        assert rat(res.objective_pow) >= rat(opt.optimum)


def test_ptas_full_enum_tiny():
    rng = random.Random(77)
    for trial in range(3):
        spec = GeneratorSpec(3, 1, (1, 1), 1, 9)
        inst = generate_instance(spec, 20 + trial)
        opt = exact_solve(inst, "lp_norm", p=2)
        res = lpnorm_ptas(inst, 2, rat(1, 2), FullEnum(budget=10**6))
        assert rat(res.objective_pow) <= rat(9, 4) * rat(opt.optimum)


def test_ptas_guards():
    inst2d = make_instance(2, [1], [[[1, 1]]])
    with pytest.raises(DimensionMismatch):
        lpnorm_ptas(inst2d, 2, rat(1, 2), FullEnum())
    inst = make_instance(1, [1], [[[1]]])
    with pytest.raises(BadExponent):
        lpnorm_ptas(inst, 1, rat(1, 2), FullEnum())


def test_tiny_guess_stream_contains_both_shapes():
    # 1 type, 1 machine, 1 job: the stream offers the all-huge guess and the
    # hosted guess with c_max equal to the job cost and alpha = 1
    inst = make_instance(1, [1], [[[5]]])
    stream = list(enumerate_guesses(inst, 2, rat(1, 2), 10**6))
    assert any(g.types[0].huge_count == 1 and g.types[0].very_huge == (0,) for g in stream)
    assert any(
        g.types[0].huge_count == 0 and g.types[0].c_max == 5 and g.types[0].alpha == 1
        for g in stream
    )


# (machine counts, jobs, seed) -> (guesses yielded, sha256 of their reprs),
# recorded before the enumeration was restructured; eps = calibrate_eps(1/2)
GUESS_STREAM_PINS = [
    ((1, 1), 3, 41, 486, "c6e7ff88779c50855931b0cbad85c82ba5d1917fb45ed90dd291bd7d04fbfea3"),
    ((2, 1), 3, 42, 3450, "993c6be489ffaa94d9a79f4db021dd30efd8daa0a5d3cb1a69f388ee0ae0b796"),
    ((1, 1), 4, 43, 1942, "8e56ff735981a9c6e860b56298c4825ac26aa3b6aa839b4b2376875c09b8fd8f"),
]


@pytest.mark.parametrize("counts,n,seed,count,digest", GUESS_STREAM_PINS)
def test_guess_stream_is_pinned(counts, n, seed, count, digest):
    # which guesses are yielded, and in what order, must not move; c_max is
    # rendered as 'a/b' so the digest does not depend on the rational backend
    inst = generate_instance(GeneratorSpec(n, 1, counts, 1, 10), seed)
    stream = list(enumerate_guesses(inst, 2, calibrate_eps(rat(1, 2)), 10**6))
    text = "\n".join(
        repr(tuple(
            (tg.huge_count, tg.very_huge, None if tg.c_max is None else rat_str(tg.c_max),
             tg.alpha, tg.profile)
            for tg in g.types
        ))
        for g in stream
    )
    assert len(stream) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# the eps = 1 stream lists f = 2 very-huge jobs per type, so the third
# machine of type 0 is a free huge machine and huge routes occur
ROUTE_STREAMS = [
    (counts, n, seed, calibrate_eps(rat(1, 2))) for counts, n, seed, _, _ in GUESS_STREAM_PINS
] + [((3, 1), 5, 44, ONE)]


@pytest.mark.parametrize("counts,n,seed,eps", ROUTE_STREAMS)
def test_routable_mask_is_the_routes_of_build_cp_model(counts, n, seed, eps):
    # the enumeration's filter and the CP builder share one split, so bit j
    # of a type's mask is set exactly when the built model routes j there
    inst = generate_instance(GeneratorSpec(n, 1, counts, 1, 10), seed)
    tables = [_cost_table(inst, t, eps) for t in range(inst.num_types)]
    checks = huge_routes = 0
    for guess in enumerate_guesses(inst, 2, eps, 10**6):
        model = build_cp_model(inst, 2, eps, guess)
        for t, tg in enumerate(guess.types):
            mask = _routable_mask(inst, eps, t, tg, tables[t])
            for j, routes in model.routes.items():
                on_type = (
                    t in routes.huge
                    or any(mk[0] == t for mk in routes.machine_costs)
                    or any(model.slots[s].machine[0] == t for s in routes.slots)
                )
                assert bool(mask >> j & 1) == on_type
                checks += 1
                huge_routes += t in routes.huge
    assert checks > 2000
    assert huge_routes > 0 if eps == ONE else huge_routes == 0


def ref_charge(cost, p):
    """lpnorm._charge, the rational p-th power rationals.power replaced."""
    if is_integral(p):
        return rat(cost) ** int(p)
    return rat(float(cost) ** float(p))


def ref_guess_lower_bound(inst, p, eps, guess):
    """The bound as computed before pattern masses were cached."""
    total = ZERO
    for t, tg in enumerate(guess.types):
        for j in tg.very_huge:
            total += ref_charge(inst.cost(j, t), p)
        if tg.c_max is None:
            continue
        floor_val = tg.alpha * rat(tg.c_max)
        for pat in tg.profile:
            mass = sum((geometric_grid(rat(eps)).value(e) for e in pat), ZERO)
            total += ref_charge(max(floor_val, mass), p)
    return total


@pytest.mark.parametrize("counts,n,seed,count,digest", GUESS_STREAM_PINS)
def test_guess_lower_bound_matches_uncached_masses(counts, n, seed, count, digest):
    # the bound each yielded guess carries, summed from per-type shares, is
    # exactly the bound priced from the whole guess
    inst = generate_instance(GeneratorSpec(n, 1, counts, 1, 10), seed)
    eps = calibrate_eps(rat(1, 2))
    for guess in enumerate_guesses(inst, 2, eps, 10**6):
        assert guess.lower_bound == ref_guess_lower_bound(inst, 2, eps, guess)


def ref_full_mode(inst, p, eps_user, budget, seeded=True):
    """lpnorm_ptas's full-mode loop as it was when every guess was priced
    against the incumbent: (best run, guesses tried).  Seeded, a guess also
    runs only if its bound is at most the greedy schedule's value, for
    integral p."""
    eps = calibrate_eps(eps_user)
    best = None
    limit = None
    if seeded and is_integral(p):
        limit = rat(evaluate_lp_norm_pow(inst, greedy_schedule(inst, p), p))
    tried = 0
    for guess in enumerate_guesses(inst, p, eps, budget):
        tried += 1
        bound = ref_guess_lower_bound(inst, p, eps, guess)
        if best is not None and bound > rat(best.objective_pow):
            continue
        if limit is not None and bound > limit:
            continue
        try:
            run = _run_guess(inst, p, eps, guess)
        except (Infeasible, InfeasibleRegion, GuessInconsistent):
            continue
        if best is None or rat(run.objective_pow) < rat(best.objective_pow):
            best = run
    return best, tried


# (machine counts, seed, eps_user) of n=3 instances; the three-type shape
# runs at the coarse eps only, its finer stream costs seconds per side
FULL_MODE_CASES = [
    (counts, seed, eps_user)
    for counts, seed in (((1, 1), 51), ((2, 1), 52), ((1, 2), 53))
    for eps_user in (rat(1, 2), ONE)
] + [((1, 1, 1), 59, ONE)]


@pytest.mark.parametrize("counts,seed,eps_user", FULL_MODE_CASES)
def test_full_mode_matches_the_per_guess_pricing_loop(counts, seed, eps_user, monkeypatch):
    # the carried bound prunes exactly the guesses the per-guess pricing did,
    # both seeded with the greedy value, and the seed saves CP models
    inst = generate_instance(GeneratorSpec(3, 1, counts, 1, 10), seed)
    built = []
    build = lpnorm.build_cp_model
    monkeypatch.setattr(lpnorm, "build_cp_model", lambda *a: built.append(1) or build(*a))
    ref_full_mode(inst, 2, eps_user, 10**6, seeded=False)
    unseeded_built = len(built)
    built.clear()
    ref, ref_tried = ref_full_mode(inst, 2, eps_user, 10**6)
    ref_built = len(built)
    built.clear()
    res = lpnorm_ptas(inst, 2, eps_user, FullEnum(10**6))
    assert res.schedule == ref.schedule
    assert res.objective_pow == ref.objective_pow
    assert res.guesses_tried == len(built)
    assert len(built) == ref_built < unseeded_built < ref_tried
    with pytest.raises(BudgetExhausted):
        ref_full_mode(inst, 2, eps_user, ref_tried - 1)
    # full mode's budget counts its work, not the stream: the solve's own
    # count passes and one unit less does not
    work = full_mode_work(inst, 2, eps_user, monkeypatch)
    assert lpnorm_ptas(inst, 2, eps_user, FullEnum(work)).schedule == res.schedule
    with pytest.raises(BudgetExhausted):
        lpnorm_ptas(inst, 2, eps_user, FullEnum(work - 1))


def full_mode_work(inst, p, eps_user, monkeypatch) -> int:
    """The units a full-mode solve at the default budget charges: one per
    type option listed and per node of the guess walk."""
    ledgers = []

    class Ledger(lpnorm._Work):
        def __init__(self, budget):
            super().__init__(budget)
            ledgers.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(lpnorm, "_Work", Ledger)
        lpnorm_ptas(inst, p, eps_user, FullEnum())
    (ledger,) = ledgers
    return ledger.spent


@pytest.mark.parametrize("counts,seed,eps_user", FULL_MODE_CASES)
def test_full_mode_has_no_greedy_seed_at_non_integral_p(counts, seed, eps_user, monkeypatch):
    # at p = 5/2 the bounds and the greedy value are float powers rounded
    # differently, so full mode builds the CP models of the unseeded loop,
    # guess for guess, some of them with a bound above the greedy value
    p = rat(5, 2)
    inst = generate_instance(GeneratorSpec(3, 1, counts, 1, 10), seed)
    bounds = []
    build = lpnorm.build_cp_model
    monkeypatch.setattr(
        lpnorm, "build_cp_model", lambda *a: bounds.append(a[3].lower_bound) or build(*a)
    )
    ref, _ = ref_full_mode(inst, p, eps_user, 10**6, seeded=False)
    ref_bounds = list(bounds)
    bounds.clear()
    res = lpnorm_ptas(inst, p, eps_user, FullEnum(10**6))
    assert (res.schedule, res.objective_pow, res.guesses_tried) == (
        ref.schedule, ref.objective_pow, len(bounds)
    )
    assert bounds == ref_bounds
    greedy = rat(evaluate_lp_norm_pow(inst, greedy_schedule(inst, p), p))
    assert any(b > greedy for b in bounds)


def ref_type_guess_options(inst, t, p, eps, table):
    """lpnorm's per-type option stream as it was before the options were
    listed once per key: the profiles are rebuilt per very-huge tuple."""
    n = inst.num_jobs
    m = inst.machine_counts[t]
    f = f_threshold(p, eps)
    costs = sorted({c for c, _ in table})
    for h in range(0, m + 1):
        for vh in itertools.combinations(range(n), min(f, h)):
            vh_sorted = tuple(sorted(vh, key=lambda j: (-table[j][0], j)))
            non_huge = m - h
            yield lpnorm.TypeGuess(h, vh_sorted, None, 1, tuple(() for _ in range(non_huge)))
            if non_huge == 0:
                continue
            for c_max in costs:
                for alpha in range(1, n + 1):
                    for profile in lpnorm._profiles_for(table, non_huge, c_max, alpha, eps):
                        yield lpnorm.TypeGuess(h, vh_sorted, c_max, alpha, profile)


def ref_type_lower_bound(inst, p, eps, t, tg):
    """lpnorm's per-option share as it was before its terms were memoised:
    the charge of each very-huge job plus max(alpha*c_max, pattern mass)^p
    per non-huge machine."""
    total = sum((rat(power(inst.cost(j, t), p)) for j in tg.very_huge), ZERO)
    if tg.c_max is not None:
        grid = geometric_grid(eps)
        floor_val = tg.alpha * tg.c_max
        for pat in tg.profile:
            mass = sum((grid.value(e) for e in pat), ZERO)
            total += rat(power(max(floor_val, mass), p))
    return total


def ref_enumerate_guesses(inst, p, eps, budget):
    """enumerate_guesses as it was before the completion walk: every
    combination of the product, filtered one by one."""
    p, eps = rat(p), rat(eps)
    options = []
    for t in range(inst.num_types):
        table = _cost_table(inst, t, eps)
        options.append([
            (tg, sum(1 << j for j in tg.very_huge), ref_routable_mask(inst, eps, t, tg, table),
             ref_type_lower_bound(inst, p, eps, t, tg))
            for tg in ref_type_guess_options(inst, t, p, eps, table)
        ])
    every_job = (1 << inst.num_jobs) - 1
    yielded = 0
    for combo in itertools.product(*options):
        pinned = routed = 0
        for _, vh, routes, _ in combo:
            if pinned & vh:
                break
            pinned |= vh
            routed |= routes
        else:
            if pinned | routed != every_job:
                continue
            if yielded >= budget:
                raise BudgetExhausted(f"guess budget {budget} exhausted")
            yielded += 1
            bound = functools.reduce(operator.add, (lb for *_, lb in combo))
            yield Guess(tuple(tg for tg, *_ in combo), bound)


def yields_before_exhaustion(stream) -> int:
    count = 0
    with pytest.raises(BudgetExhausted):
        for _ in stream:
            count += 1
    return count


# (machine counts, jobs, seed, eps_user): K = 1, 2 and 3
STREAM_CASES = [
    ((2,), 3, 61, rat(1, 2)),
    ((3,), 4, 65, ONE),
    ((1, 1), 3, 62, rat(1, 2)),
    ((2, 1), 3, 63, ONE),
    ((1, 1, 1), 3, 64, ONE),
    ((1, 1, 1), 2, 66, rat(1, 2)),
]


@pytest.mark.parametrize("counts,n,seed,eps_user", STREAM_CASES)
def test_completion_walk_yields_the_product_stream(counts, n, seed, eps_user):
    # same guesses in the same order, the same exact bounds, and the budget
    # cuts the stream at the same yield
    inst = generate_instance(GeneratorSpec(n, 1, counts, 1, 10), seed)
    eps = calibrate_eps(eps_user)
    ref = list(ref_enumerate_guesses(inst, 2, eps, 10**6))
    walk = list(enumerate_guesses(inst, 2, eps, 10**6))
    assert [g.types for g in walk] == [g.types for g in ref]
    assert [g.lower_bound for g in walk] == [g.lower_bound for g in ref]
    total = len(ref)
    assert total > 10
    for budget in sorted({0, 1, total // 2, total - 1}):
        assert yields_before_exhaustion(enumerate_guesses(inst, 2, eps, budget)) == budget
        assert yields_before_exhaustion(ref_enumerate_guesses(inst, 2, eps, budget)) == budget
    assert len(list(enumerate_guesses(inst, 2, eps, total))) == total


@pytest.mark.parametrize("p", [2, rat(5, 2)])
@pytest.mark.parametrize("counts,n,seed,eps_user", STREAM_CASES)
def test_walk_keeps_exactly_the_stream_under_its_limit(counts, n, seed, eps_user, p):
    # with no limit, at the greedy value and at a run's value, full mode's
    # walk keeps the stream's guesses with bound at most the limit, in
    # stream order with the same exact bounds
    inst = generate_instance(GeneratorSpec(n, 1, counts, 1, 10), seed)
    eps = calibrate_eps(eps_user)
    p = rat(p)
    stream = list(enumerate_guesses(inst, p, eps, 10**6))
    greedy = rat(evaluate_lp_norm_pow(inst, greedy_schedule(inst, p), p))
    run = rat(lpnorm_ptas(inst, p, eps_user, FullEnum()).objective_pow)
    assert run <= greedy
    for limit in (None, greedy, run):
        options = [_type_options(inst, t, p, eps, limit) for t in range(inst.num_types)]
        found = [g for _, g in lpnorm._survivors(inst.num_jobs, options, limit, lpnorm._Work())]
        kept = [g for g in stream if limit is None or g.lower_bound <= limit]
        assert [g.types for g in found] == [g.types for g in kept]
        assert [g.lower_bound for g in found] == [g.lower_bound for g in kept]
    assert 0 < len(found) < len(stream)


@pytest.mark.parametrize("counts,n,seed,eps", ROUTE_STREAMS)
def test_type_options_are_the_reference_lists(counts, n, seed, eps):
    # the options listed once per key are the per-option reference lists item
    # by item: positions, guesses, very-huge masks, route masks and shares;
    # under the greedy limit every reference option left out has its share
    # above the limit
    inst = generate_instance(GeneratorSpec(n, 1, counts, 1, 10), seed)
    greedy = rat(evaluate_lp_norm_pow(inst, greedy_schedule(inst, 2), 2))
    skipped = 0
    for t in range(inst.num_types):
        table = _cost_table(inst, t, eps)
        ref = list(ref_type_guess_options(inst, t, 2, eps, table))
        for limit in (None, greedy):
            work = lpnorm._Work()
            options = _type_options(inst, t, 2, eps, limit, work)
            assert work.spent == len(options)
            for pos, tg, vh, routes, share in options:
                assert tg == ref[pos]
                assert vh == sum(1 << j for j in tg.very_huge)
                assert routes == _routable_mask(inst, eps, t, tg, table)
                assert share == ref_type_lower_bound(inst, 2, eps, t, tg)
            listed = [pos for pos, *_ in options]
            assert listed == sorted(set(listed))
            if limit is None:
                assert listed == list(range(len(ref)))
            for pos in set(range(len(ref))) - set(listed):
                assert ref_type_lower_bound(inst, 2, eps, t, ref[pos]) > limit
                skipped += 1
    assert skipped > 0


# (machine counts, jobs, seed, assignment, objective, guesses run) of
# full-mode solves at p = 2, eps_user = 1/2 and the default budget.  The
# (2,2) schedules were recorded while full mode still streamed every guess
# (1.5-3.4 s per solve), the (3,3), n=7 one by an unbudgeted solve while
# counting the stream alone spent the default budget
REACH_PINS = [
    ((2, 2), 5, 0, ((0, 0), (0, 0), (0, 1), (1, 1), (1, 0)), 206, 96),
    ((2, 2), 5, 1, ((0, 1), (0, 0), (0, 0), (1, 1), (1, 0)), 105, 34),
    ((3, 3), 7, 0, ((0, 1), (0, 2), (0, 0), (1, 2), (1, 1), (1, 0), (1, 0)), 241, 465),
]


@pytest.mark.parametrize("counts,n,seed,assignment,objective,tried", REACH_PINS)
def test_full_mode_reach_is_pinned(counts, n, seed, assignment, objective, tried):
    inst = generate_instance(GeneratorSpec(n, 1, counts, 1, 10), seed)
    res = lpnorm_ptas(inst, 2, rat(1, 2), FullEnum())
    assert (res.schedule.assignment, res.objective_pow, res.guesses_tried) == (
        assignment, objective, tried
    )


def test_full_mode_finishes_a_stream_past_its_budget():
    # (3,3), n=6: a stream of 65,920,135 guesses, far past the default
    # budget, solved by walking the guesses under the greedy value and
    # running 46 of them (about 0.1 s on a 2-CPU x86-64 machine; the bound
    # leaves room for slow ones)
    inst = generate_instance(GeneratorSpec(6, 1, (3, 3), 1, 10), 1)
    start = time.perf_counter()
    res = lpnorm_ptas(inst, 2, rat(1, 2), FullEnum())
    assert time.perf_counter() - start < 20
    assert res.guesses_tried == 46
    assert res.objective_pow <= evaluate_lp_norm_pow(inst, greedy_schedule(inst, 2), 2)


# (machine counts, seed, stride): instances whose streams hold guesses with
# an empty region; the three-type streams are checked at every stride-th guess
REGION_CASES = [((1, 1), 30, 1), ((2, 1), 37, 1), ((1, 2), 37, 1), ((1, 1, 1), 34, 4)]


@pytest.mark.parametrize("eps_user", [rat(1, 2), ONE])
@pytest.mark.parametrize("counts,seed,stride", REGION_CASES)
def test_region_check_refutes_exactly_the_empty_regions(counts, seed, stride, eps_user):
    # a refuted guess's convex solve finds its region empty; an admitted one
    # solves (every tenth admitted guess is solved, every refuted one is)
    inst = generate_instance(GeneratorSpec(3, 1, counts, 1, 10), seed)
    eps = calibrate_eps(eps_user)
    refuted = admitted = 0
    for i, guess in enumerate(enumerate_guesses(inst, 2, eps, 10**6)):
        if i % stride:
            continue
        model = build_cp_model(inst, 2, eps, guess)
        if not region_admits(model):
            with pytest.raises(InfeasibleRegion):
                solve_slot_cp(model)
            refuted += 1
            continue
        if admitted % 10 == 0:
            solve_slot_cp(model)
        admitted += 1
    assert refuted > 10 and admitted > 100


@pytest.mark.parametrize("unpinned", [1, 2, 3])
def test_region_check_counts_huge_routes_against_the_budget(unpinned):
    # one type of three machines, all huge, job 0 pinned alone: the other
    # jobs, all shorter, have only the huge route of the type and compete
    # for its two free huge machines
    inst = make_instance(1, [3], [[[9]]] + [[[c]] for c in range(2, 2 + unpinned)])
    guess = Guess((lpnorm.TypeGuess(3, (0,), None, 1, ()),))
    model = build_cp_model(inst, 2, ONE, guess)
    assert model.budgets == {0: 2}
    assert len(model.routes) == unpinned
    assert all(set(r.huge) == {0} and not r.machine_costs and not r.slots
               for r in model.routes.values())
    assert region_admits(model) == (unpinned <= 2)
    if unpinned <= 2:
        solve_slot_cp(model)
        _run_guess(inst, 2, ONE, guess)
    else:
        with pytest.raises(InfeasibleRegion):
            solve_slot_cp(model)
        with pytest.raises(InfeasibleRegion):
            _run_guess(inst, 2, ONE, guess)


def test_lp_without_huge_jobs_has_plain_slot_shape():
    # no huge routes: rows are exactly jobs + slots + one capacity row per
    # machine carrying a small route (coarse eps makes the cost-1 jobs small)
    inst = make_instance(1, [2], [[[3]], [[3]], [[1]], [[1]]])
    sched = Schedule(((0, 0), (0, 1), (0, 0), (0, 1)))
    eps = rat(1, 2)
    guess = guess_from_schedule(inst, 2, eps, sched)
    model = build_cp_model(inst, 2, eps, guess)
    assert not model.budgets
    assert len(model.slots) == 2  # one large-class slot per machine
    cp = solve_slot_cp(model, 1e-6)
    lp = RoundingEngine(build_rounding_from_cp(model, cp.t_star))._build_lp()
    assert lp.num_rows == inst.num_jobs + len(model.slots) + len(model.small_machines)
    assert not lp.objective  # huge charges absent


def test_non_integer_exponent_uses_float_certification():
    # p = 5/2: evaluation and the CP certificate run on the float path
    inst = make_instance(1, [1, 1], [[[4], [7]], [[6], [2]], [[3], [3]], [[5], [8]]])
    opt = exact_solve(inst, "lp_norm", p=rat(5, 2))
    res = lpnorm_ptas(inst, rat(5, 2), rat(1, 2), Guided(opt.witness))
    ratio = (float(res.objective_pow) / float(opt.optimum)) ** (1 / 2.5)
    assert 1 - 1e-9 <= ratio <= 1.5 + 1e-9


# ---------------------------------------------------------------------------
# reference code: the CP region builder and the two objective classes that
# build_cp_region and LoadObjective replaced, copied unchanged apart from
# their names, their column keys (once "|"-joined strings, now the route
# triples and ("t", mk)) and a local import moved to the top


def ref_var_names(j, routes):
    for mk in routes.machine_costs:
        yield ("m", j, mk), ("m", mk)
    for s in sorted(routes.slots):
        yield ("s", j, s), ("s", s)
    for t in sorted(routes.huge):
        yield ("h", j, t), ("h", t)


def ref_load_var(mk) -> tuple:
    return ("t", mk)


def ref_build_cp_region(model, with_loads: bool = False) -> LinearProgram:
    """Assignment, huge-budget and slot rows; loads live in the objective.

    with_loads adds one allowance variable per non-huge machine together
    with the rows  small_load <= t_i  and  t_i >= alpha*c_max - B_i; the
    solver iterates on this smooth formulation (the eliminated max() form
    puts a kink exactly where optima sit, which stalls float iterates and
    inflates subgradient-based gap certificates).
    """
    lp = LinearProgram()
    slot_vars: dict[int, list] = {s: [] for s in model.slots}
    budget_vars: dict[int, list] = {t: [] for t in model.budgets}
    machine_terms: dict[tuple, dict] = {mk: {} for mk in model.small_machines}
    for j in sorted(model.routes):
        row = {}
        routes = model.routes[j]
        for name, (kind, target) in ref_var_names(j, routes):
            lp.add_variable(name)
            row[name] = 1
            if kind == "s":
                slot_vars[target].append(name)
            elif kind == "h":
                budget_vars[target].append(name)
            else:
                machine_terms[target][name] = routes.machine_costs[target][0]
        lp.add_constraint(row, EQ, 1)
    for s in sorted(model.slots):
        if slot_vars[s]:
            lp.add_constraint({v: 1 for v in slot_vars[s]}, LE, 1)
    for t in sorted(model.budgets):
        if budget_vars[t]:
            lp.add_constraint({v: 1 for v in budget_vars[t]}, LE, model.budgets[t])
    if with_loads:
        for mk in model.small_machines:
            tvar = lp.add_variable(ref_load_var(mk))
            coeffs = dict(machine_terms[mk])
            coeffs[tvar] = -1
            lp.add_constraint(coeffs, LE, 0)
            floor_val = model.load_floor[mk] - model.pattern_mass[mk]
            if floor_val > 0:
                lp.add_constraint({tvar: 1}, GE, floor_val)
    return lp


class RefLoadPowObjective:
    """sum over non-huge machines of max(u_i + B_i, alpha*c_max)^p plus the
    linear huge charges and the constant very-huge term."""

    def __init__(self, model):
        self.p = model.p
        self.exact_p = is_integral(model.p)
        self.machines = []
        coeff_of: dict[tuple[int, int], dict] = {
            mk: {} for mk in model.small_machines
        }
        self.linear: dict = {}
        for j, routes in model.routes.items():
            for name, (kind, target) in ref_var_names(j, routes):
                if kind == "m":
                    coeff_of[target][name] = routes.machine_costs[target][0]
                elif kind == "h":
                    self.linear[name] = routes.huge[target][1]
        for mk in model.small_machines:
            self.machines.append(
                (mk, coeff_of[mk], model.pattern_mass[mk], model.load_floor[mk])
            )
        self.const = sum((ref_charge(v, model.p) for v in model.vh_loads.values()), ZERO)
        if self.exact_p:
            # expose the exact paths only when p is integral; the convex
            # solver certifies in rational arithmetic iff they exist
            self.exact_value = self._exact_value
            self.exact_gradient = self._exact_gradient
        else:
            self.const = float(self.const)

    def _pow_f(self, x: float) -> float:
        return x ** float(self.p)

    def value(self, x: dict) -> float:
        total = float(self.const)
        for _, coeffs, B, floor_val in self.machines:
            u = sum(float(c) * x.get(v, 0.0) for v, c in coeffs.items())
            total += self._pow_f(max(u + float(B), float(floor_val)))
        total += sum(float(c) * x.get(v, 0.0) for v, c in self.linear.items())
        return total

    def gradient(self, x: dict) -> dict:
        g = {v: float(c) for v, c in self.linear.items()}
        pf = float(self.p)
        for _, coeffs, B, floor_val in self.machines:
            u = sum(float(c) * x.get(v, 0.0) for v, c in coeffs.items())
            load = u + float(B)
            if load >= float(floor_val):
                scale = pf * load ** (pf - 1)
                for v, c in coeffs.items():
                    g[v] = g.get(v, 0.0) + scale * float(c)
        return g

    def _exact_value(self, x: dict):
        k = int(self.p)
        total = rat(self.const)
        for _, coeffs, B, floor_val in self.machines:
            u = sum((rat(c) * x.get(v, ZERO) for v, c in coeffs.items()), ZERO)
            total += max(u + B, floor_val) ** k
        total += sum((rat(c) * x.get(v, ZERO) for v, c in self.linear.items()), ZERO)
        return total

    def _exact_gradient(self, x: dict) -> dict:
        k = int(self.p)
        g = {v: rat(c) for v, c in self.linear.items()}
        for _, coeffs, B, floor_val in self.machines:
            u = sum((rat(c) * x.get(v, ZERO) for v, c in coeffs.items()), ZERO)
            load = u + B
            if load >= floor_val:
                scale = k * load ** (k - 1)
                for v, c in coeffs.items():
                    g[v] = g.get(v, ZERO) + scale * rat(c)
        return g


class RefSmoothLoadObjective:
    """(t_i + B_i)^p over explicit allowance variables, plus linear charges.

    Differentiable everywhere; the conditional-gradient certificate is the
    plain gradient gap.  Used only inside the solver; reporting and the
    frozen-allowance LP use the eliminated form.
    """

    def __init__(self, model):
        self.p = model.p
        self.exact_p = is_integral(model.p)
        self.terms = [
            (ref_load_var(mk), model.pattern_mass[mk]) for mk in model.small_machines
        ]
        self.linear: dict = {}
        for j, routes in model.routes.items():
            for t in routes.huge:
                self.linear["h", j, t] = routes.huge[t][1]
        self.const = sum((ref_charge(v, model.p) for v in model.vh_loads.values()), ZERO)
        if self.exact_p:
            self.exact_value = self._exact_value
            self.exact_gradient = self._exact_gradient
        else:
            self.const = float(self.const)

    def value(self, x: dict) -> float:
        pf = float(self.p)
        total = float(self.const)
        for tvar, B in self.terms:
            total += (x.get(tvar, 0.0) + float(B)) ** pf
        total += sum(float(c) * x.get(v, 0.0) for v, c in self.linear.items())
        return total

    def gradient(self, x: dict) -> dict:
        pf = float(self.p)
        g = {v: float(c) for v, c in self.linear.items()}
        for tvar, B in self.terms:
            g[tvar] = pf * (x.get(tvar, 0.0) + float(B)) ** (pf - 1)
        return g

    def _exact_value(self, x: dict):
        k = int(self.p)
        total = rat(self.const)
        for tvar, B in self.terms:
            total += (x.get(tvar, ZERO) + B) ** k
        total += sum((rat(c) * x.get(v, ZERO) for v, c in self.linear.items()), ZERO)
        return total

    def _exact_gradient(self, x: dict) -> dict:
        k = int(self.p)
        g = {v: rat(c) for v, c in self.linear.items()}
        for tvar, B in self.terms:
            g[tvar] = k * (x.get(tvar, ZERO) + B) ** (k - 1)
        return g


def bits(x):
    return type(x).__name__, x.hex()


def float_items(d):
    return [(v, bits(g)) for v, g in d.items()]


@pytest.mark.parametrize("p", [2, 3, rat(5, 2)])
def test_region_and_objective_match_the_code_they_replaced(p):
    # eps = 1 lists only f = 2 very-huge jobs per type, so the models carry
    # huge routes as well as small loads; seed 302 solves to a fractional point
    rng = random.Random(23)
    eps = ONE
    exact = p != rat(5, 2)
    for seed in range(300, 304):
        inst = generate_instance(GeneratorSpec(7, 1, (4, 1), 1, 10), seed)
        opt = exact_solve(inst, "lp_norm", p=p)
        model = build_cp_model(inst, p, eps, guess_from_schedule(inst, p, eps, opt.witness))
        new = LoadObjective(model)
        smooth, eliminated = RefSmoothLoadObjective(model), RefLoadPowObjective(model)
        assert hasattr(new, "exact_value") == hasattr(new, "exact_gradient") == exact
        assert hasattr(smooth, "exact_gradient") == exact
        # same columns and the same rows in the same order: Bland's pivots follow it
        region, ref_region = build_cp_region(model), ref_build_cp_region(model, with_loads=True)
        assert region.variables == ref_region.variables
        assert [(list(c.coeffs.items()), c.rel, c.rhs) for c in region.constraints] == [
            (list(c.coeffs.items()), c.rel, c.rhs) for c in ref_region.constraints
        ]
        start = _start(model, opt.witness)
        cp = solve_slot_cp(model, 1e-6, start=start)
        variables = region.variables
        points = [start, cp.x] + [
            {v: rat(rng.randint(0, 12), rng.randint(1, 12)) for v in variables} for _ in range(6)
        ]
        for point in points:
            xf = {v: float(x) for v, x in point.items()}
            # smooth form, float: bit for bit
            assert bits(new.value(xf)) == bits(smooth.value(xf))
            assert float_items(new.gradient(xf)) == float_items(smooth.gradient(xf))
            # eliminated form at the route coordinates
            routes = {v: x for v, x in point.items() if v[0] != "t"}
            routes_f = {v: float(x) for v, x in routes.items()}
            assert bits(new.eliminated_value(routes, False)) == bits(eliminated.value(routes_f))
            for mk, coeffs, B, floor_val in eliminated.machines:
                u = sum((rat(c) * routes.get(v, ZERO) for v, c in coeffs.items()), ZERO)
                assert new.allowances(routes)[mk] == max(u, floor_val - B)
            if exact:
                assert new.exact_value(point) == smooth.exact_value(point)
                assert list(new.exact_gradient(point).items()) == list(
                    smooth.exact_gradient(point).items()
                )
                expected = float(eliminated.exact_value(routes))
                assert bits(new.eliminated_value(routes, True)) == bits(expected)
        # the full-mode incumbent: the eliminated form in floats at the zero point
        zero = {name: 0.0 for j, r in model.routes.items() for name, _ in ref_var_names(j, r)}
        assert bits(new.eliminated_value({}, False)) == bits(eliminated.value(zero))


class FullLoop:
    """An objective's gradient without its support, so the line search
    loops over every variable."""

    def __init__(self, objective):
        self.gradient = objective.gradient


def test_line_search_on_the_support_takes_the_full_loop_step(monkeypatch):
    # bit for bit against the loop over every variable: random points and
    # directions on eps = 1 models with huge routes (their charges are the
    # linear part of the support), then every line search, Frank-Wolfe and
    # pairwise, of guided solves at n=40 on (5,5) machines from greedy
    # certificates (seeds 100-129: since the first LMO call starts at the
    # warm start's vertex, seeds 100-119 alone make fewer than 100 searches)
    line_min = convex._line_min
    searches = interior = 0

    def both(objective, x, d, hi):
        nonlocal searches, interior
        assert len(objective.support) < len(x)
        step = line_min(objective, x, d, hi)
        assert bits(step) == bits(line_min(FullLoop(objective), x, d, hi))
        searches += 1
        interior += 0 < step < hi
        return step

    rng = random.Random(37)
    for seed in range(300, 304):
        inst = generate_instance(GeneratorSpec(7, 1, (4, 1), 1, 10), seed)
        opt = exact_solve(inst, "lp_norm", p=2)
        model = build_cp_model(inst, 2, ONE, guess_from_schedule(inst, 2, ONE, opt.witness))
        objective = LoadObjective(model)
        assert objective.linear
        variables = build_cp_region(model).variables
        for _ in range(50):
            x = {v: rng.uniform(0, 3) for v in variables}
            d = {v: rng.uniform(-2, 2) for v in variables}
            both(objective, x, d, rng.uniform(1, 100))
    assert interior > 50

    monkeypatch.setattr(convex, "_line_min", both)
    searches = interior = 0
    for seed in range(100, 130):
        inst = generate_instance(GeneratorSpec(40, 1, (5, 5), 1, 10), seed)
        lpnorm_ptas(inst, 2, rat(1, 2), Guided(greedy_schedule(inst, 2)))
    assert searches > 100 and interior > 100


def test_zero_point_tolerance_is_priced_in_floats():
    # with no warm start (full mode) the tolerance comes from the eliminated
    # form summed in floats at the zero point; on these guesses that sum
    # differs in the last bit from the exact value rounded once
    inst = generate_instance(GeneratorSpec(3, 1, (1, 2), 1, 1000), 0)
    eps = calibrate_eps(rat(1, 2))
    checked = 0
    for guess in enumerate_guesses(inst, 2, eps, 10**6):
        model = build_cp_model(inst, 2, eps, guess)
        ref = RefLoadPowObjective(model)
        zero = {name: 0.0 for j, r in model.routes.items() for name, _ in ref_var_names(j, r)}
        in_floats = additive_tolerance(model, ref.value(zero))
        if in_floats == additive_tolerance(model, float(ref.exact_value(zero))):
            continue
        try:
            cp = solve_slot_cp(model)
        except InfeasibleRegion:
            continue
        assert cp.tolerance == in_floats
        checked += 1
    assert checked > 0


def test_infeasible_warm_start_raises_invariant_violation():
    inst = make_instance(1, [2], [[[3]], [[3]], [[1]], [[1]]])
    sched = Schedule(((0, 0), (0, 1), (0, 0), (0, 1)))
    eps = rat(1, 2)
    model = build_cp_model(inst, 2, eps, guess_from_schedule(inst, 2, eps, sched))
    bad = {v: ZERO for v in _start(model, sched)}  # every assignment row reads 0 = 1
    with pytest.raises(InvariantViolation):
        solve_slot_cp(model, 1e-6, start=bad)


def ref_routable_mask(inst, eps, t, tg, table):
    # the route rule as the enumeration filter wrote it before the CP builder
    # shared it: huge up to the shortest very-huge cost, large into a profile
    # class, small onto any non-huge machine
    if inst.machine_counts[t] == 0:
        return 0
    free_huge = tg.huge_count - len(tg.very_huge)
    floor = min((rat(inst.cost(j, t)) for j in tg.very_huge), default=None)
    kind = job_kind(tg.c_max, tg.alpha, eps)
    mask = 0
    for j, (c, e) in enumerate(table):
        k = kind(c)
        if k is HUGE:
            ok = free_huge > 0 and floor is not None and c <= floor
        elif k is LARGE:
            ok = any(e in pat for pat in tg.profile)
        else:
            ok = inst.machine_counts[t] - tg.huge_count > 0
        if ok:
            mask |= 1 << j
    return mask


@pytest.mark.parametrize("counts,n,seed,eps", ROUTE_STREAMS)
def test_routable_mask_matches_the_reference_rule(counts, n, seed, eps):
    # every type option the enumeration considers, not only yielded guesses
    inst = generate_instance(GeneratorSpec(n, 1, counts, 1, 10), seed)
    options = set_bits = 0
    for t in range(inst.num_types):
        table = _cost_table(inst, t, eps)
        for tg in ref_type_guess_options(inst, t, 2, eps, table):
            mask = _routable_mask(inst, eps, t, tg, table)
            assert mask == ref_routable_mask(inst, eps, t, tg, table)
            options += 1
            set_bits += bin(mask).count("1")
    assert options >= 50 and 0 < set_bits < options * n


# ---------------------------------------------------------------------------
# the rounding engine starts from the convex solution's point


def route_point(outcome) -> set:
    """The route columns a rounding outcome commits without merges."""
    return ({("m", j, mk) for j, mk in outcome.machine_assign.items()}
            | {("s", j, s) for s, j in outcome.slot_assign.items()}
            | {("h", j, t) for j, t in outcome.huge_assign.items()})


def test_rounding_commits_an_integral_convex_point(monkeypatch):
    from test_pinned_outputs import guided_instance

    # an engine handed an integral point commits it in one forced round
    # without the simplex; one handed a fractional point rounds as an engine
    # handed none, outcome and stats included
    tally = collections.Counter()  # (shape, integral or fractional) -> engines
    budget_rows = collections.Counter()  # shape -> forced first rounds with a budget row
    simplex_calls = [0]
    simplex = rounding.solve_extreme_point
    shape = [None]

    def counted(lp, start=None):
        simplex_calls[0] += 1
        return simplex(lp, start)

    class Checked(rounding.RoundingEngine):
        def __init__(self, problem, point=None):
            super().__init__(problem, point)
            self.point = point

        def _forced_point(self, *args):
            if self.stats.lp_solves == 0:
                budget_rows[shape[0]] += bool(self.live_types)
            return super()._forced_point(*args)

        def run(self):
            before = simplex_calls[0]
            outcome = super().run()
            if all(x == 0 or x == 1 for x in self.point.values()):
                assert simplex_calls[0] == before
                assert (outcome.stats.lp_solves, outcome.stats.iterations) == (1, 0)
                assert route_point(outcome) == {v for v, x in self.point.items() if x == 1}
                tally[shape[0], "integral"] += 1
            else:
                assert rounding.RoundingEngine(self.problem).run() == outcome
                tally[shape[0], "fractional"] += 1
            return outcome

    monkeypatch.setattr(rounding, "solve_extreme_point", counted)
    monkeypatch.setattr(lpnorm, "RoundingEngine", Checked)
    half = rat(1, 2)
    shape[0] = "guided (3,3)"  # the lpnorm-guided shape; seed 3's point is fractional
    for seed in (3, 56, 57, 58, 59):
        inst = guided_instance(seed)
        lpnorm_ptas(inst, 2, half, Guided(greedy_schedule(inst, 2)))
    shape[0] = "full (1,1)"
    for seed in range(30, 36):
        inst = generate_instance(GeneratorSpec(3, 1, (1, 1), 1, 10), seed)
        lpnorm_ptas(inst, 2, half, FullEnum(10**6))
    # 20 machines of type 0 give it huge machines past the pinned ones, so
    # the first round holds a budget row
    shape[0] = "guided (20,2)"
    inst = generate_instance(GeneratorSpec(24, 1, (20, 2), 1, 10), 2)
    lpnorm_ptas(inst, 2, ONE, Guided(greedy_schedule(inst, 2)))
    assert budget_rows["guided (20,2)"] == 1, budget_rows
    assert tally["guided (3,3)", "integral"] >= 3 and tally["full (1,1)", "integral"] >= 3, tally
    assert tally["guided (3,3)", "fractional"] >= 1, tally
    assert tally["guided (20,2)", "integral"] == 1, tally


def guided_shapes():
    """(p, eps_user, instance, certificate) of the lpnorm-guided pool shape
    (seeds 56-59), the (20,2) shape whose first round holds a budget row, and
    the guided L_p sweeps of the acceptance suite."""
    from test_acceptance import SWEEP_JOBS, SWEEP_SEEDS
    from test_pinned_outputs import guided_instance

    for seed in range(56, 60):
        inst = guided_instance(seed)
        yield 2, rat(1, 2), inst, greedy_schedule(inst, 2)
    inst = generate_instance(GeneratorSpec(24, 1, (20, 2), 1, 10), 2)
    yield 2, ONE, inst, greedy_schedule(inst, 2)
    for p in (rat(3, 2), rat(3)):
        for counts in ((1, 1, 1), (2, 1), (2, 2, 1)):
            for n in SWEEP_JOBS:
                for s in SWEEP_SEEDS:
                    inst = generate_instance(GeneratorSpec(n, 1, counts, 1, 10), 9300 + 10 * n + s)
                    witness = exact_solve(inst, "lp_norm", p=p).witness
                    for eps_user in (rat(1, 4), ONE):
                        yield p, eps_user, inst, witness


def test_guided_regions_start_at_the_warm_start_vertex(monkeypatch):
    # the warm start is a vertex of its region (module docstring of lpnorm),
    # so vertex_start never falls back to phase 1 on these shapes, and it
    # takes at most one pivot per positive coordinate and one drive-out per row
    starts = []

    def recorded(lp, point):
        start = vertex_start(lp, point)
        assert start is not None
        positive = sum(1 for x in point.values() if x > 0)
        assert start.pivots <= positive + lp.num_rows
        starts.append(start.pivots)
        return start

    monkeypatch.setattr(convex, "vertex_start", recorded)
    runs = 0
    for p, eps_user, inst, witness in guided_shapes():
        lpnorm_ptas(inst, p, eps_user, Guided(witness))
        runs += 1
    assert len(starts) == runs and runs > 280
    assert sum(starts) > 0


def test_an_integral_warm_start_point_keeps_the_certificate_value(monkeypatch):
    # when the engine's point is the warm start, the rounding commits the
    # certificate's routes, so at integral p the schedule's value is the
    # certificate's exactly
    warm, points = [], []
    warm_start = lpnorm._warm_start

    def recorded_warm_start(model, sched):
        warm.append(warm_start(model, sched))
        return warm[-1]

    class Recorded(rounding.RoundingEngine):
        def __init__(self, problem, point=None):
            super().__init__(problem, point)
            points.append(point)

    monkeypatch.setattr(lpnorm, "_warm_start", recorded_warm_start)
    monkeypatch.setattr(lpnorm, "RoundingEngine", Recorded)
    kept = runs = 0
    for p, eps_user, inst, witness in guided_shapes():
        res = lpnorm_ptas(inst, p, eps_user, Guided(witness))
        point, start = points.pop(), warm.pop()
        if not is_integral(p):
            continue
        runs += 1
        if {v: x for v, x in point.items() if x} == start:
            assert res.objective_pow == evaluate_lp_norm_pow(inst, witness, p)
            kept += 1
    assert runs > 140 and kept > 140, (kept, runs)


def small_loads(model, x) -> dict:
    """Each non-huge machine's small load at route point x."""
    return {
        mk: sum((r.machine_costs[mk][0] * x.get(("m", j, mk), ZERO)
                 for j, r in model.routes.items() if mk in r.machine_costs), ZERO)
        for mk in model.small_machines
    }


@pytest.mark.parametrize("mode", ["guided", "full"])
def test_an_allowance_below_its_small_load_is_an_invariant_violation(monkeypatch, mode):
    # the convex point fits every frozen allowance; one pushed below its
    # small load makes the first round infeasible, which is a broken
    # invariant, not an infeasible guess
    real = lpnorm.solve_slot_cp
    lowered = []

    def one_allowance_low(model, *args, **kwargs):
        cp = real(model, *args, **kwargs)
        loads = small_loads(model, cp.x)
        mk = max(loads, key=loads.get, default=None)
        if mk is not None and loads[mk] > 0:
            cp.t_star[mk] = loads[mk] / 2
            lowered.append(mk)
        return cp

    monkeypatch.setattr(lpnorm, "solve_slot_cp", one_allowance_low)
    # at eps_user = 1 both runs have small jobs; the point of the first run
    # with a positive small load is integral
    if mode == "guided":
        inst = generate_instance(GeneratorSpec(24, 1, (20, 2), 1, 10), 0)
        mode = Guided(greedy_schedule(inst, 2))
    else:
        inst = generate_instance(GeneratorSpec(3, 1, (1, 1), 1, 10), 30)
        mode = FullEnum(10**6)
    with pytest.raises(InvariantViolation, match="rounding LP rejected the convex solution"):
        lpnorm_ptas(inst, 2, ONE, mode)
    assert len(lowered) == 1
