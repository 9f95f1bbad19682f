import hashlib
import random

import pytest

from typesched.errors import BadExponent, DimensionMismatch, GuessInconsistent
from typesched.lpnorm import (
    FullEnum,
    _charge,
    _guess_lower_bound,
    Guided,
    build_cp_model,
    build_lp_from_cp,
    calibrate_eps,
    enumerate_guesses,
    f_threshold,
    guess_from_schedule,
    class_size,
    lpnorm_ptas,
    size_class,
    solve_slot_cp,
)
from typesched.lp import solve_extreme_point
from typesched.model import (
    GeneratorSpec,
    Schedule,
    generate_instance,
    make_instance,
)
from typesched.oracle import exact_solve
from typesched.rationals import ONE, ZERO, rat, rat_str


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
    # (3/2)^e <= c: c = 4 -> e = 3 ((3/2)^3 = 27/8 = 3.375 <= 4 < 5.0625)
    assert size_class(4, eps) == 3
    assert class_value_check(3, eps) <= 4 < class_value_check(4, eps)
    assert size_class(1, eps) == 0
    assert size_class(rat(1, 2), eps) == -2  # (2/3)^2 = 4/9 <= 1/2 < 2/3


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
        lp = build_lp_from_cp(model, cp.t_star)
        sol = solve_extreme_point(lp)
        huge_part = sum(
            float(model.routes[j].huge[t][1]) * float(cp.x.get(f"h|{j}|{t}", 0))
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


def ref_guess_lower_bound(inst, p, eps, guess):
    """The bound as computed before pattern masses were cached."""
    total = ZERO
    for t, tg in enumerate(guess.types):
        for j in tg.very_huge:
            total += _charge(inst.cost(j, t), p)
        if tg.c_max is None:
            continue
        floor_val = tg.alpha * rat(tg.c_max)
        for pat in tg.profile:
            mass = sum((class_size(e, eps) for e in pat), ZERO)
            total += _charge(max(floor_val, mass), p)
    return total


@pytest.mark.parametrize("counts,n,seed,count,digest", GUESS_STREAM_PINS)
def test_guess_lower_bound_matches_uncached_masses(counts, n, seed, count, digest):
    inst = generate_instance(GeneratorSpec(n, 1, counts, 1, 10), seed)
    eps = calibrate_eps(rat(1, 2))
    for guess in enumerate_guesses(inst, 2, eps, 10**6):
        expected = ref_guess_lower_bound(inst, 2, eps, guess)
        assert _guess_lower_bound(inst, 2, eps, guess) == expected


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
    lp = build_lp_from_cp(model, cp.t_star)
    assert lp.num_rows == inst.num_jobs + len(model.slots) + len(model.small_machines)
    assert not lp.objective  # huge charges absent


def test_non_integer_exponent_uses_float_certification():
    # p = 5/2: evaluation and the CP certificate run on the float path
    inst = make_instance(1, [1, 1], [[[4], [7]], [[6], [2]], [[3], [3]], [[5], [8]]])
    opt = exact_solve(inst, "lp_norm", p=rat(5, 2))
    res = lpnorm_ptas(inst, rat(5, 2), rat(1, 2), Guided(opt.witness))
    ratio = (float(res.objective_pow) / float(opt.optimum)) ** (1 / 2.5)
    assert 1 - 1e-9 <= ratio <= 1.5 + 1e-9
