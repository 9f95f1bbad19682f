"""Acceptance suite: oracle-relative ratio bounds and invariant audits.

Run with `pytest tests/test_acceptance.py -v -s` to see one verdict line per
criterion.  Every bound is checked exactly (rational comparison) at the
tolerance stated in the criterion; no tolerance is deferred to runtime
calibration.
"""

import random

import pytest

from typesched import lpnorm, makespan
from typesched.audits import (
    _solve_square,
    load_difference_audit,
    lp_equivalence_audit,
    power_mean_audit,
)
from typesched.cli import ExperimentConfig, run_experiment
from typesched.errors import BudgetExhausted
from typesched.lpnorm import f_threshold
from typesched.model import (
    GeneratorSpec,
    generate_instance,
    load_vector,
    make_instance,
)
from typesched.oracle import exact_solve
from typesched.rationals import ONE, parse_rational, power, rat
from typesched.rounding import (
    JobRoutes,
    MergeNode,
    RoundingOutcome,
    RoundingProblem,
    RoundingStats,
    SlotInfo,
    untangle,
)

EPS_USER = rat(1, 2)
A1_TRIALS = 200
A2_TRIALS = 100
A3_TRIALS = 20


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def a1_report():
    cfg = ExperimentConfig(
        objective="makespan",
        trials=A1_TRIALS,
        seed=1000,
        eps_user=EPS_USER,
        mode="guided",
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def a2_records():
    records = []
    for i in range(A2_TRIALS):
        s = 5000 + i
        n = 2 + s % 6
        m_total = 2 + (s // 2) % 3
        m1 = 1 + s % (m_total - 1)
        inst = generate_instance(GeneratorSpec(n, 1, (m1, m_total - m1), 1, 10), s)
        opt = exact_solve(inst, "lp_norm", p=2)
        res = lpnorm.lpnorm_ptas(inst, 2, EPS_USER, lpnorm.Guided(opt.witness))
        records.append((inst, opt, res))
    return records


def test_a1_makespan_ratio(a1_report):
    # every ratio <= 1.5 exactly, over 200 seeded instances
    bad = [r for r in a1_report.rows if not r["ok"]]
    worst = a1_report.summary()["max_ratio"]
    verdict(
        "A1 makespan ratio",
        not bad and len(a1_report.rows) == A1_TRIALS,
        f"{A1_TRIALS} guided instances, max ratio {worst} <= 3/2",
    )


def test_a2_lp_norm_ratio(a2_records):
    # ||g||_2 ratio <= 1.5 per instance: squared objective ratio <= 9/4 exactly
    worst = rat(0)
    ok = True
    for inst, opt, res in a2_records:
        ratio_pow = rat(res.objective_pow) / rat(opt.optimum)
        worst = max(worst, ratio_pow)
        ok = ok and ratio_pow <= rat(9, 4)
    verdict(
        "A2 L_p ratio",
        ok and len(a2_records) == A2_TRIALS,
        f"{A2_TRIALS} guided instances, max squared ratio {float(worst):.4f} <= 2.25",
    )


def _a3_shapes(i):
    return ((1, 1), (2,), (1,))[i % 3]


def test_a3_full_enumeration_sanity():
    budget = 10**6
    checked = 0
    for i in range(A3_TRIALS):
        counts = _a3_shapes(i)
        n = 2 + i % 3  # 2..4 jobs
        inst = generate_instance(GeneratorSpec(n, 1, counts, 1, 10), 7000 + i)
        try:
            mk = makespan.makespan_ptas(inst, EPS_USER, makespan.FullEnum(budget))
            lp_res = lpnorm.lpnorm_ptas(inst, 2, EPS_USER, lpnorm.FullEnum(budget))
        except BudgetExhausted as exc:
            verdict("A3 full enumeration", False, f"budget exhausted on trial {i}: {exc}")
            return
        opt_mk = exact_solve(inst)
        opt_lp = exact_solve(inst, "lp_norm", p=2)
        assert rat(mk.makespan) <= rat(3, 2) * rat(opt_mk.optimum)
        assert rat(lp_res.objective_pow) <= rat(9, 4) * rat(opt_lp.optimum)
        checked += 1
    verdict(
        "A3 full enumeration",
        checked == A3_TRIALS,
        f"{A3_TRIALS} tiny instances, both pipelines within bounds, no BudgetExhausted",
    )


SWEEP_JOBS = (4, 6, 7)
SWEEP_SEEDS = range(8)


@pytest.mark.parametrize("eps_user", [rat(1, 4), ONE])
@pytest.mark.parametrize("counts", [(1, 1, 1), (2, 1, 1), (1, 2, 2)])
def test_guided_makespan_sweep_d3(counts, eps_user):
    # D = 3 on three types, within (1 + eps) of the oracle in exact rationals
    for n in SWEEP_JOBS:
        for s in SWEEP_SEEDS:
            seed = 9100 + 10 * n + s
            inst = generate_instance(GeneratorSpec(n, 3, counts, 1, 10), seed)
            opt = exact_solve(inst)
            res = makespan.makespan_ptas(inst, eps_user, makespan.Guided(opt.witness))
            assert res.makespan <= (ONE + eps_user) * opt.optimum, (n, seed)


@pytest.mark.parametrize("eps_user", [rat(1, 4), ONE])
@pytest.mark.parametrize("counts", [(1, 1, 1), (2, 1), (2, 2, 1)])
@pytest.mark.parametrize("p", ["3/2", "3"])
def test_guided_lp_norm_sweep(p, counts, eps_user):
    # within (1 + eps)^p of the oracle's p-th power: exact at p = 3, in
    # floats at p = 3/2
    p = parse_rational(p)
    for n in SWEEP_JOBS:
        for s in SWEEP_SEEDS:
            seed = 9300 + 10 * n + s
            inst = generate_instance(GeneratorSpec(n, 1, counts, 1, 10), seed)
            opt = exact_solve(inst, "lp_norm", p=p)
            res = lpnorm.lpnorm_ptas(inst, p, eps_user, lpnorm.Guided(opt.witness))
            assert res.objective_pow <= power(ONE + eps_user, p) * opt.optimum, (n, seed)


def test_a4_counting_audit(a1_report, a2_records):
    # CountingViolation raises and would abort the run; additionally every
    # extreme point was checked against F <= 2s' + 2Dm' (+2 budget rows)
    checks = sum(r.get("counting_checks", 0) for r in a1_report.rows)
    checks += sum(res.run.stats.counting_checks for _, _, res in a2_records)
    # an engineered instance whose LPs go fractional, so the bound is not vacuous
    inst = make_instance(
        1,
        [1, 2],
        [[[12], [5]], [[12], [5]], [[40], [12]], [[40], [12]], [[40], [12]], [[40], [12]]],
    )
    res = makespan.makespan_decision(inst, 12, rat(1, 2), makespan.FullEnum(10**6))
    fractional_events = res.stats.iterations
    checks += res.stats.counting_checks
    verdict(
        "A4 counting audit",
        checks > 0 and fractional_events > 0,
        f"{checks} extreme points audited, 0 violations, "
        f"{fractional_events} fractional reductions exercised",
    )


def test_a5_rounding_overshoot(a1_report, a2_records):
    # the engine asserts load <= rem + 2D*eps at every machine drop and
    # load <= rem + 3D*eps after untangling, in exact arithmetic
    inst = make_instance(
        1,
        [1, 2],
        [[[12], [5]], [[12], [5]], [[40], [12]], [[40], [12]], [[40], [12]], [[40], [12]]],
    )
    res = makespan.makespan_decision(inst, 12, rat(1, 2), makespan.FullEnum(10**6))
    drops = res.stats.overshoot_drop_checks
    finals = res.stats.overshoot_final_checks
    solved = sum(r.get("lp_solves", 0) for r in a1_report.rows) + sum(
        res.run.stats.lp_solves for _, _, res in a2_records
    )
    verdict(
        "A5 rounding overshoot",
        drops > 0 and solved > 0,
        f"exact 2D*eps checks at {drops} machine drops ({finals} final fragments), "
        f"0 violations across {solved} pipeline solves",
    )


def test_a6_forest_untangling(a1_report):
    # constructed nested forest: 5 leaves over 4 disposed slots plus
    # the root's foreign slot; every withheld-leaf choice must place cleanly
    ok_choices = 0
    for withheld in range(5):
        slots = {s: SlotInfo(s, (0, 0), "q", (rat(1),)) for s in range(6)}
        jobs = {j: JobRoutes({}, set(range(6))) for j in range(5)}
        problem = RoundingProblem(
            dims=1,
            jobs=jobs,
            slots=slots,
            capacities={(0, 0): (rat(10),)},
            small_caps={(0, 0): rat(1, 2)},
            leaf_raw_cost=lambda j, t, w=withheld: rat(100 if j == w else 5 - j),
        )
        forest = {
            "a0": MergeNode("a0", 0, 1, 0, {}),
            "a1": MergeNode("a1", "a0", 2, 1, {}),
            "a2": MergeNode("a2", 3, 4, 2, {}),
            "a3": MergeNode("a3", "a1", "a2", 3, {}),
        }
        outcome = RoundingOutcome(
            slot_assign={5: "a3"},
            machine_assign={},
            huge_assign={},
            improper={},
            forest=forest,
            committed={(0, 0): [rat(0)]},
            committed_real={(0, 0): [rat(0)]},
            art_on_machine={},
            art_costs={},
            stats=RoundingStats(),
        )
        final = untangle(problem, outcome)
        if final.slot_assign[5] == withheld and sorted(final.slot_assign.values()) == [0, 1, 2, 3, 4]:
            ok_choices += 1
    verdict(
        "A6 forest property",
        ok_choices == 5,
        f"constructive untangling for all {ok_choices}/5 withheld leaves, "
        "0 ForestInconsistent events in the batches",
    )


def test_a7_relaxation_ordering(a2_records):
    # CP objective - additive_tol <= oracle <= ptas, and the reduced-LP
    # optima never increase (the engine asserts it; re-verified here)
    ok = True
    monotone = 0
    for inst, opt, res in a2_records:
        run = res.run
        if not (run.cp_objective - run.cp_tolerance <= float(opt.optimum) * (1 + 1e-9)):
            ok = False
        if not (rat(opt.optimum) <= rat(res.objective_pow)):
            ok = False
        optima = run.stats.lp_objectives
        if all(b <= a for a, b in zip(optima, optima[1:])):
            monotone += 1
        else:
            ok = False
    verdict(
        "A7 relaxation ordering",
        ok,
        f"CP-tol <= oracle <= ptas on {len(a2_records)} instances; "
        f"LP optima non-increasing in {monotone}/{len(a2_records)} runs",
    )


def test_a8_power_mean_property():
    rng = random.Random(20240817)
    combos = [(p, e) for p in (2, 3) for e in (rat(1, 4), rat(1, 2), rat(1))]
    failures = 0
    for i in range(1000):
        p, eps = combos[i % len(combos)]
        f = f_threshold(p, eps)
        G = [rng.uniform(0.05, 100.0) for _ in range(f)]
        lhs = sum(g ** p for g in G) + (2 * min(G)) ** p
        rhs = (1 + float(eps)) ** p * sum(g ** p for g in G)
        if lhs > rhs * (1 + 1e-12):
            failures += 1
    verdict("A8 power-mean property", failures == 0, f"1000 multisets, {failures} failures")


def test_a9_load_difference_audit(a2_records):
    violations = 0
    for inst, opt, _ in a2_records:
        loads = load_vector(inst, opt.witness)
        jobs_on = {mk: 0 for mk in inst.machines()}
        for mk in opt.witness.assignment:
            jobs_on[mk] += 1
        for t in range(inst.num_types):
            non_huge = [
                (t, k) for k in range(inst.machine_counts[t]) if jobs_on[(t, k)] != 1
            ]
            hosted = [
                rat(inst.cost(j, t))
                for j, mk in enumerate(opt.witness.assignment)
                if mk in non_huge
            ]
            if not hosted:
                continue
            c_max = max(hosted)
            nh = [loads[mk][0] for mk in non_huge]
            if min(nh) < c_max or max(nh) - min(nh) > c_max:
                violations += 1
    verdict(
        "A9 load-difference audit",
        violations == 0,
        f"{len(a2_records)} oracle witnesses, {violations} violations",
    )


def test_a10_lp_solver_equivalence():
    res = lp_equivalence_audit(samples=100, seed=20240818, max_vars=8, max_rows=6)
    verdict(
        "A10 LP oracle equivalence",
        res.ok,
        f"{res.samples} random LPs, simplex == vertex enumeration exactly, "
        f"{res.failures} mismatches",
    )


def ref_solve_square(matrix, rhs):
    # rational Gauss-Jordan, the vertex enumeration's solver before the
    # fraction-free elimination replaced it
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = ONE / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def test_fraction_free_solver_matches_rational_gauss_jordan():
    rng = random.Random(20240818)
    singular = 0
    for _ in range(1000):
        n = rng.randint(1, 8)
        entry = lambda: rat(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7 else rat(0)
        matrix = [[entry() for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:  # a scaled copy of another row
            matrix[rng.randrange(n)] = [rat(rng.randint(-2, 2)) * x for x in rng.choice(matrix)]
        rhs = [entry() for _ in range(n)]
        expected = ref_solve_square(matrix, rhs)
        assert _solve_square(matrix, rhs) == expected
        singular += expected is None
    assert 100 < singular < 900


def test_supporting_audits_agree():
    # the CLI audit implementations cover the same ground; keep them honest
    assert power_mean_audit(samples=120, seed=5).ok
    assert load_difference_audit(samples=25, seed=6).ok
    assert load_difference_audit(samples=25, seed=7, p=3).ok  # load difference also at p=3
