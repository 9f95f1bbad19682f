"""Pinned output bytes of both pipelines.

The digests were recorded before the L_p objective, the slot-LP rows and the
schedule assembly were each merged into one piece of shared code.  Comparing
two runs of the same code cannot catch a refactor that moves a schedule, a
count or one bit of a reported float; these pins do.

Bench reports pin the CLI layer.  Their convex solves mostly stop at the
warm start, so the solver-level pins add guided runs whose Frank-Wolfe solve
iterates (nonzero gaps, p in {2, 3, 5/2}) and full-mode runs, whose
tolerance comes from the objective at the zero point.
"""

import hashlib

import pytest

from typesched.cli import ExperimentConfig, run_experiment
from typesched.lpnorm import FullEnum, Guided, lpnorm_ptas
from typesched.model import GeneratorSpec, Schedule, generate_instance
from typesched.rationals import ZERO, rat, rat_str


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


BENCH_PINS = [
    (
        dict(objective="makespan", trials=6, seed=21, eps_user=rat(1, 2)),
        "6bcd1c6bcce82438b3fabf7d804b2d90e67d0becca97f0916ea827073fb3294d",
    ),
    (
        dict(objective="makespan", trials=3, seed=5, eps_user=rat(1, 2), mode="full",
             jobs_max=4, machines_max=3),
        "847f76fc47212cb79db3942a4a58902f074896e7b2b1e119c1c13e2dd3a81431",
    ),
    (
        dict(objective="lp_norm", trials=6, seed=11, eps_user=rat(1, 2)),
        "1178e1d56f608f5405246e71bdd76e218403d876a74338d5f2ab982e9e1e3c47",
    ),
    (
        dict(objective="lp_norm", trials=2, seed=3, eps_user=rat(1, 2), mode="full",
             jobs_max=3, machines_max=2),
        "52a50149d493b81778fee5bbbf141d43e508ab1146e1e1f277a09a9b1fa21680",
    ),
    (
        # non-integral p: evaluation and certification on the float path;
        # re-pinned when the float gap of a region without variables became
        # 0.0 instead of the int 0 (trial 1's "cp_gap", the only byte moved)
        dict(objective="lp_norm", trials=6, seed=11, eps_user=rat(1, 2), p=rat(5, 2)),
        "f00c0d835fe949ecc62b7aabfc3012029522768b1f026d1a109d3ae4a89a291c",
    ),
]


@pytest.mark.parametrize("config,digest", BENCH_PINS)
def test_bench_report_bytes_are_pinned(config, digest):
    report = run_experiment(ExperimentConfig(**config))
    assert report.ok
    assert sha(report.to_json()) == digest


def greedy_schedule(inst, p=2) -> Schedule:
    """Longest job first, each onto the machine whose load^p grows least."""
    loads = {m: ZERO for m in inst.machines()}
    cheapest = [min(inst.cost(j, t) for t in range(inst.num_types)) for j in range(inst.num_jobs)]
    assignment: list = [None] * inst.num_jobs
    for j in sorted(range(inst.num_jobs), key=lambda j: (-cheapest[j], j)):
        best = None
        for m, load in loads.items():
            grow = (load + inst.cost(j, m[0])) ** p - load ** p
            if best is None or grow < best[0]:
                best = (grow, m)
        assignment[j] = best[1]
        loads[best[1]] += inst.cost(j, best[1][0])
    return Schedule(tuple(assignment))


def run_record(res) -> str:
    run = res.run
    objective = res.objective_pow
    stats = run.stats
    return repr((
        res.schedule.assignment,
        objective if isinstance(objective, float) else rat_str(objective),
        run.cp_objective,
        run.cp_gap,
        run.cp_tolerance,
        res.guesses_tried,
        (stats.lp_solves, stats.iterations, stats.case_machine_drop, stats.case_slot_merge,
         stats.case_improper, stats.art_lp_solves),
    ))


# p -> digest of the run records of seeds 0..7, n=20 on machines (3,3),
# greedy certificate; seed 3 has a nonzero certified gap at every p
GUIDED_CP_PINS = [
    (2, "e9c3caea0882bc74ed03286b14e2e5e21ccfa193a2763819f9f951b6533e8df3"),
    (3, "928f5ef173c691d7c0b4f3bbd53d6f1ba2c6a822ffcaf196421d485461dfcbee"),
    (rat(5, 2), "8f413572edbff759e536a4bc959b263255337b93ada0bf64f3558cc428e5c10c"),
]


@pytest.mark.parametrize("p,digest", GUIDED_CP_PINS)
def test_guided_cp_runs_are_pinned(p, digest):
    records = []
    for seed in range(8):
        inst = generate_instance(GeneratorSpec(20, 1, (3, 3), 1, 10), seed)
        records.append(run_record(lpnorm_ptas(inst, p, rat(1, 2), Guided(greedy_schedule(inst)))))
    assert sha("\n".join(records)) == digest


def test_full_mode_cp_runs_are_pinned():
    records = []
    for seed in range(2):
        inst = generate_instance(GeneratorSpec(3, 1, (1, 2), 1, 10), seed)
        records.append(run_record(lpnorm_ptas(inst, 2, rat(1, 2), FullEnum())))
    assert sha("\n".join(records)) == (
        "d21e823b10ea4a842d884d5ea642870ac75c1ba83293f1ef32a29666a1ebf6c5"
    )
