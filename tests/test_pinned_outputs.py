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

import functools
import hashlib
import subprocess
import sys
from pathlib import Path

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


def record_fields(res) -> tuple:
    run = res.run
    objective = res.objective_pow
    stats = run.stats
    return (
        res.schedule.assignment,
        objective if isinstance(objective, float) else rat_str(objective),
        run.cp_objective,
        run.cp_gap,
        run.cp_tolerance,
        res.guesses_tried,
        (stats.lp_solves, stats.iterations, stats.case_machine_drop, stats.case_slot_merge,
         stats.case_improper, stats.art_lp_solves),
    )


def run_record(res) -> str:
    return repr(record_fields(res))


def schedule_record(res) -> str:
    """run_record without cp_objective and cp_gap, the two floats that the
    Frank-Wolfe stopping point sets."""
    fields = record_fields(res)
    return repr(fields[:2] + fields[4:])


def guided_instance(seed: int):
    return generate_instance(GeneratorSpec(20, 1, (3, 3), 1, 10), seed)


@functools.cache
def guided_runs(p) -> tuple:
    """Seeds 0..7, n=20 on machines (3,3), greedy certificate."""
    return tuple(
        lpnorm_ptas(inst, p, rat(1, 2), Guided(greedy_schedule(inst)))
        for inst in map(guided_instance, range(8))
    )


# p -> digest of the run records of guided_runs(p); seed 3 has a nonzero
# certified gap at every p.  Re-pinned when every Frank-Wolfe step length
# became a bisection on the slope: only seed 3 moved, its cp_gap at every p
# and the last bits of its cp_objective at p = 2 and 3
GUIDED_CP_PINS = [
    (2, "cca6f84dbe7cc56db1b47b2a2df9db2ef1979fdd516b240b5b6d479619fe8a29"),
    (3, "4c206d142a5c2a69ff52501e2031931e86dc52242826064f4013dadeaf467561"),
    (rat(5, 2), "1f48b8bde3fcb63a40a10cd2f92ab8be7321d0ac76539ec0d75f4641c8a195d0"),
]


@pytest.mark.parametrize("p,digest", GUIDED_CP_PINS)
def test_guided_cp_runs_are_pinned(p, digest):
    assert sha("\n".join(map(run_record, guided_runs(p)))) == digest


# p -> digest of the schedule records of guided_runs(p), recorded before the
# Frank-Wolfe solver's two line searches became one; a change of step rule
# may move cp_objective and cp_gap, never what the rounding makes of them
GUIDED_SCHEDULE_PINS = [
    (2, "da76199c7fbc4152068636aa1ce26b3f30c6d0937b3b59a6a77469216fb31cd5"),
    (3, "a1b1f5920724f9cee20c05cbbc77dc53007d224e82c35f056b4a38356496998b"),
    (rat(5, 2), "cb376b7a87ac4622aa322870fb3e7c66434afbf82ca18276a641c8376770a84c"),
]


@pytest.mark.parametrize("p,digest", GUIDED_SCHEDULE_PINS)
def test_guided_schedules_are_pinned(p, digest):
    assert sha("\n".join(map(schedule_record, guided_runs(p)))) == digest


SEED_3_RECORDS = """
from test_pinned_outputs import Guided, greedy_schedule, guided_instance, lpnorm_ptas, rat, run_record
inst = guided_instance(3)
for p in (2, rat(5, 2)):
    print(run_record(lpnorm_ptas(inst, p, rat(1, 2), Guided(greedy_schedule(inst)))))
"""


def test_guided_records_do_not_depend_on_the_hash_seed():
    # set iteration order follows PYTHONHASHSEED; the reported floats must not
    here = Path(__file__).resolve().parent
    path = f"{here.parent / 'src'}:{here}"
    outputs = [
        subprocess.run(
            [sys.executable, "-c", SEED_3_RECORDS],
            env={"PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0].count("\n") == 2
    assert outputs[0] == outputs[1]


def test_full_mode_cp_runs_are_pinned():
    records = []
    for seed in range(2):
        inst = generate_instance(GeneratorSpec(3, 1, (1, 2), 1, 10), seed)
        records.append(run_record(lpnorm_ptas(inst, 2, rat(1, 2), FullEnum())))
    assert sha("\n".join(records)) == (
        "d21e823b10ea4a842d884d5ea642870ac75c1ba83293f1ef32a29666a1ebf6c5"
    )
