"""Pinned output bytes of both pipelines.

The digests were recorded before the L_p objective, the slot-LP rows and the
schedule assembly were each merged into one piece of shared code.  Comparing
two runs of the same code cannot catch a refactor that moves a schedule, a
count or one bit of a reported float; these pins do.

Bench reports and `solve` outputs pin the CLI layer.  The bench reports' convex solves mostly stop at the
warm start, so the solver-level pins add guided runs whose Frank-Wolfe solve
iterates (nonzero gaps, p in {2, 3, 5/2}) and full-mode runs, whose
tolerance comes from the objective at the zero point.
"""

import functools
import hashlib
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from typesched.cli import ExperimentConfig, main, run_experiment
from typesched import lpnorm
from typesched.lpnorm import FullEnum, Guided, lpnorm_ptas
from typesched.model import GeneratorSpec, generate_instance, greedy_schedule
from typesched.rationals import rat, rat_str
from typesched.rounding import RoundingEngine


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


BENCH_PINS = [
    (
        # re-pinned when the guided search stopped deciding the rungs its
        # certificate proves: only the rows' "probes", "lp_solves" and
        # "counting_checks" moved (they count the decisions run)
        dict(objective="makespan", trials=6, seed=21, eps_user=rat(1, 2)),
        "b1310a42095947f0d831726351587c4788f6530acaddaf1ee52479561218f404",
    ),
    (
        # re-pinned when full mode began each probe with the greedy schedule's
        # profile and stopped deciding the rungs that schedule proves: only
        # the rows' "probes", "lp_solves" and "counting_checks" moved
        dict(objective="makespan", trials=3, seed=5, eps_user=rat(1, 2), mode="full",
             jobs_max=4, machines_max=3),
        "7d369afafd6fd517e054b5878efb6bddad5fc697b2078504a25457d9c1327c04",
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


# `gen` arguments of the two solve instances
SOLVE_INSTANCES = {
    "makespan": ["--jobs", "5", "--dims", "2", "--machines", "2,1", "--seed", "3"],
    "lpnorm": ["--jobs", "4", "--machines", "1,2", "--seed", "5"],
}

# (objective, solve arguments, format) -> digest of the `solve --out` file
SOLVE_PINS = [
    # the guided makespan pair was re-pinned when the guided search stopped
    # deciding the rungs its certificate proves: only "probes", "lp_solves"
    # and "counting_checks" moved (they count the decisions run)
    ("makespan", ["--mode", "guided", "--emit-forest"], "json",
     "fee3ec71647a062c8ebd5a52a0ce1b2b965f0f0550f7cea3bf39c038d731cac1"),
    ("makespan", ["--mode", "guided", "--emit-forest"], "table",
     "d0760d3603dc4aadea349214f2b0141c0c91a172afa0bce35b29bdf6b0dc8179"),
    # the full makespan pair was re-pinned when full mode began each probe
    # with the greedy schedule's profile and stopped deciding the rungs that
    # schedule proves: only "probes", "lp_solves" and "counting_checks" moved
    ("makespan", ["--mode", "full"], "json",
     "81c2d3b9cb0f3553f955b8ef68e1a9954d7044d833b7bf5f0f453efb7bd6752c"),
    ("makespan", ["--mode", "full"], "table",
     "ea16863560de9e4cdc631ea59b3d3a53ffd87d1903709d9f08ef352d1e45769a"),
    ("lpnorm", ["--mode", "guided", "--p", "5/2", "--emit-forest"], "json",
     "f95b583a2f04073c213308762d874bd29b8072ca6ef7097a5f9ac9e75599ec79"),
    ("lpnorm", ["--mode", "guided", "--p", "5/2", "--emit-forest"], "table",
     "61eeeff2419640fe1c6dd2a805306a63253810c1f8a1eaa8e792e27df0289799"),
    # the full L_p pair was re-pinned when guesses_tried became the guesses
    # run instead of the stream's length: only "guesses_tried" moved, from
    # 14406 to 3
    ("lpnorm", ["--mode", "full"], "json",
     "0f2d1f0eead8a12846ea3ccd06bb8815046aea752e50065f64e1f2f86a1eda87"),
    ("lpnorm", ["--mode", "full"], "table",
     "5ad1eb642eb24b2444b1942cb3bd6d11b8a24d736391b24af8b9d8e8cd2db2af"),
]


@pytest.mark.parametrize("objective,args,fmt,digest", SOLVE_PINS)
def test_solve_output_bytes_are_pinned(tmp_path, objective, args, fmt, digest):
    # the table prints the keys in insertion order, so it pins that order too
    inst, out = tmp_path / "inst.json", tmp_path / "out"
    assert main(["gen", *SOLVE_INSTANCES[objective], "--out", str(inst)]) == 0
    argv = ["solve", "--instance", str(inst), "--objective", objective, *args]
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    assert sha(out.read_text()) == digest


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


class ReadOffEngine(RoundingEngine):
    """The rounding engine handed no point when a job has a machine route.

    The L_p rounding once read its first round's phase 1 off the convex
    region's tableau.  That read-off served only a first round without a
    capacity row, so a problem with a machine-routed job ran its own phase
    1; the engine now commits an integral convex point there too.  Runs with
    this engine give the records recorded under the read-off.
    """

    def __init__(self, problem, point=None):
        routed = any(routes.machine_costs for routes in problem.jobs.values())
        super().__init__(problem, None if routed else point)


@functools.cache
def guided_runs(p, engine=RoundingEngine) -> tuple:
    """Seeds 0..7, n=20 on machines (3,3), greedy certificate, rounded by engine."""
    with mock.patch.object(lpnorm, "RoundingEngine", engine):
        return tuple(
            lpnorm_ptas(inst, p, rat(1, 2), Guided(greedy_schedule(inst, 2)))
            for inst in map(guided_instance, range(8))
        )


# p -> digest of the run records of guided_runs(p, ReadOffEngine); seed 3
# has a nonzero certified gap at every p.  Re-pinned when every Frank-Wolfe
# step length became a bisection on the slope: only seed 3 moved, its
# cp_gap at every p and the last bits of its cp_objective at p = 2 and 3.
# Re-pinned again when the first LMO call began at the warm start's vertex:
# phase 2 may then reach another optimal vertex, so the records of seeds 1,
# 2 and 4-7 moved in schedule.assignment alone (GUIDED_VALUE_PINS holds the
# rest); seeds 0 and 3 did not move.  Recorded with the read-off itself; the
# engine handed the convex point gives the same records wherever the
# read-off served
GUIDED_CP_PINS = [
    (2, "bdf59d0a9ca7ea123ac796f2928c589714345be9c49ae26a00da9c83234483d5"),
    (3, "cae62bc6f1e243f2f94933e27a23e4ecaae83013c0c50f04f84c4436733669c9"),
    (rat(5, 2), "90390f351b42cb4c4ca823226a78e38fa01fff647a65b283ae57779537cbea2b"),
]


@pytest.mark.parametrize("p,digest", GUIDED_CP_PINS)
def test_guided_cp_runs_are_pinned(p, digest):
    assert sha("\n".join(map(run_record, guided_runs(p, ReadOffEngine)))) == digest


# p -> digest of the schedule records of guided_runs(p, ReadOffEngine),
# recorded before the Frank-Wolfe solver's two line searches became one; a
# change of step rule may move cp_objective and cp_gap, never what the
# rounding makes of them.  Re-pinned when the first LMO call began at the
# warm start's vertex: as in GUIDED_CP_PINS, seeds 1, 2 and 4-7 moved in
# schedule.assignment alone
GUIDED_SCHEDULE_PINS = [
    (2, "3911a94deb665fb8d3110009878e4a9c20dd5d9907c8cf9abc1524b23fae7d28"),
    (3, "d56f1fda28e1adc79e0bf319dc9fedb60623c527abc91fdbf9ff2ac8af2e3020"),
    (rat(5, 2), "bae673e02c38b38a84336567b4a1fabeecdd180b722ee0bcc06d3dd2996ff937"),
]


@pytest.mark.parametrize("p,digest", GUIDED_SCHEDULE_PINS)
def test_guided_schedules_are_pinned(p, digest):
    assert sha("\n".join(map(schedule_record, guided_runs(p, ReadOffEngine)))) == digest


# p -> digests of the run records and of the schedule records of
# guided_runs(p), whose engines are handed the convex point.  Recorded when
# the point replaced the read-off: against GUIDED_CP_PINS and
# GUIDED_SCHEDULE_PINS only seed 0 moved, in schedule.assignment alone; its
# objective, cp_objective, cp_gap, tolerance and stats did not.  Seeds 0
# and 3 are the runs with a machine-routed job, and seed 3's convex point is
# fractional, which the engine does not read
GUIDED_POINT_PINS = [
    (2, "b898da887548e3b4bccb75f79817197a5e7daba4431d110892b960288cd04111",
     "367d08011eb67356a7bcf71e0db2864b2be21be615793c86fb26fc521038bea0"),
    (3, "6d4519d3a0a692bbd2beb909984d68cf65e185ce7be0fb2470ee09818a3e7632",
     "9f84561df60e0ba08129e2a02ba39379358b77dfcc0bd4a2e95bb1b9c129acca"),
    (rat(5, 2), "72b8bc4d45b3f4a22cc5de007d91fadf3820454c76dd277268418c1d2ad521d4",
     "1bf2e9e05853989e879ecca93e915aabe722e5fab971fe7cf2c208081aade776"),
]


@pytest.mark.parametrize("p,runs,schedules", GUIDED_POINT_PINS)
def test_guided_runs_from_the_convex_point_are_pinned(p, runs, schedules):
    assert sha("\n".join(map(run_record, guided_runs(p)))) == runs
    assert sha("\n".join(map(schedule_record, guided_runs(p)))) == schedules


# p -> digest of the run records of guided_runs(p) without the assignment:
# the objective, cp_objective, cp_gap, tolerance, tries and rounding stats.
# An LMO call may return any optimal vertex, so the start of phase 2 may
# move the assignment; these values were recorded before the first LMO call
# began at the warm start's vertex and did not move with it
GUIDED_VALUE_PINS = [
    (2, "40a58afb66749c5458195fb86ddfbcd605aa0a020e8e4b759edf5a6bfd5b440e"),
    (3, "f62a41e3de0a298c9d1fc4d5efd90d7d61d41d1744328c066237cf82c6695dfb"),
    (rat(5, 2), "c2c7bd17b1cf9fdf54a8abd8ac6994e04218b9f808b92a1cffcb5120d111fc57"),
]


@pytest.mark.parametrize("p,digest", GUIDED_VALUE_PINS)
def test_guided_run_values_are_pinned(p, digest):
    records = (repr(record_fields(res)[1:]) for res in guided_runs(p))
    assert sha("\n".join(records)) == digest


SEED_3_RECORDS = """
from test_pinned_outputs import Guided, greedy_schedule, guided_instance, lpnorm_ptas, rat, run_record
inst = guided_instance(3)
for p in (2, rat(5, 2)):
    print(run_record(lpnorm_ptas(inst, p, rat(1, 2), Guided(greedy_schedule(inst, 2)))))
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
    # re-pinned when full mode began pruning from the greedy value: seed 0
    # moved from ((1,0),(0,0),(1,1)) to ((1,1),(0,0),(1,0)), both of value
    # 114, the optimum.  The old winner, guess 69 of the stream (from 0),
    # has bound 204.13 > greedy 128 and no longer runs (its rounded schedule
    # is not consistent with it, so the bound does not cover its value); the
    # optimum's own guess, bound 114, runs and gives 114.  Re-pinned when
    # guesses_tried became the guesses run instead of the stream's length:
    # only that field moved, from 2779 and 2943 to 6 and 4
    records = []
    for seed in range(2):
        inst = generate_instance(GeneratorSpec(3, 1, (1, 2), 1, 10), seed)
        records.append(run_record(lpnorm_ptas(inst, 2, rat(1, 2), FullEnum())))
    assert sha("\n".join(records)) == (
        "1b2ea1b019fd348337f52066bd0fc8f20daecb8ba6c11af4472926dbfe939972"
    )
