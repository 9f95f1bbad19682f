"""Closed-loop benchmark of the typesched solvers on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread.  Set-up builds a pool of instances from the seed
(instance seeds form the contiguous range [N*pool, (N+1)*pool)) together with
a reference for each: the oracle optimum, or a greedy list schedule past the
oracle caps.  The timed phase then solves the pool in order, each solve
starting when the previous one has been checked, and keeps cycling until at
least one whole pass is done and S seconds have passed.

Every solve is checked: the schedule must be valid, its recomputed objective
must equal the reported one exactly, the ratio bound must hold in exact
rationals against the reference, and a repeated solve of an instance must
return the first schedule again.  Any exception or failed check is a failed
solve, recorded with its type name and instance seed and never retried.

With --trace 0 the last line carries the end-to-end metrics.  Their times
are scaled to a nominal machine speed measured by a probe between stretches
of solver work (see Speed); the raw figures are printed beside them.  With
--trace 1 the run makes a traced set-up and one traced pass over the pool,
however long it takes, and the last line carries the per-layer metrics (see
layers.py).  The lines before the last print every metric by name and unit,
any failures, the sha256 digest of the first pass's schedules and the
environment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "typesched" / "__init__.py").is_file():
    sys.exit(f"typesched sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import typesched  # noqa: E402
from typesched import lpnorm, makespan, oracle, rationals  # noqa: E402
from typesched.cli import ExperimentConfig  # noqa: E402
from typesched.model import (  # noqa: E402
    GeneratorSpec,
    Instance,
    Schedule,
    evaluate_lp_norm_pow,
    evaluate_makespan,
    generate_instance,
    validate_schedule,
)

import layers  # noqa: E402

if Path(typesched.__file__).resolve().parent != SRC / "typesched":
    sys.exit(f"typesched imported from {typesched.__file__}, not from {SRC}")

EPS = rationals.rat(1, 2)
P = 2
BUDGET = 10**6
# solver time between two speed probes
SEGMENT_S = 0.25
# set-up is repeated at least SETUP_MIN times and, while cheap, for SETUP_SECONDS
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 25, 1.0
# kept out of the baseline on every workload, for the unseen-seed check
HELD_OUT_SEED = 1000


@dataclass(frozen=True)
class Workload:
    objective: str          # "makespan" | "lp_norm"
    mode: str               # "guided" | "full"
    pool: int               # instances per seed
    certificate: str        # "oracle" | "greedy"
    spec: Callable[[int], GeneratorSpec]
    why: str


def _a1_spec(s: int) -> GeneratorSpec:
    # cli.ExperimentConfig.trial_spec(i) depends on seed + i only
    return ExperimentConfig("makespan", 1, s, EPS, mode="guided").trial_spec(0)


WORKLOADS = {
    "makespan-guided": Workload(
        "makespan", "guided", 800, "oracle", _a1_spec,
        "A1 shape (n 2..7, D 1..2, 2-4 machines of 2 types), oracle certificate: "
        "geometric-grid scaling dominates",
    ),
    "makespan-full": Workload(
        "makespan", "full", 880, "oracle", lambda s: GeneratorSpec(4, 1, (2, 2), 1, 10),
        "full enumeration, n=4, D=1, machines (2,2): tiny slot LPs, almost all "
        "rejected in phase 1",
    ),
    "lpnorm-full": Workload(
        "lp_norm", "full", 30, "oracle", lambda s: GeneratorSpec(3, 1, (1, 1), 1, 10),
        "full enumeration, n=3, machines (1,1): guess enumeration dominates",
    ),
    "lpnorm-guided": Workload(
        "lp_norm", "guided", 56, "greedy", lambda s: GeneratorSpec(20, 1, (3, 3), 1, 10),
        "n=20, machines (3,3), greedy certificate past the oracle caps: large "
        "feasible Frank-Wolfe LMO LPs",
    ),
}


@dataclass(frozen=True)
class Case:
    seed: int
    inst: Instance
    certificate: Schedule
    reference: object       # optimum or greedy objective (p-th power for L_p)


def greedy_schedule(inst: Instance) -> Schedule:
    """List schedule: longest job first, each onto the machine whose L_p^p grows least."""
    loads = {m: rationals.ZERO for m in inst.machines()}
    cheapest = [min(inst.cost(j, t) for t in range(inst.num_types)) for j in range(inst.num_jobs)]
    assignment: list = [None] * inst.num_jobs
    for j in sorted(range(inst.num_jobs), key=lambda j: (-cheapest[j], j)):
        best = None
        for m, load in loads.items():
            grow = (load + inst.cost(j, m[0])) ** P - load ** P
            if best is None or grow < best[0]:
                best = (grow, m)
        assignment[j] = best[1]
        loads[best[1]] += inst.cost(j, best[1][0])
    return Schedule(tuple(assignment))


def build_pool(w: Workload, seed: int) -> list[Case]:
    cases = []
    for s in range(seed * w.pool, (seed + 1) * w.pool):
        inst = generate_instance(w.spec(s), s)
        if w.certificate == "greedy":
            cert = greedy_schedule(inst)
            ref = evaluate_lp_norm_pow(inst, cert, P)
        else:
            opt = oracle.exact_solve(inst, w.objective, p=P if w.objective == "lp_norm" else None)
            cert, ref = opt.witness, opt.optimum
        cases.append(Case(s, inst, cert, ref))
    return cases


def solve(w: Workload, case: Case):
    """One call into the public API; returns (schedule, reported objective)."""
    if w.objective == "makespan":
        mode = makespan.Guided(case.certificate) if w.mode == "guided" else makespan.FullEnum(BUDGET)
        res = makespan.makespan_ptas(case.inst, EPS, mode)
        return res.schedule, res.makespan
    mode = lpnorm.Guided(case.certificate) if w.mode == "guided" else lpnorm.FullEnum(BUDGET)
    res = lpnorm.lpnorm_ptas(case.inst, P, EPS, mode)
    return res.schedule, res.objective_pow


def check(w: Workload, case: Case, schedule: Schedule, reported):
    """(failure type or None, ratio); the ratio bound is checked exactly."""
    validate_schedule(case.inst, schedule)
    ref = rationals.rat(case.reference)
    if w.objective == "makespan":
        actual = evaluate_makespan(case.inst, schedule)
        bound = (1 + EPS) * ref
        ratio = float(rationals.rat(actual) / ref)
    else:
        actual = evaluate_lp_norm_pow(case.inst, schedule, P)
        bound = (1 + EPS) ** P * ref
        ratio = float(rationals.rat(actual) / ref) ** (1 / P)
    if rationals.rat(actual) != rationals.rat(reported):
        return "ObjectiveMismatch", ratio
    if actual > bound:
        return "RatioBoundExceeded", ratio
    return None, ratio


class Speed:
    """Probe of the machine's momentary speed.

    CPU speed on a shared virtual machine can drift by +-20% over seconds,
    for CPU time as much as for wall time.  A fixed kernel of Fraction
    arithmetic, the solvers' own hot path, is timed between stretches of
    solver work; scaling each stretch by NOMINAL_S over the kernel time
    around it reports the time the work would take at a fixed speed.  The
    kernel is benchmark code, so a change to the solver cannot move it.
    """

    NOMINAL_S = 0.0017
    REPEATS = 3

    def __init__(self):
        self.samples: list[float] = []

    @staticmethod
    def _kernel() -> Fraction:
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(i, i + 7) * (i % 5)
        return acc

    def sample(self) -> float:
        """Median kernel time of REPEATS runs, with the collector paused."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(self.REPEATS):
                start = perf_counter()
                self._kernel()
                times.append(perf_counter() - start)
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def factor(self, before: float, after: float) -> float:
        return self.NOMINAL_S * 2 / (before + after)


class Loop:
    """Closed-loop solves over the pool, with every output checked."""

    def __init__(self, w: Workload, cases: list[Case]):
        self.w, self.cases = w, cases
        self.first: list = [None] * len(cases)   # schedule or failure of the first pass
        self.ratios: list = [None] * len(cases)
        self.durations: list[float] = []         # seconds per solver call
        self.scaled: list[float] = []            # the same at nominal machine speed
        self.failures: list[tuple[int, str]] = []
        self.attempted = 0

    def solve_one(self, i: int) -> float:
        case = self.cases[i]
        start = perf_counter()
        try:
            schedule, reported = solve(self.w, case)
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none retried
            schedule, error = None, type(exc).__name__
        else:
            error = None
        elapsed = perf_counter() - start
        ratio = None
        if error is None:
            try:
                error, ratio = check(self.w, case, schedule, reported)
            except Exception as exc:  # noqa: BLE001
                error, ratio = type(exc).__name__, None
        if self.attempted < len(self.cases):
            self.first[i] = schedule.assignment if error is None else f"failed:{error}"
            self.ratios[i] = ratio if error is None else None
        elif error is None and schedule.assignment != self.first[i]:
            error = "NonDeterministic"
        if error is not None:
            self.failures.append((case.seed, error))
        self.durations.append(elapsed)
        self.attempted += 1
        return elapsed

    def run(self, seconds: float, speed: "Speed") -> tuple[float, float]:
        """Solve until a whole pass is done and seconds have passed.

        Returns the raw wall time and the wall time at nominal machine speed;
        self.scaled gets the solve durations at nominal speed.
        """
        start = seg_start = perf_counter()
        before = speed.sample()
        seg_first, scaled_wall = 0, 0.0
        while True:
            self.solve_one(self.attempted % len(self.cases))
            now = perf_counter()
            done = self.attempted >= len(self.cases) and now - start >= seconds
            if done or now - seg_start >= SEGMENT_S:
                seg_wall = now - seg_start
                after = speed.sample()
                factor = speed.factor(before, after)
                scaled_wall += seg_wall * factor
                self.scaled += [d * factor for d in self.durations[seg_first:]]
                # the probe's own time is excluded from both walls
                start += perf_counter() - now
                seg_start, seg_first, before = perf_counter(), len(self.durations), after
            if done:
                return perf_counter() - start, scaled_wall

    def digest(self) -> str:
        blob = json.dumps(self.first, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def tail(durations: list[float]):
    """Highest whole percentile with at least 10 solves beyond it, or None."""
    n = len(durations)
    pct = (100 * (n - 10)) // n if n > 10 else 0
    if pct <= 50:
        return None
    rank = math.ceil(pct * n / 100)
    return pct, sorted(durations)[rank - 1]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "rational_backend": "gmpy2.mpq" if rationals.HAVE_GMPY else "fractions.Fraction",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def setup(w: Workload, seed: int, speed: Speed) -> tuple[list[Case], float]:
    """The pool, and the median set-up time at nominal machine speed."""
    times: list[float] = []
    before = speed.sample()
    while len(times) < SETUP_MIN or (sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX):
        start = perf_counter()
        cases = build_pool(w, seed)
        elapsed = perf_counter() - start
        after = speed.sample()
        times.append(elapsed * speed.factor(before, after))
        before = after
    return cases, statistics.median(times)


def end_to_end(w: Workload, seed: int, seconds: float) -> tuple[Loop, dict]:
    speed = Speed()
    cases, setup_s = setup(w, seed, speed)
    loop = Loop(w, cases)
    wall, scaled_wall = loop.run(seconds, speed)
    ok = [r for r in loop.ratios if r is not None]
    verified = loop.attempted - len(loop.failures)
    # one solve per instance: the partial last pass would tilt the mix
    first_pass = loop.scaled[:len(cases)]
    metrics = {
        "solves_per_s": (verified / scaled_wall, "1/s"),
        "solve_ms_p50": (statistics.median(first_pass) * 1e3, "ms"),
        "max_ratio": (max(ok, default=0.0), "ratio"),
        "mean_ratio": (statistics.fmean(ok) if ok else 0.0, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"timed phase: {wall:.3f} s raw, {scaled_wall:.3f} s at nominal speed, "
          f"{loop.attempted} solves over a pool of {len(cases)}; speed probe median "
          f"{statistics.median(speed.samples) * 1e3:.3f} ms (nominal {Speed.NOMINAL_S * 1e3} ms)")
    print(f"raw: solves_per_s = {verified / wall!r} 1/s, "
          f"solve_ms_p50 = {statistics.median(loop.durations[:len(cases)]) * 1e3!r} ms")
    tl = tail(first_pass)
    if tl is None:
        print(f"solve_ms_tail = omitted ms (only {len(first_pass)} solves)")
    else:
        print(f"solve_ms_tail = {tl[1] * 1e3!r} ms (p{tl[0]} of {len(first_pass)} solves)")
    print(f"failed_frac = {len(loop.failures) / loop.attempted!r} ratio "
          f"({len(loop.failures)} of {loop.attempted})")
    return loop, metrics


def per_layer(w: Workload, seed: int) -> tuple[Loop, dict]:
    rec = layers.Recorder()
    with layers.installed(rec) as sites:
        cases = build_pool(w, seed)
    loop, plain = Loop(w, cases), Loop(w, cases)
    # overhead: the first quarter of the pool is solved untraced too, each
    # instance right before its traced solve so machine-speed drift cancels
    quarter = max(1, len(cases) // 4)
    untraced = 0.0
    traced = []
    for i in range(len(cases)):
        if i < quarter:
            untraced += plain.solve_one(i)
        with layers.installed(rec):
            traced.append(loop.solve_one(i))
    for name, where in sites.items():
        print(f"rebound {name} in {', '.join(where)}")
    print("deferred: simplex pivot counts and the phase-1/phase-2 split are not visible "
          "from outside solve_extreme_point; they need an in-program recorder")
    values = layers.summarize(rec)
    values["trace.untraced_s"] = untraced
    values["trace.traced_s"] = sum(traced[:quarter])
    values["trace.overhead_s"] = values["trace.traced_s"] - untraced
    loop.failures += plain.failures
    loop.attempted += plain.attempted
    units = dict(layers.metric_names()) | {
        "trace.untraced_s": "s", "trace.traced_s": "s", "trace.overhead_s": "s"}
    total_self = sum(values[f"{m}.self_s"] for m in layers.MODULES)
    print(f"traced pass: {sum(traced):.3f} s over {len(cases)} solves, "
          f"{len(rec.spans)} spans; tracing overhead on the first {quarter} solves: "
          f"{values['trace.overhead_s']:.3f} s over {untraced:.3f} s untraced")
    print("self time by function:")
    funcs = [f"{m}.{a}" for m, a, _, _ in layers.TARGETS]
    for name in sorted(funcs, key=lambda f: -values[f"{f}.self_s"]):
        share = values[f"{name}.self_s"] / total_self if total_self else 0.0
        print(f"  {name:40s} {values[name + '.self_s']:10.4f} s {share:7.1%} "
              f"calls {values[name + '.calls']:.0f}")
    return loop, {k: (values[k], units[k]) for k in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    for key, value in environment().items():
        print(f"env {key}: {value}")
    print(f"workload {args.workload}: {w.why}; seeds "
          f"[{args.seed * w.pool}, {(args.seed + 1) * w.pool}), held-out seed {HELD_OUT_SEED}")
    if args.trace:
        loop, metrics = per_layer(w, args.seed)
    else:
        loop, metrics = end_to_end(w, args.seed, args.seconds)
    for seed, error in loop.failures:
        print(f"failure: instance seed {seed}: {error}")
    print(f"digest sha256: {loop.digest()}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
