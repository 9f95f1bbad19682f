"""Paired benchmark runs: this checkout against another one.

    python3 tools/pairs.py --against DIR --workload NAME [NAME ...] [--seed N]
        [--seconds S] [--pairs P]

Runs perfbench/run.py --trace 0 of this checkout (the change) and of DIR
(the parent) in P pairs, alternating which side runs first, each run with
the same workload, seed and run length.  --workload takes one or more
workload names of BENCHMARK.json, or all; the workloads run one after the
other.  Every run gets its own empty bytecode cache (-X pycache_prefix,
with PYTHONDONTWRITEBYTECODE=1), so both sides compile their sources afresh
and neither reads a stale .pyc; nothing is written into either checkout.

The runs must agree on the schedules: the tool stops with status 1 as soon
as the two sides print different digests.  Otherwise it prints, per
workload and per end-to-end metric of BENCHMARK.json, each side's median
and quartiles, how many pairs the change won (ties count for neither side),
a verdict and whether a gain may be claimed.  The verdict is OVER BOUND
when the change's median is worse than the parent's by more than the
metric's bound; otherwise unresolved when the parent's own interquartile
range exceeds the bound (times the parent's median) and some change run
does not beat every parent run, as such a spread can hide a loss within
the bound; otherwise within bound.  A gain may be claimed with at least
ten pairs, at least nine tenths of them won and the medians apart by more
than the parent's interquartile range.  A last table gives, per workload,
the failed solves of each side and the metrics over their bound or
unresolved.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py of tree: its metric values, digest and failures."""
    with tempfile.TemporaryDirectory(prefix="pairs-pycache-") as cache:
        argv = [sys.executable, "-X", f"pycache_prefix={cache}", "perfbench/run.py",
                "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        last = (done.stderr.strip().splitlines() or ["no output"])[-1]
        sys.exit(f"{tree}: run.py failed: {last}")
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("digest "))
    report = json.loads(lines[-1])
    values = {name: m["value"] for name, m in report["metrics"].items()}
    return {"values": values, "digest": digest, "failed": report["failed"]}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summary(metric: dict, parent: list[float], change: list[float]) -> tuple[str, str]:
    """(the metric's line, its verdict: OVER BOUND, unresolved or within bound)."""
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = (cm - pm) if higher else (pm - cm)
    # relative loss of the change's median against the parent's
    loss = -gain / abs(pm) if pm else 0.0
    beats_all = min(change) > max(parent) if higher else max(change) < min(parent)
    if loss > metric["bound"]:
        verdict = "OVER BOUND"
    elif p3 - p1 > metric["bound"] * abs(pm) and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    claim = len(parent) >= 10 and wins >= 0.9 * len(parent) and gain > p3 - p1
    moved = (cm / pm - 1) * 100 if pm else 0.0
    return (f"{metric['name']:<13} parent {pm:>10.4g} [{p1:.4g}, {p3:.4g}]  "
            f"change {cm:>10.4g} [{c1:.4g}, {c3:.4g}]  {moved:+6.1f}%  "
            f"wins {wins}/{len(parent)}  {verdict}  "
            f"{'gain claimable' if claim else 'no claim'}"), verdict


def compare(bench: dict, sides: dict, workload: str, args) -> tuple | None:
    """Runs the pairs of one workload and prints its summary: (failed solves
    of the parent, of the change, the metrics over their bound, the
    unresolved metrics), or None when the digests differ."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], workload, args.seed, args.seconds))
        p, c = runs["parent"][-1], runs["change"][-1]
        print(f"{workload} pair {i + 1}/{args.pairs} ({order[0]} first): solves_per_s "
              f"parent {p['values']['solves_per_s']:.1f} change {c['values']['solves_per_s']:.1f}",
              file=sys.stderr, flush=True)
        if p["digest"] != c["digest"]:
            print(f"{workload}: digests differ: parent {p['digest']} change {c['digest']}")
            return None

    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    print(f"{workload} seed {args.seed}, {args.seconds:g}-s runs, {args.pairs} pairs; "
          f"digest {runs['change'][0]['digest'][:16]}; failed solves parent "
          f"{failed['parent']}, change {failed['change']}")
    verdicts: dict[str, list[str]] = {"OVER BOUND": [], "unresolved": [], "within bound": []}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        line, verdict = summary(metric, [r["values"][name] for r in runs["parent"]],
                                [r["values"][name] for r in runs["change"]])
        print(line, flush=True)
        verdicts[verdict].append(name)
    return failed["parent"], failed["change"], verdicts["OVER BOUND"], verdicts["unresolved"]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, type=Path,
                        help="the other checkout (the parent side)")
    parser.add_argument("--workload", required=True, nargs="+", metavar="NAME",
                        help=f"one or more of {', '.join(names)}, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    workloads = names if args.workload == ["all"] else list(dict.fromkeys(args.workload))
    unknown = [w for w in workloads if w not in names]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}: "
                     f"choose from {', '.join(names)} or all")
    against = args.against.resolve()
    if not (against / "perfbench" / "run.py").is_file():
        parser.error(f"{against} has no perfbench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"parent": against, "change": ROOT}
    results = {}
    for workload in workloads:
        result = compare(bench, sides, workload, args)
        if result is None:
            return 1
        results[workload] = result
        print()
    print("workload          failed parent  failed change  over bound  unresolved")
    for workload, (parent, change, over, unresolved) in results.items():
        print(f"{workload:<17} {parent:>13}  {change:>13}  {', '.join(over) or 'none'}  "
              f"{', '.join(unresolved) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
