"""Run the benchmark over a seed range and summarize it.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--out FILE]
                                 [--compare FILE]

For every workload, runs ``run.py`` once per seed with tracing off and once
with tracing on (the first seed), one process at a time.  For each end-to-end
metric it reports the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median next to the bound in BENCHMARK.json, and the
same for the unscaled times of the ``raw:`` line; it also keeps the schedule
digest of every seed and the traced per-layer table.  Every run lasts
``run_seconds`` of BENCHMARK.json.  ``--compare`` checks another summary
against this one: it must have the same run length, medians may not be worse
by more than the bound, and the digests must be identical.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RAW = re.compile(r"(\w+) = (\S+) ")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = {}
    for line in lines[:-1]:
        key, sep, value = line.partition(": ")
        if key in ("digest sha256", "failure") or key.startswith("env "):
            info.setdefault(key, []).append(value)
        elif line.startswith("solve_ms_tail = ") or line.startswith("failed_frac = "):
            info[line.split(" = ")[0]] = line.split(" = ", 1)[1]
        elif line.startswith("raw: "):
            info["raw"] = {name: float(value) for name, value in RAW.findall(line)}
    return {"result": result, "info": info}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def worse_by(metric: dict, parent: float, child: float) -> float:
    if not parent:
        return 0.0
    change = (child - parent) / parent
    return -change if metric["better"] == "higher" else change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--no-trace", action="store_true", help="skip the traced run")
    ap.add_argument("--out", help="write the summary JSON here")
    ap.add_argument("--compare", help="earlier summary to check this one against")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    summary: dict = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = {}
        for seed in seeds:
            runs[seed] = run(workload, seed, seconds, 0)
            r = runs[seed]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
        first = runs[seeds[0]]
        summary.setdefault("environment", {
            k[4:]: v[0] for k, v in first["info"].items() if k.startswith("env ")})
        entry = {
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "failures": {s: r["info"].get("failure", []) for s, r in runs.items()
                         if r["result"]["failed"]},
            "digests": {str(s): r["info"]["digest sha256"][0] for s, r in runs.items()},
            "solve_ms_tail": {str(s): r["info"].get("solve_ms_tail") for s, r in runs.items()},
            "end_to_end": {},
            "raw": {},
        }
        for name, metric in metrics.items():
            stats = summarize([r["result"]["metrics"][name]["value"] for r in runs.values()])
            stats["bound"] = metric["bound"]
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] <= metric["bound"] / 3 else "  SPREAD ABOVE BOUND/3"
            ok = ok and stats["spread"] <= metric["bound"]
            print(f"  {name:14s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                  f"q3 {stats['q3']:.6g}  spread {stats['spread']:.2%} (bound {metric['bound']:.0%}){flag}")
        for name in first["info"].get("raw", {}):
            stats = summarize([r["info"]["raw"][name] for r in runs.values()])
            entry["raw"][name] = stats
            print(f"  raw {name:10s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                  f"q3 {stats['q3']:.6g}  spread {stats['spread']:.2%}")
        if not args.no_trace:
            traced = run(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {"seed": seeds[0], **{
                k: v["value"] for k, v in traced["result"]["metrics"].items()}}
        ok = ok and entry["correct"]
        summary["workloads"][workload] = entry

    if args.compare:
        parent = json.loads(Path(args.compare).read_text())
        if parent["run_seconds"] != seconds:
            print(f"compare: {args.compare} has run_seconds {parent['run_seconds']}, not {seconds}")
            return 1
        for workload, entry in summary["workloads"].items():
            before = parent["workloads"].get(workload)
            if before is None:
                continue
            for name, metric in metrics.items():
                worse = worse_by(metric, before["end_to_end"][name]["median"],
                                 entry["end_to_end"][name]["median"])
                verdict = "ok" if worse <= metric["bound"] else "WORSE THAN BOUND"
                ok = ok and worse <= metric["bound"]
                print(f"compare {workload} {name}: {worse:+.2%} worse (bound {metric['bound']:.0%}) {verdict}")
            same = all(before["digests"].get(s, d) == d for s, d in entry["digests"].items())
            ok = ok and same
            print(f"compare {workload} digests: {'identical' if same else 'DIFFERENT'}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
