"""Reach list: the shapes of the ROADMAP reach table, solved in full mode.

    python3 tools/reach.py

Each shape is solved at the default enumeration budget (FullEnum()), with
costs 1..10, eps_user = 1/2 and, for the L_p norm, p = 2.  The shapes run
one at a time, each in its own child process under a wall cap of CAP
seconds; a child past the cap is killed and reported as timed out.  One line per
shape says whether the solve finished, its wall time in the child (the
solve alone, not the start-up) and, when it failed, the error type.

This is a report, not a gate: the exit status is 0 whatever the solves do.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAP = 120.0  # wall cap per shape, seconds

# (objective, machine counts, jobs, seed), in the order of the reach table
SHAPES = [
    ("makespan", (2, 2), 8, 0),
    ("makespan", (2, 2), 12, 0),
    ("makespan", (2, 2), 14, 0),
    ("makespan", (3, 3), 12, 0),
    ("makespan", (3, 3), 20, 0),
    ("lpnorm", (1, 1, 1), 4, 0),
    ("lpnorm", (1, 1, 1), 4, 1),
    ("lpnorm", (2, 2), 5, 0),
    ("lpnorm", (2, 2), 5, 1),
    ("lpnorm", (3, 3), 6, 0),
    ("lpnorm", (3, 3), 6, 1),
    ("lpnorm", (2, 2, 2), 6, 0),
    ("lpnorm", (2, 2, 2), 6, 1),
    ("lpnorm", (3, 3), 7, 0),
    ("lpnorm", (3, 3), 8, 0),
    ("lpnorm", (2, 2, 2), 8, 0),
]


def solve_one(index: int) -> dict:
    """Solve SHAPES[index] in this process: its outcome as a JSON-able dict."""
    sys.path.insert(0, str(ROOT / "src"))
    from typesched import lpnorm, makespan
    from typesched.errors import TypeschedError
    from typesched.model import GeneratorSpec, generate_instance
    from typesched.modes import FullEnum
    from typesched.rationals import rat

    objective, counts, n, seed = SHAPES[index]
    inst = generate_instance(GeneratorSpec(n, 1, counts, 1, 10), seed)
    start = time.perf_counter()
    try:
        if objective == "makespan":
            makespan.makespan_ptas(inst, rat(1, 2), FullEnum())
        else:
            lpnorm.lpnorm_ptas(inst, 2, rat(1, 2), FullEnum())
    except TypeschedError as exc:
        return {"finished": False, "seconds": time.perf_counter() - start,
                "error": type(exc).__name__}
    return {"finished": True, "seconds": time.perf_counter() - start, "error": None}


def run_one(index: int) -> dict:
    """Solve SHAPES[index] in a child process killed after CAP seconds."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(index)]
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=CAP)
    except subprocess.TimeoutExpired:
        return {"finished": False, "seconds": CAP, "error": f"timed out after {CAP:g} s"}
    if done.returncode != 0:
        last = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {"finished": False, "seconds": None, "error": f"child failed: {last}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        print(json.dumps(solve_one(args.child)))
        return
    print(f"{'objective':<9} {'machines':<10} {'n':>3} {'seed':>4}  {'result':<8} {'time':>8}  error")
    for index, (objective, counts, n, seed) in enumerate(SHAPES):
        out = run_one(index)
        shape = ",".join(map(str, counts))
        result = "solved" if out["finished"] else "failed"
        seconds = "-" if out["seconds"] is None else f"{out['seconds']:.2f} s"
        print(f"{objective:<9} ({shape}){'':<{8 - len(shape)}} {n:>3} {seed:>4}  "
              f"{result:<8} {seconds:>8}  {out['error'] or ''}", flush=True)


if __name__ == "__main__":
    main()
