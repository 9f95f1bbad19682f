"""The solvers leave no reference cycles behind.

A cycle keeps everything it reaches alive until the cyclic collector runs:
a nested function that calls itself by name holds itself through its own
closure cell, and with it every variable it closes over (a whole rounding
problem, say).  Solves free their data by reference counting alone.
"""

import ast
import gc
from pathlib import Path

from typesched.lpnorm import lpnorm_ptas
from typesched.makespan import makespan_ptas
from typesched.model import GeneratorSpec, generate_instance
from typesched.modes import FullEnum, Guided
from typesched.oracle import exact_solve
from typesched.rationals import rat

SRC = Path(__file__).resolve().parent.parent / "src"


def test_solves_leave_no_cyclic_garbage():
    # guided and full solves of both objectives, and the oracle behind their
    # certificates
    makespan_insts = [
        generate_instance(GeneratorSpec(n, dims, (2, 2), 1, 10), seed)
        for n, dims, seed in ((4, 1, 3), (6, 2, 11), (7, 1, 40), (5, 2, 9))
    ]
    lpnorm_insts = [generate_instance(GeneratorSpec(3, 1, (1, 1), 1, 10), s) for s in (1, 2)]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for inst in makespan_insts:
            opt = exact_solve(inst)
            for mode in (Guided(opt.witness), FullEnum()):
                makespan_ptas(inst, rat(1, 2), mode)
        for inst in lpnorm_insts:
            opt = exact_solve(inst, "lp_norm", p=2)
            for mode in (Guided(opt.witness), FullEnum()):
                lpnorm_ptas(inst, 2, rat(1, 2), mode)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_no_nested_function_calls_itself():
    offenders = set()
    for path in sorted((SRC / "typesched").glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if any(
                    isinstance(node, ast.Name) and node.id == inner.name
                    for node in ast.walk(inner)
                ):
                    offenders.add(f"{path.name}:{inner.lineno}")
    assert sorted(offenders) == []
