"""The benchmark tracer's contract with the library.

perfbench/layers.py rebinds the functions named in its TARGETS by name, so
renaming or deleting one of them breaks only a traced benchmark run.  These
tests enter the tracer against the current library and check that every
target is found, rebound, and restored on exit.  Full mode walks only the
L_p guesses under its limit, without iterating enumerate_guesses, so the
stream is checked by tracing enumerate_guesses directly: its traced yields,
and the guesses_tried row the tracer derives from them, equal the stream's
length.  The solver's own guesses_tried counts the guesses it runs, which
are the CP models the tracer sees built.
"""

import importlib
import sys
import types
from pathlib import Path

from typesched import lpnorm
from typesched.model import GeneratorSpec, generate_instance
from typesched.modes import FullEnum
from typesched.rationals import rat

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers() -> types.ModuleType:
    # compiled from its text, so loading it writes nothing next to it
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), vars(module))
    return module


def bindings(targets) -> dict:
    """Every name bound in a typesched module, and each traced method."""
    out = {}
    for where, mod in list(sys.modules.items()):
        if where == "typesched" or where.startswith("typesched."):
            for key, value in vars(mod).items():
                out[(where, key)] = value
    for module, attr, _, _ in targets:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(importlib.import_module(f"typesched.{module}"), cls_name)
            out[(f"typesched.{module}.{cls_name}", meth)] = vars(cls)[meth]
    return out


def test_every_tracer_target_is_rebound_and_restored():
    layers = load_layers()
    for module in layers.MODULES:
        importlib.import_module(f"typesched.{module}")
    before = bindings(layers.TARGETS)
    with layers.installed(layers.Recorder()) as sites:
        assert set(sites) == {f"{m}.{a}" for m, a, _, _ in layers.TARGETS}
        assert all(sites.values()), [name for name, where in sites.items() if not where]
        during = bindings(layers.TARGETS)
        for module, attr, _, _ in layers.TARGETS:
            key = (f"typesched.{module}", attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                key = (f"typesched.{module}.{cls_name}", meth)
            assert during[key] is not before[key], f"{module}.{attr} was not rebound"
    after = bindings(layers.TARGETS)
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []


def test_full_mode_reads_the_guess_stream_the_tracer_sees():
    # full mode walks only the guesses under its limit; guesses_tried counts
    # the CP models it builds, while the tracer's row of that name is still
    # the length of the stream that enumerate_guesses, its target, yields
    assert_traced_guess_count((1, 1), rat(1, 2), 486)


def test_full_mode_on_three_types_reads_the_guess_stream_the_tracer_sees():
    # the stream's length is the one the product over all three types yielded
    assert_traced_guess_count((1, 1, 1), 1, 46230)


def assert_traced_guess_count(counts, eps_user, expected):
    layers = load_layers()
    inst = generate_instance(GeneratorSpec(3, 1, counts, 1, 10), 41)
    rec = layers.Recorder()
    with layers.installed(rec):
        res = lpnorm.lpnorm_ptas(inst, 2, eps_user, FullEnum(10**6))
        streamed = sum(1 for _ in lpnorm.enumerate_guesses(inst, 2, res.eps_internal, 10**6))
    values = layers.summarize(rec)
    assert streamed == expected
    assert values["lpnorm.enumerate_guesses.yielded"] == expected
    assert values["lpnorm.guesses_tried"] == expected
    assert res.guesses_tried == values["lpnorm.build_cp_model.calls"] > 0
