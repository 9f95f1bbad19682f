"""The benchmark tracer's contract with the library.

perfbench/layers.py rebinds the functions named in its TARGETS by name, so
renaming or deleting one of them breaks only a traced benchmark run.  This
test enters the tracer against the current library and checks that every
target is found, rebound, and restored on exit.
"""

import importlib
import sys
import types
from pathlib import Path

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
