"""Benchmark hooks: every name the span tracer wraps exists in the package.

bench/tracer.py lists its targets as (module, attribute) pairs and skips the
ones it cannot find, so a renamed or deleted function would silently drop a
per-layer metric.  This loads the tracer by path and resolves each target
the way Tracer.install does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", _load_tracer().TARGETS,
                         ids=lambda t: f"{t[1]}.{t[2]}")
def test_tracer_target_resolves(target):
    _, modname, attr, _, _ = target
    owner = importlib.import_module(modname)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # a method must be the class's own, as Tracer.install patches it there
    assert name in (vars(owner) if path else dir(owner)), f"{modname}.{attr}"
    assert callable(getattr(owner, name))
