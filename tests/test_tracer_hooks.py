"""The benchmark tracer's hooks name functions that exist.

bench_e2e/tracer.py wraps chromarank's layer boundaries by "module:attr"
name, and a hook whose function was removed or renamed only reads 0 there.
This test reads those names from the tracer and resolves them itself, so
the suite fails when a hooked function goes.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench_e2e" / "tracer.py"


def test_every_tracer_hook_names_a_function_that_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_e2e_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    # The tracer's dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    targets = [hook.target for hook in tracer.HOOKS] + [tracer.CACHE_TARGET]
    assert len(targets) > 1
    for target in targets:
        module_name, path = target.split(":")
        owner = importlib.import_module(module_name)
        for name in path.split("."):
            owner = getattr(owner, name)
        assert callable(owner), target
