"""The benchmark's tracer hooks cqrate functions by name, and reports a name
it cannot find as absent rather than failing.  This test resolves every hook,
so a refactor that renames or drops a hooked function fails here too."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves():
    tracer = _tracer()
    assert len(tracer.HOOKS) == 20
    for module, path, _ in tracer.HOOKS:
        _, fn = tracer._resolve(module, path)
        assert callable(fn), f"{module}.{path}"
