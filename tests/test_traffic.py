"""What the package's users run reaches every function in `src/cqrate`.

The traffic is every CLI command on every spec in `specs/`, `selftest --seed
0`, and one pass of each benchmark workload with its checks, at small
optimizer budgets.  A module-level function or method that none of it calls
is test-only code, which belongs in `tests/conftest.py`, or one of the few
functions kept on purpose (`KEPT`).  The trace runs in a fresh interpreter
and starts before cqrate is imported, so caches that other tests filled do
not hide a call and a call made at import counts.  To list what the traffic
does not reach:

    PYTHONPATH=src python tests/test_traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cqrate"
SPECS = ROOT / "specs"
WORKLOADS = ROOT / "bench" / "workloads.py"
SOURCES = ("src_a", "src_b", "src_c", "mixed_example")
BUDGET = ["--seed", "0", "--restarts", "1", "--iters", "2"]

# Unreached by the traffic, and kept in src/ all the same.
KEPT = {
    "codes.average_fidelity",  # a hook of the benchmark's tracer (bench/tracer.py)
    "idelta.optimize_I0_minus",  # the unassisted I0^-, for the unassisted region
    "source.transfer_operators",  # the one-source form the README documents
}


def defined() -> set[str]:
    """`module.qualname` of every module-level function and every method of
    a module-level class in the package."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                names.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                names |= {f"{path.stem}.{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef)}
    return names


def _cli(*argv) -> None:
    # imported under the trace: selftest builds its suites at import
    from cqrate import cli

    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main([str(a) for a in argv])
    # exit 1 with a document is a verify-code verdict
    if rc not in (0, 1) or not out.getvalue():
        raise RuntimeError(f"cqrate {' '.join(map(str, argv))} exited {rc}")


def _traffic(tmp: Path) -> None:
    """The commands, the selftest and the benchmark passes."""
    for s in SOURCES:
        spec = SPECS / f"{s}.json"
        _cli("analyze", "--source", spec)
        _cli("region", "--source", spec)
        _cli("region", "--source", spec, *BUDGET, "--mode", "unassisted", "--format", "csv")
        _cli("region", "--source", spec, "--i0", "0.1", "--i0-tilde", "0.2")
        _cli("idelta", "--source", spec, "--delta-grid", "0,0.01,0.1", "--emit-channels",
             *BUDGET)
        for code in ("code_identity", "code_trunc1", "code_explicit"):
            if code != "code_explicit" or s in ("src_b", "mixed_example"):
                _cli("verify-code", "--source", spec, "--code", SPECS / f"{code}.json")
    _cli("selftest", "--seed", "0", "--out", tmp / "selftest.json")

    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclass
    spec.loader.exec_module(workloads)
    budgets = {"region-pure": {"restarts": 1, "iters": 4},
               "markov-mixed": {"restarts": 1, "iters": 4}}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(ROOT, 0, tmp, **budgets.get(name, {}))
        _, results = workloads.run_pass(workload)
        tasks = {t.name: t for t in workload.tasks}
        for task, _, outcome in results:
            problems = workload.check(tasks[task], outcome)
            if problems:
                raise RuntimeError(f"{name} {task}: {problems}")
        workload.bound_bits({task: outcome.doc for task, _, outcome in results})


def reached() -> set[str]:
    """`module.qualname` of every function of the package that the traffic
    calls, from the code objects that sys.setprofile sees called."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            _traffic(Path(tmp))
        finally:
            sys.setprofile(None)
    return {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in called
            if Path(code.co_filename).parent == PACKAGE}


def test_the_traffic_reaches_all_but_the_kept_functions():
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    unreached = set(json.loads(proc.stdout))
    assert not unreached - KEPT, f"test-only code in src/: {sorted(unreached - KEPT)}"
    assert not KEPT - unreached, f"kept, yet reached: {sorted(KEPT - unreached)}"


if __name__ == "__main__":
    print(json.dumps(sorted(defined() - reached())))
