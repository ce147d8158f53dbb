"""Smoke test of the benchmark at a tiny optimizer budget: every workload
runs one untraced and one traced pass, passes its checks, produces the same
documents with and without tracing, and finds every trace hook.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

TINY = {"region-pure": {"restarts": 1, "iters": 4},
        "markov-mixed": {"restarts": 1, "iters": 4},
        "exact-eval": {}}

# Per-layer metrics each workload must move, so a hook that stops firing fails.
EXERCISED = {
    "region-pure": ("idelta.informations.calls", "idelta.climb.calls", "cli.self_s",
                    "region.region_to_doc.self_s", "idelta.optimize.calls"),
    "markov-mixed": ("idelta.informations.mixed.self_s", "qcore.reduced_density.calls",
                     "region.markov_interpolation.self_s"),
    "exact-eval": ("codes.coded_outputs.passes_per_verify", "qcore.apply_isometry.self_s",
                   "codes.load_code.self_s", "selftest.run_selftest.self_s"),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_pass_checks_and_trace(name, tmp_path):
    workload = workloads.WORKLOADS[name](ROOT, 0, tmp_path, **TINY[name])
    wall, plain = workloads.run_pass(workload)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced = workloads.run_pass(workload, tracer)
    finally:
        tracer.uninstall()
    tasks = {t.name: t for t in workload.tasks}
    for (task, _, outcome), (_, _, again) in zip(plain, traced):
        assert workload.check(tasks[task], outcome) == [], task
        assert again.doc == outcome.doc, f"{task}: tracing changed the document"
    assert tracer.absent == []
    metrics = tracer.metrics([traced_wall], [wall])
    for metric in EXERCISED[name]:
        assert metrics[metric] > 0, metric
    layers = sum(metrics[f"layer.{layer}.self_s"] for layer in LAYERS)
    assert layers + metrics["trace.residue_s"] == pytest.approx(metrics["trace.wall_s"])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _, _ in run.END_TO_END]
    per_layer = Tracer().metrics([1.0], [1.0])
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact-eval",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
