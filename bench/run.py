"""cqrate benchmark: runs one workload for a fixed time and prints its
metrics, ending with one JSON line.

    python3 bench/run.py --workload region-pure --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
With `--trace 0` the run times passes over the workload's task list and
reports the end-to-end metrics.  With `--trace 1` it alternates untraced and
traced passes and reports the per-layer metrics, with the spans written to
`bench/out/spans-<workload>.jsonl`.  Outputs are checked after timing; a task
that fails a check counts in `failed`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS, Tracer, unit_of

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
MIN_PASSES = 3

# The host's speed drifts by 15-30% within a minute on a shared machine.  A
# fixed kernel timed between tasks tracks that drift, and the task and pass
# times are reported at the speed where the kernel takes CALIBRATION_S (its
# mean on the shared 2-core VM the bounds were set on).
CALIBRATION_S = 0.07
CALIBRATION_REPS = 1500
CALIBRATION_INTERVAL_S = 0.5
# Set-up is process start-up, which that kernel does not track, and three
# quarters of it is importing numpy.  Each set-up probe is therefore paired
# with a fresh interpreter that only imports numpy, and set-up is reported at
# the speed where that takes SETUP_REF_S (typical on that VM).
SETUP_REF_S = 0.15

# A fresh interpreter imports cqrate and loads the workload's specs; argv[1]
# is a JSON list of [source spec, code spec or null] pairs.
SETUP_PROBE = """
import json, sys
sys.path.insert(0, "src")
import cqrate
from cqrate import codes, source
for src_path, code_path in json.loads(sys.argv[1]):
    with open(src_path) as fh:
        src = source.load_source(json.load(fh))
    if code_path:
        with open(code_path) as fh:
            codes.load_code(json.load(fh), src)
"""

END_TO_END = (  # name, unit, direction
    ("wall_s", "s", "lower"),
    ("task_s_p50", "s", "lower"),
    ("task_s_p90", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("bound_bits", "bits", "higher"),
)


def environment() -> dict:
    """Versions, BLAS, cores, commit and thread settings; recorded, never set."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = "unknown"  # a checkout without .git has no commit to report
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        sha = head.read_text().strip()
        ref = ROOT / ".git" / sha[5:] if sha.startswith("ref: ") else None
        if ref is not None and ref.is_file():
            sha = ref.read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "threads_env": {k: os.environ[k] for k in
                        ("CQRATE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                        if k in os.environ},
    }


def calibrate() -> float:
    """Wall time of a fixed kernel in the idiom of cqrate's hot loop (small
    Hermitian eigensolves, a QR, an einsum, Python float work).  It runs no
    cqrate code, so a change to the package cannot move it."""
    import numpy as np

    rng = np.random.default_rng(20181122)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h4 = g @ g.conj().T
    h2, v, o = h4[:2, :2].copy(), g[:, :2].copy(), g.reshape(2, 2, 4)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        acc += float(np.linalg.eigvalsh(h4)[0]) + float(np.linalg.eigvalsh(h2)[0])
        acc += abs(np.linalg.qr(v)[1][0, 0])
        acc += float(np.einsum("cwr,cvr->wv", o, o.conj()).real[0, 0])
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


class HostSpeed:
    """Calibration samples taken between tasks, at most one per
    CALIBRATION_INTERVAL_S, and the factor that scales raw times to the
    reference speed."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATION_INTERVAL_S:
            self.samples.append(calibrate())
            self._last = time.perf_counter()

    def factor(self) -> float:
        return CALIBRATION_S / statistics.mean(self.samples)


def _interpreter_s(args: list[str]) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def probe_setup(files: list[list[str]]) -> tuple[float, float]:
    """Wall times of a fresh interpreter importing cqrate and loading the
    workload's specs, and of one that only imports numpy."""
    reference = _interpreter_s(["-c", "import numpy"])
    return _interpreter_s(["-c", SETUP_PROBE, json.dumps(files)]), reference


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered) / 100) - 1, 0)]


def check_passes(workload, passes) -> tuple[int, int, list[str], dict]:
    """Untimed checks: each distinct document is checked once, and a document
    that differs from the first pass's breaks determinism.  Returns
    (attempted, failed, problems, first pass outcomes that passed)."""
    first = {name: outcome for name, _, outcome in passes[0][1]}
    tasks = {t.name: t for t in workload.tasks}
    verdicts: dict[tuple[str, str], list[str]] = {}
    attempted = failed = 0
    problems = []
    for _, results in passes:
        for name, _, outcome in results:
            attempted += 1
            key = (name, outcome.doc)
            if key not in verdicts:
                try:
                    verdicts[key] = workload.check(tasks[name], outcome)
                except Exception as exc:  # a malformed document fails its task
                    verdicts[key] = [f"check raised {type(exc).__name__}: {exc}"]
            bad = list(verdicts[key])
            if outcome.doc != first[name].doc:
                bad.append("document differs from the first pass")
            if bad:
                failed += 1
                problems.append(f"{name}: {'; '.join(bad)}")
    good = {name: o for name, o in first.items() if not verdicts[(name, o.doc)]}
    return attempted, failed, problems, good


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cqrate").is_dir() or not (ROOT / "specs").is_dir():
        print(f"error: no cqrate source tree (src/, specs/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    print("env " + json.dumps(environment(), sort_keys=True))

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, Path(workdir))
        workloads.run_timed(workload.tasks[0])  # warm-up, untimed

        speed = HostSpeed()
        tracer = Tracer() if args.trace else None
        untraced, traced = [], []  # (wall, results) per pass
        setups = []  # one set-up probe before each untraced pass
        start = time.perf_counter()
        while True:
            setups.append(probe_setup(workload.setup_files()))
            untraced.append(workloads.run_pass(workload, between=speed.sample))
            if tracer is not None:
                tracer.install()
                try:
                    traced.append(workloads.run_pass(workload, tracer))
                finally:
                    tracer.uninstall()
            if time.perf_counter() - start >= args.seconds and len(untraced) >= MIN_PASSES:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, problems, good = check_passes(workload, untraced + traced)
        bound_bits = workload.bound_bits({name: o.doc for name, o in good.items()})
    n_warnings = sum(o.warnings for _, results in untraced + traced for _, _, o in results)

    for line in problems[:20]:
        print("FAIL " + line)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(workload.tasks)} tasks; {attempted} attempted, "
          f"{failed} failed; {n_warnings} warnings captured (not failures)")
    digests = [(name, hashlib.sha256(outcome.doc.encode()).hexdigest())
               for name, _, outcome in untraced[0][1]]
    for name, digest in digests:
        print(f"digest {name} {digest}")
    print("digest run " + hashlib.sha256("".join(d for _, d in digests).encode()).hexdigest())

    walls = [wall for wall, _ in untraced]
    task_times = [s for _, results in untraced for _, s, _ in results]
    task_medians = [statistics.median(times) for times in
                    zip(*([s for _, s, _ in results] for _, results in untraced))]
    factor = speed.factor()
    print(f"raw pass walls (s): {[round(w, 4) for w in walls]}")
    print(f"raw set-up probes (s): {[round(p, 4) for p, _ in setups]}; numpy-only "
          f"interpreters (s): {[round(r, 4) for _, r in setups]}")
    print(f"calibration: {len(speed.samples)} samples, mean {statistics.mean(speed.samples):.4f}"
          f" s; times scaled by {factor:.4f}; {len(task_times)} task samples")

    if tracer is None:
        values = {
            "wall_s": factor * sum(task_medians),
            "task_s_p50": factor * statistics.median(task_times),
            "task_s_p90": factor * percentile(task_medians, 90),
            "setup_s": SETUP_REF_S * statistics.median(p / r for p, r in setups),
            "peak_rss_mb": peak_rss_mb,
            "bound_bits": bound_bits,
        }
        rows = [(name, values[name], unit, better) for name, unit, better in END_TO_END]
        rows.append(("fail_ratio", failed / attempted, "ratio", "lower"))
    else:
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}.jsonl")
        values = tracer.metrics([wall for wall, _ in traced], walls)
        rows = [(name, value, unit_of(name), "") for name, value in values.items()]
        if tracer.absent:
            print("absent hooks: " + ", ".join(tracer.absent))
        layers_s = sum(values[f"layer.{layer}.self_s"] for layer in LAYERS)
        print(f"layers' self time {layers_s:.6f} s + untraced residue "
              f"{values['trace.residue_s']:.6f} s = traced wall {values['trace.wall_s']:.6f} s"
              f" per pass")
    for name, value, unit, better in rows:
        print(f"{name:40s} {value:14.6g} {unit:6s} {better}")
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows if name != "fail_ratio"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
