"""Span tracing of cqrate's layers from outside the package.

`Tracer.install` replaces the hooked functions at every binding site in the
loaded `cqrate` modules (a name imported with `from` is a binding site of its
own) and `uninstall` puts the originals back.  Each call records a span
(name, start, end, parent) in memory; a span's self time is its duration
minus the durations of its child spans.  A hook the package no longer has is
reported as absent, so a refactor that renames one does not break the run.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute path, span name); the layer is the span name's first part.
HOOKS = (
    ("cqrate.cli", "main", "cli"),
    ("cqrate.source", "load_source", "source.load_source"),
    ("cqrate.source", "entropic_profile", "source.entropic_profile"),
    ("cqrate.idelta", "_optimize_ensemble", "idelta.optimize"),
    ("cqrate.idelta", "_climb", "idelta.climb"),
    ("cqrate.idelta", "_Evaluator.informations", "idelta.informations"),
    ("cqrate.idelta", "_qr_retract", "idelta.qr_retract"),
    ("cqrate.idelta", "_random_direction", "idelta.random_direction"),
    ("cqrate.qcore", "entropy_of_mat", "qcore.entropy_of_mat"),
    ("cqrate.qcore", "reduced_density_from_mat", "qcore.reduced_density"),
    ("cqrate.qcore", "reduced_density_from_vec", "qcore.reduced_density"),
    ("cqrate.qcore", "LabeledVector.apply_isometry", "qcore.apply_isometry"),
    ("cqrate.region", "markov_interpolation", "region.markov_interpolation"),
    ("cqrate.region", "region_to_doc", "region.region_to_doc"),
    ("cqrate.region", "qsr_point", "region.qsr_point"),
    ("cqrate.codes", "load_code", "codes.load_code"),
    ("cqrate.codes", "coded_outputs", "codes.coded_outputs"),
    ("cqrate.codes", "average_fidelity", "codes.average_fidelity"),
    ("cqrate.codes", "decoupling_cmi", "codes.decoupling_cmi"),
    ("cqrate.selftest", "run_selftest", "selftest.run_selftest"),
)

LAYERS = ("cli", "source", "idelta", "qcore", "region", "codes", "selftest")

# Spans of generators are timed per resumption, so the consumer's work
# between items is not charged to the generator.
GENERATORS = {"codes.coded_outputs"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("us_per_call"):
        return "us"
    if metric.endswith((".calls", "hooks_absent")):
        return "count"
    return "ratio"


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


def _ensemble_key(ens) -> tuple:
    """Content of an optimizer ensemble, so equal problems compare equal."""
    mats = ens.pure_mats if ens.pure_mats is not None else ens.mixed_rhos
    return (ens.probs.tobytes(),) + tuple(m.tobytes() for m in mats)


class Tracer:
    """Spans and counters of one traced run; `install` before the traced
    passes, `uninstall` after them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []   # (name id, start, end, parent)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[list[int]] = []                  # [span index, start, child ns]
        self._patched: list[tuple[object, str, object]] = []
        self._task_keys: set = set()

    # -- spans --------------------------------------------------------------

    def _open(self) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter_ns()
        self._stack.append([len(self.spans), start, 0])
        self.spans.append((0, start, 0, parent))

    def _close(self, name: str) -> None:
        end = time.perf_counter_ns()
        idx, start, child = self._stack.pop()
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.spans[idx] = (nid, start, end, self.spans[idx][3])
        dur = end - start
        self.calls[name] += 1
        self.self_ns[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def begin_task(self, kind: str) -> None:
        self.counts[f"tasks.{kind}"] += 1
        self._task_keys = set()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        if name in GENERATORS:
            def wrapper(*args, **kwargs):
                tracer.counts[name + ".passes"] += 1
                return tracer._iterate(name, fn(*args, **kwargs))
            return wrapper

        tag = {"idelta.informations": self._tag_informations,
               "idelta.climb": self._tag_climb}.get(name)

        def wrapper(*args, **kwargs):
            span = name if tag is None else tag(args)
            tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        if name == "idelta.optimize":
            def optimize(*args, **kwargs):
                result = wrapper(*args, **kwargs)
                tracer._count_optimize(args, kwargs, result)
                return result
            return optimize
        return wrapper

    def _iterate(self, name: str, gen):
        try:
            while True:
                self._open()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(name)
                yield item
        finally:
            gen.close()

    @staticmethod
    def _tag_informations(args) -> str:
        pure = getattr(getattr(args[0], "ens", None), "pure_mats", None) is not None
        return "idelta.informations.pure" if pure else "idelta.informations.mixed"

    def _tag_climb(self, args) -> str:
        ev = args[0]
        dim_b = getattr(getattr(ev, "ens", None), "dim_b", None)
        if dim_b is not None and (getattr(ev, "c", None), getattr(ev, "w", None)) in \
                ((dim_b, 1), (1, dim_b)):
            self.counts["idelta.climb.degenerate"] += 1
        return "idelta.climb"

    def _count_optimize(self, args, kwargs, result) -> None:
        """Distinct (ensemble, delta, options) problems per task, and the
        share of restarts that ended feasible."""
        try:
            key = (_ensemble_key(args[0]), args[1], repr(args[2:]), repr(sorted(kwargs.items())))
        except (AttributeError, IndexError, TypeError):
            key = None
        if key is None or key not in self._task_keys:
            self.counts["idelta.optimize.distinct"] += 1
            self._task_keys.add(key)
        restarts = getattr(result, "restarts_used", None)
        candidates = getattr(result, "candidates", None)
        if restarts is not None and candidates is not None:
            self.counts["idelta.optimize.restarts"] += restarts
            self.counts["idelta.optimize.feasible"] += len(candidates)

    # -- install ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook at each of its binding sites in cqrate's modules."""
        self.absent = []
        for module, path, name in HOOKS:
            try:
                owner, fn = _resolve(module, path)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            wrapped = self._wrap(name, fn)
            if "." in path:  # a method: its class is the one binding site
                self._patch(owner, path.rsplit(".", 1)[1], fn, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "cqrate":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, fn, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- results ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON header line with the span names, then one
        [name, start_ns, end_ns, parent] line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "absent": self.absent}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, traced_walls: list[float], untraced_walls: list[float]) -> dict:
        """Per-layer metrics per traced pass: calls and self times are
        divided by the number of traced passes."""
        calls, counts = self.calls, self.counts
        self_s = {k: v / 1e9 for k, v in self.self_ns.items()}
        passes = len(traced_walls)

        def per_pass(x: float) -> float:
            return x / passes

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        info_calls = calls["idelta.informations.pure"] + calls["idelta.informations.mixed"]
        root_s = sum(self_s.values())
        m = {
            "qcore.entropy_of_mat.calls": per_pass(calls["qcore.entropy_of_mat"]),
            "qcore.entropy_of_mat.self_s": per_pass(self_s.get("qcore.entropy_of_mat", 0.0)),
            "qcore.entropy_of_mat.us_per_call": 1e6 * ratio(
                self_s.get("qcore.entropy_of_mat", 0.0), calls["qcore.entropy_of_mat"]),
            "idelta.informations.calls": per_pass(info_calls),
            "idelta.informations.pure.self_s":
                per_pass(self_s.get("idelta.informations.pure", 0.0)),
            "idelta.informations.mixed.self_s":
                per_pass(self_s.get("idelta.informations.mixed", 0.0)),
            "idelta.informations.per_climb": ratio(info_calls, calls["idelta.climb"]),
            "idelta.qr_retract.calls": per_pass(calls["idelta.qr_retract"]),
            "idelta.qr_retract.self_s": per_pass(self_s.get("idelta.qr_retract", 0.0)),
            "idelta.random_direction.self_s":
                per_pass(self_s.get("idelta.random_direction", 0.0)),
            "idelta.climb.calls": per_pass(calls["idelta.climb"]),
            "idelta.climb.self_s": per_pass(self_s.get("idelta.climb", 0.0)),
            "idelta.climb.degenerate_ratio":
                ratio(counts["idelta.climb.degenerate"], calls["idelta.climb"]),
            "idelta.optimize.calls": per_pass(calls["idelta.optimize"]),
            "idelta.optimize.distinct_ratio":
                ratio(counts["idelta.optimize.distinct"], calls["idelta.optimize"]),
            "idelta.feasible_restart_ratio":
                ratio(counts["idelta.optimize.feasible"], counts["idelta.optimize.restarts"]),
            "qcore.reduced_density.calls": per_pass(calls["qcore.reduced_density"]),
            "qcore.reduced_density.self_s": per_pass(self_s.get("qcore.reduced_density", 0.0)),
            "qcore.apply_isometry.self_s": per_pass(self_s.get("qcore.apply_isometry", 0.0)),
            "codes.load_code.self_s": per_pass(self_s.get("codes.load_code", 0.0)),
            "source.load_source.self_s": per_pass(self_s.get("source.load_source", 0.0)),
            "source.entropic_profile.self_s":
                per_pass(self_s.get("source.entropic_profile", 0.0)),
            "codes.coded_outputs.passes_per_verify":
                ratio(counts["codes.coded_outputs.passes"], counts["tasks.verify-code"]),
            "codes.average_fidelity.self_s": per_pass(self_s.get("codes.average_fidelity", 0.0)),
            "codes.decoupling_cmi.self_s": per_pass(self_s.get("codes.decoupling_cmi", 0.0)),
            "region.markov_interpolation.self_s":
                per_pass(self_s.get("region.markov_interpolation", 0.0)),
            "region.region_to_doc.self_s": per_pass(self_s.get("region.region_to_doc", 0.0)),
            "region.qsr_point.self_s": per_pass(self_s.get("region.qsr_point", 0.0)),
            "cli.self_s": per_pass(self_s.get("cli", 0.0)),
            "selftest.run_selftest.self_s": per_pass(self_s.get("selftest.run_selftest", 0.0)),
        }
        for layer in LAYERS:
            m[f"layer.{layer}.self_s"] = per_pass(sum(
                v for k, v in self_s.items() if k.split(".")[0] == layer))
        m["trace.wall_s"] = per_pass(sum(traced_walls))
        m["trace.residue_s"] = per_pass(sum(traced_walls) - root_s)
        m["trace.hooks_absent"] = float(len(self.absent))
        m["trace_overhead_ratio"] = ratio(statistics.median(traced_walls),
                                          statistics.median(untraced_walls))
        return m
