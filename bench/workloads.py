"""The benchmark's three workloads: their fixed task lists and the untimed
correctness checks behind `fail_ratio`.

Every task drives cqrate through a public entry point (`cli.main` in-process,
`region.markov_interpolation`, `selftest.run_selftest`) and returns the
document it produced, so a pass can be hashed and checked after timing.
The optimizer budgets are constants of the workload: a change that claims a
speed-up must do the same search, not a smaller one.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cqrate import cli, idelta, qcore, region, selftest, source
from cqrate.idelta import OptimizerOptions

# Fixed optimizer budgets, the same on every commit.
REGION_RESTARTS = 2
REGION_ITERS = 10
MARKOV_RESTARTS = 2
MARKOV_ITERS = 4

# The optimizer-free selftest suites; `oracle` and `sandwich` repeat the
# optimizer work that region-pure already measures.
EXACT_SUITES = ("fvdg", "pinsker", "fannes", "afw", "ssa", "purify", "transfer")

TOL_IDENTITY = 1e-9   # float slack for identities computed in one expression


@dataclass(frozen=True)
class Task:
    name: str
    kind: str                      # region | idelta | markov | analyze | verify-code | selftest
    call: Callable[[], "Outcome"]


@dataclass(frozen=True)
class Outcome:
    rc: int | None      # exit code of a CLI task, None for a library call
    doc: str            # the output document (stdout of a CLI task)
    error: str = ""     # exception or stderr text
    warnings: int = 0   # warnings the call emitted (not failures)


def run_cli(argv: list[str]) -> Outcome:
    """cqrate's CLI in-process, with stdout, stderr and warnings captured."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return Outcome(rc, out.getvalue(), err.getvalue(), len(caught))


def run_timed(task: Task) -> tuple[float, Outcome]:
    """Wall time of one task; an exception is an outcome, not a crash."""
    t0 = time.perf_counter()
    try:
        outcome = task.call()
    except Exception as exc:  # the task failed; the run goes on
        outcome = Outcome(None, "", f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, outcome


def run_pass(workload: "Workload", tracer=None,
             between: Callable[[], None] | None = None) -> tuple[float, list]:
    """One pass over the task list: the summed task times and (task,
    seconds, outcome) per task.  `between` runs after each task, untimed."""
    results = []
    for task in workload.tasks:
        if tracer is not None:
            tracer.begin_task(task.kind)
        seconds, outcome = run_timed(task)
        results.append((task.name, seconds, outcome))
        if between is not None:
            between()
    return sum(seconds for _, seconds, _ in results), results


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _profile_problems(prof: dict) -> list[str]:
    """The entropic-profile identities and the cq-state inequalities."""
    bad = []
    s_b, s_bx, s_xb = prof["S_B"], prof["S_B_given_X"], prof["S_XB"]
    s_x, s_xgb, ixb = prof["S_X"], prof["S_X_given_B"], prof["I_X_B"]
    if abs(s_bx - (s_xb - s_x)) > TOL_IDENTITY:
        bad.append("S(B|X) != S(XB) - S(X)")
    if abs(s_xgb - (s_xb - s_b)) > TOL_IDENTITY:
        bad.append("S(X|B) != S(XB) - S(B)")
    if abs(ixb - (s_x + s_b - s_xb)) > TOL_IDENTITY:
        bad.append("I(X:B) != S(X) + S(B) - S(XB)")
    if min(s_bx, s_xgb, ixb) < -TOL_IDENTITY:
        bad.append("negative conditional entropy or mutual information of a cq state")
    if ixb > min(s_x, s_b) + TOL_IDENTITY:
        bad.append("I(X:B) above min(S(X), S(B))")
    return bad


def _in_halfplanes(halfplanes: list[dict], rx: float, rb: float, slack: float) -> bool:
    return all(h["aX"] * rx + h["aB"] * rb >= h["b"] - slack for h in halfplanes)


class Workload:
    """A fixed task list built from the seed, plus its checks.

    Each subclass is built as `cls(root, seed, workdir)`, where `workdir` is
    a scratch directory for files the workload generates; it sets `name` and
    `source_specs` and builds `tasks`.  `check` returns
    the problems found in one task's outcome and `bound_bits` the summed
    information values of one pass.
    """

    name = ""
    source_specs: tuple[str, ...] = ()

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.spec_paths = {s: root / "specs" / f"{s}.json" for s in self.source_specs}
        self.sources = {s: source.load_source(_load_json(p)) for s, p in self.spec_paths.items()}
        self.profiles = {s: source.entropic_profile(src) for s, src in self.sources.items()}
        self.tasks: list[Task] = []

    def setup_files(self) -> list[list[str]]:
        """(source spec, code spec or None) pairs a fresh interpreter loads."""
        return [[str(p), None] for p in self.spec_paths.values()]

    def check(self, task: Task, outcome: Outcome) -> list[str]:
        raise NotImplementedError

    def bound_bits(self, docs: dict[str, str]) -> float:
        raise NotImplementedError


def _cli_failure(outcome: Outcome, verdict_ok: bool = False) -> list[str]:
    """Exit 2 (input error), 3 (cap exceeded), an exception, or an exit 1
    without a document is a failure; exit 1 with a document is a verdict
    where `verdict_ok` says so."""
    if outcome.rc is None:
        return [f"raised {outcome.error.strip()}"]
    if outcome.rc == 0 or (outcome.rc == 1 and verdict_ok and outcome.doc):
        return []
    return [f"exit {outcome.rc}: {outcome.error.strip()[:200]}"]


# ---------------------------------------------------------------------------
# region-pure
# ---------------------------------------------------------------------------

class RegionPure(Workload):
    """`cqrate region` on the three pure reference sources and
    `cqrate idelta --emit-channels` on SRC-B and SRC-C."""

    name = "region-pure"
    source_specs = ("src_a", "src_b", "src_c")
    delta_grid = (0.01, 0.1)

    def __init__(self, root: Path, seed: int, workdir: Path,
                 restarts: int = REGION_RESTARTS, iters: int = REGION_ITERS):
        super().__init__(root, seed)
        budget = ["--seed", str(seed), "--restarts", str(restarts), "--iters", str(iters)]
        for s in ("src_a", "src_b", "src_c"):
            argv = ["region", "--source", str(self.spec_paths[s])] + budget
            self.tasks.append(Task(f"region:{s}", "region",
                                   lambda argv=argv: run_cli(argv)))
        grid = ",".join(repr(d) for d in self.delta_grid)
        for s in ("src_b", "src_c"):
            argv = (["idelta", "--source", str(self.spec_paths[s]), "--delta-grid", grid,
                     "--emit-channels"] + budget)
            self.tasks.append(Task(f"idelta:{s}", "idelta",
                                   lambda argv=argv: run_cli(argv)))
        self._oracle: dict[tuple[str, float], float] = {}

    def oracle(self, spec: str, delta: float) -> float:
        key = (spec, delta)
        if key not in self._oracle:
            self._oracle[key] = idelta.oracle_grid(self.sources[spec], delta)
        return self._oracle[key]

    def check(self, task: Task, outcome: Outcome) -> list[str]:
        bad = _cli_failure(outcome)
        if bad:
            return bad
        doc = json.loads(outcome.doc)
        spec = task.name.split(":", 1)[1]
        src = self.sources[spec]
        ixb = self.profiles[spec].i_x_b
        est = doc["estimates"]
        i0, i0t = est["I0"], est["I0_tilde"]
        if not (0.0 <= i0 <= i0t <= ixb + TOL_IDENTITY):
            bad.append(f"not 0 <= I0 {i0} <= I0~ {i0t} <= I(X:B) {ixb}")
        qubit = src.dim_b == 2
        if qubit and i0 < self.oracle(spec, 0.0) - idelta.TOL_OPT:
            bad.append(f"I0 {i0} below the oracle {self.oracle(spec, 0.0)}")
        if task.kind == "region":
            bad += _profile_problems(doc["profile"])
            bad += self._region_problems(doc)
            if qubit and i0t < self.oracle(spec, 1e-4) - idelta.TOL_OPT:
                bad.append(f"I0~ {i0t} below the oracle {self.oracle(spec, 1e-4)}")
        else:
            bad += self._idelta_problems(doc, spec, qubit)
        return bad

    def _region_problems(self, doc: dict) -> list[str]:
        bad = []
        regions = doc["regions"]
        for kind, reg in regions.items():
            hps = reg["halfplanes"]
            for v in reg["vertices"]:
                if not _in_halfplanes(hps, v["rX"], v["rB"], region.VERTEX_TOL):
                    bad.append(f"{kind} vertex {v} violates its half-planes")
            for rx, rb in reg["boundary_samples"]:
                if not _in_halfplanes(hps, rx, rb, region.VERTEX_TOL):
                    bad.append(f"{kind} boundary sample ({rx}, {rb}) outside the region")
                    break
        for v in regions["inner"]["vertices"]:  # the inner bound sits in the outer one
            if not _in_halfplanes(regions["outer"]["halfplanes"], v["rX"], v["rB"], 1e-6):
                bad.append(f"inner vertex {v} outside the outer region")
        qsr = doc["points"]["qsr"]
        if qsr is not None and abs(qsr["rX"] - doc["profile"]["S_X"]) > TOL_IDENTITY:
            bad.append("QSR point not at R_X = S(X)")
        return bad

    def _idelta_problems(self, doc: dict, spec: str, qubit: bool) -> list[str]:
        bad = []
        src = self.sources[spec]
        ixb = self.profiles[spec].i_x_b
        curve = doc["curve"]
        deltas, values, raw = curve["deltas"], curve["values"], curve["raw_values"]
        if list(values) != list(np.maximum.accumulate(raw)):
            bad.append("curve values are not the running maximum of the raw values")
        for d, v in zip(deltas, raw):
            if not (0.0 <= v <= ixb + TOL_IDENTITY):
                bad.append(f"I_delta({d}) = {v} outside [0, I(X:B)]")
            if qubit and v < self.oracle(spec, d) - idelta.TOL_OPT:
                bad.append(f"I_delta({d}) = {v} below the oracle {self.oracle(spec, d)}")
        for ch in doc["channels"]:
            if ch["stinespring"] is None:
                continue
            mat = np.array([[complex(re, im) for re, im in row] for row in ch["stinespring"]])
            param = idelta.make_channel_param(mat, src.dim_b, ch["c_dim"], ch["w_dim"])
            sigma, ixw, irwx = idelta.apply_channel(src, param)
            ixw_sigma = qcore.mutual_information(sigma, ["X"], ["W"])
            irwx_sigma = qcore.conditional_mutual_information(sigma, ["R"], ["W"], ["X"])
            d = ch["delta"]
            if max(abs(ixw - ch["value"]), abs(ixw_sigma - ch["value"])) > idelta.TOL_FEAS:
                bad.append(f"channel at delta={d}: I(X:W) {ixw_sigma} != value {ch['value']}")
            if max(abs(irwx - ch["constraint"]),
                   abs(irwx_sigma - ch["constraint"])) > idelta.TOL_FEAS:
                bad.append(f"channel at delta={d}: I(R:W|X) {irwx_sigma} "
                           f"!= constraint {ch['constraint']}")
            if irwx_sigma > d + idelta.TOL_FEAS:
                bad.append(f"channel at delta={d} is infeasible: I(R:W|X) = {irwx_sigma}")
        return bad

    def bound_bits(self, docs: dict[str, str]) -> float:
        """I0 and I0~ of every document plus every idelta curve value."""
        total = 0.0
        for text in docs.values():
            doc = json.loads(text)
            total += doc["estimates"]["I0"] + doc["estimates"]["I0_tilde"]
            total += sum(doc.get("curve", {}).get("values", []))
        return total


# ---------------------------------------------------------------------------
# markov-mixed
# ---------------------------------------------------------------------------

class MarkovMixed(Workload):
    """`region.markov_interpolation` with |Y| = 2: every optimized block is
    a mixed Y-conditioned state."""

    name = "markov-mixed"
    source_specs = ("src_b", "mixed_example")

    def __init__(self, root: Path, seed: int, workdir: Path,
                 restarts: int = MARKOV_RESTARTS, iters: int = MARKOV_ITERS):
        super().__init__(root, seed)
        opts = OptimizerOptions(seed=seed, restarts=restarts, iters_per_stage=iters)
        for s in self.source_specs:
            self.tasks.append(Task(f"markov:{s}", "markov",
                                   lambda s=s: self._markov(self.sources[s], opts)))

    @staticmethod
    def _markov(src, opts: OptimizerOptions) -> Outcome:
        points = region.markov_interpolation(src, 2, opts)
        return Outcome(None, _dumps([[p.rx, p.rb] for p in points]))

    def check(self, task: Task, outcome: Outcome) -> list[str]:
        if outcome.error:
            return [f"raised {outcome.error}"]
        prof = self.profiles[task.name.split(":", 1)[1]]
        points = json.loads(outcome.doc)
        bad = []
        if not points or abs(points[0][0] - prof.s_x_given_b) > TOL_IDENTITY \
                or abs(points[0][1] - prof.s_b) > TOL_IDENTITY:
            bad.append("the first point is not the DW point (S(X|B), S(B))")
        outer = region.outer_bound_region(prof, prof.i_x_b)
        for (rx, rb), (nrx, nrb) in zip(points, points[1:]):
            if not (nrx > rx and nrb < rb):
                bad.append(f"points ({rx}, {rb}) and ({nrx}, {nrb}) are not a Pareto front")
        for rx, rb in points:
            iyb = rx - prof.s_x_given_b
            iyw = 2.0 * (prof.s_b - rb) - iyb
            if not (-TOL_IDENTITY <= iyb <= prof.i_x_b + TOL_IDENTITY):
                bad.append(f"I(Y:B) = {iyb} outside [0, I(X:B)]")
            if not (-idelta.TOL_FEAS <= iyw <= iyb + idelta.TOL_FEAS):
                bad.append(f"I(Y:W) = {iyw} outside [0, I(Y:B) = {iyb}]")
            if not region.region_contains(outer, region.RatePoint(rx, rb), slack=1e-6):
                bad.append(f"point ({rx}, {rb}) beyond the converse")
        return bad

    def bound_bits(self, docs: dict[str, str]) -> float:
        """The largest I(Y:B) + I(Y:W) over each source's points, i.e. twice
        the best quantum-rate saving S(B) - R_B; the seeded random maps only
        add interior points, so this does not move with the seed."""
        total = 0.0
        for name, text in docs.items():
            s_b = self.profiles[name.split(":", 1)[1]].s_b
            total += max(2.0 * (s_b - rb) for _, rb in json.loads(text))
        return total


# ---------------------------------------------------------------------------
# exact-eval
# ---------------------------------------------------------------------------

def random_code_spec(src, n: int, assisted: bool, rng: np.random.Generator) -> dict:
    """An explicit code with Haar-random isometries: U_X a unitary on X^n,
    U_B compressing B^n by half, V decoding back with |W_D| just large
    enough for an isometry."""
    k = lv = 2 if assisted else 1
    nxn, dbn = src.alphabet_size ** n, src.dim_b ** n
    c_b = max(dbn // 2, 1)
    w_b = -(-dbn * k // (c_b * lv))
    w_d = -(-nxn * c_b * k // (nxn * dbn * lv))

    def matrix(out_dim: int, in_dim: int) -> list:
        m = qcore.random_isometry(out_dim, in_dim, rng)
        return [[[float(z.real), float(z.imag)] for z in row] for row in m]

    return {
        "n": n, "K": k, "L": lv, "mode": "assisted" if assisted else "unassisted",
        "U_X": {"matrix": matrix(nxn, nxn), "dims": {"C_X": nxn, "W_X": 1}},
        "U_B": {"matrix": matrix(c_b * lv * w_b, dbn * k), "dims": {"C_B": c_b, "W_B": w_b}},
        "V": {"matrix": matrix(nxn * dbn * lv * w_d, nxn * c_b * k), "dims": {"W_D": w_d}},
    }


class ExactEval(Workload):
    """`cqrate analyze` and `cqrate verify-code` on every source spec at
    n = 1, 2, plus the optimizer-free selftest suites."""

    name = "exact-eval"
    source_specs = ("src_a", "src_b", "src_c", "mixed_example")
    code_kinds = ("identity", "trunc1", "random", "random-assisted")

    def __init__(self, root: Path, seed: int, workdir: Path):
        super().__init__(root, seed)
        self.code_paths: dict[tuple[str, int, str], Path] = {}
        for si, s in enumerate(self.source_specs):
            self.tasks.append(Task(f"analyze:{s}", "analyze",
                                   lambda s=s: run_cli(["analyze", "--source",
                                                        str(self.spec_paths[s])])))
            for n in (1, 2):
                for ci, kind in enumerate(self.code_kinds):
                    path = workdir / f"code-{s}-n{n}-{kind}.json"
                    with open(path, "w") as fh:
                        json.dump(self._code_spec(s, si, n, ci, kind), fh)
                    self.code_paths[(s, n, kind)] = path
                    argv = ["verify-code", "--source", str(self.spec_paths[s]),
                            "--code", str(path)]
                    self.tasks.append(Task(f"verify-code:{s}:n{n}:{kind}", "verify-code",
                                           lambda argv=argv: run_cli(argv)))
        for suite in EXACT_SUITES:
            self.tasks.append(Task(f"selftest:{suite}", "selftest",
                                   lambda suite=suite: self._selftest(suite)))

    def _code_spec(self, s: str, si: int, n: int, ci: int, kind: str) -> dict:
        if kind == "identity":
            return {"builder": "identity", "n": n}
        if kind == "trunc1":
            return {"builder": "truncation", "n": n, "rank": 1}
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(si, n, ci)))
        return random_code_spec(self.sources[s], n, kind == "random-assisted", rng)

    def setup_files(self) -> list[list[str]]:
        return super().setup_files() + [[str(self.spec_paths[s]), str(p)]
                                        for (s, _, _), p in self.code_paths.items()]

    def _selftest(self, suite: str) -> Outcome:
        results = selftest.run_selftest(seed=self.seed, suites=[suite])
        return Outcome(None, _dumps([r.as_dict() for r in results]))

    def check(self, task: Task, outcome: Outcome) -> list[str]:
        if task.kind == "selftest":
            if outcome.error:
                return [f"raised {outcome.error}"]
            return [f"suite {r['name']}: {r['violations']} violations"
                    for r in json.loads(outcome.doc) if r["violations"] or not r["checks"]]
        bad = _cli_failure(outcome, verdict_ok=task.kind == "verify-code")
        if bad:
            return bad
        doc = json.loads(outcome.doc)
        if task.kind == "analyze":
            return _profile_problems(doc["profile"])
        fid, dec = doc["fidelity"], doc["decoupling"]
        f = fid["avg_fidelity"]
        if not 0.0 <= f <= 1.0:
            bad.append(f"average fidelity {f} outside [0, 1]")
        if abs(fid["epsilon"] - (1.0 - f)) > TOL_IDENTITY:
            bad.append("epsilon != 1 - F")
        rows = fid["per_sequence"]
        if abs(sum(r["weight"] for r in rows) - 1.0) > TOL_IDENTITY:
            bad.append("sequence weights do not sum to 1")
        if any(not 0.0 <= r["fidelity"] <= 1.0 for r in rows):
            bad.append("a per-sequence fidelity outside [0, 1]")
        if dec["cmi"] < -TOL_IDENTITY:
            bad.append(f"negative decoupling CMI {dec['cmi']}")
        if dec["pass"] != (dec["cmi"] <= dec["bound"] + 1e-8):
            bad.append("decoupling verdict disagrees with cmi <= bound")
        if (outcome.rc == 0) != dec["pass"]:
            bad.append(f"exit {outcome.rc} disagrees with the decoupling verdict")
        if task.name.endswith(":identity") and (f != 1.0 or dec["cmi"] > TOL_IDENTITY):
            bad.append(f"identity code: F = {f}, cmi = {dec['cmi']}")
        return bad

    def bound_bits(self, docs: dict[str, str]) -> float:
        """I(X:B) of every analyzed source; exact, so it moves only when the
        exact kernels change their numbers."""
        return sum(json.loads(text)["profile"]["I_X_B"]
                   for name, text in docs.items() if name.startswith("analyze:"))


WORKLOADS = {w.name: w for w in (RegionPure, MarkovMixed, ExactEval)}
