"""Seeded property suites: the norm/entropy inequality checks, the transfer
operator contract, optimizer-vs-oracle, and the region sandwich.

Each suite is a pure function of its seed, so two runs with the same seed
produce identical counts (and identical CLI output).  The inequality suites
draw every instance in seed order, then evaluate the instances of each
dimension in stacks of up to STACK_SIZE; each stacked kernel gives a matrix
the bits of a lone evaluation.  A state that fails validation is its
instance's violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import idelta, qcore, region, source
from .errors import InternalError, SpecError
from .idelta import OptimizerOptions
from .reference import source_a, source_b, source_c

SLACK = 1e-9


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: int
    violations: int
    details: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def as_dict(self) -> dict:
        return {"name": self.name, "checks": self.checks,
                "violations": self.violations, "passed": self.passed,
                "details": list(self.details)}


def _rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


# Instances per evaluated stack: large enough that numpy's per-call cost is
# spread thin, small enough that a stack's temporaries (a few MB at 1000
# 8x8 states) do not raise the process's peak memory.
STACK_SIZE = 32


def _seeded_suite(name: str, key: int, draw, evaluate):
    """A suite of `count` instances from one seeded generator.  `draw(rng)`
    draws an instance as (group, raw arrays), in seed order; up to STACK_SIZE
    instances of a group are evaluated together by `evaluate(group,
    *stacks)`, one stack per raw array, which returns each instance's
    violation or None."""

    def suite(seed: int, count: int = 1000) -> SuiteResult:
        rng = _rng(seed, key)
        problems: list[str | None] = [None] * count
        pending: dict = {}

        def flush(group):
            index, arrays = zip(*pending.pop(group))
            for i, problem in zip(index, evaluate(group, *map(np.array, zip(*arrays)))):
                problems[i] = problem

        for i in range(count):
            group, arrays = draw(rng)
            pending.setdefault(group, []).append((i, arrays))
            if len(pending[group]) == STACK_SIZE:
                flush(group)
        for group in list(pending):
            flush(group)
        bad = [f"instance {i}: {p}" for i, p in enumerate(problems) if p is not None]
        return SuiteResult(name, count, len(bad), tuple(bad[:5]))

    suite.__doc__ = evaluate.__doc__
    return suite


def _screen(problems: list, rows: np.ndarray, *states: np.ndarray) -> np.ndarray:
    """Validate the states of the instances `rows`, one stack per state with
    one matrix per row: record each failing instance's first problem, and
    return the mask of rows whose states all pass."""
    keep = np.ones(len(rows), dtype=bool)
    for stack in states:
        for k, problem in enumerate(qcore.density_problems(stack)):
            if problem and keep[k]:
                problems[rows[k]] = problem
                keep[k] = False
    return keep


def _states(*draws: np.ndarray):
    """Density stacks from stacks of Ginibre draws: each instance's problem
    list, the instances whose states are valid, and those states."""
    states = [qcore.density_from_ginibre(g) for g in draws]
    problems: list[str | None] = [None] * len(draws[0])
    keep = _screen(problems, np.arange(len(problems)), *states)
    return problems, np.flatnonzero(keep), [s[keep] for s in states]


def _draw_pair(rng):
    d = int(rng.integers(2, 5))
    return d, (qcore.ginibre((d, d), rng), qcore.ginibre((d, d), rng))


def _draw_bipartite_pair(rng):
    da = int(rng.integers(2, 4))
    db = int(rng.integers(2, 4))
    return (da, db), (qcore.ginibre((da * db, da * db), rng),
                      qcore.ginibre((da * db, da * db), rng))


def _draw_tripartite(rng):
    return (2, 2, 2), (qcore.ginibre((8, 8), rng),)


def _draw_purify(rng):
    d = int(rng.integers(2, 5))
    rank = int(rng.integers(1, d + 1))
    return (d, rank), (qcore.ginibre((d, rank), rng), qcore.ginibre((d, d), rng))


def _fvdg(d, g_rho, g_sig) -> list:
    """1 - F <= T <= sqrt(1 - F^2) on random state pairs."""
    problems, rows, (rho, sig) = _states(g_rho, g_sig)
    fs = qcore.fidelity_of_stack(rho, sig).tolist()
    ts = qcore.trace_distance_of_stack(rho, sig).tolist()
    for i, f, t in zip(rows, fs, ts):
        if not (1.0 - f <= t + SLACK and t <= math.sqrt(max(1.0 - f * f, 0.0)) + SLACK):
            problems[i] = f"F={f}, T={t}"
    return problems


def _pinsker(d, g_rho, g_sig) -> list:
    """||rho - sigma||_1 <= sqrt(2 ln2 S(rho||sigma)) on full-rank pairs."""
    problems, rows, (rho, sig) = _states(g_rho, g_sig)
    lhss = (2.0 * qcore.trace_distance_of_stack(rho, sig)).tolist()
    rels = qcore.relative_entropy_of_stack(rho, sig).tolist()
    for i, lhs, rel in zip(rows, lhss, rels):
        if lhs > math.sqrt(2.0 * math.log(2.0) * rel) + SLACK:
            problems[i] = f"||.||_1={lhs}, S(rho||sigma)={rel}"
    return problems


def _fannes(d, g_rho, g_sig) -> list:
    """|S(rho) - S(sigma)| <= eps log d + h(eps) with eps the trace distance."""
    problems, rows, (rho, sig) = _states(g_rho, g_sig)
    epss = qcore.trace_distance_of_stack(rho, sig).tolist()
    gaps = np.abs(qcore.entropy_of_stack(rho) - qcore.entropy_of_stack(sig)).tolist()
    for i, eps, gap in zip(rows, epss, gaps):
        if gap > eps * math.log2(d) + qcore.binary_entropy(min(eps, 1.0)) + SLACK:
            problems[i] = f"gap={gap}, eps={eps}"
    return problems


def _afw(dims, g_rho, g_sig) -> list:
    """|S(A|B)_rho - S(A|B)_sigma| <= 2 eps log|A| + 2 h(eps)."""
    da, db = dims
    problems, rows, (rho, sig) = _states(g_rho, g_sig)
    epss = qcore.trace_distance_of_stack(rho, sig).tolist()
    gaps = np.abs(qcore.conditional_entropy_of_stack(rho, dims, [0], [1])
                  - qcore.conditional_entropy_of_stack(sig, dims, [0], [1])).tolist()
    for i, eps, gap in zip(rows, epss, gaps):
        if gap > 2.0 * eps * math.log2(da) + 2.0 * qcore.binary_entropy(min(eps, 1.0)) + SLACK:
            problems[i] = f"gap={gap}, eps={eps}"
    return problems


def _ssa(dims, g) -> list:
    """Strong subadditivity: I(A:B|C) >= -TOL_SSA on random tripartite states."""
    problems, rows, (rho,) = _states(g)
    cmis = qcore.conditional_mutual_information_of_stack(rho, dims, [0], [1], [2]).tolist()
    for i, cmi in zip(rows, cmis):
        try:
            qcore.check_ssa(cmi)
        except InternalError as exc:
            problems[i] = str(exc)
    return problems


def _purify(_dims, g, g_u) -> list:
    """Purification round trip and basis invariance of the entropy."""
    problems, rows, (rho,) = _states(g)
    g_u = g_u[rows]
    back = np.zeros_like(rho)
    for k, amp in enumerate(qcore.purify_of_stack(rho)):
        back[k] = amp @ amp.conj().T
    keep = _screen(problems, rows, back)
    rows, rho, back, g_u = rows[keep], rho[keep], back[keep], g_u[keep]
    keep = qcore.trace_distance_of_stack(back, rho) <= 1e-10
    for i in rows[~keep]:
        problems[i] = "purify round trip error"
    rows, rho, g_u = rows[keep], rho[keep], g_u[keep]
    u = qcore.isometry_from_ginibre(g_u)
    rot = u @ rho @ u.conj().swapaxes(-1, -2)
    keep = _screen(problems, rows, rot)
    rows, rho, rot = rows[keep], rho[keep], rot[keep]
    for i in rows[np.abs(qcore.entropy_of_stack(rot) - qcore.entropy_of_stack(rho)) > 1e-10]:
        problems[i] = "entropy not unitarily invariant"
    return problems


suite_fvdg = _seeded_suite("fvdg", 1, _draw_pair, _fvdg)
suite_pinsker = _seeded_suite("pinsker", 2, _draw_pair, _pinsker)
suite_fannes = _seeded_suite("fannes", 3, _draw_pair, _fannes)
suite_afw = _seeded_suite("afw", 4, _draw_bipartite_pair, _afw)
suite_ssa = _seeded_suite("ssa", 5, _draw_tripartite, _ssa)
suite_purify = _seeded_suite("purify", 6, _draw_purify, _purify)


def suite_transfer(seed: int, count: int = 100) -> SuiteResult:
    """Transfer-operator contract on random generic sources: exact state
    reconstruction and the operator-norm bound 1/sqrt(lambda0)."""
    rng = _rng(seed, 7)
    bad = []
    checks = 0
    for i in range(count):
        nx = int(rng.integers(2, 4))
        src = source.random_generic_source(rng, nx=nx, dim_b=2, eps=1e-2)
        rep = source.genericity_report(src)
        t = source.transfer_operators(src, rep.witness)
        # (1_B ⊗ T_x)|psi_x0> is the amplitude matrix m_x0 T_x^T
        errs = np.linalg.norm(src.psi[rep.witness] @ t.swapaxes(1, 2) - src.psi, axis=(1, 2))
        nrms = qcore.operator_norm(t)
        checks += src.alphabet_size
        for x, (err, nrm) in enumerate(zip(errs.tolist(), nrms.tolist())):
            if err > 1e-8:
                bad.append(f"source {i}, x={x}: reconstruction error {err}")
            elif nrm > 1.0 / math.sqrt(rep.lambda0) + 1e-8:
                bad.append(f"source {i}, x={x}: norm {nrm} over bound")
    return SuiteResult("transfer", checks, len(bad), tuple(bad[:5]))


_ORACLE_OPTS = OptimizerOptions(restarts=6, iters_per_stage=40)


def suite_oracle(seed: int) -> SuiteResult:
    """Optimizer vs brute-force oracle on the |B| = 2 reference sources,
    plus the data-processing ceiling and the feasibility contract."""
    opts = replace(_ORACLE_OPTS, seed=seed)
    bad = []
    checks = 0
    for src in (source_a(), source_b()):
        ixb = source.entropic_profile(src).i_x_b
        curve = idelta.idelta_curve(src, (0.0, 0.1, 1.0), opts)
        for delta, res in zip(curve.deltas, curve.results):
            checks += 1
            ora = idelta.oracle_grid(src, delta)
            if res.value < ora - idelta.TOL_OPT:
                bad.append(f"{src.name} delta={delta}: optimizer {res.value} < oracle {ora}")
            elif res.value > ixb + 1e-6:
                bad.append(f"{src.name} delta={delta}: value over I(X:B)")
            elif res.param is not None and res.constraint > delta + idelta.TOL_FEAS:
                bad.append(f"{src.name} delta={delta}: infeasible result")
    return SuiteResult("oracle", checks, len(bad), tuple(bad[:5]))


def suite_sandwich(seed: int) -> SuiteResult:
    """Inner region contained in the outer region on a 50x50 sample grid for
    the reference sources; generic collapse on SRC-B."""
    opts = replace(_ORACLE_OPTS, seed=seed)
    bad = []
    checks = 0
    for src in (source_a(), source_b(), source_c()):
        prof = source.entropic_profile(src)
        curve = idelta.idelta_curve(src, opts=opts)
        _, _, inner, outer = region.estimated_regions(prof, curve.i0, curve.i0_tilde)
        rx_hi = max(v.rx for v in inner.vertices + outer.vertices) + 1.0
        rb_hi = max(v.rb for v in inner.vertices + outer.vertices) + 1.0
        for rx in np.linspace(0.0, rx_hi, 50):
            for rb in np.linspace(0.0, rb_hi, 50):
                checks += 1
                p = region.RatePoint(float(rx), float(rb))
                if region.region_contains(inner, p) and \
                        not region.region_contains(outer, p, slack=1e-6):
                    bad.append(f"{src.name}: inner point ({rx:.3f},{rb:.3f}) outside outer")
        if src.name == "SRC-B":
            checks += 2
            if curve.i0 > 0.05:
                bad.append(f"SRC-B: I0 estimate {curve.i0} > 0.05 (no generic collapse)")
            gap = region.boundary_hausdorff(inner, outer)
            if gap > 0.1:
                bad.append(f"SRC-B: inner/outer Hausdorff gap {gap} > 0.1")
    return SuiteResult("sandwich", checks, len(bad), tuple(bad[:5]))


SUITES = {
    "fvdg": suite_fvdg,
    "pinsker": suite_pinsker,
    "fannes": suite_fannes,
    "afw": suite_afw,
    "ssa": suite_ssa,
    "purify": suite_purify,
    "transfer": suite_transfer,
    "oracle": suite_oracle,
    "sandwich": suite_sandwich,
}


def run_selftest(seed: int = 0, suites: list[str] | None = None) -> list[SuiteResult]:
    if seed < 0:
        raise SpecError(f"seed must be >= 0, got {seed}")
    names = suites if suites else list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise SpecError(f"unknown suites {unknown}; available: {sorted(SUITES)}")
    return [SUITES[name](seed) for name in names]
