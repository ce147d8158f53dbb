"""Seeded property suites: the norm/entropy inequality checks, the transfer
operator contract, optimizer-vs-oracle, and the region sandwich.

Each suite is a pure function of its seed, so two runs with the same seed
produce identical counts (and identical CLI output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import idelta, qcore, region, source
from .errors import InternalError
from .idelta import OptimizerOptions
from .qcore import DensityOperator, DimsSpec
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


def _random_pair(rng, dims) -> tuple[DensityOperator, DensityOperator]:
    spec = DimsSpec(dims)
    d = spec.total_dim
    return (DensityOperator(qcore.random_density(d, rng), spec),
            DensityOperator(qcore.random_density(d, rng), spec))


def _seeded_suite(name: str, key: int, check):
    """A suite of `count` instances from one seeded generator: `check(rng)`
    draws an instance and returns its violation, or None when it holds."""

    def suite(seed: int, count: int = 1000) -> SuiteResult:
        rng = _rng(seed, key)
        bad = []
        for i in range(count):
            problem = check(rng)
            if problem is not None:
                bad.append(f"instance {i}: {problem}")
        return SuiteResult(name, count, len(bad), tuple(bad[:5]))

    suite.__doc__ = check.__doc__
    return suite


def _check_fvdg(rng) -> str | None:
    """1 - F <= T <= sqrt(1 - F^2) on random state pairs."""
    rho, sig = _random_pair(rng, [("A", int(rng.integers(2, 5)))])
    f = qcore.fidelity(rho, sig)
    t = qcore.trace_distance(rho, sig)
    if not (1.0 - f <= t + SLACK and t <= math.sqrt(max(1.0 - f * f, 0.0)) + SLACK):
        return f"F={f}, T={t}"
    return None


def _check_pinsker(rng) -> str | None:
    """||rho - sigma||_1 <= sqrt(2 ln2 S(rho||sigma)) on full-rank pairs."""
    rho, sig = _random_pair(rng, [("A", int(rng.integers(2, 5)))])
    lhs = 2.0 * qcore.trace_distance(rho, sig)
    rel = qcore.relative_entropy(rho, sig)
    if lhs > math.sqrt(2.0 * math.log(2.0) * rel) + SLACK:
        return f"||.||_1={lhs}, S(rho||sigma)={rel}"
    return None


def _check_fannes(rng) -> str | None:
    """|S(rho) - S(sigma)| <= eps log d + h(eps) with eps the trace distance."""
    d = int(rng.integers(2, 5))
    rho, sig = _random_pair(rng, [("A", d)])
    eps = qcore.trace_distance(rho, sig)
    gap = abs(qcore.von_neumann_entropy(rho) - qcore.von_neumann_entropy(sig))
    if gap > eps * math.log2(d) + qcore.binary_entropy(min(eps, 1.0)) + SLACK:
        return f"gap={gap}, eps={eps}"
    return None


def _check_afw(rng) -> str | None:
    """|S(A|B)_rho - S(A|B)_sigma| <= 2 eps log|A| + 2 h(eps)."""
    da = int(rng.integers(2, 4))
    db = int(rng.integers(2, 4))
    rho, sig = _random_pair(rng, [("A", da), ("B", db)])
    eps = qcore.trace_distance(rho, sig)
    gap = abs(qcore.conditional_entropy(rho, ["A"], ["B"])
              - qcore.conditional_entropy(sig, ["A"], ["B"]))
    if gap > 2.0 * eps * math.log2(da) + 2.0 * qcore.binary_entropy(min(eps, 1.0)) + SLACK:
        return f"gap={gap}, eps={eps}"
    return None


def _check_ssa(rng) -> str | None:
    """Strong subadditivity: I(A:B|C) >= -1e-8 on random tripartite states."""
    m = qcore.random_density(8, rng)
    rho = DensityOperator(m, DimsSpec([("A", 2), ("B", 2), ("C", 2)]))
    try:
        cmi = qcore.conditional_mutual_information(rho, ["A"], ["B"], ["C"])
    except InternalError as exc:
        return str(exc)
    if cmi < -1e-8:
        return f"cmi={cmi}"
    return None


def _check_purify(rng) -> str | None:
    """Purification round trip and basis invariance of the entropy."""
    d = int(rng.integers(2, 5))
    rank = int(rng.integers(1, d + 1))
    m = qcore.random_density(d, rng, rank=rank)
    rho = DensityOperator(m, DimsSpec([("A", d)]))
    amp = qcore.purify(rho)
    back = DensityOperator(amp @ amp.conj().T, rho.dims)
    if qcore.trace_distance(back, rho) > 1e-10:
        return "purify round trip error"
    u = qcore.random_isometry(d, d, rng)
    rot = DensityOperator(u @ m @ u.conj().T, rho.dims)
    if abs(qcore.von_neumann_entropy(rot) - qcore.von_neumann_entropy(rho)) > 1e-10:
        return "entropy not unitarily invariant"
    return None


suite_fvdg = _seeded_suite("fvdg", 1, _check_fvdg)
suite_pinsker = _seeded_suite("pinsker", 2, _check_pinsker)
suite_fannes = _seeded_suite("fannes", 3, _check_fannes)
suite_afw = _seeded_suite("afw", 4, _check_afw)
suite_ssa = _seeded_suite("ssa", 5, _check_ssa)
suite_purify = _seeded_suite("purify", 6, _check_purify)


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
        x0 = rep.witness
        for x in range(src.alphabet_size):
            checks += 1
            t = source.transfer_operator(src, x0, x)
            lhs = np.kron(np.eye(src.dim_b), t) @ src.psi[x0].reshape(-1)
            err = float(np.linalg.norm(lhs - src.psi[x].reshape(-1)))
            nrm = qcore.operator_norm(t)
            if err > 1e-8:
                bad.append(f"source {i}, x={x}: reconstruction error {err}")
            elif nrm > 1.0 / math.sqrt(rep.lambda0) + 1e-8:
                bad.append(f"source {i}, x={x}: norm {nrm} over bound")
    return SuiteResult("transfer", checks, len(bad), tuple(bad[:5]))


_ORACLE_OPTS = OptimizerOptions(restarts=6, iters_per_stage=40)


def suite_oracle(seed: int, count: int | None = None) -> SuiteResult:
    """Optimizer vs brute-force oracle on the |B| = 2 reference sources,
    plus the data-processing ceiling and the feasibility contract."""
    del count
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
            elif res.converged and res.constraint > delta + idelta.TOL_FEAS:
                bad.append(f"{src.name} delta={delta}: infeasible result")
    return SuiteResult("oracle", checks, len(bad), tuple(bad[:5]))


def suite_sandwich(seed: int, count: int | None = None) -> SuiteResult:
    """Inner region contained in the outer region on a 50x50 sample grid for
    the reference sources; generic collapse on SRC-B."""
    del count
    opts = replace(_ORACLE_OPTS, seed=seed)
    bad = []
    checks = 0
    for src in (source_a(), source_b(), source_c()):
        prof = source.entropic_profile(src)
        est = idelta.estimate_I0_tilde(src, opts)
        i0 = min(est.i0, prof.i_x_b)
        i0t = min(max(est.i0_tilde, i0), prof.i_x_b)
        inner = region.inner_bound_region(prof, i0)
        outer = region.outer_bound_region(prof, i0t)
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
            if est.i0 > 0.05:
                bad.append(f"SRC-B: I0 estimate {est.i0} > 0.05 (no generic collapse)")
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


def run_selftest(seed: int = 0, suites: list[str] | None = None,
                 count: int | None = None) -> list[SuiteResult]:
    names = suites if suites else list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; available: {sorted(SUITES)}")
    results = []
    for name in names:
        fn = SUITES[name]
        results.append(fn(seed, count) if count is not None else fn(seed))
    return results
