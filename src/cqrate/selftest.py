"""Seeded property suites: the norm/entropy inequality checks, the transfer
operator contract, optimizer-vs-oracle, and the region sandwich.

Each suite is a pure function of its seed, so two runs with the same seed
produce identical counts (and identical CLI output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import idelta, qcore, region, source
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


def _random_pair(rng, dim):
    r1 = qcore.random_density(dim, rng)
    r2 = qcore.random_density(dim, rng)
    return r1, r2


def suite_fvdg(seed: int, count: int = 1000) -> SuiteResult:
    """1 - F <= T <= sqrt(1 - F^2) on random state pairs."""
    rng = _rng(seed, 1)
    bad = []
    for i in range(count):
        d = int(rng.integers(2, 5))
        m1, m2 = _random_pair(rng, d)
        spec = DimsSpec([("A", d)])
        rho, sig = DensityOperator(m1, spec), DensityOperator(m2, spec)
        f = qcore.fidelity(rho, sig)
        t = qcore.trace_distance(rho, sig)
        if not (1.0 - f <= t + SLACK and t <= math.sqrt(max(1.0 - f * f, 0.0)) + SLACK):
            bad.append(f"instance {i}: F={f}, T={t}")
    return SuiteResult("fvdg", count, len(bad), tuple(bad[:5]))


def suite_pinsker(seed: int, count: int = 1000) -> SuiteResult:
    """||rho - sigma||_1 <= sqrt(2 ln2 S(rho||sigma)) on full-rank pairs."""
    rng = _rng(seed, 2)
    bad = []
    for i in range(count):
        d = int(rng.integers(2, 5))
        m1, m2 = _random_pair(rng, d)
        spec = DimsSpec([("A", d)])
        rho, sig = DensityOperator(m1, spec), DensityOperator(m2, spec)
        lhs = 2.0 * qcore.trace_distance(rho, sig)
        rel = qcore.relative_entropy(rho, sig)
        if lhs > math.sqrt(2.0 * math.log(2.0) * rel) + SLACK:
            bad.append(f"instance {i}: ||.||_1={lhs}, S(rho||sigma)={rel}")
    return SuiteResult("pinsker", count, len(bad), tuple(bad[:5]))


def suite_fannes(seed: int, count: int = 1000) -> SuiteResult:
    """|S(rho) - S(sigma)| <= eps log d + h(eps) with eps the trace distance."""
    rng = _rng(seed, 3)
    bad = []
    for i in range(count):
        d = int(rng.integers(2, 5))
        m1, m2 = _random_pair(rng, d)
        spec = DimsSpec([("A", d)])
        rho, sig = DensityOperator(m1, spec), DensityOperator(m2, spec)
        eps = qcore.trace_distance(rho, sig)
        gap = abs(qcore.von_neumann_entropy(rho) - qcore.von_neumann_entropy(sig))
        if gap > eps * math.log2(d) + qcore.binary_entropy(min(eps, 1.0)) + SLACK:
            bad.append(f"instance {i}: gap={gap}, eps={eps}")
    return SuiteResult("fannes", count, len(bad), tuple(bad[:5]))


def suite_afw(seed: int, count: int = 1000) -> SuiteResult:
    """|S(A|B)_rho - S(A|B)_sigma| <= 2 eps log|A| + 2 h(eps)."""
    rng = _rng(seed, 4)
    bad = []
    for i in range(count):
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        m1, m2 = _random_pair(rng, da * db)
        spec = DimsSpec([("A", da), ("B", db)])
        rho, sig = DensityOperator(m1, spec), DensityOperator(m2, spec)
        eps = qcore.trace_distance(rho, sig)
        gap = abs(qcore.conditional_entropy(rho, ["A"], ["B"])
                  - qcore.conditional_entropy(sig, ["A"], ["B"]))
        if gap > 2.0 * eps * math.log2(da) + 2.0 * qcore.binary_entropy(min(eps, 1.0)) + SLACK:
            bad.append(f"instance {i}: gap={gap}, eps={eps}")
    return SuiteResult("afw", count, len(bad), tuple(bad[:5]))


def suite_ssa(seed: int, count: int = 1000) -> SuiteResult:
    """Strong subadditivity: I(A:B|C) >= -1e-8 on random tripartite states."""
    rng = _rng(seed, 5)
    bad = []
    for i in range(count):
        m = qcore.random_density(8, rng)
        rho = DensityOperator(m, DimsSpec([("A", 2), ("B", 2), ("C", 2)]))
        try:
            cmi = qcore.conditional_mutual_information(rho, ["A"], ["B"], ["C"])
        except ValueError as exc:
            bad.append(f"instance {i}: {exc}")
            continue
        if cmi < -1e-8:
            bad.append(f"instance {i}: cmi={cmi}")
    return SuiteResult("ssa", count, len(bad), tuple(bad[:5]))


def suite_purify(seed: int, count: int = 1000) -> SuiteResult:
    """Purification round trip and basis invariance of the entropy."""
    rng = _rng(seed, 6)
    bad = []
    for i in range(count):
        d = int(rng.integers(2, 5))
        rank = int(rng.integers(1, d + 1))
        m = qcore.random_density(d, rng, rank=rank)
        rho = DensityOperator(m, DimsSpec([("A", d)]))
        psi = qcore.purify(rho, ref_label="R")
        back = psi.reduced(["A"])
        if qcore.trace_distance(back, rho) > 1e-10:
            bad.append(f"instance {i}: purify round trip error")
            continue
        u = qcore.random_isometry(d, d, rng)
        rot = DensityOperator(u @ m @ u.conj().T, rho.dims)
        if abs(qcore.von_neumann_entropy(rot) - qcore.von_neumann_entropy(rho)) > 1e-10:
            bad.append(f"instance {i}: entropy not unitarily invariant")
    return SuiteResult("purify", count, len(bad), tuple(bad[:5]))


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
            lhs = np.kron(np.eye(src.dim_b), t) @ src.states[x0].vec
            err = float(np.linalg.norm(lhs - src.states[x].vec))
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
    opts = OptimizerOptions(seed=seed, restarts=_ORACLE_OPTS.restarts,
                            iters_per_stage=_ORACLE_OPTS.iters_per_stage)
    bad = []
    checks = 0
    for src in (source_a(), source_b()):
        ixb = source.entropic_profile(src).i_x_b
        for delta in (0.0, 0.1, 1.0):
            checks += 1
            res = idelta.optimize_idelta(src, delta, opts)
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
    opts = OptimizerOptions(seed=seed, restarts=_ORACLE_OPTS.restarts,
                            iters_per_stage=_ORACLE_OPTS.iters_per_stage)
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
