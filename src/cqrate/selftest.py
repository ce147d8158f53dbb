"""Seeded property suites: the norm/entropy inequality checks, the transfer
operator contract, optimizer-vs-oracle, and the region sandwich.

Each suite is a pure function of its seed, so two runs with the same seed
produce identical counts (and identical CLI output).  The inequality suites
and the transfer suite share one loop, `_stacks`: it draws every instance's
group (a dimension, or a source's |X|), then each group's instances whole, and
hands them on in stacks of at most `qcore.STACK_ENTRIES` drawn reals; each
stacked kernel gives an instance the bits of a lone evaluation.  A state that
fails validation, or a source that fails a check on the way, is its
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


def _stacks(rng: np.random.Generator, count: int, keys, draw):
    """Draw `count` instances in two phases and yield (group, instance
    indices, one stack per array) in stacks of at most `qcore.STACK_ENTRIES`
    drawn reals, and at least one instance.  First `keys(rng, count)` draws every
    instance's group at once; then, group by group in order of first
    appearance, `draw(rng, group, k)` draws the arrays of the group's k
    instances, one call per array with the instance on its first axis.  A
    group is drawn whole before it is cut into stacks, so no instance's bits
    depend on the cap."""
    members: dict = {}  # group -> its instances, groups in order of first appearance
    for i, group in enumerate(keys(rng, count)):
        members.setdefault(group, []).append(i)
    for group, index in members.items():
        arrays = draw(rng, group, len(index))
        depth = max(qcore.STACK_ENTRIES // sum(a[0].size for a in arrays), 1)
        for start in range(0, len(index), depth):
            yield group, index[start:start + depth], [a[start:start + depth] for a in arrays]


def _seeded_suite(name: str, key: int, kind, evaluate):
    """A suite of `count` instances from one seeded generator, drawn as
    `kind` = (keys, shapes) says: `keys(rng, count)` draws the instances'
    groups, and `shapes(group)` gives the shapes of an instance's normals in
    a group, each array's first axis the real then imaginary parts of
    Ginibre matrices, drawn for the whole group with one `standard_normal`
    call per array.  Each stack of `_stacks` goes to `evaluate(group,
    *stacks)`, one complex stack per matrix, which returns each instance's
    violation or None."""
    keys, shapes = kind

    def draw(rng, group, k):
        return [rng.standard_normal((k,) + shape) for shape in shapes(group)]

    def suite(seed: int, count: int = 1000) -> SuiteResult:
        problems: list[str | None] = [None] * count
        for group, index, reals in _stacks(_rng(seed, key), count, keys, draw):
            stacks = [x[:, j] + 1j * x[:, j + 1]  # the arithmetic of qcore.ginibre
                      for x in reals for j in range(0, x.shape[1], 2)]
            for i, problem in zip(index, evaluate(group, *stacks)):
                problems[i] = problem
        bad = [f"instance {i}: {p}" for i, p in enumerate(problems) if p is not None]
        return SuiteResult(name, count, len(bad), tuple(bad[:5]))

    suite.__doc__ = evaluate.__doc__
    return suite


def _screen(problems: list, rows: np.ndarray, *states: np.ndarray):
    """Validate the states of the instances `rows`, one stack per state with
    one matrix per row: record each failing instance's first problem, and
    return the mask of rows whose states all pass and the ascending spectra
    that validated each stack."""
    keep = np.ones(len(rows), dtype=bool)
    spectra = []
    for stack in states:
        found, vals = qcore.density_problems(stack)
        spectra.append(vals)
        for k, problem in enumerate(found):
            if problem and keep[k]:
                problems[rows[k]] = problem
                keep[k] = False
    return keep, spectra


def _states(*draws: np.ndarray):
    """Density stacks from stacks of Ginibre draws: each instance's problem
    list, the instances whose states are valid, those states and their
    ascending spectra."""
    states = [qcore.density_from_ginibre(g) for g in draws]
    problems: list[str | None] = [None] * len(draws[0])
    keep, spectra = _screen(problems, np.arange(len(problems)), *states)
    return problems, np.flatnonzero(keep), [s[keep] for s in states], [v[keep] for v in spectra]


def _purify_keys(rng, count):
    d = rng.integers(2, 5, size=count)
    return list(zip(d.tolist(), rng.integers(1, d + 1).tolist()))


# How each kind of instance is drawn: the groups of `count` instances from one
# call, and the shapes of an instance's normals in a group.
_PAIR = (lambda rng, count: rng.integers(2, 5, size=count).tolist(), lambda d: [(4, d, d)])
_BIPARTITE_PAIR = (lambda rng, count: list(map(tuple, rng.integers(2, 4, (count, 2)).tolist())),
                   lambda dims: [(4, math.prod(dims), math.prod(dims))])
_TRIPARTITE = (lambda _, count: [(2, 2, 2)] * count, lambda _: [(2, 8, 8)])
_PURIFY = (_purify_keys, lambda key: [(2, *key), (2, key[0], key[0])])


def _fvdg(d, g_rho, g_sig) -> list:
    """1 - F <= T <= sqrt(1 - F^2) on random state pairs."""
    problems, rows, (rho, sig), _ = _states(g_rho, g_sig)
    fs = qcore.fidelity_of_stack(rho, sig).tolist()
    ts = qcore.trace_distance_of_stack(rho, sig).tolist()
    for i, f, t in zip(rows, fs, ts):
        if not (1.0 - f <= t + SLACK and t <= math.sqrt(max(1.0 - f * f, 0.0)) + SLACK):
            problems[i] = f"F={f}, T={t}"
    return problems


def _pinsker(d, g_rho, g_sig) -> list:
    """||rho - sigma||_1 <= sqrt(2 ln2 S(rho||sigma)) on full-rank pairs."""
    problems, rows, (rho, sig), (v_rho, _) = _states(g_rho, g_sig)
    lhss = (2.0 * qcore.trace_distance_of_stack(rho, sig)).tolist()
    rels = qcore.relative_entropy_of_stack(rho, sig, v_rho).tolist()
    for i, lhs, rel in zip(rows, lhss, rels):
        if lhs > math.sqrt(2.0 * math.log(2.0) * rel) + SLACK:
            problems[i] = f"||.||_1={lhs}, S(rho||sigma)={rel}"
    return problems


def _fannes(d, g_rho, g_sig) -> list:
    """|S(rho) - S(sigma)| <= eps log d + h(eps) with eps the trace distance."""
    problems, rows, (rho, sig), (v_rho, v_sig) = _states(g_rho, g_sig)
    epss = qcore.trace_distance_of_stack(rho, sig).tolist()
    gaps = np.abs(qcore.entropy_of_spectra(v_rho) - qcore.entropy_of_spectra(v_sig)).tolist()
    for i, eps, gap in zip(rows, epss, gaps):
        if gap > eps * math.log2(d) + qcore.binary_entropy(min(eps, 1.0)) + SLACK:
            problems[i] = f"gap={gap}, eps={eps}"
    return problems


def _afw(dims, g_rho, g_sig) -> list:
    """|S(A|B)_rho - S(A|B)_sigma| <= 2 eps log|A| + 2 h(eps)."""
    da, db = dims
    problems, rows, (rho, sig), (v_rho, v_sig) = _states(g_rho, g_sig)
    epss = qcore.trace_distance_of_stack(rho, sig).tolist()
    s_b = qcore.entropy_of_stack(qcore.reduced_density_from_mat(np.stack([rho, sig]), dims, [1]))
    gaps = np.abs((qcore.entropy_of_spectra(v_rho) - s_b[0])
                  - (qcore.entropy_of_spectra(v_sig) - s_b[1])).tolist()
    for i, eps, gap in zip(rows, epss, gaps):
        if gap > 2.0 * eps * math.log2(da) + 2.0 * qcore.binary_entropy(min(eps, 1.0)) + SLACK:
            problems[i] = f"gap={gap}, eps={eps}"
    return problems


def _ssa(dims, g) -> list:
    """Strong subadditivity: I(A:B|C) >= -TOL_SSA on random tripartite states."""
    problems, rows, (rho,), (v_rho,) = _states(g)
    cmis = qcore.conditional_mutual_information_of_stack(rho, dims, [0], [1], [2],
                                                         v_rho).tolist()
    for i, cmi in zip(rows, cmis):
        try:
            qcore.check_ssa(cmi)
        except InternalError as exc:
            problems[i] = str(exc)
    return problems


def _purify(_dims, g, g_u) -> list:
    """Purification round trip and basis invariance of the entropy."""
    problems, rows, (rho,), (v_rho,) = _states(g)
    g_u = g_u[rows]
    amps = qcore.purify_of_stack(rho)[0]
    back = amps @ amps.conj().swapaxes(-1, -2)
    keep = _screen(problems, rows, back)[0]
    rows, rho, v_rho, back, g_u = rows[keep], rho[keep], v_rho[keep], back[keep], g_u[keep]
    keep = qcore.trace_distance_of_stack(back, rho) <= 1e-10
    for i in rows[~keep]:
        problems[i] = "purify round trip error"
    rows, rho, v_rho, g_u = rows[keep], rho[keep], v_rho[keep], g_u[keep]
    u = qcore.isometry_from_ginibre(g_u)
    rot = u @ rho @ u.conj().swapaxes(-1, -2)
    keep, (v_rot,) = _screen(problems, rows, rot)
    rows, v_rho, v_rot = rows[keep], v_rho[keep], v_rot[keep]
    s_gap = np.abs(qcore.entropy_of_spectra(v_rot) - qcore.entropy_of_spectra(v_rho))
    for i in rows[s_gap > 1e-10]:
        problems[i] = "entropy not unitarily invariant"
    return problems


suite_fvdg = _seeded_suite("fvdg", 1, _PAIR, _fvdg)
suite_pinsker = _seeded_suite("pinsker", 2, _PAIR, _pinsker)
suite_fannes = _seeded_suite("fannes", 3, _PAIR, _fannes)
suite_afw = _seeded_suite("afw", 4, _BIPARTITE_PAIR, _afw)
suite_ssa = _seeded_suite("ssa", 5, _TRIPARTITE, _ssa)
suite_purify = _seeded_suite("purify", 6, _PURIFY, _purify)


# The admixture of I/|B| that makes the transfer suite's sources generic.
TRANSFER_EPS = 1e-2


def _alphabet_sizes(rng, count):
    return rng.integers(2, 4, size=count).tolist()


def _draw_sources(rng, nx, k):
    """k random sources of |X| = nx on |B| = |R| = 2: probabilities, every
    one at least 0.1, then unit amplitude vectors from one Ginibre draw."""
    probs = (1.0 - nx * 0.1) * rng.dirichlet(np.ones(nx), size=k) + 0.1
    vecs = qcore.ginibre((k, nx, 4), rng)
    return [probs, vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)]


def suite_transfer(seed: int, count: int = 100) -> SuiteResult:
    """Transfer-operator contract on random generic sources: exact state
    reconstruction and the operator-norm bound 1/sqrt(lambda0).  The sources
    are drawn |X| by |X| (`_stacks`), mixed with TRANSFER_EPS·I/|B|, and
    evaluated in stacks of one |X|; a source whose mixed states fail the
    density checks or whose witness lacks full support is its violation."""
    found: list[list[str]] = [[] for _ in range(count)]
    checks = 0
    for nx, index, (probs, vecs) in _stacks(_rng(seed, 7), count, _alphabet_sizes,
                                            _draw_sources):
        checks += nx * len(index)
        problems, _, lam0, errs, nrms = _transfer_stack(probs, vecs)
        for i, problem, lam, errs_i, nrms_i in zip(index, problems, lam0.tolist(),
                                                   errs.tolist(), nrms.tolist()):
            if problem:
                found[i].append(f"source {i}: {problem}")
                continue
            for x, (err, nrm) in enumerate(zip(errs_i, nrms_i)):
                if err > 1e-8:
                    found[i].append(f"source {i}, x={x}: reconstruction error {err}")
                elif nrm > 1.0 / math.sqrt(lam) + 1e-8:
                    found[i].append(f"source {i}, x={x}: norm {nrm} over bound")
    bad = [line for lines in found for line in lines]
    return SuiteResult("transfer", checks, len(bad), tuple(bad[:5]))


def _transfer_stack(probs: np.ndarray, vecs: np.ndarray):
    """The transfer contract's values on a stack of drawn sources of one |X|,
    probs (n, |X|) and amplitude vectors (n, |X|, 4): each source's first
    problem or None, its witness and lambda0, and, NaN for a source with a
    problem, the reconstruction error and operator norm of each T_x."""
    psi, drawn = source.states_of_stack(vecs, 2, 2)
    psi, mixed = source.mix_of_stack(psi, TRANSFER_EPS)
    mins, witness = source.genericity_of_stack(probs, psi)
    t, unsupported = source.transfer_operators_of_stack(psi, witness)
    problems = [next(filter(None, found), None) for found in zip(drawn, mixed, unsupported)]
    ok = np.array([p is None for p in problems], dtype=bool)
    rows = np.arange(len(psi))
    # (1_B ⊗ T_x)|psi_x0> is the amplitude matrix m_x0 T_x^T
    m0 = psi[rows, witness][ok, np.newaxis]
    errs, nrms = np.full((2,) + mins.shape, np.nan)
    errs[ok] = np.linalg.norm(m0 @ t[ok].swapaxes(-1, -2) - psi[ok], axis=(-2, -1))
    nrms[ok] = qcore.operator_norm(t[ok])
    return problems, witness, mins[rows, witness], errs, nrms


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
    the reference sources; generic collapse on SRC-B, where the theorem gives
    I0 = I~0 = 0."""
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
            if curve.i0 != 0.0:
                bad.append(f"SRC-B: I0 estimate {curve.i0} is not the theorem's 0")
            if curve.i0_tilde != 0.0:
                bad.append(f"SRC-B: I~0 estimate {curve.i0_tilde} is not the theorem's 0")
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
