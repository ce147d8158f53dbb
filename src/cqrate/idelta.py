"""The constrained channel-optimization quantity I_delta and its variants.

I_delta(omega) = sup over channels T: B -> W with I(R:W|X) <= delta of
I(X:W); computed here as a lower bound by penalized hill climbing over
Stinespring isometries B -> C⊗W at fixed output dimensions, plus a
brute-force oracle for tiny dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .qcore import DensityOperator, DimsSpec, Isometry
from .source import CqSource, delta_prime

TOL_FEAS = 1e-4
TOL_OPT = 0.02
DIM_CAP_FACTOR = 2  # |C|, |W| <= |B|^DIM_CAP_FACTOR by default


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs of the penalized isometry search; fully determined by `seed`."""

    seed: int = 0
    restarts: int = 64
    c_dim: int | None = None  # default: |B|
    w_dim: int | None = None  # default: |B|
    penalty_schedule: tuple[float, ...] = (1e1, 1e2, 1e3, 1e4)
    iters_per_stage: int = 60
    step_init: float = 0.4
    tol_feas: float = TOL_FEAS


@dataclass(frozen=True)
class ChannelParam:
    """Stinespring isometry B -> C⊗W of a test channel T = Tr_C(V . V†)."""

    isometry: Isometry
    c_dim: int
    w_dim: int

    @property
    def mat(self) -> np.ndarray:
        return self.isometry.mat


def make_channel_param(v: np.ndarray, dim_b: int, c_dim: int, w_dim: int) -> ChannelParam:
    iso = Isometry(v, DimsSpec([("B", dim_b)]), DimsSpec([("C", c_dim), ("W", w_dim)]))
    return ChannelParam(iso, c_dim, w_dim)


@dataclass(frozen=True)
class IdeltaResult:
    delta: float
    value: float            # achieved I(X:W), bits
    constraint: float       # achieved I(R:W|X), bits
    param: ChannelParam | None
    restarts_used: int
    converged: bool
    candidates: tuple[tuple[float, float], ...] = ()  # feasible per-restart finals


@dataclass(frozen=True)
class IdeltaCurve:
    deltas: tuple[float, ...]
    values: tuple[float, ...]       # monotonized lower bounds
    raw_values: tuple[float, ...]
    monotonized: bool = True
    warnings: tuple[str, ...] = ()
    results: tuple[IdeltaResult, ...] = ()  # per delta, with the channel found


# ---------------------------------------------------------------------------
# channel application and information quantities
# ---------------------------------------------------------------------------

class _Ensemble:
    """Blocks {p(y), state on B⊗R}; pure blocks enable the S(WR) = S(C)
    shortcut, mixed blocks (from classical post-processing of X) do not."""

    def __init__(self, probs: np.ndarray, dim_b: int, dim_r: int,
                 pure_mats: list[np.ndarray] | None = None,
                 mixed_rhos: list[np.ndarray] | None = None):
        self.probs = np.asarray(probs, dtype=float)
        self.dim_b = dim_b
        self.dim_r = dim_r
        self.pure_mats = pure_mats    # each dB x dR
        self.mixed_rhos = mixed_rhos  # each (dB dR) x (dB dR)
        self.s_r = []                 # per-block S(R), channel independent
        if pure_mats is not None:
            for m in pure_mats:
                self.s_r.append(qcore.entropy_of_mat(m.conj().T @ m))
        else:
            for rho in mixed_rhos:
                rr = qcore.reduced_density_from_mat(rho, (dim_b, dim_r), [1])
                self.s_r.append(qcore.entropy_of_mat(rr))

    @classmethod
    def from_source(cls, src: CqSource) -> "_Ensemble":
        mats = [src.state_matrix(x) for x in range(src.alphabet_size)]
        return cls(src.probs, src.dim_b, src.dim_r, pure_mats=mats)

    @classmethod
    def conditioned(cls, src: CqSource, cond: np.ndarray) -> "_Ensemble":
        """Ensemble of Y-conditioned BR states for a stochastic map cond[y, x]."""
        ny = cond.shape[0]
        py = cond @ src.probs
        rhos = []
        d = src.dim_b * src.dim_r
        for y in range(ny):
            rho = np.zeros((d, d), dtype=complex)
            for x in range(src.alphabet_size):
                w = src.probs[x] * cond[y, x]
                if w > 0:
                    v = src.states[x].vec
                    rho += (w / max(py[y], 1e-300)) * np.outer(v, v.conj())
            if py[y] <= 1e-12:
                rho = np.eye(d, dtype=complex) / d  # dead symbol, weight ~0
            rhos.append(rho)
        return cls(py, src.dim_b, src.dim_r, mixed_rhos=rhos)


class _Evaluator:
    """Computes the information quantities of sigma = (id ⊗ T) omega for a
    stack of Stinespring matrices V: B -> C⊗W, reusing per-block reductions."""

    def __init__(self, ens: _Ensemble, c_dim: int, w_dim: int, want_c: bool = False):
        self.ens = ens
        self.c = c_dim
        self.w = w_dim
        self.want_c = want_c
        self.dim_v_out = c_dim * w_dim

    def informations(self, v: np.ndarray) -> dict[str, np.ndarray]:
        """For a stack v of shape (n, |C||W|, |B|), returns per matrix
        ixw = I(X:W), irwx = I(R:W|X) and, when requested, icw = I(C:W) and
        icx = I(C:X), each as an array of length n."""
        ens, c, w, r = self.ens, self.c, self.w, self.ens.dim_r
        n = v.shape[0]
        rho_w, rho_wr, rho_c, rho_cw = [], [], [], []  # per block, each a stack
        if ens.pure_mats is not None:
            for m in ens.pure_mats:
                o = (v @ m).reshape(n, c, w, r)
                rho_w.append(np.einsum("ncwr,ncvr->nwv", o, o.conj()))
                rho_c.append(np.einsum("ncwr,ndwr->ncd", o, o.conj()))
                if self.want_c:
                    rho_cw.append(np.einsum("ncwr,ndvr->ncwdv", o, o.conj())
                                  .reshape(n, c * w, c * w))
            rho_wr = rho_c  # block pure: S(WR) = S(C)
        else:
            # kron(V, 1_R) of every matrix, laid out as np.kron does
            k = (v[:, :, np.newaxis, :, np.newaxis] * np.eye(r)[:, np.newaxis, :]) \
                .reshape(n, c * w * r, ens.dim_b * r)
            k_dag = k.conj().swapaxes(-1, -2)
            dims = (c, w, r)
            for rho in ens.mixed_rhos:
                rho_out = k @ rho @ k_dag  # on C⊗W⊗R
                rho_w.append(qcore.reduced_density_from_mat(rho_out, dims, [1]))
                rho_wr.append(qcore.reduced_density_from_mat(rho_out, dims, [1, 2]))
                rho_c.append(qcore.reduced_density_from_mat(rho_out, dims, [0]))
                if self.want_c:
                    rho_cw.append(qcore.reduced_density_from_mat(rho_out, dims, [0, 1]))

        out = {}
        out["ixw"], s_w = qcore.holevo_of_stack(ens.probs, rho_w)
        s_wr = qcore.entropy_of_stack(np.stack(rho_wr))
        irwx = 0.0
        for p, s_w_x, s_r_x, s_wr_x in zip(ens.probs, s_w, ens.s_r, s_wr):
            irwx += p * np.maximum(s_w_x + s_r_x - s_wr_x, 0.0)
        out["irwx"] = irwx
        if self.want_c:
            out["icx"], s_c = qcore.holevo_of_stack(ens.probs, rho_c)
            s_cw = qcore.entropy_of_stack(qcore.weighted_average(ens.probs, rho_cw))
            out["icw"] = np.maximum(s_c[-1] + s_w[-1] - s_cw, 0.0)
        return out


def apply_channel(src: CqSource, param: ChannelParam) -> tuple[DensityOperator, float, float]:
    """sigma^{XWR} = (id_{XR} ⊗ T) omega for T = Tr_C(V . V†).

    Returns (sigma, I(X:W)_sigma, I(R:W|X)_sigma).
    """
    if param.isometry.in_dims.total_dim != src.dim_b:
        raise ValueError(f"channel input dim {param.isometry.in_dims.total_dim} "
                         f"!= source |B| = {src.dim_b}")
    nx, c, w, r = src.alphabet_size, param.c_dim, param.w_dim, src.dim_r
    v = param.mat
    blocks = []
    for x in range(nx):
        o = (v @ src.state_matrix(x)).reshape(c, w, r)
        blocks.append(np.einsum("cwr,cvs->wrvs", o, o.conj()).reshape(w * r, w * r))
    sigma = DensityOperator(qcore.block_diagonal(src.probs, blocks),
                            DimsSpec([("X", nx), ("W", w), ("R", r)]))
    ev = _Evaluator(_Ensemble.from_source(src), c, w)
    info = ev.informations(v[np.newaxis])
    return sigma, float(info["ixw"][0]), float(info["irwx"][0])


def channel_marginal_informations(src: CqSource, param: ChannelParam) -> dict[str, float]:
    """All four marginal informations (ixw, irwx, icw, icx) of sigma^{XCWR}."""
    ev = _Evaluator(_Ensemble.from_source(src), param.c_dim, param.w_dim, want_c=True)
    return {k: float(val[0]) for k, val in ev.informations(param.mat[np.newaxis]).items()}


# ---------------------------------------------------------------------------
# penalized hill climbing on the isometry manifold
# ---------------------------------------------------------------------------

def _qr_retract(v: np.ndarray) -> np.ndarray:
    """Project each matrix of a stack back onto the isometry manifold (QR
    with positive diagonal)."""
    q, r = np.linalg.qr(v)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    d = np.where(np.abs(d) < 1e-14, 1.0, d)
    return q * (d / np.abs(d))[..., np.newaxis, :]


def _random_direction(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random anti-Hermitian generator, not yet normalized; half the time a
    random 2-plane rotation, otherwise dense."""
    if d > 2 and rng.random() < 0.5:
        a = np.zeros((d, d), dtype=complex)
        i, j = rng.choice(d, size=2, replace=False)
        z = rng.standard_normal() + 1j * rng.standard_normal()
        a[i, j] = z
        a[j, i] = -z.conjugate()
        a[i, i] = 1j * rng.standard_normal()
        a[j, j] = 1j * rng.standard_normal()
    else:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = (g - g.conj().T) / 2.0
    return a


def _start_points(dim_b: int, c_dim: int, w_dim: int) -> list[np.ndarray]:
    """Deterministic starts: the computational-basis embedding, plus embed
    B into W (identity channel to W) and into C (trivial W) when they fit."""
    d = c_dim * w_dim
    starts = [np.eye(d, dtype=complex)[:, :dim_b]]
    if w_dim >= dim_b:
        v = np.zeros((d, dim_b), dtype=complex)
        for b in range(dim_b):
            v[b, b] = 1.0  # c = 0, w = b
        starts.append(v)
    if c_dim >= dim_b:
        v = np.zeros((d, dim_b), dtype=complex)
        for b in range(dim_b):
            v[b * w_dim, b] = 1.0  # c = b, w = 0
        starts.append(v)
    uniq = []
    for s in starts:
        if not any(np.array_equal(s, u) for u in uniq):
            uniq.append(s)
    return uniq


def _dims_menu(dim_b: int) -> list[tuple[int, int]]:
    """Output-dimension splits searched when dims are not pinned: every
    factorization c·w = |B| (square isometries) plus the (|B|, |B|) block.
    Each member yields a valid lower bound; the best feasible one wins."""
    menu = [(dim_b, dim_b)]
    for c in range(1, dim_b + 1):
        if dim_b % c == 0:
            menu.append((c, dim_b // c))
    return menu


def _climb(ev: _Evaluator, v0: np.ndarray, delta: float, opts: OptimizerOptions,
           rngs: list[np.random.Generator],
           extra_feas=None) -> list[tuple[float, float, np.ndarray] | None]:
    """The restarts of one dimension split, in lockstep: restart i is a
    penalized ascent from v0[i] with directions drawn from rngs[i].  Returns
    per restart the best strictly feasible visited point as (value,
    constraint, V), or None.

    Each step retracts and evaluates the three candidates of every restart
    as one stack.  A restart then takes its candidates in order and stops at
    the first accepted one; the later ones change neither `best` nor the
    step size, exactly as if they had not been evaluated, so a restart's
    result does not depend on the other restarts in the stack."""

    def feasible(info) -> bool:
        if info["irwx"] > delta + opts.tol_feas:
            return False
        return extra_feas(info) if extra_feas is not None else True

    def penalty(info, mu: float) -> float:
        pen = mu * max(info["irwx"] - delta, 0.0) ** 2
        if extra_feas is not None:
            pen += mu * max(info["icw"] - info["icx"], 0.0) ** 2
        return info["ixw"] - pen

    def per_matrix(stacked: dict[str, np.ndarray]) -> list[dict[str, float]]:
        cols = {k: a.tolist() for k, a in stacked.items()}
        return [dict(zip(cols, vals)) for vals in zip(*cols.values())]

    n, d = len(rngs), ev.dim_v_out
    v = v0.copy()  # row i: restart i's current point, updated in place
    info = per_matrix(ev.informations(v))
    best = [(inf["ixw"], inf["irwx"], v[i].copy()) if feasible(inf) else None
            for i, inf in enumerate(info)]
    for mu in opts.penalty_schedule:
        f = [penalty(inf, mu) for inf in info]
        step = [opts.step_init] * n
        for _ in range(opts.iters_per_stage):
            a = np.stack([_random_direction(rng, d) for rng in rngs])
            # unit operator norm, from one SVD call for all restarts
            a /= np.maximum(np.linalg.svd(a, compute_uv=False)[:, 0],
                            1e-12)[:, np.newaxis, np.newaxis]
            eps = np.array([(s, s / 4.0, -s) for s in step])
            cands = _qr_retract((v[:, np.newaxis] + eps[:, :, np.newaxis, np.newaxis]
                                 * (a @ v)[:, np.newaxis]).reshape(3 * n, d, -1))
            cinfo = per_matrix(ev.informations(cands))
            for i in range(n):
                improved = False
                for j in range(3 * i, 3 * i + 3):
                    ci = cinfo[j]
                    cf = penalty(ci, mu)
                    if feasible(ci) and (best[i] is None or ci["ixw"] > best[i][0]):
                        best[i] = (ci["ixw"], ci["irwx"], cands[j].copy())
                    if cf > f[i] + 1e-12:
                        v[i], info[i], f[i] = cands[j], ci, cf
                        improved = True
                        break
                step[i] = min(step[i] * 1.3, 1.0) if improved else max(step[i] * 0.6, 1e-4)
    return best


def _optimize_ensemble(ens: _Ensemble, delta: float, opts: OptimizerOptions,
                       want_c: bool = False,
                       extra_feas=None) -> IdeltaResult:
    dim_b = ens.dim_b
    if opts.c_dim is not None or opts.w_dim is not None:
        menu = [(opts.c_dim if opts.c_dim is not None else dim_b,
                 opts.w_dim if opts.w_dim is not None else dim_b)]
    else:
        menu = _dims_menu(dim_b)
    cap = dim_b ** DIM_CAP_FACTOR
    for c_dim, w_dim in menu:
        if c_dim > cap or w_dim > cap:
            raise ValueError(
                f"channel dims ({c_dim}, {w_dim}) exceed the default cap |B|^2 = {cap}")
        if c_dim * w_dim < dim_b:
            raise ValueError(
                f"no isometry B -> C⊗W with |C||W| = {c_dim * w_dim} < |B| = {dim_b}")

    results = []  # (menu index, restart index, c, w, climb outcome)
    for mi, (c_dim, w_dim) in enumerate(menu):
        starts = _start_points(dim_b, c_dim, w_dim)
        n_restarts = max(opts.restarts, len(starts))
        seeds = np.random.SeedSequence(entropy=opts.seed, spawn_key=(mi,)).spawn(n_restarts)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        v0 = np.stack([starts[i] if i < len(starts)
                       else qcore.random_isometry(c_dim * w_dim, dim_b, rng)
                       for i, rng in enumerate(rngs)])
        ev = _Evaluator(ens, c_dim, w_dim, want_c=want_c or extra_feas is not None)
        outs = _climb(ev, v0, delta, opts, rngs, extra_feas=extra_feas)
        results += [(mi, i, c_dim, w_dim, out) for i, out in enumerate(outs)]

    feasibles = [r for r in results if r[4] is not None]
    candidates = tuple((r[4][0], r[4][1]) for r in feasibles)
    if feasibles:
        # deterministic merge: best value, ties broken by menu then restart index
        mi, i, c_dim, w_dim, (val, cons, v) = max(
            feasibles, key=lambda r: (r[4][0], -r[0], -r[1]))
        param = make_channel_param(v, dim_b, c_dim, w_dim)
        return IdeltaResult(delta, float(val), float(cons), param,
                            len(results), True, candidates)
    return IdeltaResult(delta, 0.0, math.inf, None, len(results), False, candidates)


def optimize_idelta(src: CqSource, delta: float,
                    opts: OptimizerOptions = OptimizerOptions()) -> IdeltaResult:
    """Best feasible lower bound on I_delta found by seeded random-restart
    penalized ascent over Stinespring isometries.

    The supremum in the definition ranges over unbounded W; with the finite
    dims used here every output is a lower bound.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return _optimize_ensemble(_Ensemble.from_source(src), delta, opts)


def idelta_curve(src: CqSource, deltas,
                 opts: OptimizerOptions = OptimizerOptions()) -> IdeltaCurve:
    """Per-delta lower bounds, monotonized by running maximum."""
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ValueError("delta grid must be non-empty")
    if any(d < 0 for d in deltas) or sorted(deltas) != deltas:
        raise ValueError("delta grid must be sorted ascending and >= 0")
    results = tuple(optimize_idelta(src, d, opts) for d in deltas)
    raw = [res.value for res in results]
    mono = list(np.maximum.accumulate(raw))
    warnings = []
    # concavity violations beyond TOL_OPT indicate optimizer failures
    for i in range(1, len(mono) - 1):
        d0, d1, d2 = deltas[i - 1], deltas[i], deltas[i + 1]
        if d2 > d0:
            t = (d1 - d0) / (d2 - d0)
            chord = (1 - t) * mono[i - 1] + t * mono[i + 1]
            if mono[i] < chord - TOL_OPT:
                warnings.append(
                    f"concavity violation at delta={d1:g}: value {mono[i]:.4f} "
                    f"below chord {chord:.4f} (optimizer failure, not a curve feature)")
    return IdeltaCurve(tuple(deltas), tuple(mono), tuple(raw), True, tuple(warnings),
                       results)


@dataclass(frozen=True)
class I0Estimates:
    i0: float
    i0_tilde: float
    gap: float
    i0_result: IdeltaResult
    curve: IdeltaCurve


def estimate_I0_tilde(src: CqSource,
                      opts: OptimizerOptions = OptimizerOptions(),
                      grid: tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1)) -> I0Estimates:
    """I_0 estimate (optimization at delta = 0) and the limit estimate
    I~_0 (last-value extrapolation of the curve on a geometric grid).

    Both are lower bounds; since I~_0 >= I_0 holds exactly, the reported
    I~_0 estimate is floored at the I_0 estimate.
    """
    res0 = optimize_idelta(src, 0.0, opts)
    curve = idelta_curve(src, sorted(grid), opts)
    i0 = res0.value
    i0t = max(curve.values[0], i0)  # last value toward delta -> 0
    return I0Estimates(i0, i0t, i0t - i0, res0, curve)


def collapse_bound(src: CqSource, delta: float) -> float:
    """For a generic source, any channel with I(R:W|X) <= delta satisfies
    I(X:W) <= delta' log|X| + 2 h(delta'/2), with delta' the trace-distance
    radius from the full-support witness."""
    dp = delta_prime(src, delta)
    eps = min(dp / 2.0, 1.0)
    return dp * math.log2(src.alphabet_size) + 2.0 * qcore.binary_entropy(eps)


def optimize_I0_minus(src: CqSource,
                      opts: OptimizerOptions = OptimizerOptions()) -> IdeltaResult:
    """Unassisted variant: maximize I(X:W) over isometries B -> C⊗W subject
    to I(R:W|X) <= tol and I(C:W) - I(C:X) <= tol."""
    def extra(info) -> bool:
        return info["icw"] - info["icx"] <= opts.tol_feas
    return _optimize_ensemble(_Ensemble.from_source(src), 0.0, opts,
                              want_c=True, extra_feas=extra)


# ---------------------------------------------------------------------------
# brute-force oracle at tiny dimensions
# ---------------------------------------------------------------------------

def _ry(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(t: float) -> np.ndarray:
    return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])


def oracle_grid(src: CqSource, delta: float, c_dim: int = 2, w_dim: int = 2,
                resolution: int = 12, tol_feas: float = TOL_FEAS) -> float:
    """Ground-truth lower bound: exhaustive net of isometries B -> C⊗W.

    Only for |B| <= 2 and |C|, |W| <= 2.  The net is a circuit family
    (input rotation, controlled-Ry entangler, role swap) whose angles are
    discretized; it contains the identity-to-W and trivial-W channels
    exactly.
    """
    if src.dim_b > 2 or c_dim > 2 or w_dim > 2:
        raise ValueError("oracle_grid requires |B| <= 2 and |C|, |W| <= 2")
    if resolution > 24:
        raise ValueError("resolution capped at 24 steps per angle")
    if c_dim * w_dim < src.dim_b:
        raise ValueError("|C||W| must be at least |B|")
    ens = _Ensemble.from_source(src)
    best = 0.0  # trivial channel is always feasible
    if w_dim == 1 or src.dim_b == 1:
        return best
    if c_dim == 1:
        ev = _Evaluator(ens, 1, w_dim)
        info = ev.informations(np.eye(2, dtype=complex)[np.newaxis])
        return float(info["ixw"][0]) if info["irwx"][0] <= delta + tol_feas else best

    thetas = np.linspace(0.0, math.pi, resolution)
    phis = np.linspace(0.0, 2 * math.pi, resolution, endpoint=False)
    alphas = np.linspace(0.0, math.pi, resolution)
    ket0 = np.array([1.0, 0.0], dtype=complex)
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    net = []
    for th in thetas:
        for ph in phis:
            uin = _rz(ph) @ _ry(th)
            for al in alphas:
                cry = np.zeros((4, 4), dtype=complex)  # control: input qubit
                cry[:2, :2] = np.eye(2)
                cry[2:, 2:] = _ry(al)
                emb = np.kron(uin, ket0.reshape(2, 1))  # B -> qubit⊗anc
                base = cry @ emb  # output legs (qubit, anc)
                for w_is_qubit in (True, False):
                    # evaluator reads output legs as (C, W)
                    net.append(swap @ base if w_is_qubit else base)
    info = _Evaluator(ens, 2, 2).informations(np.stack(net))
    feasible = info["ixw"][info["irwx"] <= delta + tol_feas]
    return max(best, float(feasible.max())) if feasible.size else best
