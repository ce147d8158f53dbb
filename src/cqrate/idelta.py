"""The constrained channel-optimization quantity I_delta and its variants.

I_delta(omega) = sup over channels T: B -> W with I(R:W|X) <= delta of
I(X:W); computed here as a lower bound by penalized hill climbing over
Stinespring isometries B -> C⊗W at fixed output dimensions, plus a
brute-force oracle for tiny dimensions.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import SpecError
from .qcore import DensityOperator, Isometry
from .source import CqSource, genericity_report

TOL_FEAS = 1e-4
TOL_OPT = 0.02
DIM_CAP_FACTOR = 2  # |C|, |W| <= |B|^DIM_CAP_FACTOR by default
PENALTY_SCHEDULE = (1e1, 1e2, 1e3, 1e4)  # penalty weight of each climb stage
STEP_INIT = 0.4  # step size at the start of each stage
ORACLE_STEPS = 12  # angles per circuit parameter in the oracle's net
ORTHO_TOL = 1e-9  # largest support overlap for which the support measurement is built
RETIRE_TOL = 1e-12  # a problem retires at I(X:W) >= U - RETIRE_TOL·max(1, U)
I0_TILDE_DELTA = 1e-4  # the delta of the I~_0 estimate when a grid has no positive delta


@dataclass(frozen=True)
class OptimizerOptions:
    """Budget and output dimensions of the penalized isometry search; the
    result is fully determined by them."""

    seed: int = 0
    restarts: int = 64
    c_dim: int | None = None  # default: |B|
    w_dim: int | None = None  # default: |B|
    iters_per_stage: int = 60

    def __post_init__(self):
        for name, low in (("seed", 0), ("restarts", 0), ("iters_per_stage", 0),
                          ("c_dim", 1), ("w_dim", 1)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise SpecError(f"{name} must be >= {low}, got {value}")


def make_channel_param(v: np.ndarray, dim_b: int, c_dim: int, w_dim: int) -> Isometry:
    """Stinespring isometry B -> C⊗W of a test channel T = Tr_C(V . V†)."""
    return Isometry(v, (dim_b,), (c_dim, w_dim))


@dataclass(frozen=True)
class IdeltaResult:
    delta: float
    value: float            # achieved I(X:W), bits
    constraint: float       # achieved I(R:W|X), bits
    param: Isometry | None  # the channel's B -> C⊗W Stinespring isometry
    restarts_used: int      # climbed restarts, 1 per closed-form channel
    candidates: tuple[tuple[float, float], ...] = ()  # feasible per-restart finals


@dataclass(frozen=True)
class IdeltaCurve:
    deltas: tuple[float, ...]       # sorted ascending
    values: tuple[float, ...]       # monotonized lower bounds
    raw_values: tuple[float, ...]
    warnings: tuple[str, ...]
    results: tuple[IdeltaResult, ...]  # per delta, with the channel found
    i0: float                       # I_0 estimate: 0 if generic, else i0_result's value
    i0_tilde: float                 # I~_0 estimate, floored at i0
    i0_result: IdeltaResult         # the delta = 0 result, with its channel


# ---------------------------------------------------------------------------
# channel application and information quantities
# ---------------------------------------------------------------------------

class _Ensemble:
    """Blocks {p(y), pure state on B⊗R⊗E}, held as one stack `mats` of shape
    (blocks, |B|, |R||E|), block y's matrix indexed [b, (r, e)].  The blocks
    of a source have |E| = 1, and a Y-conditioned (mixed) BR state is
    purified on a copy E of X.  `generic`, `holevo` and
    `support_measurement` are computed on first use."""

    def __init__(self, probs: np.ndarray, dim_r: int, mats: np.ndarray):
        self.probs = np.asarray(probs, dtype=float)
        n, self.dim_b, re = mats.shape
        self.dim_r = dim_r
        self.dim_e = re // dim_r
        self.mats = mats
        # per-block S(R), channel independent
        h = mats.reshape(n, self.dim_b, dim_r, self.dim_e).swapaxes(2, 3).reshape(n, -1, dim_r)
        self.s_r = qcore.entropy_of_stack(h.conj().swapaxes(1, 2) @ h)

    @classmethod
    def from_source(cls, src: CqSource) -> "_Ensemble":
        return cls(src.probs, src.dim_r, src.psi)

    @classmethod
    def conditioned(cls, src: CqSource, cond: np.ndarray) -> "_Ensemble":
        """Ensemble of Y-conditioned BR states for a stochastic map cond[y, x],
        purified as m_y[b, (r, x)] = sqrt(p(x) cond[y, x] / p(y)) psi_x[b, r];
        a symbol with p(y) = 0 gets the zero block."""
        py = cond @ src.probs
        amp = np.sqrt(np.divide(src.probs * cond, py[:, np.newaxis], out=np.zeros(cond.shape),
                                where=py[:, np.newaxis] > 0))
        psi = src.psi.transpose(1, 2, 0)  # [b, r, x]
        mats = (psi * amp[:, np.newaxis, np.newaxis, :]).reshape(len(py), src.dim_b, -1)
        return cls(py, src.dim_r, mats)

    @functools.cached_property
    def generic(self) -> bool:
        """The paper's generic case, where I_0 = I~_0 = 0, as `genericity_report`
        decides it; the theorem is about pure BR blocks, so an ensemble with
        |E| > 1 is never generic."""
        return self.dim_e == 1 and genericity_report(CqSource(self.probs, self.mats)).is_generic

    @functools.cached_property
    def holevo(self) -> float:
        """U = I(Y:B), the Holevo quantity of the blocks' rho_y^B: by data
        processing no channel B -> W gives I(Y:W) above it."""
        rho_b = self.mats @ self.mats.conj().swapaxes(1, 2)
        return float(qcore.holevo_of_stack(self.probs, rho_b)[0])

    @functools.cached_property
    def support_measurement(self) -> np.ndarray | None:
        """V = sum_k P_k ⊗ |k>_W as a (|B||B|, |B|) Stinespring matrix at
        (|C|, |W|) = (|B|, |B|), when the supports S_k of the blocks with
        p > 0 are pairwise orthogonal within ORTHO_TOL; otherwise None.  P_k
        projects onto S_k and the complement of their span goes to outcome
        0.  The projectors come from one QR of the support bases, so V is an
        isometry even where the supports overlap slightly; whether it is
        optimal is decided by its evaluated informations, not here.  With
        orthogonal supports W is a function of Y, so I(Y:W) = I(Y:B) and
        I(R:W|Y) = 0."""
        m = self.mats[self.probs > 0]
        lam, vec = np.linalg.eigh(m @ m.conj().swapaxes(1, 2))  # rho^B, ascending eigenvalues
        bases = [vk[:, lk > lk[-1] * self.dim_b * np.finfo(float).eps]
                 for lk, vk in zip(lam, vec) if lk[-1] > 0]
        basis = np.concatenate(bases, axis=1)
        n = basis.shape[1]
        if n > self.dim_b or np.abs(basis.conj().T @ basis - np.eye(n)).max() > ORTHO_TOL:
            return None
        q = np.linalg.qr(basis, mode="complete")[0]  # q[:, :j] spans basis[:, :j]
        v = np.zeros((self.dim_b,) * 3, dtype=complex)  # v[c, w, b]
        lo = 0
        for k, b in enumerate(bases):
            v[:, k] = q[:, lo:lo + b.shape[1]] @ q[:, lo:lo + b.shape[1]].conj().T
            lo += b.shape[1]
        v[:, 0] += q[:, n:] @ q[:, n:].conj().T  # the complement of the supports
        return v.reshape(-1, self.dim_b)


class _Evaluator:
    """Computes the information quantities of sigma = (id ⊗ T) omega for a
    stack of Stinespring matrices V: B -> C⊗W, each on one of several
    ensembles, reusing per-block reductions.  The ensembles share |B|, |R|,
    |E| and the number of blocks, so the stacks of all of them are reduced
    and diagonalized together: the markov maps of an interpolation, or the
    one ensemble of a delta grid, are climbed in one stack."""

    def __init__(self, ensembles: list[_Ensemble], c_dim: int, w_dim: int,
                 want_c: bool = False):
        shape = {(ens.dim_b, ens.dim_r, ens.dim_e, len(ens.mats)) for ens in ensembles}
        if len(shape) != 1:
            raise ValueError(f"stacked ensembles differ in (|B|, |R|, |E|, blocks): {shape}")
        self.mats = [ens.mats for ens in ensembles]
        self.dim_b, self.dim_r, self.dim_e = next(iter(shape))[:3]
        # per ensemble and block, p and the channel-independent S(R)
        self.probs = np.array([ens.probs for ens in ensembles])
        self.s_r = np.array([ens.s_r for ens in ensembles])
        self.c = c_dim
        self.w = w_dim
        self.want_c = want_c
        self.dim_v_out = c_dim * w_dim

    def informations(self, v: np.ndarray, g: np.ndarray) -> dict[str, np.ndarray]:
        """For a stack v of shape (n, |C||W|, |B|) whose row i acts on
        ensemble g[i], returns per matrix ixw = I(X:W), irwx = I(R:W|X) and,
        when requested, icw = I(C:W) and icx = I(C:X), each as an array of
        length n.  Each run of rows on one ensemble is multiplied by each of
        that ensemble's blocks in one (rows·|C||W|, |B|) product, so the
        stack itself is neither gathered nor copied.  The products of all
        blocks fill one array, each reduced density is one einsum over all
        blocks, and the entropies of each matrix size come from one
        eigensolve; the sums over blocks run in x order.  A row's result is
        then bit-identical to the same row evaluated alone only if the BLAS
        gemm gives each row of a product the same bits whatever the
        product's row count; the stacked-grid, stacked-markov and row-by-row
        tests of tests/test_idelta.py fail if a BLAS kernel breaks that."""
        c, w, r, e = self.c, self.w, self.dim_r, self.dim_e
        n, d = v.shape[0], c * w
        probs, s_r = self.probs.take(g, axis=0).T, self.s_r.take(g, axis=0).T  # per block and row
        o = np.empty((len(probs), n * d, r * e), dtype=complex)  # every block's V·m
        lo = 0
        for j, rows in itertools.groupby(g.tolist()):  # each run of rows on one ensemble
            hi = lo + len(list(rows))
            for k, m in enumerate(self.mats[j]):
                np.matmul(v[lo:hi].reshape(-1, self.dim_b), m, out=o[k, lo * d:hi * d])
            lo = hi
        o, oc = o.reshape(len(probs), n, c, w, -1), o.conj().reshape(len(probs), n, c, w, -1)
        rho_w = np.einsum("xncwk,xncvk->xnwv", o, oc)
        # each block is pure on C⊗W⊗R⊗E, so S(WR) = S(CE)
        o_e, oc_e = (a.reshape(len(probs), n, c, w, r, e) for a in (o, oc))
        rho_ce = np.einsum("xncwre,xndwrf->xncedf", o_e, oc_e).reshape(len(probs), n, c * e, c * e)
        stacks = [rho_w, qcore.weighted_average(probs, rho_w)[np.newaxis], rho_ce]
        if self.want_c:
            rho_c = np.einsum("xncwk,xndwk->xncd", o, oc)
            rho_cw = np.einsum("xncwk,xndvk->xncwdv", o, oc).reshape(len(probs), n, d, d)
            stacks += [rho_c, qcore.weighted_average(probs, rho_c)[np.newaxis],
                       qcore.weighted_average(probs, rho_cw)]
        s_w, s_w_avg, s_wr, *s_c = _entropies(stacks)

        def in_x_order(terms):  # sum over blocks, x by x
            total = 0.0
            for t in terms:
                total += t
            return total

        out = {"ixw": np.maximum(s_w_avg[0] - in_x_order(probs * s_w), 0.0),
               "irwx": in_x_order(probs * np.maximum(s_w + s_r - s_wr, 0.0))}
        if self.want_c:
            s_c, s_c_avg, s_cw = s_c
            out["icx"] = np.maximum(s_c_avg[0] - in_x_order(probs * s_c), 0.0)
            out["icw"] = np.maximum(s_c_avg[0] + s_w_avg[0] - s_cw, 0.0)
        return out


def _entropies(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """`qcore.entropy_of_stack` of each stack (..., d, d), from one call per
    distinct d.  The eigensolve and the sums act matrix by matrix, so each
    entropy equals that of a separate call, bit for bit."""
    out = [None] * len(stacks)
    for d in dict.fromkeys(s.shape[-1] for s in stacks):
        idx = [i for i, s in enumerate(stacks) if s.shape[-1] == d]
        flat = qcore.entropy_of_stack(np.concatenate([stacks[i].reshape(-1, d, d) for i in idx]))
        lo = 0
        for i in idx:
            shape = stacks[i].shape[:-2]
            out[i] = flat[lo:lo + math.prod(shape)].reshape(shape)
            lo += math.prod(shape)
    return out


def apply_channel(src: CqSource, param: Isometry) -> tuple[DensityOperator, float, float]:
    """sigma^{XWR} = (id_{XR} ⊗ T) omega for T = Tr_C(V . V†).

    Returns (sigma, I(X:W)_sigma, I(R:W|X)_sigma), the informations taken
    from the entropies of sigma itself, so they certify the optimizer's
    values independently of its evaluator.
    """
    if param.mat.shape[1] != src.dim_b:
        raise ValueError(f"channel input dim {param.mat.shape[1]} != source |B| = {src.dim_b}")
    nx, r = src.alphabet_size, src.dim_r
    c, w = param.out_dims
    v = param.mat
    blocks = []
    for x in range(nx):
        o = (v @ src.psi[x]).reshape(c, w, r)
        blocks.append(np.einsum("cwr,cvs->wrvs", o, o.conj()).reshape(w * r, w * r))
    sigma = DensityOperator(qcore.block_diagonal(src.probs, blocks),
                            [("X", nx), ("W", w), ("R", r)])
    return (sigma, qcore.mutual_information(sigma, ["X"], ["W"]),
            qcore.conditional_mutual_information(sigma, ["R"], ["W"], ["X"]))


def channel_marginal_informations(src: CqSource, param: Isometry) -> dict[str, float]:
    """All four marginal informations (ixw, irwx, icw, icx) of sigma^{XCWR}."""
    ev = _Evaluator([_Ensemble.from_source(src)], *param.out_dims, want_c=True)
    info = ev.informations(param.mat[np.newaxis], np.zeros(1, dtype=int))
    return {k: float(val[0]) for k, val in info.items()}


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
        g = qcore.ginibre((d, d), rng)
        a = (g - g.conj().T) / 2.0
    return a


def _start_points(dim_b: int, c_dim: int, w_dim: int) -> list[np.ndarray]:
    """Deterministic starts: the computational-basis embedding (c = 0, w = b
    when B fits into W, the identity channel to W), plus the embedding of B
    into C (trivial W) when it fits and differs from the first."""
    d = c_dim * w_dim
    starts = [np.eye(d, dtype=complex)[:, :dim_b]]
    if w_dim > 1 and 1 < dim_b <= c_dim:
        v = np.zeros((d, dim_b), dtype=complex)
        for b in range(dim_b):
            v[b * w_dim, b] = 1.0  # c = b, w = 0
        starts.append(v)
    return starts


def _dims_menu(dim_b: int) -> list[tuple[int, int]]:
    """Output-dimension splits searched when dims are not pinned: every
    factorization c·w = |B| (square isometries) plus the (|B|, |B|) block.
    Each member yields a valid lower bound; the best feasible one wins."""
    menu = [(dim_b, dim_b)]
    for c in range(1, dim_b + 1):
        if dim_b % c == 0:
            menu.append((c, dim_b // c))
    return menu


def _feasible(info, delta: float, unassisted: bool):
    """I(R:W|X) <= delta and, for the unassisted variant, I(C:W) <= I(C:X),
    each within TOL_FEAS; elementwise when the informations are arrays."""
    ok = info["irwx"] <= delta + TOL_FEAS
    return ok & (info["icw"] - info["icx"] <= TOL_FEAS) if unassisted else ok


def _climb(ev: _Evaluator, v0: np.ndarray, problems: list[tuple[int, float]],
           opts: OptimizerOptions,
           rngs: list[np.random.Generator]) -> list[list[tuple[float, float, np.ndarray] | None]]:
    """The restarts of one dimension split for every problem of `problems`,
    each an (ensemble index into `ev`, delta) pair, in lockstep: for each
    problem, restart i is a penalized ascent from v0[i] with directions
    drawn from rngs[i].  Returns per problem, per restart, the best strictly
    feasible visited point as (value, constraint, V), or None.  An evaluator
    that computes I(C:W) and I(C:X) (`ev.want_c`) climbs the unassisted
    variant.

    The starts and the directions depend neither on the ensemble nor on
    delta, so each step draws one direction per restart for all problems:
    the delta grid of a curve and the markov maps of an interpolation are
    climbed in one stack.  Row r = g·n + i holds restart i of problem g, and
    each step retracts and evaluates the three candidates of every row as
    one stack.  A row takes its candidates in order and stops at the first
    accepted one; the later ones change neither `best` nor the step size,
    exactly as if they had not been evaluated, so its result depends
    neither on the other restarts nor on the other problems."""

    unassisted = ev.want_c

    def penalty(info, mu: float, delta: float) -> float:
        # e * e, not e ** 2: libm pow need not round the square correctly
        e = max(info["irwx"] - delta, 0.0)
        pen = mu * (e * e)
        if unassisted:
            e = max(info["icw"] - info["icx"], 0.0)
            pen += mu * (e * e)
        return info["ixw"] - pen

    def per_matrix(stacked: dict[str, np.ndarray]) -> list[dict[str, float]]:
        cols = {k: a.tolist() for k, a in stacked.items()}
        return [dict(zip(cols, vals)) for vals in zip(*cols.values())]

    n, d, n_prob = len(rngs), ev.dim_v_out, len(problems)
    ens_of = np.repeat([j for j, _ in problems], n)
    delta = [dl for _, dl in problems for _ in range(n)]
    v = np.tile(v0, (n_prob, 1, 1))  # v[r], updated in place
    info = per_matrix(ev.informations(v, ens_of))
    best = [(inf["ixw"], inf["irwx"], v[r].copy()) if _feasible(inf, delta[r], unassisted)
            else None for r, inf in enumerate(info)]
    for mu in PENALTY_SCHEDULE:
        f = [penalty(inf, mu, dl) for inf, dl in zip(info, delta)]
        step = [STEP_INIT] * len(v)
        for _ in range(opts.iters_per_stage):
            a = np.stack([_random_direction(rng, d) for rng in rngs])
            # unit operator norm, from one SVD call for all restarts
            a /= np.maximum(np.linalg.svd(a, compute_uv=False)[:, 0],
                            1e-12)[:, np.newaxis, np.newaxis]
            eps = np.array([(s, s / 4.0, -s) for s in step])
            cands = _qr_retract((v[:, np.newaxis] + eps[:, :, np.newaxis, np.newaxis]
                                 * (np.tile(a, (n_prob, 1, 1)) @ v)[:, np.newaxis])
                                .reshape(-1, d, v.shape[-1]))
            cinfo = per_matrix(ev.informations(cands, np.repeat(ens_of, 3)))
            for r in range(len(v)):
                improved = False
                for k in range(3 * r, 3 * r + 3):
                    ci = cinfo[k]
                    cf = penalty(ci, mu, delta[r])
                    if _feasible(ci, delta[r], unassisted) and \
                            (best[r] is None or ci["ixw"] > best[r][0]):
                        best[r] = (ci["ixw"], ci["irwx"], cands[k].copy())
                    if cf > f[r] + 1e-12:
                        v[r], info[r], f[r] = cands[k], ci, cf
                        improved = True
                        break
                step[r] = min(step[r] * 1.3, 1.0) if improved else max(step[r] * 0.6, 1e-4)
    return [best[g * n:(g + 1) * n] for g in range(n_prob)]


def _optimize_ensemble(problems: list[tuple[_Ensemble, float]], opts: OptimizerOptions,
                       unassisted: bool = False) -> list[IdeltaResult]:
    """Best feasible lower bound for each (ensemble, delta) problem of
    `problems`; the ensembles must share |B|, |R|, |E| and the number of
    blocks.  Each result equals that of a one-problem list, bit for bit.

    Closed forms come first.  A split with |C| = 1 or |W| = 1 gives every
    isometry the same informations, so its identity embedding is evaluated
    and not climbed.  At (|B|, |B|) the support measurement of an ensemble
    whose block supports are orthogonal is evaluated too.  No channel gives
    I(X:W) above U = `_Ensemble.holevo` (data processing), and at delta = 0
    on a generic ensemble none gives more than U = I_0 = 0 (the paper's
    theorem), which the (|B|, 1) trivial-W embedding meets.  So a problem is
    retired, and never climbed, when one of these channels passes
    `_feasible` at its delta with I(X:W) >= U - RETIRE_TOL·max(1, U).
    Pinned dims leave only the pinned split's channels.  The other problems
    climb every other split, one climb per split for all of them, and the
    support measurement does not enter their results.  A result is the best
    feasible outcome, the largest I(X:W) with ties to the earlier menu
    entry, then to the earlier restart; a closed-form channel is restart 0
    of its split."""
    ensembles: list[_Ensemble] = []  # distinct, in order of first appearance
    stack: list[tuple[int, float]] = []  # (index into ensembles, delta)
    for ens, delta in problems:
        if not math.isfinite(delta):
            raise SpecError(f"delta must be finite, got {delta}")
        if delta < 0:
            raise SpecError("delta must be >= 0")
        j = next((u for u, known in enumerate(ensembles) if known is ens), len(ensembles))
        if j == len(ensembles):
            ensembles.append(ens)
        stack.append((j, delta))
    dim_b = ensembles[0].dim_b
    if opts.c_dim is not None or opts.w_dim is not None:
        menu = [(opts.c_dim if opts.c_dim is not None else dim_b,
                 opts.w_dim if opts.w_dim is not None else dim_b)]
    else:
        menu = _dims_menu(dim_b)
    cap = dim_b ** DIM_CAP_FACTOR
    for c_dim, w_dim in menu:
        if c_dim > cap or w_dim > cap:
            raise SpecError(
                f"channel dims ({c_dim}, {w_dim}) exceed the default cap |B|^2 = {cap}")
        if c_dim * w_dim < dim_b:
            raise SpecError(
                f"no isometry B -> C⊗W with |C||W| = {c_dim * w_dim} < |B| = {dim_b}")

    closed = [[] for _ in ensembles]  # per ensemble: (menu index, c, w, informations, V)
    for mi, (c_dim, w_dim) in enumerate(menu):
        if c_dim == 1 or w_dim == 1:
            chans = [(j, _start_points(dim_b, c_dim, w_dim)[0]) for j in range(len(ensembles))]
        elif (c_dim, w_dim) == (dim_b, dim_b):
            chans = [(j, ens.support_measurement) for j, ens in enumerate(ensembles)
                     if ens.support_measurement is not None]
        else:
            continue
        if chans:
            g, v = zip(*chans)
            info = _Evaluator(ensembles, c_dim, w_dim, want_c=unassisted).informations(
                np.stack(v), np.array(g))
            cols = {key: vals.tolist() for key, vals in info.items()}
            for k, (j, vk) in enumerate(chans):
                closed[j].append((mi, c_dim, w_dim, {key: col[k] for key, col in cols.items()},
                                  vk))

    results, climbing = [], []  # per problem: (menu index, restart, c, w, outcome); unretired
    for g, (j, delta) in enumerate(stack):
        row = [(mi, 0, c_dim, w_dim, (info["ixw"], info["irwx"], v.copy())
                if _feasible(info, delta, unassisted) else None)
               for mi, c_dim, w_dim, info, v in closed[j]]
        u = 0.0 if delta == 0.0 and ensembles[j].generic else ensembles[j].holevo
        if not any(out is not None and out[0] >= u - RETIRE_TOL * max(1.0, u)
                   for *_, out in row):
            row = [r for r in row if r[2] == 1 or r[3] == 1]  # the degenerate splits' embeddings
            climbing.append(g)
        results.append(row)

    for mi, (c_dim, w_dim) in enumerate(menu):
        if not climbing or c_dim == 1 or w_dim == 1:
            continue
        starts = _start_points(dim_b, c_dim, w_dim)
        ev = _Evaluator(ensembles, c_dim, w_dim, want_c=unassisted)
        n_restarts = max(opts.restarts, len(starts))
        seeds = np.random.SeedSequence(entropy=opts.seed, spawn_key=(mi,)).spawn(n_restarts)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        v0 = np.stack([starts[i] if i < len(starts)
                       else qcore.random_isometry(c_dim * w_dim, dim_b, rng)
                       for i, rng in enumerate(rngs)])
        for g, outs in zip(climbing, _climb(ev, v0, [stack[g] for g in climbing], opts, rngs)):
            results[g] += [(mi, i, c_dim, w_dim, out) for i, out in enumerate(outs)]
    return [_best_result(delta, dim_b, sorted(row, key=lambda r: r[:2]))
            for (_, delta), row in zip(stack, results)]


def _best_result(delta: float, dim_b: int, results: list) -> IdeltaResult:
    feasibles = [r for r in results if r[4] is not None]
    candidates = tuple((r[4][0], r[4][1]) for r in feasibles)
    if feasibles:
        # deterministic merge: best value, ties broken by menu then restart index
        mi, i, c_dim, w_dim, (val, cons, v) = max(
            feasibles, key=lambda r: (r[4][0], -r[0], -r[1]))
        param = make_channel_param(v, dim_b, c_dim, w_dim)
        return IdeltaResult(delta, float(val), float(cons), param, len(results), candidates)
    return IdeltaResult(delta, 0.0, math.inf, None, len(results), candidates)


def idelta_curve(src: CqSource, deltas=(),
                 opts: OptimizerOptions = OptimizerOptions()) -> IdeltaCurve:
    """Per-delta lower bounds on the sorted grid from one climb, monotonized
    by running maximum, with the I_0 and I~_0 estimates: both 0 on a generic
    source by the paper's theorem, whatever the delta = 0 result reads.
    Otherwise I_0 is the result at delta = 0, the grid's own or that of an
    extra delta of the same stack, and I~_0, floored at I_0 since I~_0 >= I_0
    holds exactly, is the curve's value at the smallest positive delta (a
    last-value extrapolation toward delta -> 0) or, when the grid has none,
    the value at I0_TILDE_DELTA, one more delta of the stack; so the empty
    grid asks for the estimates alone.  Both are lower bounds."""
    deltas = sorted(float(d) + 0.0 for d in deltas)  # kill negative zero
    ens = _Ensemble.from_source(src)  # one object: one product per block for all the grid's rows
    positive = [d for d in deltas if d > 0]
    stack = deltas + ([] if ens.generic or positive else [I0_TILDE_DELTA])
    stack += [] if 0.0 in deltas else [0.0]  # delta = 0 rides in the stack
    results = _optimize_ensemble([(ens, d) for d in stack], opts)
    res0 = results[stack.index(0.0)]
    extra, results = results[len(deltas):], results[:len(deltas)]
    raw = [res.value for res in results]
    mono = list(np.maximum.accumulate(raw))
    warnings = [f"monotonicity violation at delta={d:g}: raw value {r:.6g} is {m - r:.3g} "
                f"below the running maximum {m:.6g} (optimizer failure, not a curve feature)"
                for d, r, m in zip(deltas, raw, mono) if r < m]
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
    i0 = 0.0 if ens.generic else res0.value
    i0t = 0.0 if ens.generic else (mono[deltas.index(positive[0])] if positive
                                   else extra[0].value)
    return IdeltaCurve(tuple(deltas), tuple(mono), tuple(raw), tuple(warnings),
                       tuple(results), i0, max(i0t, i0), res0)


def optimize_I0_minus(src: CqSource,
                      opts: OptimizerOptions = OptimizerOptions()) -> IdeltaResult:
    """Unassisted variant: maximize I(X:W) over isometries B -> C⊗W subject
    to I(R:W|X) <= TOL_FEAS and I(C:W) - I(C:X) <= TOL_FEAS."""
    return _optimize_ensemble([(_Ensemble.from_source(src), 0.0)], opts, unassisted=True)[0]


# ---------------------------------------------------------------------------
# brute-force oracle at tiny dimensions
# ---------------------------------------------------------------------------

def _ry(t: np.ndarray) -> np.ndarray:
    """Ry(t) for each angle of t, a stack of shape t.shape + (2, 2)."""
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2).astype(complex)


@functools.cache
def _oracle_net() -> np.ndarray:
    """The oracle's read-only net of isometries B -> C⊗W with |C| = |W| = 2,
    built once per process.  It is a circuit family whose angles take
    ORACLE_STEPS values each: an input rotation Rz(phi) Ry(theta), a
    controlled-Ry(alpha) from the input qubit onto an ancilla |0>, and a role
    swap.  The stack runs over (theta, phi, alpha, swap), the swapped form
    first; it holds the identity-to-W and trivial-W channels exactly."""
    thetas = np.linspace(0.0, math.pi, ORACLE_STEPS)
    phis = np.linspace(0.0, 2 * math.pi, ORACLE_STEPS, endpoint=False)
    alphas = np.linspace(0.0, math.pi, ORACLE_STEPS)
    phase = np.stack([np.exp(-1j * phis / 2), np.exp(1j * phis / 2)], -1)
    uin = phase[:, :, np.newaxis] * _ry(thetas)[:, np.newaxis]  # [th, ph, i, j]
    # input qubit i = 0 leaves the ancilla at Ry(0)|0>, i = 1 takes it to Ry(alpha)|0>
    anc = _ry(np.stack([np.zeros_like(alphas), alphas], -1))[..., 0]  # [al, i, a]
    # base[th, ph, al, i, a, j]: the evaluator reads the output legs (i, a) as
    # (C, W), so in the swapped form W is the input qubit
    base = uin[:, :, np.newaxis, :, np.newaxis, :] * anc[:, :, :, np.newaxis]
    net = np.stack([base.swapaxes(3, 4), base], 3).reshape(-1, 4, 2)
    net.flags.writeable = False
    return net


def oracle_grid(src: CqSource, delta: float) -> float:
    """Brute-force lower bound for |B| <= 2: the best I(X:W) over the
    feasible channels of `_oracle_net`.  The net holds only |C| = |W| = 2
    channels, so it is a floor for the optimizer, not the true I_delta."""
    if src.dim_b > 2:
        raise ValueError("oracle_grid requires |B| <= 2")
    best = 0.0  # trivial channel is always feasible
    if src.dim_b == 1:
        return best
    info = _oracle_informations(src)
    feasible = info["ixw"][_feasible(info, delta, unassisted=False)]
    return max(best, float(feasible.max())) if feasible.size else best


@functools.lru_cache(maxsize=8)
def _oracle_informations(src: CqSource) -> types.MappingProxyType:
    """I(X:W) and I(R:W|X) of every channel of `_oracle_net` on `src`, a
    read-only mapping of read-only arrays evaluated once per source: delta
    only filters them.  A source hashes by identity, and the cache's
    reference keeps its id from being reused."""
    net = _oracle_net()
    info = _Evaluator([_Ensemble.from_source(src)], 2, 2).informations(
        net, np.zeros(len(net), dtype=int))
    for vals in info.values():
        vals.flags.writeable = False
    return types.MappingProxyType(info)
