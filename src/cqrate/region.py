"""Rate-region geometry in the (R_X, R_B) plane.

Regions are intersections of half-planes aX·R_X + aB·R_B >= b (upper-right
closed convex sets), carried redundantly as half-plane lists and vertex
lists; consistency between the two is an invariant, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import idelta as idelta_mod
from . import qcore
from .idelta import IdeltaResult, OptimizerOptions, _Ensemble, _optimize_ensemble
from .source import CqSource, EntropicProfile, entropic_profile

VERTEX_TOL = 1e-9


@dataclass(frozen=True)
class RatePoint:
    """Rates in bits (R_X) and qubits (R_B) per source copy; the optional
    ebit rate is negative when entanglement is distilled."""

    rx: float
    rb: float
    ebit_rate: float | None = None

    def as_dict(self) -> dict:
        d = {"rX": self.rx, "rB": self.rb}
        if self.ebit_rate is not None:
            d["E"] = self.ebit_rate
        return d


@dataclass(frozen=True)
class HalfPlane:
    """Constraint aX·R_X + aB·R_B >= b with aX, aB >= 0, not both zero."""

    ax: float
    ab: float
    b: float

    def __post_init__(self):
        if self.ax == 0.0 and self.ab == 0.0:
            raise ValueError("half-plane normal must be non-zero")
        if self.ax < 0 or self.ab < 0:
            raise ValueError("rate regions are upper-right closed: aX, aB >= 0")

    def contains(self, pt: RatePoint, slack: float = VERTEX_TOL) -> bool:
        return self.ax * pt.rx + self.ab * pt.rb >= self.b - slack

    def as_dict(self) -> dict:
        return {"aX": self.ax, "aB": self.ab, "b": self.b}


@dataclass(frozen=True)
class RateRegion2D:
    half_planes: tuple[HalfPlane, ...]
    vertices: tuple[RatePoint, ...]
    kind: str  # inner | outer | exact
    provenance: str = ""

    def __post_init__(self):
        if self.kind not in ("inner", "outer", "exact"):
            raise ValueError(f"unknown region kind {self.kind!r}")


def region_contains(region: RateRegion2D, pt: RatePoint, slack: float = VERTEX_TOL) -> bool:
    """Half-plane membership with slack."""
    if not region.half_planes:
        raise ValueError("region has no half-planes")
    return all(hp.contains(pt, slack) for hp in region.half_planes)


def region_vertices(region_or_half_planes) -> tuple[RatePoint, ...]:
    """Corner points of the lower boundary: pairwise line intersections that
    satisfy all constraints, sorted lexicographically."""
    if isinstance(region_or_half_planes, RateRegion2D):
        hps = list(region_or_half_planes.half_planes)
    else:
        hps = list(region_or_half_planes)
    if not hps:
        raise ValueError("need at least one half-plane")
    pts: list[tuple[float, float]] = []
    for i in range(len(hps)):
        for j in range(i + 1, len(hps)):
            h1, h2 = hps[i], hps[j]
            det = h1.ax * h2.ab - h2.ax * h1.ab
            if abs(det) < 1e-12:
                continue
            rx = (h1.b * h2.ab - h2.b * h1.ab) / det
            rb = (h1.ax * h2.b - h2.ax * h1.b) / det
            pts.append((rx, rb))
    feas = []
    for rx, rb in pts:
        p = RatePoint(rx, rb)
        if all(hp.contains(p) for hp in hps):
            feas.append((rx, rb))
    feas = sorted(set((round(rx, 12), round(rb, 12)) for rx, rb in feas))
    out = []
    for rx, rb in feas:
        if not any(abs(rx - ox) < 1e-9 and abs(rb - ob) < 1e-9 for ox, ob in
                   [(p.rx, p.rb) for p in out]):
            out.append(RatePoint(rx, rb))
    return tuple(out)


# ---------------------------------------------------------------------------
# rate points
# ---------------------------------------------------------------------------

def dw_point(profile: EntropicProfile) -> RatePoint:
    """Classical part compressed against quantum side information:
    (S(X|B), S(B))."""
    return RatePoint(profile.s_x_given_b, profile.s_b)


def merging_point(profile: EntropicProfile) -> RatePoint:
    """Coherent-merging rates (S(X), (S(B)+S(B|X))/2); distills I(X:B)/2
    ebits, reported as a negative ebit rate."""
    return RatePoint(profile.s_x, 0.5 * (profile.s_b + profile.s_b_given_x),
                     ebit_rate=-0.5 * profile.i_x_b)


def qsr_point(profile: EntropicProfile, src: CqSource,
              i0_result: IdeltaResult,
              tol_feas: float = idelta_mod.TOL_FEAS) -> RatePoint:
    """Redistribution point (S(X), (S(B)+S(B|X)-I(X:W))/2) for the optimized
    channel; the ebit rate (I(C:W)-I(C:X))/2 comes from its marginals."""
    if i0_result.param is None or i0_result.constraint > i0_result.delta + tol_feas:
        raise ValueError("qsr_point needs a feasible channel optimization result")
    info = idelta_mod.channel_marginal_informations(src, i0_result.param)
    return RatePoint(profile.s_x,
                     0.5 * (profile.s_b + profile.s_b_given_x - i0_result.value),
                     ebit_rate=0.5 * (info["icw"] - info["icx"]))


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def generic_region(profile: EntropicProfile, is_generic: bool = True) -> RateRegion2D:
    """The three-inequality region; exact for generic sources, otherwise
    only its achievability survives and the kind is downgraded to inner."""
    hps = (
        HalfPlane(1.0, 0.0, profile.s_x_given_b),
        HalfPlane(0.0, 1.0, 0.5 * (profile.s_b + profile.s_b_given_x)),
        HalfPlane(1.0, 2.0, profile.s_b + profile.s_xb),
    )
    return RateRegion2D(hps, region_vertices(hps),
                        "exact" if is_generic else "inner",
                        provenance="generic three-inequality region"
                                   + ("" if is_generic else " (non-generic source: inner)"))


def outer_bound_region(profile: EntropicProfile, i0_tilde: float,
                       mode: str = "assisted", tol: float = 1e-6) -> RateRegion2D:
    """Converse region; `mode = unassisted` adds the sum bound
    R_X + R_B >= S(XB)."""
    if i0_tilde < 0:
        raise ValueError("I~0 must be non-negative")
    if i0_tilde > profile.i_x_b + max(tol, idelta_mod.TOL_OPT):
        raise ValueError(f"I~0 = {i0_tilde} exceeds I(X:B) = {profile.i_x_b}")
    if mode not in ("assisted", "unassisted"):
        raise ValueError(f"unknown mode {mode!r}")
    hps = [
        HalfPlane(1.0, 0.0, profile.s_x_given_b),
        HalfPlane(0.0, 1.0, 0.5 * (profile.s_b + profile.s_b_given_x - i0_tilde)),
        HalfPlane(1.0, 2.0, profile.s_b + profile.s_xb - i0_tilde),
    ]
    if mode == "unassisted":
        hps.append(HalfPlane(1.0, 1.0, profile.s_xb))
    hps = tuple(hps)
    return RateRegion2D(hps, region_vertices(hps), "outer",
                        provenance=f"general converse ({mode}, I~0={i0_tilde:.6g})")


def inner_bound_region(profile: EntropicProfile, i0: float) -> RateRegion2D:
    """Upper-right convex closure of the DW and QSR points; the connecting
    inequality uses alpha = 2 I(X:B) / (I(X:B) + I0)."""
    if i0 < -1e-12 or i0 > profile.i_x_b + idelta_mod.TOL_OPT:
        raise ValueError(f"I0 = {i0} outside [0, I(X:B) = {profile.i_x_b}]")
    i0 = min(max(i0, 0.0), profile.i_x_b)
    denom = profile.i_x_b + i0
    alpha = 1.0 if denom <= 0.0 else 2.0 * profile.i_x_b / denom
    hps = (
        HalfPlane(1.0, 0.0, profile.s_x_given_b),
        HalfPlane(0.0, 1.0, 0.5 * (profile.s_b + profile.s_b_given_x - i0)),
        HalfPlane(1.0, alpha, profile.s_x_given_b + alpha * profile.s_b),
    )
    return RateRegion2D(hps, region_vertices(hps), "inner",
                        provenance=f"DW/QSR hull (I0={i0:.6g}, alpha={alpha:.6g})")


# ---------------------------------------------------------------------------
# Markov-chain interpolation between DW and QSR
# ---------------------------------------------------------------------------

def markov_interpolation(src: CqSource, y_dim: int,
                         opts: OptimizerOptions = OptimizerOptions(),
                         n_random_maps: int = 4) -> list[RatePoint]:
    """Achievable points from auxiliary variables Y with Y - X - B a Markov
    chain: R_X = S(X|B) + I(Y:B), R_B = S(B) - (I(Y:B) + I(Y:W))/2, with the
    channel optimized under I(W:R|Y) <= tol on the Y-conditioned ensemble.

    The candidates always include the constant map (DW endpoint) and, when
    |Y| >= |X|, the identity map (QSR endpoint); dominated points are
    dropped.
    """
    nx = src.alphabet_size
    if y_dim < 1 or y_dim > nx + 1:
        raise ValueError(f"|Y| must be in [1, |X|+1 = {nx + 1}]")
    profile = entropic_profile(src)
    maps: list[np.ndarray] = []
    const = np.zeros((y_dim, nx))
    const[0, :] = 1.0
    maps.append(const)
    if y_dim >= nx:
        ident = np.zeros((y_dim, nx))
        ident[:nx, :nx] = np.eye(nx)
        maps.append(ident)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=opts.seed,
                                                           spawn_key=(0xA11CE,)))
        for k in range(n_random_maps):
            q = (k + 1) / (n_random_maps + 1)
            noisy = (1 - q) * ident + q * np.ones((y_dim, nx)) / y_dim
            maps.append(noisy)
        for _ in range(n_random_maps):
            maps.append(rng.dirichlet(np.ones(y_dim), size=nx).T)

    points: list[RatePoint] = []
    for cond in maps:
        ens = _Ensemble.conditioned(src, cond)
        rhos_b = [qcore.reduced_density_from_mat(rho, (src.dim_b, src.dim_r), [0])
                  for rho in ens.mixed_rhos]
        iyb = float(qcore.holevo_of_stack(ens.probs, rhos_b)[0])
        res = _optimize_ensemble(ens, 0.0, opts)
        iyw = res.value if res.converged else 0.0
        points.append(RatePoint(profile.s_x_given_b + iyb,
                                profile.s_b - 0.5 * (iyb + iyw)))
    return _pareto_filter(points)


def _pareto_filter(points: list[RatePoint]) -> list[RatePoint]:
    out = []
    for p in points:
        dominated = any(
            (q.rx <= p.rx + 1e-12 and q.rb <= p.rb + 1e-12
             and (q.rx < p.rx - 1e-12 or q.rb < p.rb - 1e-12))
            for q in points)
        if not dominated:
            out.append(p)
    uniq = []
    for p in sorted(out, key=lambda t: (t.rx, t.rb)):
        if not any(abs(p.rx - q.rx) < 1e-9 and abs(p.rb - q.rb) < 1e-9 for q in uniq):
            uniq.append(p)
    return uniq


# ---------------------------------------------------------------------------
# sampling, export, distances
# ---------------------------------------------------------------------------

def lower_boundary(region: RateRegion2D, rx: float) -> float:
    """Smallest feasible R_B at classical rate rx (inf if rx infeasible)."""
    rb = 0.0
    for hp in region.half_planes:
        if hp.ab > 0:
            rb = max(rb, (hp.b - hp.ax * rx) / hp.ab)
        elif hp.ax * rx < hp.b - VERTEX_TOL:
            return float("inf")
    return rb


def rx_floor(region: RateRegion2D) -> float:
    """Smallest feasible R_X (half-planes with aB = 0)."""
    lo = 0.0
    for hp in region.half_planes:
        if hp.ab == 0:
            lo = max(lo, hp.b / hp.ax)
    return lo


def boundary_samples(region: RateRegion2D, n: int = 200,
                     rx_hi: float | None = None) -> list[RatePoint]:
    """n points along the lower boundary, from the vertical edge rightward."""
    lo = rx_floor(region)
    if rx_hi is None:
        vmax = max((v.rx for v in region.vertices), default=lo)
        rx_hi = max(vmax, lo) + 1.0
    xs = np.linspace(lo, rx_hi, n)
    return [RatePoint(float(x), lower_boundary(region, float(x))) for x in xs]


def region_to_doc(region: RateRegion2D, n_samples: int = 200,
                  rx_hi: float | None = None) -> dict:
    return {
        "halfplanes": [hp.as_dict() for hp in region.half_planes],
        "vertices": [v.as_dict() for v in region.vertices],
        "kind": region.kind,
        "provenance": region.provenance,
        "boundary_samples": [[p.rx, p.rb] for p in boundary_samples(region, n_samples, rx_hi)],
    }


def boundary_hausdorff(r1: RateRegion2D, r2: RateRegion2D,
                       n: int = 400, rx_hi: float | None = None) -> float:
    """Symmetric Hausdorff distance between the two lower boundaries
    (vertical edges included), restricted to a common bounding box."""
    lo = min(rx_floor(r1), rx_floor(r2))
    if rx_hi is None:
        vmax = [v.rx for v in r1.vertices] + [v.rx for v in r2.vertices]
        rx_hi = max(vmax + [lo]) + 1.0
    top = max(lower_boundary(r1, rx_floor(r1)),
              lower_boundary(r2, rx_floor(r2))) + 1.0

    def curve(region: RateRegion2D) -> np.ndarray:
        pts = []
        flo = rx_floor(region)
        rb0 = lower_boundary(region, flo)
        for t in np.linspace(rb0, top, n // 4):
            pts.append((flo, t))  # vertical edge
        for x in np.linspace(flo, rx_hi, n):
            pts.append((x, lower_boundary(region, x)))
        return np.asarray(pts)

    c1, c2 = curve(r1), curve(r2)
    d12 = np.max(np.min(np.linalg.norm(c1[:, None, :] - c2[None, :, :], axis=2), axis=1))
    d21 = np.max(np.min(np.linalg.norm(c2[:, None, :] - c1[None, :, :], axis=2), axis=1))
    return float(max(d12, d21))
