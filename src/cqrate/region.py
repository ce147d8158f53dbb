"""Rate-region geometry in the (R_X, R_B) plane.

Regions are intersections of half-planes aX·R_X + aB·R_B >= b (upper-right
closed convex sets), carried redundantly as half-plane lists and vertex
lists; consistency between the two is an invariant, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import idelta as idelta_mod
from . import qcore
from .errors import InternalError
from .idelta import IdeltaResult, OptimizerOptions, _Ensemble, _optimize_ensemble
from .source import CqSource, EntropicProfile, entropic_profile

VERTEX_TOL = 1e-9
MARKOV_RANDOM_MAPS = 4  # markov_interpolation climbs this many noisy and random maps each


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


def region_vertices(half_planes) -> tuple[RatePoint, ...]:
    """Corner points of the lower boundary: pairwise line intersections that
    satisfy all constraints, sorted lexicographically."""
    hps = list(half_planes)
    if not hps:
        raise ValueError("need at least one half-plane")
    feas = []
    for i in range(len(hps)):
        for j in range(i + 1, len(hps)):
            h1, h2 = hps[i], hps[j]
            det = h1.ax * h2.ab - h2.ax * h1.ab
            if abs(det) < 1e-12 * (h1.ax + h1.ab) * (h2.ax + h2.ab):  # parallel, at any scale
                continue
            rx = (h1.b * h2.ab - h2.b * h1.ab) / det
            rb = (h1.ax * h2.b - h2.ax * h1.b) / det
            # the point is on lines i and j by construction; the others must
            # contain it, within VERTEX_TOL relative to the size of their terms
            p, size = RatePoint(rx, rb), max(abs(rx), abs(rb))
            if all(hp.contains(p, VERTEX_TOL * max(1.0, abs(hp.b), (hp.ax + hp.ab) * size))
                   for k, hp in enumerate(hps) if k not in (i, j)):
                feas.append((rx, rb))
    feas = sorted(set((round(rx, 12), round(rb, 12)) for rx, rb in feas))
    return tuple(_distinct(RatePoint(rx, rb) for rx, rb in feas))


def _distinct(points) -> list[RatePoint]:
    """The points in order, less each one within VERTEX_TOL, relative to the
    larger coordinate (at least 1), in both rates of a point kept before it:
    two such points are one rate point."""
    out: list[RatePoint] = []
    for p in points:
        if not any(max(abs(p.rx - q.rx), abs(p.rb - q.rb))
                   < VERTEX_TOL * max(1.0, abs(p.rx), abs(p.rb), abs(q.rx), abs(q.rb))
                   for q in out):
            out.append(p)
    return out


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
              i0_result: IdeltaResult) -> RatePoint:
    """Redistribution point (S(X), (S(B)+S(B|X)-I(X:W))/2) for the optimized
    channel; the ebit rate (I(C:W)-I(C:X))/2 comes from its marginals.  An
    infeasible result is an optimizer failure, not an input error."""
    if i0_result.param is None or i0_result.constraint > i0_result.delta + idelta_mod.TOL_FEAS:
        raise InternalError("qsr_point needs a feasible channel optimization result")
    info = idelta_mod.channel_marginal_informations(src, i0_result.param)
    return RatePoint(profile.s_x,
                     0.5 * (profile.s_b + profile.s_b_given_x - i0_result.value),
                     ebit_rate=0.5 * (info["icw"] - info["icx"]))


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def _shared_bounds(profile: EntropicProfile, i: float) -> list[HalfPlane]:
    """R_X >= S(X|B) and R_B >= (S(B) + S(B|X) - i)/2, the two bounds of
    every region; i is I0 for the inner region and I~0 for the converse."""
    return [HalfPlane(1.0, 0.0, profile.s_x_given_b),
            HalfPlane(0.0, 1.0, 0.5 * (profile.s_b + profile.s_b_given_x - i))]


def generic_region(profile: EntropicProfile, is_generic: bool = True) -> RateRegion2D:
    """The three-inequality region, which is the converse at I~0 = 0; exact
    for generic sources, otherwise only its achievability survives and the
    kind is downgraded to inner."""
    return replace(outer_bound_region(profile, 0.0),
                   kind="exact" if is_generic else "inner",
                   provenance="generic three-inequality region"
                              + ("" if is_generic else " (non-generic source: inner)"))


def outer_bound_region(profile: EntropicProfile, i0_tilde: float,
                       mode: str = "assisted") -> RateRegion2D:
    """Converse region; `mode = unassisted` adds the sum bound
    R_X + R_B >= S(XB)."""
    if i0_tilde < 0:
        raise ValueError("I~0 must be non-negative")
    if i0_tilde > profile.i_x_b + idelta_mod.TOL_OPT:
        raise ValueError(f"I~0 = {i0_tilde} exceeds I(X:B) = {profile.i_x_b}")
    if mode not in ("assisted", "unassisted"):
        raise ValueError(f"unknown mode {mode!r}")
    hps = _shared_bounds(profile, i0_tilde)
    hps.append(HalfPlane(1.0, 2.0, profile.s_b + profile.s_xb - i0_tilde))
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
    hps = (*_shared_bounds(profile, i0),
           HalfPlane(1.0, alpha, profile.s_x_given_b + alpha * profile.s_b))
    return RateRegion2D(hps, region_vertices(hps), "inner",
                        provenance=f"DW/QSR hull (I0={i0:.6g}, alpha={alpha:.6g})")


def estimated_regions(profile: EntropicProfile, i0: float, i0_tilde: float,
                      mode: str = "assisted"):
    """(i0, i0_tilde, inner, outer): the estimates clamped into 0 <= I0 <= I~0
    <= I(X:B), the inner region at I0 and the converse at I~0 (+ 0.0 maps -0.0 to 0.0)."""
    i0 = min(max(i0, 0.0), profile.i_x_b) + 0.0
    i0_tilde = min(max(i0_tilde, i0), profile.i_x_b) + 0.0
    return (i0, i0_tilde, inner_bound_region(profile, i0),
            outer_bound_region(profile, i0_tilde, mode))


# ---------------------------------------------------------------------------
# Markov-chain interpolation between DW and QSR
# ---------------------------------------------------------------------------

def markov_interpolation(src: CqSource, y_dim: int,
                         opts: OptimizerOptions = OptimizerOptions()) -> list[RatePoint]:
    """Achievable points from auxiliary variables Y with Y - X - B a Markov
    chain: R_X = S(X|B) + I(Y:B), R_B = S(B) - (I(Y:B) + I(Y:W))/2, with the
    channel optimized under I(W:R|Y) <= tol on the Y-conditioned ensemble.

    The first point is the DW endpoint, the constant map's, in closed form:
    a single Y block makes I(Y:B) = I(Y:W) = 0 for every channel.  When
    |Y| >= |X| the identity map (QSR endpoint) and noisy and random maps are
    climbed as well, all of them in one stack (one `_optimize_ensemble`
    call); dominated points are dropped.
    """
    nx = src.alphabet_size
    if y_dim < 1 or y_dim > nx + 1:
        raise ValueError(f"|Y| must be in [1, |X|+1 = {nx + 1}]")
    profile = entropic_profile(src)
    points = [dw_point(profile)]
    maps: list[np.ndarray] = []
    if y_dim >= nx:
        ident = np.zeros((y_dim, nx))
        ident[:nx, :nx] = np.eye(nx)
        maps.append(ident)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=opts.seed,
                                                           spawn_key=(0xA11CE,)))
        for k in range(MARKOV_RANDOM_MAPS):
            q = (k + 1) / (MARKOV_RANDOM_MAPS + 1)
            noisy = (1 - q) * ident + q * np.ones((y_dim, nx)) / y_dim
            maps.append(noisy)
        for _ in range(MARKOV_RANDOM_MAPS):
            maps.append(rng.dirichlet(np.ones(y_dim), size=nx).T)

    ensembles = [_Ensemble.conditioned(src, cond) for cond in maps]
    results = _optimize_ensemble([(ens, 0.0) for ens in ensembles], opts) if maps else []
    for ens, res in zip(ensembles, results):
        rho_b = ens.mats @ ens.mats.conj().swapaxes(1, 2)  # per block y, rho_y^B
        iyb = float(qcore.holevo_of_stack(ens.probs, rho_b)[0])
        iyw = res.value if res.param is not None else 0.0
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
    return _distinct(sorted(out, key=lambda t: (t.rx, t.rb)))


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


def boundary_samples(region: RateRegion2D, n: int = 200, *, rx_hi: float) -> list[RatePoint]:
    """n points along the lower boundary, from the vertical edge to rx_hi."""
    xs = np.linspace(rx_floor(region), rx_hi, n)
    return [RatePoint(float(x), lower_boundary(region, float(x))) for x in xs]


def region_to_doc(region: RateRegion2D, rx_hi: float) -> dict:
    return {
        "halfplanes": [hp.as_dict() for hp in region.half_planes],
        "vertices": [v.as_dict() for v in region.vertices],
        "kind": region.kind,
        "provenance": region.provenance,
        "boundary_samples": [[p.rx, p.rb] for p in boundary_samples(region, rx_hi=rx_hi)],
    }


def boundary_hausdorff(r1: RateRegion2D, r2: RateRegion2D) -> float:
    """Symmetric Hausdorff distance between the two lower boundaries
    (vertical edges included), restricted to a common bounding box and
    sampled at n = 400 points per boundary plus n / 4 per vertical edge."""
    n = 400
    lo = min(rx_floor(r1), rx_floor(r2))
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
        pts += [(p.rx, p.rb) for p in boundary_samples(region, n, rx_hi=rx_hi)]
        return np.asarray(pts)

    c1, c2 = curve(r1), curve(r2)
    d12 = np.max(np.min(np.linalg.norm(c1[:, None, :] - c2[None, :, :], axis=2), axis=1))
    d21 = np.max(np.min(np.linalg.norm(c2[:, None, :] - c1[None, :, :], axis=2), axis=1))
    return float(max(d12, d21))
