import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqrate import idelta, qcore, region, source
from cqrate.idelta import OptimizerOptions
from cqrate.reference import source_a, source_b, source_c


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """`python *args` in a child process that imports this checkout's
    package: the repository's src leads its PYTHONPATH."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """`python -m cqrate.cli *args` in a child process, as `run_python`."""
    return run_python("-m", "cqrate.cli", *args)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Ginibre-induced random density matrix (full rank by default)."""
    return qcore.density_from_ginibre(qcore.ginibre((dim, dim if rank is None else rank), rng))


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A random unit vector from one Ginibre draw."""
    v = qcore.ginibre((dim,), rng)
    return v / np.linalg.norm(v)


def random_states(rng: np.random.Generator, nx: int, dim_b: int,
                  dim_r: int) -> tuple[np.ndarray, np.ndarray]:
    """A random source's draw: probabilities, every one at least 0.1, and nx
    random amplitude vectors on B⊗R."""
    probs = rng.dirichlet(np.ones(nx))
    probs = (1.0 - nx * 0.1) * probs + 0.1
    return probs, np.array([random_pure(dim_b * dim_r, rng) for _ in range(nx)])


def random_source(rng: np.random.Generator, nx: int = 2, dim_b: int = 2,
                  dim_r: int = 2) -> source.CqSource:
    """Random cq source with every probability at least 0.1."""
    return source.make_source(*random_states(rng, nx, dim_b, dim_r), dim_b, dim_r,
                              name="random")


def mix_with_maximally_mixed(src: source.CqSource, eps: float) -> source.CqSource:
    """Mix each reduced state with eps·I/|B| and re-purify canonically.

    The result is generic by construction (every marginal has full support).
    """
    psi, problems = source.mix_of_stack(src.psi[np.newaxis], eps)
    if problems[0]:
        raise ValueError(problems[0])
    return source.CqSource(src.probs, psi[0], name=f"{src.name}+eps{eps:g}")


def random_generic_source(rng: np.random.Generator, nx: int = 2, dim_b: int = 2,
                          eps: float = 1e-3) -> source.CqSource:
    """Random source made generic by an eps admixture of the maximally mixed
    state on B (reference dim |B| after re-purification)."""
    return mix_with_maximally_mixed(random_source(rng, nx, dim_b, dim_b), eps)


def tensor_sources(s1: source.CqSource, s2: source.CqSource) -> source.CqSource:
    """Product source: alphabet X1×X2, states |psi_x1>⊗|psi_x2>, whose amplitude
    matrices are the krons of the factors' (legs grouped as B1B2, R1R2)."""
    probs = np.outer(s1.probs, s2.probs).reshape(-1)
    vectors = [np.kron(m1, m2) for m1 in s1.psi for m2 in s2.psi]
    return source.make_source(probs, vectors, s1.dim_b * s2.dim_b, s1.dim_r * s2.dim_r,
                              name=f"{s1.name}x{s2.name}")


def source_doc(src: source.CqSource) -> dict:
    """Spec document for a source (inverse of load_source for pure inputs)."""
    states = []
    for m in src.psi:
        states.append({
            "amplitudes": [[float(a.real), float(a.imag)] for a in m.reshape(-1)],
            "dims": {"B": src.dim_b, "R": src.dim_r},
        })
    return {"name": src.name, "probs": [float(p) for p in src.probs], "states": states}


def boundary_hausdorff(r1: region.RateRegion2D, r2: region.RateRegion2D) -> float:
    """Symmetric Hausdorff distance between the two lower boundaries
    (vertical edges included), restricted to a common bounding box and
    sampled at n = 400 points per boundary plus n / 4 per vertical edge."""
    n = 400
    lo = min(region.rx_floor(r1), region.rx_floor(r2))
    vmax = [v.rx for v in r1.vertices] + [v.rx for v in r2.vertices]
    rx_hi = max(vmax + [lo]) + 1.0
    top = max(region.lower_boundary(r1, region.rx_floor(r1)),
              region.lower_boundary(r2, region.rx_floor(r2))) + 1.0

    def curve(reg: region.RateRegion2D) -> np.ndarray:
        flo = region.rx_floor(reg)
        edge = np.linspace(region.lower_boundary(reg, flo), top, n // 4)
        return np.concatenate((np.stack((np.full_like(edge, flo), edge), axis=-1),
                               region.boundary_samples(reg, n, rx_hi=rx_hi)))

    c1, c2 = curve(r1), curve(r2)
    d12 = np.max(np.min(np.linalg.norm(c1[:, None, :] - c2[None, :, :], axis=2), axis=1))
    d21 = np.max(np.min(np.linalg.norm(c2[:, None, :] - c1[None, :, :], axis=2), axis=1))
    return float(max(d12, d21))


@pytest.fixture(scope="session")
def src_a():
    return source_a()


@pytest.fixture(scope="session")
def src_b():
    return source_b()


@pytest.fixture(scope="session")
def src_c():
    return source_c()


def optimize(src: source.CqSource, delta: float, opts: OptimizerOptions) -> idelta.IdeltaResult:
    """The result of the one problem (src, delta) alone: the form a stacked
    result is compared with, bit for bit."""
    return idelta._optimize_ensemble([(idelta._Ensemble.from_source(src), delta)], opts)[0]


def unflagged(src: source.CqSource) -> idelta._Ensemble:
    """The ensemble of `src` marked not generic, so that the climb, not the
    theorem, answers a generic source's delta = 0 problem."""
    ens = idelta._Ensemble.from_source(src)
    ens.generic = False
    return ens


def optimize_unflagged(src: source.CqSource, delta: float,
                       opts: OptimizerOptions) -> idelta.IdeltaResult:
    """`optimize` on the ensemble of `src` marked not generic."""
    return idelta._optimize_ensemble([(unflagged(src), delta)], opts)[0]


def probe_source() -> source.CqSource:
    """Disjoint supports that are not orthogonal: |B| = 4, |R| = 2,
    psi_0 = (|e0>|r0> + |e1>|r1>)/sqrt2 and psi_1 = (|e2>|r0> + |u>|r1>)/sqrt2
    with u = (e0 + e3)/sqrt2, so S_0 = span(e0, e1) and S_1 = span(e2, u)
    meet only in 0.  No closed form is known for it, so it is climbed."""
    e = np.eye(4)
    u = (e[0] + e[3]) / np.sqrt(2.0)
    mats = [np.stack([e[0], e[1]], axis=1), np.stack([e[2], u], axis=1)]  # m[b, r]
    return source.make_source([0.5, 0.5], [m / np.sqrt(2.0) for m in mats], 4, 2, name="probe")


def src_c_overlap_source() -> source.CqSource:
    """SRC-C with a 1e-6 overlap between its supports: e1 in psi_1 becomes
    (e1 + 1e-6 e0) normalized, so the supports are no longer orthogonal."""
    e = np.eye(4)
    tilted = (e[1] + 1e-6 * e[0]) / np.sqrt(1.0 + 1e-12)
    mats = [np.stack([e[0], e[2]], axis=1), np.stack([tilted, e[3]], axis=1)]  # m[b, r]
    return source.make_source([0.5, 0.5], [m / np.sqrt(2.0) for m in mats], 4, 2,
                              name="SRC-C-overlap")


@pytest.fixture(scope="session")
def probe():
    return probe_source()


@pytest.fixture(scope="session")
def src_c_overlap():
    return src_c_overlap_source()


@pytest.fixture(scope="session")
def light_opts():
    # small but reliable budget for unit tests; acceptance uses its own
    return OptimizerOptions(seed=0, restarts=6, iters_per_stage=40)
