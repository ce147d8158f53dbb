import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqrate import idelta, source
from cqrate.idelta import OptimizerOptions
from cqrate.reference import source_a, source_b, source_c


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """`python -m cqrate.cli *args` in a child process that imports this
    checkout's package: the repository's src leads its PYTHONPATH."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "cqrate.cli", *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


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
