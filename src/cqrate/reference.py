"""The three reference sources used throughout tests and the self-test."""

from __future__ import annotations

import numpy as np

from .qcore import kron
from .source import CqSource, make_source

_SQ2 = 1.0 / np.sqrt(2.0)


def source_a() -> CqSource:
    """Orthogonal classical source: p = (1/2, 1/2), psi_x = |x> on B, |R| = 1."""
    return make_source([0.5, 0.5], [[1, 0], [0, 1]], dim_b=2, dim_r=1, name="SRC-A")


def source_b() -> CqSource:
    """Generic source: psi_0 = (|00> + |11>)/sqrt2 on B⊗R, psi_1 = |00>."""
    phi_plus = np.array([_SQ2, 0, 0, _SQ2])
    ket00 = np.array([1.0, 0, 0, 0])
    return make_source([0.5, 0.5], [phi_plus, ket00], dim_b=2, dim_r=2, name="SRC-B")


def source_c() -> CqSource:
    """Product-removable source: B = B'⊗B'' (2·2), psi_x = Phi+^{B'R} ⊗ |x>^{B''}."""
    vecs = [kron(_SQ2 * np.eye(2), np.eye(2)[:, [x]]) for x in range(2)]  # m[B'B'', R]
    return make_source([0.5, 0.5], vecs, dim_b=4, dim_r=2, name="SRC-C")
