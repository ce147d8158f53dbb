"""Classical-quantum source model: the ensemble state on X⊗B⊗R, its tensor
powers, entropic profile, genericity analysis and the full-support transfer
operators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import SpecError
from .qcore import DensityOperator

TOL_GENERIC = 1e-9


@dataclass(frozen=True, eq=False)
class CqSource:
    """Ensemble {p(x), |psi_x> on B⊗R}: probs has shape (|X|,) and psi, the
    amplitudes psi[x, b, r], shape (|X|, |B|, |R|)."""

    probs: np.ndarray
    psi: np.ndarray
    name: str = ""

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or len(probs) == 0:
            raise SpecError("probs must be a non-empty vector")
        if not np.all(np.isfinite(probs)):
            raise SpecError(f"probs must be finite, got {probs.tolist()}")
        if np.min(probs) < 0:
            raise SpecError("probs must be non-negative")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise SpecError(f"probs not normalized (sum {probs.sum()})")
        psi = np.asarray(self.psi, dtype=complex)
        if psi.ndim != 3 or len(psi) != len(probs):
            raise SpecError("psi must be an (|X|, |B|, |R|) array matching probs")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "psi", psi)

    @property
    def alphabet_size(self) -> int:
        return len(self.probs)

    @property
    def dim_b(self) -> int:
        return self.psi.shape[1]

    @property
    def dim_r(self) -> int:
        return self.psi.shape[2]

    @property
    def rho_b(self) -> np.ndarray:
        """The reduced states psi_x^B, a stack of shape (|X|, |B|, |B|)."""
        return self.psi @ self.psi.conj().swapaxes(1, 2)


def make_source(probs, vectors, dim_b: int, dim_r: int, name: str = "") -> CqSource:
    """Build a CqSource from raw amplitude vectors on B⊗R (phase-fixed)."""
    cols = []
    for v in vectors:
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.shape[0] != dim_b * dim_r:
            raise SpecError(f"state length {v.shape[0]} != |B||R| = {dim_b * dim_r}")
        if not np.all(np.isfinite(v)):  # a NaN would pass the norm test
            raise SpecError("non-finite amplitudes")
        nrm2 = float(np.vdot(v, v).real)  # tr psi_x, held to a density entry's bound
        if abs(nrm2 - 1.0) > qcore.TOL_TRACE:
            raise SpecError(f"state not normalized (squared norm {nrm2})")
        cols.append(v)
    mat = np.array(cols, dtype=complex).reshape(-1, dim_b * dim_r).T
    psi = qcore._phase_fix_columns(mat).T.reshape(-1, dim_b, dim_r)
    return CqSource(np.asarray(probs, dtype=float), psi, name)


def _number(v):
    """v, which must be a JSON number: a boolean or a string is not one."""
    if isinstance(v, (bool, str)):
        raise TypeError(f"{v!r} is not a number")
    return v


def _parse_int(v) -> int:
    """int(v) for an integer field; a float must be integral (2.0, not 1.9)."""
    n = int(_number(v))
    if isinstance(v, float) and n != v:
        raise ValueError(f"{v!r} is not an integer")
    return n


def _parse_scalar(v) -> complex:
    if isinstance(_number(v), (int, float, complex)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(_number(v[0])), float(_number(v[1])))
    raise SpecError(f"cannot parse complex entry {v!r}")


def _parse_complex_matrix(rows) -> np.ndarray:
    """Rows of complex entries, each a number or an [re, im] pair; an
    amplitude vector is parsed as one row.  Any malformed entry or ragged
    row is a SpecError."""
    try:
        return np.array([[_parse_scalar(v) for v in row] for row in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError, SpecError) as exc:
        raise SpecError(f"malformed complex entries: {exc}") from exc


def load_source(doc: dict) -> CqSource:
    """Build a validated source from a spec document.

    Top-level fields: `probs` (array of reals), `states` (array of either
    `{amplitudes: [[re, im], ...], dims: {B: int, R: int}}` or
    `{density: [[...]], dim: int}`), optional `name`.  Density inputs are
    purified canonically; reference dims are padded to a common value.
    """
    if not isinstance(doc, dict):
        raise SpecError("source spec must be a mapping")
    try:
        probs = np.array([_number(p) for p in doc["probs"]], dtype=float)
        entries = doc["states"]
    except KeyError as exc:
        raise SpecError(f"source spec missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise SpecError(f"malformed probs: {exc}") from exc
    if probs.ndim != 1 or len(probs) == 0:
        raise SpecError("probs must be a non-empty vector")
    if not isinstance(entries, (list, tuple)) or len(entries) != len(probs):
        raise SpecError("states must be a list matching probs in length")

    mats = []  # amplitude matrices m[b, r], |R| = rank for density inputs
    for entry in entries:
        if not isinstance(entry, dict):
            raise SpecError("each state must be a mapping")
        if "amplitudes" in entry:
            try:
                db = _parse_int(entry["dims"]["B"])
                dr = _parse_int(entry["dims"]["R"])
                if db < 1 or dr < 1:
                    raise ValueError(f"non-positive dims {db}, {dr}")
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise SpecError("amplitude state needs positive integer dims {B, R}") from exc
            amp = _parse_complex_matrix([entry["amplitudes"]])[0]
            if amp.shape[0] != db * dr:
                raise SpecError(f"amplitudes length {amp.shape[0]} != |B||R| = {db * dr}")
            mats.append(amp.reshape(db, dr))
        elif "density" in entry:
            try:
                db = _parse_int(entry["dim"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise SpecError("density state needs an integer field dim") from exc
            mat = _parse_complex_matrix(entry["density"])
            try:
                rho = DensityOperator(mat, [("B", db)])
            except ValueError as exc:
                raise SpecError(f"invalid density matrix: {exc}") from exc
            mats.append(qcore.purify_of_stack(rho.mat[np.newaxis])[0])
        else:
            raise SpecError("state entry needs either amplitudes or density")

    db0 = mats[0].shape[0]
    if any(m.shape[0] != db0 for m in mats):
        raise SpecError("inconsistent B dimensions across states")
    dr_common = max(m.shape[1] for m in mats)
    # pad each reference with zero amplitudes to the common |R|
    vectors = [np.pad(m, ((0, 0), (0, dr_common - m.shape[1]))) for m in mats]
    return make_source(probs, vectors, db0, dr_common, name=str(doc.get("name", "")))


def source_doc(src: CqSource) -> dict:
    """Spec document for a source (inverse of load_source for pure inputs)."""
    states = []
    for m in src.psi:
        states.append({
            "amplitudes": [[float(a.real), float(a.imag)] for a in m.reshape(-1)],
            "dims": {"B": src.dim_b, "R": src.dim_r},
        })
    return {"name": src.name, "probs": [float(p) for p in src.probs], "states": states}


# ---------------------------------------------------------------------------
# ensemble states
# ---------------------------------------------------------------------------

def cq_state_xb(src: CqSource) -> np.ndarray:
    """The matrix of omega on X⊗B (reference traced out)."""
    return qcore.block_diagonal(src.probs, src.rho_b)


def sequence_index(xs, nx: int) -> int:
    """Index of the sequence x^n in the basis of X^n (x_1 most significant)."""
    xi = 0
    for x in xs:
        xi = xi * nx + x
    return xi


def sequence_state(src: CqSource, xs) -> np.ndarray:
    """|psi_{x^n}> = |psi_{x_1}> ⊗ ... ⊗ |psi_{x_n}> with its legs regrouped
    from (B_1 R_1 B_2 R_2 ...) into (B^n, R^n)."""
    vec = np.ones(1, dtype=complex)
    for x in xs:
        vec = np.kron(vec, src.psi[x].reshape(-1))
    n = len(xs)
    t = vec.reshape([src.dim_b, src.dim_r] * n)
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return t.transpose(perm).reshape(-1)


# ---------------------------------------------------------------------------
# entropic profile and genericity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropicProfile:
    """The six entropic quantities of the source, in bits."""

    s_b: float
    s_b_given_x: float
    s_xb: float
    s_x: float
    s_x_given_b: float
    i_x_b: float

    def as_dict(self) -> dict:
        return {"S_B": self.s_b, "S_B_given_X": self.s_b_given_x, "S_XB": self.s_xb,
                "S_X": self.s_x, "S_X_given_B": self.s_x_given_b, "I_X_B": self.i_x_b}


def entropic_profile(src: CqSource) -> EntropicProfile:
    """All six quantities from omega^{XB}; derived ones via the exact
    identities so the profile invariants hold to the last bit."""
    omega = cq_state_xb(src)
    s_xb = qcore.entropy_of_mat(omega)
    s_b = qcore.entropy_of_mat(qcore.reduced_density_from_mat(
        omega, (src.alphabet_size, src.dim_b), [1]))
    s_x = qcore.entropy_from_eigvals(src.probs)
    return EntropicProfile(
        s_b=s_b,
        s_b_given_x=s_xb - s_x,
        s_xb=s_xb,
        s_x=s_x,
        s_x_given_b=s_xb - s_b,
        i_x_b=s_x + s_b - s_xb,
    )


@dataclass(frozen=True)
class GenericityReport:
    """Minimum eigenvalue of each reduced state psi_x^B and the witness."""

    lambda_mins: tuple[float, ...]
    witness: int
    lambda0: float
    is_generic: bool
    tol: float = TOL_GENERIC

    def as_dict(self) -> dict:
        return {"lambda_mins": list(self.lambda_mins), "witness": self.witness,
                "lambda0": self.lambda0, "is_generic": self.is_generic, "tol": self.tol}


def genericity_report(src: CqSource) -> GenericityReport:
    mins = np.maximum(np.linalg.eigvalsh(src.rho_b)[:, 0], 0.0).tolist()
    witness = int(np.argmax(mins))
    lam0 = mins[witness]
    return GenericityReport(tuple(mins), witness, lam0, lam0 > TOL_GENERIC)


# ---------------------------------------------------------------------------
# full-support transfer operators
# ---------------------------------------------------------------------------

def transfer_operators(src: CqSource, x0: int) -> np.ndarray:
    """The operators T_x on R with (1_B ⊗ T_x)|psi_x0> = |psi_x>, a stack of
    shape (|X|, |R|, |R|), for a witness x0 whose reduced state has full
    support on B.

    With m_x = psi[x], T_x^T = m_x0^† (m_x0 m_x0^†)^{-1} m_x: the solution
    that vanishes off the R-support of psi_x0, so ||T_x||_inf <=
    1/sqrt(lambda_min), and T_x0 is the projector onto that support.
    """
    m0 = src.psi[x0]
    gram = m0 @ m0.conj().T
    lam_min = np.linalg.eigvalsh(gram)[0]
    if lam_min <= TOL_GENERIC:
        raise ValueError(f"witness state {x0} does not have full support on B "
                         f"(min eigenvalue {lam_min})")
    return (m0.conj().T @ np.linalg.solve(gram, src.psi)).swapaxes(1, 2)


# ---------------------------------------------------------------------------
# derived sources
# ---------------------------------------------------------------------------

def mix_with_maximally_mixed(src: CqSource, eps: float) -> CqSource:
    """Mix each reduced state with eps·I/|B| and re-purify canonically.

    The result is generic by construction (every marginal has full support).
    """
    db = src.dim_b
    rho = (1.0 - eps) * src.rho_b + eps * np.eye(db) / db
    problem = next((p for p in qcore.density_problems(rho) if p), None)
    if problem:
        raise ValueError(problem)
    vectors = [np.pad(m, ((0, 0), (0, db - m.shape[1]))) for m in qcore.purify_of_stack(rho)]
    return make_source(src.probs, vectors, db, db, name=f"{src.name}+eps{eps:g}")


def random_source(rng: np.random.Generator, nx: int = 2, dim_b: int = 2,
                  dim_r: int = 2) -> CqSource:
    """Random cq source with every probability at least 0.1."""
    probs = rng.dirichlet(np.ones(nx))
    probs = (1.0 - nx * 0.1) * probs + 0.1
    vecs = [qcore.random_pure(dim_b * dim_r, rng) for _ in range(nx)]
    return make_source(probs, vecs, dim_b, dim_r, name="random")


def random_generic_source(rng: np.random.Generator, nx: int = 2, dim_b: int = 2,
                          eps: float = 1e-3) -> CqSource:
    """Random source made generic by an eps admixture of the maximally mixed
    state on B (reference dim |B| after re-purification)."""
    return mix_with_maximally_mixed(random_source(rng, nx, dim_b, dim_b), eps)


def tensor_sources(s1: CqSource, s2: CqSource) -> CqSource:
    """Product source: alphabet X1×X2, states |psi_x1>⊗|psi_x2> with the
    B factors grouped together and the R factors grouped together."""
    db = s1.dim_b * s2.dim_b
    dr = s1.dim_r * s2.dim_r
    probs = np.outer(s1.probs, s2.probs).reshape(-1)
    # axes (x1, x2, b1, b2, r1, r2); a broadcast product rounds as kron does, einsum need not
    vectors = (s1.psi[:, None, :, None, :, None] * s2.psi[None, :, None, :, None, :])
    vectors = vectors.reshape(len(probs), -1)
    return make_source(probs, vectors, db, dr, name=f"{s1.name}x{s2.name}")
