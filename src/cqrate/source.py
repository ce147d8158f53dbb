"""Classical-quantum source model: the ensemble state on X⊗B⊗R, its tensor
powers, entropic profile, genericity analysis and the full-support transfer
operator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import DimensionCapError, SpecError
from .qcore import DensityOperator, DimsSpec, PureState

TOL_GENERIC = 1e-9
EXTENDED_DIM_CAP = 2 ** 14


@dataclass(frozen=True)
class CqSource:
    """Ensemble {p(x), |psi_x> on B⊗R}; all states share the same dims."""

    probs: np.ndarray
    states: tuple[PureState, ...]
    name: str = ""

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or len(probs) == 0:
            raise SpecError("probs must be a non-empty vector")
        if np.min(probs) < 0:
            raise SpecError("probs must be non-negative")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise SpecError(f"probs not normalized (sum {probs.sum()})")
        if len(self.states) != len(probs):
            raise SpecError("probs and states lengths differ")
        dims0 = self.states[0].dims
        for st in self.states:
            if st.dims != dims0:
                raise SpecError("all source states must share the same dims")
        if tuple(dims0.labels) != ("B", "R"):
            raise SpecError("source states must live on labels (B, R)")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def alphabet_size(self) -> int:
        return len(self.probs)

    @property
    def dim_b(self) -> int:
        return self.states[0].dims.dim("B")

    @property
    def dim_r(self) -> int:
        return self.states[0].dims.dim("R")

    def state_matrix(self, x: int) -> np.ndarray:
        """|psi_x> reshaped to a (dim B) x (dim R) matrix."""
        return self.states[x].vec.reshape(self.dim_b, self.dim_r)

    def reduced_b(self, x: int) -> np.ndarray:
        m = self.state_matrix(x)
        return m @ m.conj().T


def make_source(probs, vectors, dim_b: int, dim_r: int, name: str = "") -> CqSource:
    """Build a CqSource from raw amplitude vectors on B⊗R (phase-fixed)."""
    states = []
    for v in vectors:
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.shape[0] != dim_b * dim_r:
            raise SpecError(f"state length {v.shape[0]} != |B||R| = {dim_b * dim_r}")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > qcore.TOL_NORM:
            raise SpecError(f"state norm {nrm} != 1")
        v = qcore._phase_fix_columns(v[:, np.newaxis])[:, 0]
        states.append(PureState(v, DimsSpec([("B", dim_b), ("R", dim_r)])))
    return CqSource(np.asarray(probs, dtype=float), tuple(states), name)


def _parse_scalar(v) -> complex:
    if isinstance(v, (int, float, complex)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise SpecError(f"cannot parse complex entry {v!r}")


def _parse_complex_vector(entries) -> np.ndarray:
    try:
        return np.array([_parse_scalar(v) for v in entries], dtype=complex)
    except (TypeError, SpecError) as exc:
        raise SpecError(f"malformed amplitude vector: {exc}") from exc


def _parse_complex_matrix(rows) -> np.ndarray:
    try:
        return np.array([[_parse_scalar(v) for v in row] for row in rows], dtype=complex)
    except (TypeError, SpecError) as exc:
        raise SpecError(f"malformed matrix: {exc}") from exc


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
        probs = np.asarray(doc["probs"], dtype=float)
        entries = doc["states"]
    except KeyError as exc:
        raise SpecError(f"source spec missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise SpecError(f"malformed probs: {exc}") from exc
    if probs.ndim != 1 or len(probs) == 0:
        raise SpecError("probs must be a non-empty vector")
    if np.min(probs) < 0 or abs(probs.sum() - 1.0) > 1e-10:
        raise SpecError("probs not normalized")
    if not isinstance(entries, (list, tuple)) or len(entries) != len(probs):
        raise SpecError("states must be a list matching probs in length")

    parsed: list[tuple[np.ndarray, int, int]] = []  # (vec, dB, dR), dR = rank for density inputs
    for entry in entries:
        if not isinstance(entry, dict):
            raise SpecError("each state must be a mapping")
        if "amplitudes" in entry:
            try:
                db = int(entry["dims"]["B"])
                dr = int(entry["dims"]["R"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise SpecError("amplitude state needs dims {B, R}") from exc
            amp = _parse_complex_vector(entry["amplitudes"])
            if amp.shape[0] != db * dr:
                raise SpecError(f"amplitudes length {amp.shape[0]} != |B||R| = {db * dr}")
            if abs(np.linalg.norm(amp) - 1.0) > qcore.TOL_NORM:
                raise SpecError("state amplitudes not normalized")
            parsed.append((amp, db, dr))
        elif "density" in entry:
            try:
                db = int(entry["dim"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise SpecError("density state needs field dim") from exc
            mat = _parse_complex_matrix(entry["density"])
            try:
                rho = DensityOperator(mat, DimsSpec([("B", db)]))
            except ValueError as exc:
                raise SpecError(f"invalid density matrix: {exc}") from exc
            psi = qcore.purify(rho, ref_label="R")
            parsed.append((psi.vec, db, psi.dims.dim("R")))
        else:
            raise SpecError("state entry needs either amplitudes or density")

    db0 = parsed[0][1]
    if any(db != db0 for _, db, _ in parsed):
        raise SpecError("inconsistent B dimensions across states")
    dr_common = max(dr for _, _, dr in parsed)
    vectors = []
    for vec, db, dr in parsed:
        if dr < dr_common:  # pad reference with zero amplitudes
            m = vec.reshape(db, dr)
            m = np.pad(m, ((0, 0), (0, dr_common - dr)))
            vec = m.reshape(-1)
        vectors.append(vec)
    return make_source(probs, vectors, db0, dr_common, name=str(doc.get("name", "")))


def source_doc(src: CqSource) -> dict:
    """Spec document for a source (inverse of load_source for pure inputs)."""
    states = []
    for st in src.states:
        states.append({
            "amplitudes": [[float(a.real), float(a.imag)] for a in st.vec],
            "dims": {"B": src.dim_b, "R": src.dim_r},
        })
    return {"name": src.name, "probs": [float(p) for p in src.probs], "states": states}


# ---------------------------------------------------------------------------
# ensemble states
# ---------------------------------------------------------------------------

def cq_state_xb(src: CqSource) -> DensityOperator:
    """omega on X⊗B (reference traced out)."""
    nx = src.alphabet_size
    mat = qcore.block_diagonal(src.probs, [src.reduced_b(x) for x in range(nx)])
    return DensityOperator(mat, DimsSpec([("X", nx), ("B", src.dim_b)]))


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
        vec = np.kron(vec, src.states[x].vec)
    n = len(xs)
    t = vec.reshape([src.dim_b, src.dim_r] * n)
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return t.transpose(perm).reshape(-1)


def extended_state(src: CqSource, n: int) -> DensityOperator:
    """Exact n-fold power of the extended state on X⊗X'⊗B⊗R (grouped regs).

    X' is a perfect classical copy of X; registers are grouped, i.e. the
    labels are X, Xp, B, R with dims |X|^n etc.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    nx, db, dr = src.alphabet_size, src.dim_b, src.dim_r
    total = (nx * nx * db * dr) ** n
    if total > EXTENDED_DIM_CAP:
        raise DimensionCapError(
            f"extended state dimension {total} exceeds cap {EXTENDED_DIM_CAP}")
    nxn, dbn, drn = nx ** n, db ** n, dr ** n
    mat = np.zeros((nxn * nxn * dbn * drn,) * 2, dtype=complex)
    dims = DimsSpec([("X", nxn), ("Xp", nxn), ("B", dbn), ("R", drn)])
    for xs in np.ndindex(*([nx] * n)):
        p = float(np.prod([src.probs[x] for x in xs]))
        bvec = sequence_state(src, xs)
        xi = sequence_index(xs, nx)
        idx = (xi * nxn + xi) * dbn * drn
        blk = p * np.outer(bvec, bvec.conj())
        mat[idx:idx + dbn * drn, idx:idx + dbn * drn] += blk
    return DensityOperator(mat, dims)


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
    s_xb = qcore.von_neumann_entropy(omega)
    s_b = qcore.entropy_of_mat(qcore.reduced_density_from_mat(
        omega.mat, omega.dims.dims, [1]))
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


def genericity_report(src: CqSource, tol: float = TOL_GENERIC) -> GenericityReport:
    mins = []
    for x in range(src.alphabet_size):
        vals = np.linalg.eigvalsh(src.reduced_b(x))
        mins.append(float(max(vals[0], 0.0)))
    witness = int(np.argmax(mins))
    lam0 = mins[witness]
    return GenericityReport(tuple(mins), witness, lam0, lam0 > tol, tol)


# ---------------------------------------------------------------------------
# full-support transfer operator
# ---------------------------------------------------------------------------

def transfer_operator(src: CqSource, x0: int, x: int,
                      tol_generic: float = TOL_GENERIC) -> np.ndarray:
    """Operator T on R with (1_B ⊗ T)|psi_x0> = |psi_x>, for a witness x0
    whose reduced state has full support on B.

    Built as T = V·P·W† with p_{jk} = alpha_{kj} sqrt(mu_j / lambda_k) from
    the spectral decompositions, V and W matching the canonical purifications
    to the actual source states; guarantees ||T||_inf <= 1/sqrt(lambda_min).
    """
    db, dr = src.dim_b, src.dim_r
    m0 = src.state_matrix(x0)
    lam, evecs = qcore.sorted_eigh(m0 @ m0.conj().T)
    if lam[-1] <= tol_generic:
        raise ValueError(f"witness state {x0} does not have full support on B "
                         f"(min eigenvalue {lam[-1]})")
    if x == x0:
        return np.eye(dr, dtype=complex)
    sqrt_lam = np.sqrt(lam)
    # W: canonical reference (dim |B|) -> actual R, (1 ⊗ W)|psi_c> = |psi_x0>
    w = (m0.T @ evecs.conj()) / sqrt_lam[np.newaxis, :]

    mx = src.state_matrix(x)
    mu, fvecs = qcore.sorted_eigh(mx @ mx.conj().T)
    mu = np.clip(mu, 0.0, None)
    rank = max(int(np.sum(mu > qcore.TOL_RANK)), 1)
    mu = mu[:rank]
    fvecs = fvecs[:, :rank]
    # V: canonical reference of the target (dim rank) -> actual R
    v = (mx.T @ fvecs.conj()) / np.sqrt(mu)[np.newaxis, :]
    # p_{jk} = alpha_{kj} sqrt(mu_j / lambda_k), alpha_{kj} = <e_k|f_j>
    alpha = evecs.conj().T @ fvecs
    p = alpha.T * (np.sqrt(mu)[:, np.newaxis] / sqrt_lam[np.newaxis, :])
    return v @ p @ w.conj().T


def delta_prime(src: CqSource, delta: float) -> float:
    """Trace-distance radius delta' of the generic-collapse bound.

    delta' = (1/lambda0) sqrt(t (2 - t)) with t = sqrt(delta ln2 / (2 p0)),
    taken at the genericity witness.  t is clamped at 1, the formula's
    maximum: past it the raw expression decreases, which would break the
    guaranteed monotonicity in delta while 1/lambda0 stays a valid bound.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    rep = genericity_report(src)
    if not rep.is_generic:
        raise ValueError("source is not generic: no full-support witness")
    p0 = float(src.probs[rep.witness])
    t = min(np.sqrt(delta * np.log(2.0) / (2.0 * p0)), 1.0)
    return float(np.sqrt(t * (2.0 - t)) / rep.lambda0)


# ---------------------------------------------------------------------------
# derived sources
# ---------------------------------------------------------------------------

def mix_with_maximally_mixed(src: CqSource, eps: float) -> CqSource:
    """Mix each reduced state with eps·I/|B| and re-purify canonically.

    The result is generic by construction (every marginal has full support).
    """
    db = src.dim_b
    vectors = []
    for x in range(src.alphabet_size):
        rho = (1.0 - eps) * src.reduced_b(x) + eps * np.eye(db) / db
        psi = qcore.purify(DensityOperator(rho, DimsSpec([("B", db)])), ref_label="R")
        m = psi.vec.reshape(db, psi.dims.dim("R"))
        if m.shape[1] < db:
            m = np.pad(m, ((0, 0), (0, db - m.shape[1])))
        vectors.append(m.reshape(-1))
    return make_source(src.probs, vectors, db, db, name=f"{src.name}+eps{eps:g}")


def random_source(rng: np.random.Generator, nx: int = 2, dim_b: int = 2,
                  dim_r: int = 2, min_prob: float = 0.1) -> CqSource:
    """Random cq source with probabilities bounded away from zero."""
    probs = rng.dirichlet(np.ones(nx))
    probs = (1.0 - nx * min_prob) * probs + min_prob
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
    nx1, nx2 = s1.alphabet_size, s2.alphabet_size
    db = s1.dim_b * s2.dim_b
    dr = s1.dim_r * s2.dim_r
    probs = np.outer(s1.probs, s2.probs).reshape(-1)
    vectors = []
    for x1 in range(nx1):
        for x2 in range(nx2):
            t = np.kron(s1.state_matrix(x1).reshape(-1), s2.state_matrix(x2).reshape(-1))
            t = t.reshape(s1.dim_b, s1.dim_r, s2.dim_b, s2.dim_r)
            vectors.append(t.transpose(0, 2, 1, 3).reshape(-1))
    return make_source(probs, vectors, db, dr, name=f"{s1.name}x{s2.name}")
