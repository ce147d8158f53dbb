"""Classical-quantum source model: the ensemble state on X⊗B⊗R, its tensor
powers, entropic profile, genericity analysis and the full-support transfer
operators."""

from __future__ import annotations

import functools
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
        return _rho_b(self.psi)


def _rho_b(psi: np.ndarray) -> np.ndarray:
    """The reduced states m m^† of amplitude matrices m, a stack (..., |B|, |R|)."""
    return psi @ psi.conj().swapaxes(-1, -2)


def _first_problems(problems: list, nx: int) -> list:
    """The first problem of each source, from its states' problems in a
    list of nx per source."""
    return [next(filter(None, problems[k:k + nx]), None) for k in range(0, len(problems), nx)]


def states_of_stack(vecs: np.ndarray, dim_b: int, dim_r: int) -> tuple[np.ndarray, list]:
    """The states of a stack (..., |X|, |B||R|) of amplitude vectors: their
    amplitude matrices (..., |X|, |B|, |R|), each vector phase-fixed, and for
    each vector in stack order why it is not a state (non-finite amplitudes,
    or a squared norm tr psi_x off 1 by more than a density entry's
    qcore.TOL_TRACE), or None."""
    flat = vecs.reshape(-1, vecs.shape[-1])
    finite = np.isfinite(flat).all(axis=-1).tolist()  # a NaN would pass the norm test
    nrm2 = np.einsum("ij,ij->i", flat.conj(), flat).real.tolist()
    problems = [None if f and abs(n2 - 1.0) <= qcore.TOL_TRACE else
                f"state not normalized (squared norm {n2})" if f else "non-finite amplitudes"
                for f, n2 in zip(finite, nrm2)]
    psi = qcore._phase_fix_columns(vecs.swapaxes(-1, -2)).swapaxes(-1, -2)
    return psi.reshape(vecs.shape[:-1] + (dim_b, dim_r)), problems


def make_source(probs, vectors, dim_b: int, dim_r: int, name: str = "") -> CqSource:
    """Build a CqSource from raw amplitude vectors on B⊗R (phase-fixed)."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    for v in vecs:
        if v.shape[0] != dim_b * dim_r:
            raise SpecError(f"state length {v.shape[0]} != |B||R| = {dim_b * dim_r}")
    psi, problems = states_of_stack(np.array(vecs, dtype=complex).reshape(-1, dim_b * dim_r),
                                    dim_b, dim_r)
    problem = next(filter(None, problems), None)
    if problem:
        raise SpecError(problem)
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


def _check_numbers(values: np.ndarray) -> None:
    """TypeError naming the first of `values` that is not a number: a boolean
    or a string is not one, although numpy would read either as one."""
    for kind in set(map(type, values)):
        if issubclass(kind, bool) or not issubclass(kind, (int, float, complex)):
            raise TypeError(f"{next(v for v in values if type(v) is kind)!r} is not a number")


def _parse_complex_matrix(rows) -> np.ndarray:
    """Rows of complex entries, each a number or an [re, im] pair; an
    amplitude vector is parsed as one row.  One numpy conversion reads the
    entries.  Bare numbers convert as complex(x); with pairs among them, each
    is split into its real and imaginary parts, and the (rows, cols, 2) parts
    as floats are viewed as complex, so a -0.0 keeps its sign in either part.
    Any malformed entry or ragged row is a SpecError."""
    try:
        cells = np.array(rows, dtype=object)
        if cells.ndim == 2 and {list, tuple} & set(map(type, cells.flat)):
            # bare numbers among pairs: split each number into its parts
            kinds = np.array(list(map(type, cells.flat)), dtype=object).reshape(cells.shape)
            is_pair = (kinds == list) | (kinds == tuple)
            grid, cells = cells, np.empty(cells.shape + (2,), dtype=object)
            cells[is_pair] = grid[is_pair].tolist()
            _check_numbers(grid[~is_pair])
            cells[~is_pair] = grid[~is_pair].astype(complex).view(float).reshape(-1, 2)
        if cells.ndim == 2:
            _check_numbers(cells.ravel())
            return cells.astype(complex)
        if cells.ndim != 3 or cells.shape[2] != 2:
            raise ValueError("an entry is neither a number nor an [re, im] pair")
        _check_numbers(cells.ravel())
        return cells.astype(float).view(complex)[..., 0]
    except (TypeError, ValueError, OverflowError) as exc:
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
            amps, ranks = qcore.purify_of_stack(rho.mat[np.newaxis])
            mats.append(amps[0, :, :ranks[0]])
        else:
            raise SpecError("state entry needs either amplitudes or density")

    db0 = mats[0].shape[0]
    if any(m.shape[0] != db0 for m in mats):
        raise SpecError("inconsistent B dimensions across states")
    # pad each reference with zero amplitudes to the common |R|
    psi = np.zeros((len(mats), db0, max(m.shape[1] for m in mats)), dtype=complex)
    for x, m in enumerate(mats):
        psi[x, :, :m.shape[1]] = m
    return make_source(probs, psi, db0, psi.shape[2], name=str(doc.get("name", "")))


# ---------------------------------------------------------------------------
# ensemble states
# ---------------------------------------------------------------------------

def cq_state_xb(src: CqSource) -> np.ndarray:
    """The matrix of omega on X⊗B (reference traced out)."""
    return qcore.block_diagonal(src.probs, src.rho_b)


def sequence_state(src: CqSource, xs) -> np.ndarray:
    """|psi_{x^n}> = |psi_{x_1}> ⊗ ... ⊗ |psi_{x_n}> on (B^n, R^n): the kron of
    the amplitude matrices groups the B legs and the R legs."""
    return functools.reduce(qcore.kron, [src.psi[x] for x in xs]).reshape(-1)


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


def genericity_of_stack(probs: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The genericity data of a source, probs (|X|,) and amplitudes
    (|X|, |B|, |R|), or of a stack of them, (..., |X|) and (..., |X|, |B|, |R|):
    the minimum eigenvalue of each reduced state, floored at 0, and each
    source's witness."""
    mins = np.maximum(np.linalg.eigvalsh(_rho_b(psi))[..., 0], 0.0)
    return mins, np.argmax(np.where(probs > 0, mins, -1.0), axis=-1)


def genericity_report(src: CqSource) -> GenericityReport:
    """The witness is the state with p > 0 whose reduced state has the largest
    minimum eigenvalue: a symbol with p = 0 constrains no channel."""
    mins, witness = genericity_of_stack(src.probs, src.psi)
    mins, witness = mins.tolist(), int(witness)
    lam0 = mins[witness]
    return GenericityReport(tuple(mins), witness, lam0, lam0 > TOL_GENERIC)


# ---------------------------------------------------------------------------
# full-support transfer operators
# ---------------------------------------------------------------------------

def transfer_operators_of_stack(psi: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, list]:
    """`transfer_operators` of a stack of sources' amplitude arrays
    (n, |X|, |B|, |R|) for witnesses x0 (n,): a stack (n, |X|, |R|, |R|), NaN
    where the witness lacks full support on B, and each source's problem, or
    None."""
    m0 = psi[np.arange(len(psi)), x0]
    gram = m0 @ m0.conj().swapaxes(-1, -2)
    lam_min = np.linalg.eigvalsh(gram)[:, 0]
    full = lam_min > TOL_GENERIC
    # a witness without full support is solved against 1 and its T_x set to NaN
    gram = np.where(full[:, np.newaxis, np.newaxis], gram, np.eye(gram.shape[-1]))
    t = (m0.conj().swapaxes(-1, -2)[:, np.newaxis]
         @ np.linalg.solve(gram[:, np.newaxis], psi)).swapaxes(-1, -2)
    t[~full] = np.nan
    return t, [None if ok else f"witness state {x} does not have full support on B "
               f"(min eigenvalue {lam})"
               for ok, x, lam in zip(full.tolist(), x0.tolist(), lam_min.tolist())]


# No command calls it: it is the one-source form the README documents.
def transfer_operators(src: CqSource, x0: int) -> np.ndarray:
    """The operators T_x on R with (1_B ⊗ T_x)|psi_x0> = |psi_x>, a stack of
    shape (|X|, |R|, |R|), for a witness x0 whose reduced state has full
    support on B.

    With m_x = psi[x], T_x^T = m_x0^† (m_x0 m_x0^†)^{-1} m_x: the solution
    that vanishes off the R-support of psi_x0, so ||T_x||_inf <=
    1/sqrt(lambda_min), and T_x0 is the projector onto that support.
    """
    t, problems = transfer_operators_of_stack(src.psi[np.newaxis], np.array([x0]))
    if problems[0]:
        raise ValueError(problems[0])
    return t[0]


# ---------------------------------------------------------------------------
# derived sources
# ---------------------------------------------------------------------------

def mix_of_stack(psi: np.ndarray, eps: float) -> tuple[np.ndarray, list]:
    """Each reduced state of a stack of sources' amplitude arrays
    (n, |X|, |B|, |R|) mixed with eps·I/|B| and re-purified canonically, which
    makes every source generic: the new arrays (n, |X|, |B|, |B|), zero for a
    source with a problem, and each source's first problem (a mixed state
    that fails the density checks, or a purification that is not a state), or
    None."""
    n, nx, db = psi.shape[:3]
    rho = (1.0 - eps) * _rho_b(psi) + eps * np.eye(db) / db
    problems = _first_problems(qcore.density_problems(rho)[0], nx)
    ok = np.array([p is None for p in problems], dtype=bool)
    amps = np.zeros((n, nx, db, db), dtype=complex)
    amps[ok] = qcore.purify_of_stack(rho[ok].reshape(-1, db, db))[0].reshape(-1, nx, db, db)
    psi, state_problems = states_of_stack(amps.reshape(n, nx, db * db), db, db)
    return psi, [p or q for p, q in zip(problems, _first_problems(state_problems, nx))]
