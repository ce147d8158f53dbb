"""Dense complex linear algebra and quantum-information primitives.

States live on labeled tensor factors (a ``DimsSpec``); everything is exact
dense numpy, base-2 logarithms throughout.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Numerical cutoffs. The math is exact; doubles need explicit tolerances.
TOL_HERM = 1e-8
TOL_TRACE = 1e-8
TOL_ISO = 1e-8
TOL_NORM = 1e-8
TOL_PSD = 1e-10
TOL_RANK = 1e-10
TOL_SSA = 1e-8

_LOG2 = math.log(2.0)


class DimsSpec:
    """Ordered list of labeled tensor factors, e.g. [("B", 2), ("R", 2)]."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Iterable[tuple[str, int]]):
        pairs = tuple((str(lbl), int(d)) for lbl, d in pairs)
        labels = [lbl for lbl, _ in pairs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate subsystem labels in {labels}")
        for lbl, d in pairs:
            if d < 1:
                raise ValueError(f"subsystem {lbl!r} has non-positive dimension {d}")
        self._pairs = pairs

    @property
    def pairs(self) -> tuple[tuple[str, int], ...]:
        return self._pairs

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self._pairs)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self._pairs)

    @property
    def total_dim(self) -> int:
        out = 1
        for _, d in self._pairs:
            out *= d
        return out

    def dim(self, label: str) -> int:
        for lbl, d in self._pairs:
            if lbl == label:
                return d
        raise KeyError(f"unknown subsystem label {label!r}")

    def index(self, label: str) -> int:
        for i, (lbl, _) in enumerate(self._pairs):
            if lbl == label:
                return i
        raise KeyError(f"unknown subsystem label {label!r}")

    def indices(self, labels: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.index(lbl) for lbl in labels)

    def restrict(self, labels: Iterable[str]) -> "DimsSpec":
        """Sub-spec with the given labels, kept in this spec's order."""
        wanted = set(labels)
        missing = wanted - set(self.labels)
        if missing:
            raise KeyError(f"unknown subsystem labels {sorted(missing)}")
        return DimsSpec([(lbl, d) for lbl, d in self._pairs if lbl in wanted])

    def concat(self, other: "DimsSpec") -> "DimsSpec":
        return DimsSpec(self._pairs + other._pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, DimsSpec) and self._pairs == other._pairs

    def __hash__(self):
        return hash(self._pairs)

    def __iter__(self):
        return iter(self._pairs)

    def __len__(self):
        return len(self._pairs)

    def __repr__(self):
        body = ", ".join(f"{lbl}:{d}" for lbl, d in self._pairs)
        return f"DimsSpec({body})"


def _as_dims(dims) -> DimsSpec:
    return dims if isinstance(dims, DimsSpec) else DimsSpec(dims)


@dataclass(frozen=True)
class DensityOperator:
    """Validated density matrix on labeled subsystems."""

    mat: np.ndarray
    dims: DimsSpec

    def __init__(self, mat, dims, tol_herm: float = TOL_HERM, tol_trace: float = TOL_TRACE,
                 tol_psd: float = TOL_PSD):
        mat = np.asarray(mat, dtype=complex)
        dims = _as_dims(dims)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        if mat.shape[0] != dims.total_dim:
            raise ValueError(f"matrix dim {mat.shape[0]} != product of {dims}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("non-finite entries in density matrix")
        if np.max(np.abs(mat - mat.conj().T)) > tol_herm:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > tol_trace:
            raise ValueError(f"density matrix trace {tr} != 1 within tolerance")
        lo = float(np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2)))
        if lo < -tol_psd:
            raise ValueError(f"density matrix has negative eigenvalue {lo}")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", dims)


@dataclass(frozen=True)
class PureState:
    """Unit vector on labeled subsystems."""

    vec: np.ndarray
    dims: DimsSpec

    def __init__(self, vec, dims, tol_norm: float = TOL_NORM):
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        dims = _as_dims(dims)
        if vec.shape[0] != dims.total_dim:
            raise ValueError(f"vector dim {vec.shape[0]} != product of {dims}")
        if not np.all(np.isfinite(vec)):
            raise ValueError("non-finite amplitudes")
        nrm = float(np.linalg.norm(vec))
        if abs(nrm - 1.0) > tol_norm:
            raise ValueError(f"state norm {nrm} != 1 within tolerance")
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "dims", dims)

    def density(self) -> DensityOperator:
        return DensityOperator(np.outer(self.vec, self.vec.conj()), self.dims)

    def reduced(self, keep: Sequence[str]) -> DensityOperator:
        """Reduced density operator on `keep`, original label order."""
        keep_spec = self.dims.restrict(keep)
        mat = reduced_density_from_vec(self.vec, self.dims.dims,
                                       self.dims.indices(keep_spec.labels))
        return DensityOperator(_renormalize(mat), keep_spec)


@dataclass(frozen=True)
class Isometry:
    """Matrix V with V†V = 1 mapping `in_dims` into `out_dims`."""

    mat: np.ndarray
    in_dims: DimsSpec
    out_dims: DimsSpec

    def __init__(self, mat, in_dims, out_dims, tol_iso: float = TOL_ISO):
        mat = np.asarray(mat, dtype=complex)
        in_dims = _as_dims(in_dims)
        out_dims = _as_dims(out_dims)
        if mat.shape != (out_dims.total_dim, in_dims.total_dim):
            raise ValueError(
                f"isometry shape {mat.shape} != ({out_dims.total_dim}, {in_dims.total_dim})")
        if not np.all(np.isfinite(mat)):
            raise ValueError("non-finite entries in isometry")
        if out_dims.total_dim < in_dims.total_dim:
            raise ValueError("isometry codomain smaller than domain")
        gram = mat.conj().T @ mat
        if np.max(np.abs(gram - np.eye(in_dims.total_dim))) > tol_iso:
            raise ValueError("matrix is not an isometry within tolerance")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims", out_dims)


# ---------------------------------------------------------------------------
# raw-array helpers (no label bookkeeping; used by hot paths)
# ---------------------------------------------------------------------------

def _renormalize(mat: np.ndarray) -> np.ndarray:
    # kill trace drift of order eps accumulated by contractions
    return mat / np.trace(mat).real


def reduced_density_from_mat(mat: np.ndarray, dims: Sequence[int],
                             keep: Sequence[int]) -> np.ndarray:
    """Partial trace of a square matrix, or of each matrix of a stack
    (..., d, d), over the factors not in `keep`."""
    n = len(dims)
    keep = sorted(keep)
    letters = string.ascii_letters
    if 2 * n > len(letters):
        raise ValueError("too many tensor factors")
    row = list(letters[:n])
    col = list(letters[n:2 * n])
    for i in range(n):
        if i not in keep:
            col[i] = row[i]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    expr = "..." + "".join(row) + "".join(col) + "->..." + out
    stack = mat.shape[:-2]
    resh = mat.reshape(stack + tuple(dims) * 2)
    d_keep = int(np.prod([dims[i] for i in keep], dtype=np.int64)) if keep else 1
    return np.einsum(expr, resh).reshape(stack + (d_keep, d_keep))


def block_diagonal(probs: Sequence[float], blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Matrix of the cq operator sum_x p(x) |x><x| ⊗ blocks[x]."""
    d = blocks[0].shape[0]
    mat = np.zeros((len(blocks) * d, len(blocks) * d), dtype=complex)
    for x, (p, blk) in enumerate(zip(probs, blocks)):
        mat[x * d:(x + 1) * d, x * d:(x + 1) * d] = p * blk
    return mat


def reduced_density_from_vec(vec: np.ndarray, dims: Sequence[int],
                             keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of a pure state vector, tracing the rest."""
    n = len(dims)
    keep = sorted(keep)
    letters = string.ascii_letters
    ket = list(letters[:n])
    bra = list(ket)
    for i in keep:
        bra[i] = letters[n + i]
    out = "".join(ket[i] for i in keep) + "".join(bra[i] for i in keep)
    expr = "".join(ket) + "," + "".join(bra) + "->" + out
    t = vec.reshape(tuple(dims))
    d_keep = int(np.prod([dims[i] for i in keep], dtype=np.int64)) if keep else 1
    return np.einsum(expr, t, t.conj()).reshape(d_keep, d_keep)


class LabeledVector:
    """Pure-state vector with named tensor factors; plumbing for code/channel
    constructions where registers are created and consumed."""

    __slots__ = ("vec", "dims")

    def __init__(self, vec: np.ndarray, dims: Iterable[tuple[str, int]]):
        self.vec = np.asarray(vec, dtype=complex).reshape(-1)
        self.dims = list((str(l), int(d)) for l, d in dims)
        total = int(np.prod([d for _, d in self.dims], dtype=np.int64))
        if total != self.vec.shape[0]:
            raise ValueError(f"vector length {self.vec.shape[0]} != product of dims {self.dims}")

    @property
    def labels(self) -> list[str]:
        return [l for l, _ in self.dims]

    def _positions(self, labels: Sequence[str]) -> list[int]:
        idx = {l: i for i, (l, _) in enumerate(self.dims)}
        try:
            return [idx[l] for l in labels]
        except KeyError as exc:
            raise KeyError(f"unknown register {exc.args[0]!r}") from None

    def apply_isometry(self, mat: np.ndarray, in_labels: Sequence[str],
                       out_pairs: Sequence[tuple[str, int]]) -> "LabeledVector":
        """Consume registers `in_labels`, producing registers `out_pairs`.

        The produced registers come first, the remaining registers follow in
        their original order."""
        acting = self._positions(in_labels)
        rest = [i for i in range(len(self.dims)) if i not in acting]
        dims = [d for _, d in self.dims]
        t = self.vec.reshape(dims).transpose(acting + rest)
        d_act = int(np.prod([dims[i] for i in acting], dtype=np.int64))
        y = mat @ t.reshape(d_act, -1)
        return LabeledVector(y.reshape(-1), list(out_pairs) + [self.dims[i] for i in rest])

    def tensor(self, other: "LabeledVector") -> "LabeledVector":
        return LabeledVector(np.kron(self.vec, other.vec), self.dims + other.dims)

    def reduced(self, keep: Sequence[str]) -> np.ndarray:
        keep_set = set(keep)
        pos = [i for i, (l, _) in enumerate(self.dims) if l in keep_set]
        return reduced_density_from_vec(self.vec, [d for _, d in self.dims], pos)

    def reorder(self, labels: Sequence[str]) -> "LabeledVector":
        perm = self._positions(labels)
        if sorted(perm) != list(range(len(self.dims))):
            raise ValueError("reorder must list every register exactly once")
        t = self.vec.reshape([d for _, d in self.dims]).transpose(perm)
        return LabeledVector(t.reshape(-1), [self.dims[i] for i in perm])


# ---------------------------------------------------------------------------
# entropies and distances
# ---------------------------------------------------------------------------

def entropy_from_eigvals(vals: np.ndarray, tol_psd: float = TOL_PSD) -> float:
    """Shannon entropy (bits) of an eigenvalue vector, 0·log 0 := 0."""
    vals = np.asarray(vals, dtype=float)
    if np.min(vals) < -tol_psd * max(len(vals), 1):
        raise ValueError(f"eigenvalue {np.min(vals)} below PSD tolerance")
    vals = np.clip(vals, 0.0, None)
    nz = vals[vals > 0.0]
    return max(float(-(nz * np.log2(nz)).sum()), 0.0) + 0.0  # kill negative zero


def entropy_of_mat(mat: np.ndarray) -> float:
    return entropy_from_eigvals(np.linalg.eigvalsh(mat))


def entropy_of_stack(mats: np.ndarray) -> np.ndarray:
    """Entropies (bits) of a stack (..., n, n) of Hermitian matrices from one
    `eigvalsh` call; each equals `entropy_of_mat` of its matrix bit for bit."""
    vals = np.linalg.eigvalsh(mats)
    n = vals.shape[-1]
    rows = vals.reshape(-1, n)
    lo = rows.min(axis=-1)
    below = lo < -TOL_PSD * max(n, 1)
    if below.any():
        raise ValueError(f"eigenvalue {lo[below][0]} below PSD tolerance")
    rows = np.clip(rows, 0.0, None)
    # eigvalsh sorts ascending, so a row's k positive eigenvalues are its last
    # k; summing exactly those, rows grouped by k, keeps the summation order
    # of entropy_from_eigvals
    k = np.count_nonzero(rows > 0.0, axis=-1)
    out = np.zeros(len(rows))
    for kk in set(k[k > 0].tolist()):
        sel = k == kk
        nz = rows[sel, n - kk:]
        out[sel] = -(nz * np.log2(nz)).sum(axis=-1)
    return (np.maximum(out, 0.0) + 0.0).reshape(vals.shape[:-1])  # kill negative zero


def weighted_average(probs: Sequence[float], mats: Sequence[np.ndarray]) -> np.ndarray:
    """sum_x p(x) mats[x], accumulated in the order of x."""
    avg = np.zeros(mats[0].shape, dtype=complex)
    for p, m in zip(probs, mats):
        avg += p * m
    return avg


def holevo_of_stack(probs: Sequence[float],
                    blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Holevo quantity S(sum_x p rho_x) - sum_x p S(rho_x), floored at 0, of
    blocks rho_x that are matrices or equally shaped stacks (..., d, d); also
    returns the entropies S(rho_x) followed by S(sum_x p rho_x)."""
    s = entropy_of_stack(np.stack(list(blocks) + [weighted_average(probs, blocks)]))
    hol = 0.0
    for p, s_x in zip(probs, s):
        hol += p * s_x
    return np.maximum(s[-1] - hol, 0.0), s


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) in bits, from the eigenvalue spectrum."""
    return entropy_of_mat(rho.mat)


def partial_trace(rho: DensityOperator, keep: Sequence[str]) -> DensityOperator:
    """Reduced state on the subsystems `keep`, in the original label order."""
    keep_spec = rho.dims.restrict(keep)
    mat = reduced_density_from_mat(rho.mat, rho.dims.dims, rho.dims.indices(keep_spec.labels))
    return DensityOperator(_renormalize(mat), keep_spec)


def _entropy_of_subsystems(rho: DensityOperator, labels: Sequence[str]) -> float:
    if set(labels) == set(rho.dims.labels):
        return von_neumann_entropy(rho)
    keep = rho.dims.restrict(labels)
    mat = reduced_density_from_mat(rho.mat, rho.dims.dims, rho.dims.indices(keep.labels))
    return entropy_of_mat(mat)


def _check_disjoint(*groups: Sequence[str]):
    seen: set[str] = set()
    for g in groups:
        gs = set(g)
        if gs & seen:
            raise ValueError(f"label sets overlap: {sorted(gs & seen)}")
        seen |= gs


def conditional_entropy(rho: DensityOperator, a: Sequence[str], b: Sequence[str]) -> float:
    """S(A|B) = S(AB) - S(B) on the reduced state."""
    _check_disjoint(a, b)
    return _entropy_of_subsystems(rho, list(a) + list(b)) - \
        (_entropy_of_subsystems(rho, b) if b else 0.0)


def mutual_information(rho: DensityOperator, a: Sequence[str], b: Sequence[str]) -> float:
    """I(A:B) = S(A) + S(B) - S(AB)."""
    _check_disjoint(a, b)
    return (_entropy_of_subsystems(rho, a) + _entropy_of_subsystems(rho, b)
            - _entropy_of_subsystems(rho, list(a) + list(b)))


def conditional_mutual_information(rho: DensityOperator, a: Sequence[str],
                                   b: Sequence[str], c: Sequence[str],
                                   tol_ssa: float = TOL_SSA) -> float:
    """I(A:B|C) = S(A|C) - S(A|BC); strong subadditivity enforced."""
    _check_disjoint(a, b, c)
    cmi = (_entropy_of_subsystems(rho, list(a) + list(c))
           + _entropy_of_subsystems(rho, list(b) + list(c))
           - _entropy_of_subsystems(rho, list(a) + list(b) + list(c))
           - (_entropy_of_subsystems(rho, c) if c else 0.0))
    if cmi < -tol_ssa:
        raise ValueError(f"conditional mutual information {cmi} violates strong subadditivity")
    return cmi


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix; eigenvalues at machine-noise
    scale are zeroed so the sqrt does not amplify them."""
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    if len(vals):
        vals[vals < 1e-14 * vals.max()] = 0.0
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho, sigma) -> float:
    """Root fidelity F = ||sqrt(rho) sqrt(sigma)||_1.

    Either argument may be a PureState, for which F = sqrt(<psi|rho|psi>).
    """
    rho_pure = isinstance(rho, PureState)
    sig_pure = isinstance(sigma, PureState)
    dr = rho.dims.total_dim
    ds = sigma.dims.total_dim
    if dr != ds:
        raise ValueError(f"dimension mismatch {dr} != {ds}")
    if rho_pure and sig_pure:
        return float(min(abs(np.vdot(rho.vec, sigma.vec)), 1.0))
    if rho_pure or sig_pure:
        psi = rho.vec if rho_pure else sigma.vec
        mat = sigma.mat if rho_pure else rho.mat
        val = float(np.real(np.vdot(psi, mat @ psi)))
        return math.sqrt(min(max(val, 0.0), 1.0))
    s = np.linalg.svd(psd_sqrt(rho.mat) @ psd_sqrt(sigma.mat), compute_uv=False)
    return float(min(s.sum(), 1.0))


def trace_norm(mat: np.ndarray) -> float:
    return float(np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False).sum())


def trace_distance(rho, sigma) -> float:
    """(1/2)||rho - sigma||_1."""
    m1 = rho.density().mat if isinstance(rho, PureState) else rho.mat
    m2 = sigma.density().mat if isinstance(sigma, PureState) else sigma.mat
    if m1.shape != m2.shape:
        raise ValueError(f"dimension mismatch {m1.shape} != {m2.shape}")
    return 0.5 * trace_norm(m1 - m2)


def operator_norm(mat: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False)[0])


def binary_entropy(eps: float) -> float:
    """h(eps) in bits; h(0) = h(1) = 0."""
    if eps < 0.0 or eps > 1.0:
        raise ValueError(f"binary entropy argument {eps} outside [0, 1]")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    return float(-eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps))


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """S(rho || sigma) in bits, computed spectrally; inf if supports mismatch."""
    if rho.dims.total_dim != sigma.dims.total_dim:
        raise ValueError("dimension mismatch")
    a, u = np.linalg.eigh(rho.mat)
    b, v = np.linalg.eigh(sigma.mat)
    a = np.clip(a, 0.0, None)
    b = np.clip(b, 0.0, None)
    overlap = np.abs(u.conj().T @ v) ** 2  # overlap[i, j] = |<u_i|v_j>|^2
    term1 = float((a[a > 0] * np.log2(a[a > 0])).sum())
    term2 = 0.0
    for i in range(len(a)):
        if a[i] <= 0.0:
            continue
        for j in range(len(b)):
            w = a[i] * overlap[i, j]
            if w <= 1e-15:
                continue
            if b[j] <= TOL_RANK:
                return math.inf
            term2 += w * math.log2(b[j])
    return term1 - term2


# ---------------------------------------------------------------------------
# purification and Uhlmann isometries
# ---------------------------------------------------------------------------

def _phase_fix_columns(vecs: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Make the first non-negligible component of each column real positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > tol)[0]
        if len(nz):
            ph = col[nz[0]] / abs(col[nz[0]])
            out[:, j] = col * ph.conjugate()
    return out


def sorted_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition, eigenvalues descending, phases fixed."""
    vals, vecs = np.linalg.eigh(mat)
    order = np.argsort(vals)[::-1]
    return vals[order], _phase_fix_columns(vecs[:, order])


def purify(rho: DensityOperator, ref_label: str = "R",
           tol_rank: float = TOL_RANK) -> PureState:
    """Canonical purification sum_i sqrt(l_i) |e_i>|i>, reference dim = rank."""
    vals, vecs = sorted_eigh(rho.mat)
    vals = np.clip(vals, 0.0, None)
    rank = max(int(np.sum(vals > tol_rank)), 1)
    vals = vals[:rank] / vals[:rank].sum()
    amp = (vecs[:, :rank] * np.sqrt(vals)).reshape(-1)  # index (system, ref)
    if ref_label in rho.dims.labels:
        raise ValueError(f"reference label {ref_label!r} already used")
    return PureState(amp, rho.dims.concat(DimsSpec([(ref_label, rank)])))


def _complete_isometry(v: np.ndarray, dom: int, cod: int) -> np.ndarray:
    """Extend a partial isometry (cod x dom, possibly rank-deficient) to a
    full isometry by orthonormal completion in the kernel space."""
    u, s, wh = np.linalg.svd(v, full_matrices=False)
    rank = int(np.sum(s > 1e-10))
    iso = u[:, :rank] @ wh[:rank, :]
    if rank == dom:
        return iso
    ker = wh[rank:, :].conj().T  # dom x (dom-rank) orthonormal kernel basis
    proj = np.eye(cod) - u[:, :rank] @ u[:, :rank].conj().T
    pvals, pvecs = np.linalg.eigh(proj)
    comp = pvecs[:, pvals > 0.5][:, : dom - rank]
    return iso + comp @ ker.conj().T


def uhlmann_isometry(rho: PureState, sigma: PureState,
                     a_labels: Sequence[str]) -> tuple[Isometry, float]:
    """Isometry V on sigma's non-A part maximizing overlap with rho.

    `rho` is pure on A⊗B, `sigma` pure on A⊗C; returns (V: B -> C, achieved
    fidelity), with achieved fidelity equal to F(rho^A, sigma^A).  If
    |C| < |B| the codomain is padded to |B|.
    """
    a_labels = list(a_labels)
    if [rho.dims.dim(l) for l in a_labels] != [sigma.dims.dim(l) for l in a_labels]:
        raise ValueError("A-subsystem dimensions differ between the two states")
    b_labels = [l for l in rho.dims.labels if l not in a_labels]
    c_labels = [l for l in sigma.dims.labels if l not in a_labels]
    m = _matricize(rho, a_labels)
    nmat = _matricize(sigma, a_labels)
    db = m.shape[1]
    dc = nmat.shape[1]
    dc_out = max(dc, db)
    g = (nmat.conj().T @ m).T  # db x dc overlap; F(V) = Tr(V g), V: dc_out x db
    if dc_out > dc:
        g = np.pad(g, ((0, 0), (0, dc_out - dc)))
    u, s, wh = np.linalg.svd(g, full_matrices=False)
    v = (u @ wh).conj().T  # candidate achieving Tr(Vg) = sum s
    v = _complete_isometry(v, db, dc_out)
    achieved = float(min(s.sum(), 1.0))
    in_spec = rho.dims.restrict(b_labels) if b_labels else DimsSpec([("triv", 1)])
    if dc_out == dc and c_labels:
        out_spec = sigma.dims.restrict(c_labels)
    else:
        out_spec = DimsSpec([("_".join(c_labels) or "C", dc_out)])
    return Isometry(v, in_spec, out_spec), achieved


def _matricize(state: PureState, a_labels: Sequence[str]) -> np.ndarray:
    """Reshape |psi> on A⊗rest into a (dim A) x (dim rest) matrix."""
    labels = list(state.dims.labels)
    a_pos = [labels.index(l) for l in a_labels]
    rest = [i for i in range(len(labels)) if i not in a_pos]
    t = state.vec.reshape(state.dims.dims).transpose(a_pos + rest)
    da = int(np.prod([state.dims.dims[i] for i in a_pos], dtype=np.int64))
    return t.reshape(da, -1)


# ---------------------------------------------------------------------------
# seeded random instances (test and selftest fodder)
# ---------------------------------------------------------------------------

def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Ginibre-induced random density matrix (full rank by default)."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_isometry(out_dim: int, in_dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((out_dim, in_dim)) + 1j * rng.standard_normal((out_dim, in_dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
