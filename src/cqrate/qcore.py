"""Dense complex linear algebra and quantum-information primitives.

States live on labeled tensor factors (a ``DimsSpec``); everything is exact
dense numpy, base-2 logarithms throughout.  A purified state is its
amplitude matrix m[system, reference]; ``purify`` returns one.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InternalError

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

    def index(self, label: str) -> int:
        for i, (lbl, _) in enumerate(self._pairs):
            if lbl == label:
                return i
        raise KeyError(f"unknown subsystem label {label!r}")

    def indices(self, labels: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.index(lbl) for lbl in labels)

    def positions(self, labels: Iterable[str]) -> list[int]:
        """Positions of a set of labels, in this spec's order."""
        wanted = set(labels)
        missing = wanted - set(self.labels)
        if missing:
            raise KeyError(f"unknown subsystem labels {sorted(missing)}")
        return [i for i, (lbl, _) in enumerate(self._pairs) if lbl in wanted]

    def concat(self, other: "DimsSpec") -> "DimsSpec":
        return DimsSpec(self._pairs + other._pairs)

    def __iter__(self):
        return iter(self._pairs)

    def __len__(self):
        return len(self._pairs)

    def __repr__(self):
        body = ", ".join(f"{lbl}:{d}" for lbl, d in self._pairs)
        return f"DimsSpec({body})"


def _as_dims(dims) -> DimsSpec:
    return dims if isinstance(dims, DimsSpec) else DimsSpec(dims)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Validated density matrix on labeled subsystems."""

    mat: np.ndarray
    dims: DimsSpec

    def __init__(self, mat, dims):
        mat = np.asarray(mat, dtype=complex)
        dims = _as_dims(dims)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        if mat.shape[0] != dims.total_dim:
            raise ValueError(f"matrix dim {mat.shape[0]} != product of {dims}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("non-finite entries in density matrix")
        if np.max(np.abs(mat - mat.conj().T)) > TOL_HERM:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > TOL_TRACE:
            raise ValueError(f"density matrix trace {tr} != 1 within tolerance")
        lo = float(np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2)))
        if lo < -TOL_PSD:
            raise ValueError(f"density matrix has negative eigenvalue {lo}")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", dims)


@dataclass(frozen=True, eq=False)
class Isometry:
    """Matrix V with V†V = 1 mapping `in_dims` into `out_dims`."""

    mat: np.ndarray
    in_dims: DimsSpec
    out_dims: DimsSpec

    def __init__(self, mat, in_dims, out_dims):
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
        if np.max(np.abs(gram - np.eye(in_dims.total_dim))) > TOL_ISO:
            raise ValueError("matrix is not an isometry within tolerance")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims", out_dims)


# ---------------------------------------------------------------------------
# raw-array helpers (no label bookkeeping; used by hot paths)
# ---------------------------------------------------------------------------

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
    """Pure-state vector with named tensor factors.  Its one use is the coded
    outputs of `codes.coded_outputs`, whose registers are created and consumed."""

    __slots__ = ("vec", "dims")

    def __init__(self, vec: np.ndarray, dims):
        self.vec = np.asarray(vec, dtype=complex).reshape(-1)
        self.dims = _as_dims(dims)
        if self.dims.total_dim != self.vec.shape[0]:
            raise ValueError(f"vector length {self.vec.shape[0]} != product of dims {self.dims}")

    def apply_isometry(self, mat: np.ndarray, in_labels: Sequence[str],
                       out_pairs: Sequence[tuple[str, int]]) -> "LabeledVector":
        """Consume registers `in_labels`, producing registers `out_pairs`.

        The produced registers come first, the remaining registers follow in
        their original order."""
        acting = list(self.dims.indices(in_labels))
        rest = [i for i in range(len(self.dims)) if i not in acting]
        dims = self.dims.dims
        t = self.vec.reshape(dims).transpose(acting + rest)
        d_act = int(np.prod([dims[i] for i in acting], dtype=np.int64))
        y = mat @ t.reshape(d_act, -1)
        return LabeledVector(y.reshape(-1),
                             list(out_pairs) + [self.dims.pairs[i] for i in rest])

    def tensor(self, other: "LabeledVector") -> "LabeledVector":
        return LabeledVector(np.kron(self.vec, other.vec), self.dims.concat(other.dims))

    def reduced(self, keep: Sequence[str]) -> np.ndarray:
        return reduced_density_from_vec(self.vec, self.dims.dims, self.dims.positions(keep))

    def reorder(self, labels: Sequence[str]) -> "LabeledVector":
        perm = list(self.dims.indices(labels))
        if sorted(perm) != list(range(len(self.dims))):
            raise ValueError("reorder must list every register exactly once")
        t = self.vec.reshape(self.dims.dims).transpose(perm)
        return LabeledVector(t.reshape(-1), [self.dims.pairs[i] for i in perm])


# ---------------------------------------------------------------------------
# entropies and distances
# ---------------------------------------------------------------------------

def entropy_from_eigvals(vals: np.ndarray) -> float:
    """Shannon entropy (bits) of an eigenvalue vector, 0·log 0 := 0."""
    vals = np.asarray(vals, dtype=float)
    if np.min(vals) < -TOL_PSD * max(len(vals), 1):
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


def weighted_average(probs: Sequence, mats: Sequence[np.ndarray]) -> np.ndarray:
    """sum_x p(x) mats[x], accumulated in the order of x.  For stacks
    (n, d, d), each p(x) is a number or one probability per matrix."""
    probs = np.asarray(probs)[..., np.newaxis, np.newaxis]  # broadcast over (d, d)
    avg = np.zeros(mats[0].shape, dtype=complex)
    for p, m in zip(probs, mats):
        avg += p * m
    return avg


def holevo_of_stack(probs: Sequence,
                    blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Holevo quantity S(sum_x p rho_x) - sum_x p S(rho_x), floored at 0, of
    blocks rho_x that are matrices or equally shaped stacks (n, d, d), each
    p(x) a number or one probability per matrix; also returns the entropies
    S(rho_x) followed by S(sum_x p rho_x)."""
    s = entropy_of_stack(np.stack(list(blocks) + [weighted_average(probs, blocks)]))
    hol = 0.0
    for p, s_x in zip(probs, s):
        hol += p * s_x
    return np.maximum(s[-1] - hol, 0.0), s


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) in bits, from the eigenvalue spectrum."""
    return entropy_of_mat(rho.mat)


def _entropy_of_subsystems(rho: DensityOperator, labels: Sequence[str]) -> float:
    if set(labels) == set(rho.dims.labels):
        return von_neumann_entropy(rho)
    mat = reduced_density_from_mat(rho.mat, rho.dims.dims, rho.dims.positions(labels))
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
                                   b: Sequence[str], c: Sequence[str]) -> float:
    """I(A:B|C) = S(A|C) - S(A|BC); strong subadditivity enforced."""
    _check_disjoint(a, b, c)
    cmi = (_entropy_of_subsystems(rho, list(a) + list(c))
           + _entropy_of_subsystems(rho, list(b) + list(c))
           - _entropy_of_subsystems(rho, list(a) + list(b) + list(c))
           - (_entropy_of_subsystems(rho, c) if c else 0.0))
    if cmi < -TOL_SSA:
        raise InternalError(
            f"conditional mutual information {cmi} violates strong subadditivity")
    return cmi


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix; eigenvalues at machine-noise
    scale are zeroed so the sqrt does not amplify them."""
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    if len(vals):
        vals[vals < 1e-14 * vals.max()] = 0.0
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Root fidelity F = ||sqrt(rho) sqrt(sigma)||_1."""
    dr = rho.dims.total_dim
    ds = sigma.dims.total_dim
    if dr != ds:
        raise ValueError(f"dimension mismatch {dr} != {ds}")
    s = np.linalg.svd(psd_sqrt(rho.mat) @ psd_sqrt(sigma.mat), compute_uv=False)
    return float(min(s.sum(), 1.0))


def trace_norm(mat: np.ndarray) -> float:
    return float(np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False).sum())


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(1/2)||rho - sigma||_1."""
    if rho.mat.shape != sigma.mat.shape:
        raise ValueError(f"dimension mismatch {rho.mat.shape} != {sigma.mat.shape}")
    return 0.5 * trace_norm(rho.mat - sigma.mat)


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
# purification
# ---------------------------------------------------------------------------

def _phase_fix_columns(vecs: np.ndarray) -> np.ndarray:
    """Make the first component of each column above 1e-12 in modulus real
    positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if len(nz):
            ph = col[nz[0]] / abs(col[nz[0]])
            out[:, j] = col * ph.conjugate()
    return out


def sorted_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition, eigenvalues descending, phases fixed."""
    vals, vecs = np.linalg.eigh(mat)
    order = np.argsort(vals)[::-1]
    return vals[order], _phase_fix_columns(vecs[:, order])


def purify(rho: DensityOperator) -> np.ndarray:
    """Canonical purification sum_i sqrt(l_i) |e_i>|i> as its amplitude
    matrix m[system, reference], of shape (d, rank)."""
    vals, vecs = sorted_eigh(rho.mat)
    vals = np.clip(vals, 0.0, None)
    rank = max(int(np.sum(vals > TOL_RANK)), 1)
    vals = vals[:rank] / vals[:rank].sum()
    return vecs[:, :rank] * np.sqrt(vals)


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
