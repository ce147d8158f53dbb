"""Dense complex linear algebra and quantum-information primitives.

The kernels take a matrix or a stack of matrices (..., d, d) whose tensor
factors are given by position: `dims` is a tuple of ints and a subsystem is
a list of positions.  Labels live only on the two objects read by name,
`DensityOperator` and `LabeledVector`.  Everything is exact dense numpy,
base-2 logarithms throughout.  A purified state is its amplitude matrix
m[system, reference]; `purify_of_stack` returns them zero-padded to one
stack, with their ranks.
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
TOL_PSD = 1e-10
TOL_RANK = 1e-10
TOL_SSA = 1e-8

_LOG2 = math.log(2.0)

# Entries drawn and held at once: the reals of a selftest stack, the complex
# entries of a chunk of climb directions (32 of afw's 9x9 pairs).  Small
# items stack deep, spreading numpy's per-call cost, and no stack raises the
# peak memory.
STACK_ENTRIES = 10_368


def _labeled_dims(pairs: Iterable[tuple[str, int]]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The labels and dims of (label, dim) pairs such as [("B", 2), ("R", 2)];
    ValueError on a repeated label or a dim below 1."""
    pairs = [(str(lbl), int(d)) for lbl, d in pairs]
    labels = tuple(lbl for lbl, _ in pairs)
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate subsystem labels in {list(labels)}")
    for lbl, d in pairs:
        if d < 1:
            raise ValueError(f"subsystem {lbl!r} has non-positive dimension {d}")
    return labels, tuple(d for _, d in pairs)


def _positions(labels: tuple[str, ...], wanted: Sequence[str]) -> list[int]:
    """Positions in `labels` of the labels `wanted`, in the order given."""
    try:
        return [labels.index(lbl) for lbl in wanted]
    except ValueError:
        missing = sorted(set(wanted) - set(labels))
        raise KeyError(f"unknown subsystem labels {missing}") from None


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Validated density matrix on labeled subsystems."""

    mat: np.ndarray
    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __init__(self, mat, pairs: Iterable[tuple[str, int]]):
        mat = np.asarray(mat, dtype=complex)
        labels, dims = _labeled_dims(pairs)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        if mat.shape[0] != math.prod(dims):
            raise ValueError(f"matrix dim {mat.shape[0]} != product of dims {dims}")
        problem = density_problems(mat)[0][0]
        if problem:
            raise ValueError(problem)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)


def density_problems(mats: np.ndarray) -> tuple[list[str | None], np.ndarray]:
    """The checks of a density matrix, run once over a matrix or a stack
    (..., d, d): for each matrix in stack order, the message of the first
    check it fails (finite entries, Hermitian, unit trace, no eigenvalue below
    -TOL_PSD), or None when it passes them all; and the ascending spectra
    (..., d) of the Hermitian parts that the eigenvalue check solved, NaN for
    a matrix with non-finite entries."""
    mats = np.asarray(mats, dtype=complex)
    flat = mats.reshape((-1,) + mats.shape[-2:])
    finite = np.isfinite(flat).all(axis=(-2, -1))
    out = [None if f else "non-finite entries in density matrix" for f in finite.tolist()]
    m = flat[finite]
    adj = m.conj().swapaxes(-1, -2)
    herm = np.abs(m - adj).max(axis=(-2, -1))
    tr = np.trace(m, axis1=-2, axis2=-1).real
    spectra = np.full(flat.shape[:-1], np.nan)
    spectra[finite] = np.linalg.eigvalsh((m + adj) / 2)
    lo = spectra[finite, 0]  # eigvalsh sorts each spectrum ascending
    bad = (herm > TOL_HERM) | (np.abs(tr - 1.0) > TOL_TRACE) | (lo < -TOL_PSD)
    for k, h, t, e in zip(np.flatnonzero(finite)[bad].tolist(), herm[bad].tolist(),
                          tr[bad].tolist(), lo[bad].tolist()):
        if h > TOL_HERM:
            out[k] = "density matrix is not Hermitian within tolerance"
        elif abs(t - 1.0) > TOL_TRACE:
            out[k] = f"density matrix trace {t} != 1 within tolerance"
        elif e < -TOL_PSD:
            out[k] = f"density matrix has negative eigenvalue {e}"
    return out, spectra.reshape(mats.shape[:-1])


@dataclass(frozen=True, eq=False)
class Isometry:
    """Matrix V with V†V = 1 mapping the factors `in_dims` into `out_dims`."""

    mat: np.ndarray
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]

    def __init__(self, mat, in_dims: Sequence[int], out_dims: Sequence[int]):
        mat = np.asarray(mat, dtype=complex)
        in_dims = tuple(int(d) for d in in_dims)
        out_dims = tuple(int(d) for d in out_dims)
        if min(in_dims + out_dims, default=1) < 1:
            raise ValueError(f"isometry factor dims {in_dims} -> {out_dims} "
                             "include a non-positive dimension")
        d_in, d_out = math.prod(in_dims), math.prod(out_dims)
        if mat.shape != (d_out, d_in):
            raise ValueError(f"isometry shape {mat.shape} != ({d_out}, {d_in})")
        if not np.all(np.isfinite(mat)):
            raise ValueError("non-finite entries in isometry")
        if d_out < d_in:
            raise ValueError("isometry codomain smaller than domain")
        gram = mat.conj().T @ mat
        if np.max(np.abs(gram - np.eye(d_in))) > TOL_ISO:
            raise ValueError("matrix is not an isometry within tolerance")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims", out_dims)


# ---------------------------------------------------------------------------
# raw-array helpers (no label bookkeeping; used by hot paths)
# ---------------------------------------------------------------------------

def _trace_subscripts(dims: Sequence[int], keep: Sequence[int]) -> tuple[str, str, str, int]:
    """The einsum letters of a partial trace over the factors not in `keep`:
    the row letters, the column letters (a traced factor's column letter is
    its row letter), the kept row then column letters, and the kept dim."""
    n = len(dims)
    if 2 * n > len(string.ascii_letters):
        raise ValueError("too many tensor factors")
    keep = sorted(keep)
    row = string.ascii_letters[:n]
    col = "".join(string.ascii_letters[n + i] if i in keep else row[i] for i in range(n))
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    return row, col, out, math.prod(dims[i] for i in keep)


def reduced_density_from_mat(mat: np.ndarray, dims: Sequence[int],
                             keep: Sequence[int]) -> np.ndarray:
    """Partial trace of a square matrix, or of each matrix of a stack
    (..., d, d), over the factors not in `keep`."""
    row, col, out, d_keep = _trace_subscripts(dims, keep)
    stack = mat.shape[:-2]
    resh = mat.reshape(stack + tuple(dims) * 2)
    return np.einsum(f"...{row}{col}->...{out}", resh).reshape(stack + (d_keep, d_keep))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two vectors or of two matrices, bit for bit (each entry is
    one product a_i b_k), as one outer product moved into place."""
    out = np.multiply.outer(a, b)
    out = out.transpose(0, 2, 1, 3) if a.ndim == 2 else out
    return out.reshape([m * n for m, n in zip(a.shape, b.shape)])


def block_diagonal(probs: Sequence[float], blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Matrix of the cq operator sum_x p(x) |x><x| ⊗ blocks[x]."""
    d = blocks[0].shape[0]
    mat = np.zeros((len(blocks) * d, len(blocks) * d), dtype=complex)
    for x, (p, blk) in enumerate(zip(probs, blocks)):
        mat[x * d:(x + 1) * d, x * d:(x + 1) * d] = p * blk
    return mat


def reduced_density_from_vec(vec: np.ndarray, dims: Sequence[int],
                             keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of a pure state vector, or of each vector of a
    stack (..., d), tracing the rest."""
    row, col, out, d_keep = _trace_subscripts(dims, keep)
    stack = vec.shape[:-1]
    t = vec.reshape(stack + tuple(dims))
    return np.einsum(f"...{row},...{col}->...{out}", t, t.conj()).reshape(
        stack + (d_keep, d_keep))


class LabeledVector:
    """A stack of s pure states on the same named tensor factors, held as an
    (s, prod(dims)) array; a lone state is a stack of one.  Its one use is
    the coded outputs of `codes.coded_outputs`, whose registers are created
    and consumed."""

    __slots__ = ("vecs", "labels", "dims")

    def __init__(self, vecs: np.ndarray, pairs: Iterable[tuple[str, int]]):
        vecs = np.asarray(vecs, dtype=complex)
        self.labels, self.dims = _labeled_dims(pairs)
        if vecs.ndim not in (1, 2) or vecs.shape[-1] != math.prod(self.dims):
            raise ValueError(f"vector shape {vecs.shape} is not (d,) or (s, d) with d the "
                             f"product of dims {self.dims}")
        self.vecs = vecs.reshape(-1, vecs.shape[-1])

    def _pairs(self, positions: Sequence[int]) -> list[tuple[str, int]]:
        return [(self.labels[i], self.dims[i]) for i in positions]

    def _tensor(self, perm: Sequence[int]) -> np.ndarray:
        """Each state as a tensor, its factors permuted to `perm`."""
        t = self.vecs.reshape((len(self.vecs),) + self.dims)
        return t.transpose([0] + [1 + i for i in perm])

    def apply_isometry(self, mat: np.ndarray, in_labels: Sequence[str],
                       out_pairs: Sequence[tuple[str, int]]) -> "LabeledVector":
        """Consume registers `in_labels`, producing registers `out_pairs`.

        The produced registers come first, the remaining registers follow in
        their original order.  One broadcast product: each state gets the
        gemm of its lone product, (d_out, d_act) by (d_act, rest)."""
        acting = _positions(self.labels, in_labels)
        rest = [i for i in range(len(self.dims)) if i not in acting]
        d_act = math.prod(self.dims[i] for i in acting)
        t = self._tensor(acting + rest).reshape(len(self.vecs), d_act, -1)
        y = np.matmul(mat, t)
        return LabeledVector(y.reshape(len(self.vecs), -1), list(out_pairs) + self._pairs(rest))

    def reduced(self, keep: Sequence[str]) -> np.ndarray:
        """The (s, d_keep, d_keep) reduced density matrices on `keep`."""
        return reduced_density_from_vec(self.vecs, self.dims, _positions(self.labels, keep))

    def reorder(self, labels: Sequence[str]) -> "LabeledVector":
        perm = _positions(self.labels, labels)
        if sorted(perm) != list(range(len(self.dims))):
            raise ValueError("reorder must list every register exactly once")
        return LabeledVector(self._tensor(perm).reshape(len(self.vecs), -1), self._pairs(perm))


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


def _xlogx_sums(rows: np.ndarray) -> np.ndarray:
    """sum_i x_i log2 x_i over the positive entries of each row of a 2-D array
    of ascending, non-negative spectra.  A row's k positive entries are its
    last k; summing exactly those, rows grouped by k, keeps the summation
    order of the positive entries of a lone row.  When every row is positive
    throughout, they form one group and are summed in place."""
    if (rows[:, :1] > 0.0).all():
        return (rows * np.log2(rows)).sum(axis=-1)
    n = rows.shape[-1]
    k = np.count_nonzero(rows > 0.0, axis=-1)
    out = np.zeros(len(rows))
    for kk in set(k[k > 0].tolist()):
        sel = k == kk
        nz = rows[sel, n - kk:]
        out[sel] = (nz * np.log2(nz)).sum(axis=-1)
    return out


def entropy_of_spectra(vals: np.ndarray) -> np.ndarray:
    """Entropies (bits) of ascending spectra (..., n), such as `eigvalsh`
    returns; ValueError when an eigenvalue is below the PSD tolerance."""
    n = vals.shape[-1]
    rows = vals.reshape(-1, n)
    lo = rows[:, 0]
    below = lo < -TOL_PSD * max(n, 1)
    if below.any():
        raise ValueError(f"eigenvalue {lo[below][0]} below PSD tolerance")
    out = -_xlogx_sums(np.maximum(rows, 0.0))
    return (np.maximum(out, 0.0) + 0.0).reshape(vals.shape[:-1])  # kill negative zero


def entropy_of_stack(mats: np.ndarray) -> np.ndarray:
    """Entropies (bits) of a stack (..., n, n) of Hermitian matrices from one
    `eigvalsh` call; each equals `entropy_of_mat` of its matrix bit for bit."""
    return entropy_of_spectra(np.linalg.eigvalsh(mats))


def sum_in_order(terms: Iterable):
    """The sum of `terms` (numbers or equally shaped arrays) added one at a
    time from 0.0 in the order given, so that a sum over x runs in x order."""
    total = 0.0
    for t in terms:
        total += t
    return total


def weighted_average(probs: Sequence, mats: Sequence[np.ndarray]) -> np.ndarray:
    """sum_x p(x) mats[x], accumulated in the order of x.  For stacks
    (n, d, d), each p(x) is a number or one probability per matrix."""
    probs = np.asarray(probs)[..., np.newaxis, np.newaxis]  # broadcast over (d, d)
    return sum_in_order(p * m for p, m in zip(probs, mats))


def holevo_of_stack(probs: Sequence,
                    blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Holevo quantity S(sum_x p rho_x) - sum_x p S(rho_x), floored at 0, of
    blocks rho_x that are matrices or equally shaped stacks (n, d, d), each
    p(x) a number or one probability per matrix; also returns the entropies
    S(rho_x) followed by S(sum_x p rho_x)."""
    s = entropy_of_stack(np.stack(list(blocks) + [weighted_average(probs, blocks)]))
    return np.maximum(s[-1] - sum_in_order(p * s_x for p, s_x in zip(probs, s)), 0.0), s


def _entropy_of_subsystems(mats: np.ndarray, dims: Sequence[int],
                           keep: Sequence[int]) -> np.ndarray:
    if len(keep) == len(dims):
        return entropy_of_stack(mats)
    return entropy_of_stack(reduced_density_from_mat(mats, dims, keep))


def _check_disjoint(*groups: Sequence[int]):
    flat = [i for g in groups for i in g]
    if len(set(flat)) != len(flat):
        raise ValueError(f"subsystem positions overlap: {list(groups)}")


def mutual_information(rho: DensityOperator, a: Sequence[str], b: Sequence[str]) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) of the labeled subsystems `a` and `b`."""
    a, b = _positions(rho.labels, a), _positions(rho.labels, b)
    _check_disjoint(a, b)
    return float(_entropy_of_subsystems(rho.mat, rho.dims, a)
                 + _entropy_of_subsystems(rho.mat, rho.dims, b)
                 - _entropy_of_subsystems(rho.mat, rho.dims, a + b))


def conditional_mutual_information_of_stack(mats: np.ndarray, dims: Sequence[int],
                                            a: Sequence[int], b: Sequence[int],
                                            c: Sequence[int],
                                            spectra: np.ndarray | None = None) -> np.ndarray:
    """I(A:B|C) = S(A|C) - S(A|BC) of a density matrix, or of each matrix of
    a stack (..., d, d), on the factors `dims`; `a`, `b` and `c` are
    positions.  When A, B and C cover every factor, `spectra` may give the
    matrices' ascending spectra, which then give S(ABC).  `check_ssa`
    enforces strong subadditivity on each value."""
    _check_disjoint(a, b, c)
    a, b, c = list(a), list(b), list(c)
    whole = spectra is not None and len(a + b + c) == len(dims)
    return (_entropy_of_subsystems(mats, dims, a + c)
            + _entropy_of_subsystems(mats, dims, b + c)
            - (entropy_of_spectra(spectra) if whole else
               _entropy_of_subsystems(mats, dims, a + b + c))
            - (_entropy_of_subsystems(mats, dims, c) if c else 0.0))


def check_ssa(cmi: float) -> float:
    """`cmi`, after checking it against strong subadditivity (I(A:B|C) >= 0
    within TOL_SSA); InternalError when it fails."""
    if cmi < -TOL_SSA:
        raise InternalError(
            f"conditional mutual information {cmi} violates strong subadditivity")
    return cmi


def conditional_mutual_information(rho: DensityOperator, a: Sequence[str],
                                   b: Sequence[str], c: Sequence[str]) -> float:
    """I(A:B|C) = S(A|C) - S(A|BC) of labeled subsystems; strong
    subadditivity enforced."""
    a, b, c = (_positions(rho.labels, g) for g in (a, b, c))
    return check_ssa(float(conditional_mutual_information_of_stack(rho.mat, rho.dims, a, b, c)))


def _noise_floored(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues (..., d) of PSD matrices clipped at 0, each spectrum's
    values below 1e-14 times its largest zeroed: below that they are
    eigensolver noise, which a square root would amplify."""
    vals = np.clip(vals, 0.0, None)
    if vals.shape[-1]:
        vals[vals < 1e-14 * vals.max(axis=-1, keepdims=True)] = 0.0
    return vals


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix, or of each matrix of a stack
    (..., d, d), from its noise-floored eigenvalues."""
    vals, vecs = np.linalg.eigh(mat)
    vals = _noise_floored(vals)
    return (vecs * np.sqrt(vals)[..., np.newaxis, :]) @ vecs.conj().swapaxes(-1, -2)


def fidelity_of_stack(rhos: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Root fidelity F = tr sqrt(sqrt(rho) sigma sqrt(rho)), the sum of the
    square roots of its noise-floored eigenvalues, capped at 1, of two density
    matrices or of each pair of two stacks (..., d, d)."""
    root = psd_sqrt(rhos)
    lam = _noise_floored(np.linalg.eigvalsh(root @ sigmas @ root))
    return np.minimum(np.sqrt(lam).sum(axis=-1), 1.0)


def trace_distance_of_stack(rhos: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """(1/2)||rho - sigma||_1, half the sum of the absolute eigenvalues of the
    Hermitian rho - sigma, of two matrices or of each pair of two stacks."""
    return 0.5 * np.abs(np.linalg.eigvalsh(rhos - sigmas)).sum(axis=-1)


def operator_norm(mat: np.ndarray) -> np.ndarray:
    """Largest singular value of a matrix, or of each matrix of a stack."""
    return np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False)[..., 0]


def binary_entropy(eps: float) -> float:
    """h(eps) in bits; h(0) = h(1) = 0."""
    if eps < 0.0 or eps > 1.0:
        raise ValueError(f"binary entropy argument {eps} outside [0, 1]")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    return float(-eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps))


def relative_entropy_of_stack(rhos: np.ndarray, sigmas: np.ndarray,
                              rho_spectra: np.ndarray | None = None) -> np.ndarray:
    """S(rho || sigma) = sum_i a_i log2 a_i - sum_j <v_j|rho|v_j> log2 b_j in
    bits of two density matrices, or of each pair of two stacks (..., d, d),
    in sigma's eigenbasis {v_j}; `rho_spectra` may give rho's ascending
    spectra a.  inf where a weight <v_j|rho|v_j> above 1e-15 meets an
    eigenvalue b_j of sigma at most TOL_RANK."""
    a = np.linalg.eigvalsh(rhos) if rho_spectra is None else rho_spectra
    b, v = np.linalg.eigh(sigmas)
    shape, d = a.shape[:-1], a.shape[-1]
    a = np.clip(a, 0.0, None).reshape(-1, d)
    b = np.clip(b, 0.0, None).reshape(-1, d)
    w = (v.conj() * (rhos @ v)).sum(axis=-2).real.reshape(-1, d)
    support = b > TOL_RANK
    # math.log2, not np.log2: the two can differ in the last bit
    log_b = np.zeros_like(b)
    log_b[support] = [math.log2(x) for x in b[support].tolist()]
    used = w > 1e-15
    # one j at a time across the stack: each pair sums its terms in j order
    term2 = sum_in_order(np.where(used[:, j], w[:, j] * log_b[:, j], 0.0) for j in range(d))
    out = _xlogx_sums(a) - term2
    out[(used & ~support).any(axis=-1)] = math.inf
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# purification
# ---------------------------------------------------------------------------

def _phase_fix_columns(vecs: np.ndarray) -> np.ndarray:
    """Make the first component of each column above 1e-12 in modulus real
    positive, in a matrix or in each matrix of a stack."""
    v = vecs.reshape((-1,) + vecs.shape[-2:])
    big = np.abs(v) > 1e-12
    fixed = big.any(axis=1)
    lead = v[np.arange(len(v))[:, np.newaxis], big.argmax(axis=1), np.arange(v.shape[2])]
    # the modulus as hypot, which is what abs() of one complex number
    # computes; numpy's vectorized complex abs can differ in the last bit
    ph = lead / np.where(fixed, np.hypot(lead.real, lead.imag), 1.0)
    fixed, ph = fixed[:, np.newaxis, :], ph[:, np.newaxis, :]
    return np.where(fixed, v * ph.conjugate(), v).reshape(vecs.shape)


def sorted_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition of a matrix or of each matrix of a stack,
    eigenvalues descending, phases fixed."""
    vals, vecs = np.linalg.eigh(mat)
    d = vals.shape[-1]
    order = np.argsort(vals, axis=-1)[..., ::-1].reshape(-1, d)
    rows = np.arange(len(order))[:, np.newaxis]
    vecs = vecs.reshape(-1, d, d)[rows[:, :, np.newaxis], np.arange(d)[:, np.newaxis],
                                  order[:, np.newaxis, :]]
    return (vals.reshape(-1, d)[rows, order].reshape(vals.shape),
            _phase_fix_columns(vecs).reshape(vals.shape + (d,)))


def purify_of_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical purifications sum_i sqrt(l_i) |e_i>|i> of a stack (n, d, d)
    of density matrices: their amplitude matrices m[system, reference],
    zero-padded to one (n, d, d) stack, and their ranks.  Matrix k's
    purification is amps[k, :, :ranks[k]], with the bits of a lone matrix's:
    its kept eigenvalues are summed in the order a lone sum takes."""
    vals, vecs = sorted_eigh(mats)
    ranks = np.maximum(np.count_nonzero(vals > TOL_RANK, axis=-1), 1)
    kept = np.arange(vals.shape[-1]) < ranks[:, np.newaxis]
    lam = np.where(kept, np.clip(vals, 0.0, None), 0.0)
    for rank in set(ranks.tolist()):  # a rank-r row sums its first r entries alone
        rows = ranks == rank
        lam[rows] /= lam[rows, :rank].sum(axis=-1, keepdims=True)
    return np.where(kept[:, np.newaxis, :], vecs * np.sqrt(lam)[:, np.newaxis, :], 0.0), ranks


# ---------------------------------------------------------------------------
# seeded random instances (test and selftest fodder)
# ---------------------------------------------------------------------------

def ginibre(shape, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian array: real parts drawn first, then imaginary parts."""
    re, im = rng.standard_normal((2, *shape))
    return re + 1j * im


def density_from_ginibre(g: np.ndarray) -> np.ndarray:
    """g g† / tr(g g†) of a (d, rank) matrix or of each matrix of a stack."""
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., np.newaxis, np.newaxis]


def isometry_from_ginibre(g: np.ndarray) -> np.ndarray:
    """The Q factor of g = QR with the phases of R's diagonal moved into Q,
    of a matrix or of each matrix of a stack (a diagonal entry below 1e-14
    leaves its column as it is): a Haar isometry, or the climb's retraction."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    diag = np.where(np.abs(diag) < 1e-14, 1.0, diag)
    return q * (diag / np.abs(diag))[..., np.newaxis, :]


def random_isometry(out_dim: int, in_dim: int, rng: np.random.Generator) -> np.ndarray:
    return isometry_from_ginibre(ginibre((out_dim, in_dim), rng))
