"""Explicit block codes, exact average fidelity, and numerical verification
of the decoupling condition.

All three maps of a code are isometries with explicit environment registers:

    U_X : X^n        -> C_X ⊗ W_X
    U_B : B^n ⊗ B0   -> C_B ⊗ B0' ⊗ W_B
    V   : C_X C_B D0 -> Xhat^n ⊗ Bhat^n ⊗ D0' ⊗ W_D

with |B0| = |D0| = K and |B0'| = |D0'| = L (K = L = 1 in unassisted mode).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import DimensionCapError, SpecError
from .qcore import Isometry, LabeledVector
from .source import CqSource, _parse_complex_matrix, _parse_int, cq_state_xb, sequence_state

XI_AMPLITUDE_CAP = 2 ** 16
MAX_BLOCK_LENGTH = 2


@dataclass(frozen=True)
class BlockCode:
    n: int
    u_x: Isometry
    u_b: Isometry
    v: Isometry
    k: int = 1
    l: int = 1
    mode: str = "unassisted"

    def __post_init__(self):
        if self.mode not in ("unassisted", "assisted"):
            raise SpecError(f"unknown code mode {self.mode!r}")
        if self.mode == "unassisted" and (self.k != 1 or self.l != 1):
            raise SpecError("unassisted codes require K = L = 1")
        if len(self.u_x.out_dims) != 2:
            raise SpecError("U_X must output (C_X, W_X)")
        if len(self.u_b.in_dims) != 2 or self.u_b.in_dims[1] != self.k:
            raise SpecError("U_B must input (B^n, B0) with |B0| = K")
        if len(self.u_b.out_dims) != 3 or self.u_b.out_dims[1] != self.l:
            raise SpecError("U_B must output (C_B, B0', W_B) with |B0'| = L")
        if len(self.v.in_dims) != 3 or self.v.in_dims[2] != self.k:
            raise SpecError("V must input (C_X, C_B, D0) with |D0| = K")
        if len(self.v.out_dims) != 4 or self.v.out_dims[2] != self.l:
            raise SpecError("V must output (Xhat, Bhat, D0', W_D) with |D0'| = L")
        if self.v.in_dims[0] != self.u_x.out_dims[0] or \
                self.v.in_dims[1] != self.u_b.out_dims[0]:
            raise SpecError("decoder input dims must match the compressed registers")

    @property
    def rate_x(self) -> float:
        return float(np.log2(self.u_x.out_dims[0])) / self.n

    @property
    def rate_b(self) -> float:
        return float(np.log2(self.u_b.out_dims[0])) / self.n


@dataclass(frozen=True)
class FidelityReport:
    avg_fidelity: float
    per_sequence: tuple[tuple[tuple[int, ...], float, float], ...]  # (x^n, weight, fidelity)
    epsilon: float


@dataclass(frozen=True)
class DecouplingReport:
    cmi: float
    bound: float  # n * delta(n, epsilon)
    passed: bool
    fidelity: FidelityReport  # the walk that measured the cmi also measured eps
    warnings: tuple[str, ...]  # eps outside the domain of delta(n, eps)


# ---------------------------------------------------------------------------
# reference code builders
# ---------------------------------------------------------------------------

def identity_code(src: CqSource, n: int) -> BlockCode:
    """Zero-error reference code: both registers pass through unchanged."""
    _check_builder_cap(src, n)
    nxn, dbn = src.alphabet_size ** n, src.dim_b ** n
    u_x = Isometry(np.eye(nxn), (nxn,), (nxn, 1))
    u_b = Isometry(np.eye(dbn), (dbn, 1), (dbn, 1, 1))
    v = Isometry(np.eye(nxn * dbn), (nxn, dbn, 1), (nxn, dbn, 1, 1))
    return BlockCode(n, u_x, u_b, v)


def truncation_code(src: CqSource, n: int, rank: int) -> BlockCode:
    """Schumacher-style projection of B^n onto the top-`rank` eigenspace of
    (omega^B)^{⊗n}, completed to an isometry: the discarded subspace is
    routed to W_B under an orthogonal flag dimension."""
    _check_builder_cap(src, n)  # before any |B|^n is formed
    dbn = src.dim_b ** n
    if rank < 1 or rank > dbn:
        raise SpecError(f"truncation rank must be in [1, |B|^n = {dbn}]")
    wb = dbn - rank + 1
    _check_cap(src, n, wx=1, l=1, wb=wb, wd=1)
    omega_b = qcore.reduced_density_from_mat(
        cq_state_xb(src), (src.alphabet_size, src.dim_b), [1])
    _, basis = qcore.sorted_eigh(functools.reduce(qcore.kron, [omega_b] * n))
    nxn = src.alphabet_size ** n
    u_x = Isometry(np.eye(nxn), (nxn,), (nxn, 1))
    u_b = np.zeros((rank * wb, dbn), dtype=complex)
    i = np.arange(dbn)  # kept vector i goes to (c = i, w = 0), the rest to (c = 0, w = flag)
    u_b[np.where(i < rank, i * wb, 1 + i - rank)] = basis.conj().T
    u_b = Isometry(u_b, (dbn, 1), (rank, 1, wb))
    emb = basis[:, :rank]  # decoder embeds C_B back into Bhat^n
    v = Isometry(qcore.kron(np.eye(nxn), emb), (nxn, rank, 1), (nxn, dbn, 1, 1))
    return BlockCode(n, u_x, u_b, v)


def _check_cap(src: CqSource, n: int, wx: int, l: int, wb: int, wd: int) -> int:
    """The amplitudes of one coded output; DimensionCapError over the cap."""
    if n < 1:
        raise SpecError(f"block length n must be >= 1, got {n}")
    if n > MAX_BLOCK_LENGTH:
        raise DimensionCapError(
            f"block length {n} > {MAX_BLOCK_LENGTH}: exact dense evaluation is capped")
    total = (src.alphabet_size ** n) * (src.dim_b ** n) * (src.dim_r ** n) * \
        wx * l * l * wb * wd
    if total > XI_AMPLITUDE_CAP:
        raise DimensionCapError(
            f"coded output state needs {total} amplitudes, over the cap {XI_AMPLITUDE_CAP}")
    return total


def _check_builder_cap(src: CqSource, n: int):
    """`_check_cap` for the smallest code of length n, then the builders' own
    bound: they form V densely on X^n B^n, so its (|X|^n |B|^n)^2 entries
    must fit the cap too."""
    _check_cap(src, n, wx=1, l=1, wb=1, wd=1)
    entries = (src.alphabet_size * src.dim_b) ** (2 * n)
    if entries > XI_AMPLITUDE_CAP:
        raise DimensionCapError(
            f"the built code's maps need {entries} matrix entries, over the cap {XI_AMPLITUDE_CAP}")


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------

def _max_entangled(k: int) -> np.ndarray:
    return np.eye(k, dtype=complex).reshape(-1) / np.sqrt(k)


def _sequence_kets(src: CqSource, seqs, start: int, phi: np.ndarray) -> np.ndarray:
    """|x^n>|psi_{x^n}>|phi> of the sequences `seqs`, one row each, on
    (X^n, B^n, R^n, phi's registers); seqs[0] is sequence `start` in basis
    order.  Each entry is one product of products, as `qcore.kron` forms it."""
    s, nxn = len(seqs), src.alphabet_size ** len(seqs[0])
    kets = np.eye(s, nxn, start, dtype=complex)  # |x^n>, without an nxn × nxn identity
    states = np.stack([sequence_state(src, xs) for xs in seqs])
    out = (kets[:, :, np.newaxis] * states[:, np.newaxis, :]).reshape(s, -1)
    return (out[:, :, np.newaxis] * phi).reshape(s, -1)


def coded_outputs(src: CqSource, code: BlockCode):
    """Yield (sequences, weights, output LabeledVector stack) for the source
    sequences a chunk at a time, in `itertools.product` order (basis order,
    x_1 most significant).  A chunk holds at most `qcore.STACK_ENTRIES`
    output amplitudes, and at least one sequence; each map acts on a chunk
    in one broadcast product.

    The output registers are, in order:
    Xhat, Bhat, D0p, WD, B0p, WB, WX, Rn.
    """
    n = code.n
    nxn = src.alphabet_size ** n
    dbn, drn = src.dim_b ** n, src.dim_r ** n
    wx = code.u_x.out_dims[1]
    wb = code.u_b.out_dims[2]
    wd = code.v.out_dims[3]
    amplitudes = _check_cap(src, n, wx=wx, l=code.l, wb=wb, wd=wd)
    if code.v.out_dims[0] != nxn or code.v.out_dims[1] != dbn:
        raise SpecError("decoder output dims do not match the source block")
    phi_k = _max_entangled(code.k)
    seqs = list(itertools.product(range(src.alphabet_size), repeat=n))
    depth = max(qcore.STACK_ENTRIES // amplitudes, 1)
    for start in range(0, nxn, depth):
        chunk = seqs[start:start + depth]
        weights = [float(math.prod(src.probs[x] for x in xs)) for xs in chunk]
        lv = LabeledVector(_sequence_kets(src, chunk, start, phi_k),
                           [("Xn", nxn), ("Bn", dbn), ("Rn", drn), ("B0", code.k), ("D0", code.k)])
        lv = lv.apply_isometry(code.u_x.mat, ["Xn"],
                               [("CX", code.u_x.out_dims[0]), ("WX", wx)])
        lv = lv.apply_isometry(code.u_b.mat, ["Bn", "B0"],
                               [("CB", code.u_b.out_dims[0]), ("B0p", code.l),
                                ("WB", wb)])
        lv = lv.apply_isometry(code.v.mat, ["CX", "CB", "D0"],
                               [("Xhat", nxn), ("Bhat", dbn), ("D0p", code.l), ("WD", wd)])
        yield chunk, weights, lv


def _evaluate(src: CqSource, code: BlockCode) -> tuple[FidelityReport, float]:
    """One walk over the coded outputs, a chunk of sequences at a time: the
    exact average fidelity and the decoupling CMI.

    Sequence x^n's fidelity compares the ideal state t (reference spectated,
    target entanglement appended in assisted mode) with the coded output.
    F^2 = <t|rho|t> = <t|M M^dag|t>, where M is the output vector with t's
    registers as rows and W_D W_B W_X as columns, so rho is never formed;
    a chunk's M^dag t and M (M^dag t) are one batched product each, the
    gemv of a lone sequence per sequence.

    The output state is block diagonal in the classical copy and each block
    is pure, so the CMI is the p(x^n)-weighted sum of I(env : rest) = 2 S(env);
    a chunk's environment states come from one stacked partial trace and
    their entropies from one eigensolve.  Both sums run in x order.
    """
    phi_l = _max_entangled(code.l)
    rows = []
    avg = cmi = 0.0
    for chunk, weights, lv in coded_outputs(src, code):
        t = _sequence_kets(src, chunk, len(rows), phi_l)  # Xhat Bhat Rn B0p D0p
        m = lv.reorder(["Xhat", "Bhat", "Rn", "B0p", "D0p", "WD", "WB", "WX"]).vecs
        m = m.reshape(t.shape + (-1,))
        mmt = m @ (m.conj().swapaxes(-1, -2) @ t[:, :, np.newaxis])
        rho_env = lv.reduced(["WX", "WB", "WD", "B0p", "D0p"])
        rho_env = rho_env / np.trace(rho_env, axis1=-2, axis2=-1).real[:, np.newaxis, np.newaxis]
        s_env = qcore.entropy_of_stack(rho_env).tolist()
        for xs, p, t_x, mmt_x, s_x in zip(chunk, weights, t, mmt[:, :, 0], s_env):
            f2 = float(np.real(np.vdot(t_x, mmt_x)))
            f2 = min(max(f2, 0.0), 1.0)
            if f2 > 1.0 - 1e-12:  # snap float noise so perfect codes report 1 exactly
                f2 = 1.0
            f = float(np.sqrt(f2))
            rows.append((xs, p, f))
            avg += p * f
            cmi += p * 2.0 * s_x
    avg = min(avg, 1.0)
    return FidelityReport(avg, tuple(rows), 1.0 - avg), cmi


# No command calls it (verify-code reads decoupling_cmi); the bench tracer hooks it.
def average_fidelity(src: CqSource, code: BlockCode) -> FidelityReport:
    """Exact average fidelity over the source sequences, weighted by p(x^n)."""
    return _evaluate(src, code)[0]


def delta_n_eps(n: int, eps: float, dim_x: int, dim_b: int) -> float:
    """The decoupling-bound rate: 4 sqrt(6 eps) log(|X||B|) + (2/n) h(sqrt(6 eps)).

    Defined for eps in [0, 1/6]; for larger eps the binary entropy argument
    is clamped to 1 (`decoupling_cmi` records this in its report).
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    if eps < 0:
        raise ValueError("epsilon must be >= 0")
    root = np.sqrt(6.0 * eps)
    return float(4.0 * root * np.log2(dim_x * dim_b)
                 + (2.0 / n) * qcore.binary_entropy(min(max(root, 0.0), 1.0)))


def decoupling_cmi(src: CqSource, code: BlockCode) -> DecouplingReport:
    """Conditional mutual information between the protocol environments plus
    entanglement outputs and the decoded systems plus reference, given the
    classical copy; compared against n·delta(n, eps) with eps measured from
    the same code's average fidelity, in the same walk."""
    fid, cmi = _evaluate(src, code)
    eps = fid.epsilon
    bound = code.n * delta_n_eps(code.n, eps, src.alphabet_size, src.dim_b)
    notes = ()
    if eps > 1.0 / 6.0:
        notes = (f"epsilon {eps} outside [0, 1/6]: binary entropy argument clamped",)
    return DecouplingReport(cmi, bound, cmi <= bound + 1e-8, fid, notes)


# ---------------------------------------------------------------------------
# code-spec documents
# ---------------------------------------------------------------------------

def load_code(doc: dict, src: CqSource) -> BlockCode:
    """Build a code from a spec document.

    Either a named builder: {"builder": "identity"|"truncation", "n": int,
    "rank": int (truncation only)}, or explicit matrices:
    {"n", "K", "L", "mode", "U_X": {"matrix", "dims": {"C_X", "W_X"}},
     "U_B": {"matrix", "dims": {"C_B", "W_B"}},
     "V": {"matrix", "dims": {"W_D"}}}.
    """
    if not isinstance(doc, dict):
        raise SpecError("code spec must be a mapping")
    n = _int_field(doc.get("n", 1), "n")
    # n >= 1 and the smallest code of length n must fit, checked before any |X|^n
    _check_cap(src, n, wx=1, l=1, wb=1, wd=1)
    if "builder" in doc:
        name = doc["builder"]
        if name == "identity":
            return identity_code(src, n)
        if name == "truncation":
            if "rank" not in doc:
                raise SpecError("truncation builder needs field rank")
            return truncation_code(src, n, _int_field(doc["rank"], "rank"))
        raise SpecError(f"unknown code builder {name!r}")
    k = _int_field(doc.get("K", 1), "K")
    l = _int_field(doc.get("L", 1), "L")
    mode = str(doc.get("mode", "unassisted"))
    nxn, dbn = src.alphabet_size ** n, src.dim_b ** n
    try:
        ux_m = _parse_complex_matrix(doc["U_X"]["matrix"])
        ux_d = doc["U_X"]["dims"]
        ub_m = _parse_complex_matrix(doc["U_B"]["matrix"])
        ub_d = doc["U_B"]["dims"]
        v_m = _parse_complex_matrix(doc["V"]["matrix"])
        v_d = doc["V"]["dims"]
        cx, wx = _int_field(ux_d["C_X"], "C_X"), _int_field(ux_d["W_X"], "W_X")
        cb, wb = _int_field(ub_d["C_B"], "C_B"), _int_field(ub_d["W_B"], "W_B")
        wd = _int_field(v_d["W_D"], "W_D")
        u_x = Isometry(ux_m, (nxn,), (cx, wx))
        u_b = Isometry(ub_m, (dbn, k), (cb, l, wb))
        v = Isometry(v_m, (cx, cb, k), (nxn, dbn, l, wd))
    except KeyError as exc:
        raise SpecError(f"code spec missing field {exc.args[0]!r}") from None
    except SpecError:
        raise
    except (TypeError, OverflowError) as exc:
        raise SpecError(f"malformed code spec: {exc}") from exc
    except ValueError as exc:
        raise SpecError(f"invalid code matrices: {exc}") from exc
    return BlockCode(n, u_x, u_b, v, k, l, mode)


def _int_field(value, name: str) -> int:
    try:
        return _parse_int(value)
    except (TypeError, ValueError, OverflowError):
        raise SpecError(f"code spec field {name} must be an integer, got {value!r}") from None
