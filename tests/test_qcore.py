import math

import numpy as np
import pytest

from conftest import random_density
from cqrate import qcore
from cqrate.qcore import DensityOperator
from cqrate.source import cq_state_xb

H14 = 0.8112781244591328  # binary entropy at 1/4, frozen from 30-digit arithmetic
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def dm(mat, pairs):
    return DensityOperator(mat, pairs)


def _purify(mat):
    amps, ranks = qcore.purify_of_stack(np.asarray(mat, dtype=complex)[np.newaxis])
    return amps[0, :, :ranks[0]]


def test_partial_trace_maximally_entangled():
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())  # on B⊗R
    red = qcore.reduced_density_from_mat(rho, (2, 2), [0])
    assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product():
    rho = np.diag([0.0, 1.0, 0.0, 0.0])  # |0><0| ⊗ |1><1|
    red = qcore.reduced_density_from_mat(rho, (2, 2), [0])
    assert np.allclose(red, np.diag([1.0, 0.0]), atol=1e-12)


def test_partial_trace_cq_source(src_b):
    red = qcore.reduced_density_from_mat(cq_state_xb(src_b), (2, 2), [0])  # keep X
    assert np.allclose(red, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_traces_share_the_factor_limit():
    # 26 factors use all 52 einsum letters; 27 would need 54
    for trace, state in [(qcore.reduced_density_from_mat, np.eye(1)),
                         (qcore.reduced_density_from_vec, np.ones(1))]:
        assert trace(state, (1,) * 26, [25]).tolist() == [[1.0]]
        with pytest.raises(ValueError, match="too many tensor factors"):
            trace(state, (1,) * 27, [26])


def test_partial_trace_label_errors():
    rho = dm(np.eye(4) / 4, [("A", 2), ("B", 2)])
    with pytest.raises(KeyError):
        qcore.mutual_information(rho, ["Z"], ["B"])
    with pytest.raises(ValueError, match="duplicate"):
        dm(np.eye(4) / 4, [("A", 2), ("A", 2)])


def test_entropy_examples():
    assert qcore.entropy_of_mat(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert qcore.entropy_of_mat(np.diag([1.0, 0.0])) == 0.0
    got = qcore.entropy_of_mat(np.diag([0.75, 0.25]))
    assert got == pytest.approx(H14, abs=1e-12)


def test_entropy_rejects_non_hermitian():
    with pytest.raises(ValueError):
        dm(np.array([[0.5, 0.5], [0.0, 0.5]]), [("A", 2)])


def _conditional_entropy(rho, dims, b):
    """S(A|B) = S(AB) - S(B) of a bipartite state, B the factor at position b."""
    return qcore.entropy_of_stack(rho) - qcore.entropy_of_stack(
        qcore.reduced_density_from_mat(rho, dims, [b]))


def test_conditional_entropy_product():
    sa = np.diag([0.75, 0.25])
    rho = np.kron(sa, np.eye(2) / 2)
    assert _conditional_entropy(rho, (2, 2), 1) == pytest.approx(H14, abs=1e-10)


def test_conditional_entropy_entangled_negative():
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    assert _conditional_entropy(rho, (2, 2), 1) == pytest.approx(-1.0, abs=1e-10)


def test_conditional_entropy_cq_source(src_b):
    omega = cq_state_xb(src_b)  # on X⊗B
    assert _conditional_entropy(omega, (2, 2), 0) == pytest.approx(0.5, abs=1e-10)


def test_overlapping_labels_rejected():
    rho = dm(np.eye(4) / 4, [("A", 2), ("B", 2)])
    with pytest.raises(ValueError):
        qcore.conditional_mutual_information(rho, ["A"], ["B"], ["A"])
    with pytest.raises(ValueError):
        qcore.mutual_information(rho, ["A", "B"], ["B"])


def test_overlapping_positions_rejected():
    rho = np.eye(8) / 8
    stack = np.stack([rho, rho])
    for mats in (rho, stack):
        with pytest.raises(ValueError):
            qcore.conditional_mutual_information_of_stack(mats, (2, 2, 2), [0], [1], [0])
        with pytest.raises(ValueError):
            qcore.conditional_mutual_information_of_stack(mats, (2, 2, 2), [0], [1, 2], [2])


def test_cmi_reads_s_abc_from_the_given_spectra():
    # Ginibre states are exactly Hermitian, so the spectra that validation
    # solves from their Hermitian parts are eigvalsh's own, bit for bit
    rho = _random_stack(np.random.default_rng(17), 200, 8, 8)
    spectra = qcore.density_problems(rho)[1]
    want = qcore.conditional_mutual_information_of_stack(rho, (2, 2, 2), [0], [1], [2])
    got = qcore.conditional_mutual_information_of_stack(rho, (2, 2, 2), [0], [1], [2], spectra)
    assert got.tobytes() == want.tobytes()


def test_kron_is_np_kron_bit_for_bit():
    rng = np.random.default_rng(18)
    for shape_a, shape_b in (((3,), (4,)), ((1,), (5,)), ((2, 3), (4, 1)), ((3, 3), (2, 2))):
        for dtype in (float, complex):
            a = rng.standard_normal(shape_a).astype(dtype)
            b = rng.standard_normal(shape_b) * (1 + 1j if dtype is complex else 1)
            a.flat[0], b.flat[-1] = -0.0, -0.0
            for x, y in ((a, b), (b, a), (a, a), (a.real.copy(), b)):
                got, want = qcore.kron(x, y), np.kron(x, y)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def test_mutual_information_examples(src_b):
    prod = dm(np.kron(np.diag([0.75, 0.25]), np.eye(2) / 2), [("A", 2), ("B", 2)])
    assert qcore.mutual_information(prod, ["A"], ["B"]) == pytest.approx(0.0, abs=1e-10)
    ent = dm(np.outer(PHI_PLUS, PHI_PLUS.conj()), [("A", 2), ("B", 2)])
    assert qcore.mutual_information(ent, ["A"], ["B"]) == pytest.approx(2.0, abs=1e-10)
    omega = dm(cq_state_xb(src_b), [("X", 2), ("B", 2)])
    assert qcore.mutual_information(omega, ["X"], ["B"]) == pytest.approx(
        1.0 + H14 - 1.5, abs=1e-10)


def test_cmi_nonnegative_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        rho = dm(random_density(8, rng), [("A", 2), ("B", 2), ("C", 2)])
        assert qcore.conditional_mutual_information(rho, ["A"], ["B"], ["C"]) >= -1e-8


def test_fidelity_examples():
    rng = np.random.default_rng(3)
    rho = random_density(3, rng)
    assert qcore.fidelity_of_stack(rho, rho) == pytest.approx(1.0, abs=1e-9)
    k0 = np.diag([1.0, 0.0])
    k1 = np.diag([0.0, 1.0])
    assert qcore.fidelity_of_stack(k0, k1) == 0.0
    mixed = np.eye(2) / 2
    assert qcore.fidelity_of_stack(mixed, k0) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_fidelity_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(25):
        r1 = random_density(3, rng)
        r2 = random_density(3, rng)
        assert qcore.fidelity_of_stack(r1, r2) == pytest.approx(
            qcore.fidelity_of_stack(r2, r1), abs=1e-9)


def test_fidelity_dim_mismatch():
    with pytest.raises(ValueError):
        qcore.fidelity_of_stack(np.eye(2) / 2, np.eye(3) / 3)


def test_trace_distance_and_norms():
    rho = np.diag([0.75, 0.25])
    assert qcore.trace_distance_of_stack(rho, rho) == 0.0
    assert qcore.operator_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0, abs=1e-12)
    assert 2 * qcore.trace_distance_of_stack(np.diag([1.0, -3.0]), np.zeros((2, 2))) \
        == pytest.approx(4.0, abs=1e-12)


def test_binary_entropy():
    assert qcore.binary_entropy(0.5) == 1.0
    assert qcore.binary_entropy(0.0) == 0.0
    assert qcore.binary_entropy(1.0) == 0.0
    with pytest.raises(ValueError):
        qcore.binary_entropy(1.5)
    with pytest.raises(ValueError):
        qcore.binary_entropy(-0.1)


def test_purify_examples():
    amp = _purify(np.diag([1.0, 0.0]))
    assert amp.shape == (2, 1)
    assert np.allclose(amp[:, 0], [1, 0], atol=1e-12)

    mixed = np.eye(2) / 2
    amp = _purify(mixed)
    assert amp.shape == (2, 2)
    assert qcore.trace_distance_of_stack(amp @ amp.conj().T, mixed) < 1e-12

    amp = _purify(np.diag([0.75, 0.25]))
    # canonical: descending eigenvalues, phase-fixed eigenvectors
    amps = np.abs(amp)
    assert amps[0, 0] == pytest.approx(math.sqrt(0.75), abs=1e-12)
    assert amps[1, 1] == pytest.approx(math.sqrt(0.25), abs=1e-12)


def test_purify_roundtrip_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        rank = int(rng.integers(1, d + 1))
        rho = random_density(d, rng, rank=rank)
        amp = _purify(rho)
        assert amp.shape == (d, rank)
        assert qcore.trace_distance_of_stack(amp @ amp.conj().T, rho) < 1e-10


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = random_density(4, rng)
        u = qcore.random_isometry(4, 4, rng)
        s1 = qcore.entropy_of_mat(m)
        s2 = qcore.entropy_of_mat(u @ m @ u.conj().T)
        assert abs(s1 - s2) < 1e-10


def _random_stack(rng, count, dim, rank):
    g = rng.standard_normal((count, dim, rank)) + 1j * rng.standard_normal((count, dim, rank))
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def test_entropy_of_stack_matches_entropy_of_mat_bitwise():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3, 4, 8, 9, 16):
        # rank-deficient stacks have zero or slightly negative eigenvalues first
        stacks = [_random_stack(rng, 20, dim, rank) for rank in sorted({1, (dim + 1) // 2, dim})]
        exact = np.zeros((3, dim, dim), dtype=complex)  # exact zeros in the spectrum
        exact[0, 0, 0] = 1.0
        exact[1] = np.eye(dim) / dim
        exact[2, :, :] = 1.0 / dim
        mixed_ranks = np.concatenate(stacks + [exact])
        for mats in stacks + [exact, mixed_ranks]:
            got = qcore.entropy_of_stack(mats)
            want = np.array([qcore.entropy_of_mat(m) for m in mats])
            assert got.tobytes() == want.tobytes()
        got = qcore.entropy_of_stack(mixed_ranks[:12].reshape(3, 4, dim, dim))
        assert got.shape == (3, 4)
        assert got.reshape(-1).tobytes() == np.array(
            [qcore.entropy_of_mat(m) for m in mixed_ranks[:12]]).tobytes()
    # stacks whose rows are all full rank are summed as one group
    for dim in (8, 9, 12, 16, 17, 24, 33):
        full = _random_stack(rng, 24, dim, dim)
        assert (np.linalg.eigvalsh(full)[:, 0] > 0.0).all()
        for mats in (full, full.reshape(4, 6, dim, dim)):
            got = qcore.entropy_of_stack(mats)
            assert got.shape == mats.shape[:-2]
            assert got.reshape(-1).tobytes() == np.array(
                [qcore.entropy_of_mat(m) for m in full]).tobytes()


def test_entropy_of_stack_psd_tolerance():
    ok = np.diag([1.0 + 1e-12, -1e-12])  # within TOL_PSD * n
    bad = np.diag([1.0 + 1e-6, -1e-6])
    assert qcore.entropy_of_stack(ok[np.newaxis])[0] == qcore.entropy_of_mat(ok)
    with pytest.raises(ValueError) as single:
        qcore.entropy_of_mat(bad)
    with pytest.raises(ValueError) as stacked:
        qcore.entropy_of_stack(np.stack([ok, bad, ok]))
    assert str(stacked.value) == str(single.value)


def test_partial_trace_of_stack_matches_each_matrix():
    rng = np.random.default_rng(12)
    mats = _random_stack(rng, 5, 8, 8)
    for keep in ([0], [1, 2], [0, 2], []):
        got = qcore.reduced_density_from_mat(mats, (2, 2, 2), keep)
        want = np.stack([qcore.reduced_density_from_mat(m, (2, 2, 2), keep) for m in mats])
        assert got.tobytes() == want.tobytes()


def _relative_entropy_loop(rho, sigma):
    """One matrix pair in sigma's eigenbasis, one j term at a time: the
    reference that the stacked kernel must reproduce bit for bit."""
    a = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    b, v = np.linalg.eigh(sigma)
    b = np.clip(b, 0.0, None)
    w = (v.conj() * (rho @ v)).sum(axis=0).real  # w[j] = <v_j|rho|v_j>
    term1 = float((a[a > 0] * np.log2(a[a > 0])).sum())
    term2 = 0.0
    for j in range(len(b)):
        if w[j] <= 1e-15:
            continue
        if b[j] <= qcore.TOL_RANK:
            return math.inf
        term2 += w[j] * math.log2(b[j])
    return term1 - term2


def _relative_entropy_two_bases(rho, sigma):
    """One matrix pair from both eigenbases, sum_ij a_i |<u_i|v_j>|^2 log2 b_j:
    the form the kernel must agree with to rounding."""
    a, u = np.linalg.eigh(rho)
    b, v = np.linalg.eigh(sigma)
    a = np.clip(a, 0.0, None)
    b = np.clip(b, 0.0, None)
    overlap = np.abs(u.conj().T @ v) ** 2
    term1 = float((a[a > 0] * np.log2(a[a > 0])).sum())
    term2 = 0.0
    for i in range(len(a)):
        if a[i] <= 0.0:
            continue
        for j in range(len(b)):
            w = a[i] * overlap[i, j]
            if w <= 1e-15:
                continue
            if b[j] <= qcore.TOL_RANK:
                return math.inf
            term2 += w * math.log2(b[j])
    return term1 - term2


def _trace_norm_svd(mat):
    """The sum of the singular values of one matrix: the reference for the
    trace distance's eigenvalue form."""
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def _fidelity_svd(rho, sigma):
    """||sqrt(rho) sqrt(sigma)||_1 of one pair, capped at 1: the reference
    for the fidelity's eigenvalue form."""
    return min(_trace_norm_svd(qcore.psd_sqrt(rho) @ qcore.psd_sqrt(sigma)), 1.0)


def _kernel_stacks(rng, d):
    """Pairs of density stacks mixing full-rank rows, rank-deficient rows and
    exact projectors, so that some relative entropies are infinite."""
    rho = np.concatenate([_random_stack(rng, 6, d, rank) for rank in range(1, d + 1)])
    sig = np.concatenate([_random_stack(rng, 6, d, rank) for rank in range(d, 0, -1)])
    proj = np.zeros((d, d), dtype=complex)
    proj[0, 0] = 1.0
    mixed = np.eye(d) / d
    rho = np.concatenate([rho, [proj, proj, mixed, mixed]])
    sig = np.concatenate([sig, [mixed, proj, proj, _random_stack(rng, 1, d, d)[0]]])
    return rho, sig


def test_stacked_kernels_match_one_matrix_results_bitwise():
    rng = np.random.default_rng(13)
    for d in (2, 3, 4, 6):
        rho, sig = _kernel_stacks(rng, d)
        for stacked in (qcore.fidelity_of_stack, qcore.trace_distance_of_stack,
                        qcore.relative_entropy_of_stack):
            want = np.array([stacked(r, s) for r, s in zip(rho, sig)])
            assert stacked(rho, sig).tobytes() == want.tobytes()
            assert stacked(rho.reshape(2, -1, d, d), sig.reshape(2, -1, d, d)).reshape(-1) \
                .tobytes() == want.tobytes()
        rel = qcore.relative_entropy_of_stack(rho, sig)
        assert np.isinf(rel).any() and np.isfinite(rel).any()
        assert rel.tobytes() == np.array(
            [_relative_entropy_loop(r, s) for r, s in zip(rho, sig)]).tobytes()
        roots = qcore.psd_sqrt(rho)
        for root, r in zip(roots, rho):
            assert root.tobytes() == qcore.psd_sqrt(r).tobytes()


def test_relative_entropy_matches_the_two_basis_form():
    rng = np.random.default_rng(14)
    for d in (2, 3, 4, 6):
        rho, sig = _kernel_stacks(rng, d)
        for a, b in ((rho, sig), (sig, rho)):
            want = np.array([_relative_entropy_two_bases(r, s) for r, s in zip(a, b)])
            for spectra in (None, qcore.density_problems(a)[1]):
                got = qcore.relative_entropy_of_stack(a, b, spectra)
                assert (np.isinf(got) == np.isinf(want)).all()
                fin = np.isfinite(want)
                assert np.abs(got[fin] - want[fin]).max() < 1e-12


def test_eigenvalue_kernels_match_svd_references():
    rng = np.random.default_rng(15)
    for d in (2, 3, 4, 6, 9):
        rho, sig = _kernel_stacks(rng, d)
        for a, b in ((rho, sig), (sig, rho)):
            fid = qcore.fidelity_of_stack(a, b)
            dist = qcore.trace_distance_of_stack(a, b)
            assert np.abs(fid - [_fidelity_svd(r, s) for r, s in zip(a, b)]).max() < 1e-12
            assert np.abs(dist - [0.5 * _trace_norm_svd(r - s) for r, s in zip(a, b)]).max() < 1e-12


def test_density_problems_spectra_give_the_entropies():
    rng = np.random.default_rng(16)
    for d in (1, 2, 3, 4, 8, 9):
        rho = np.concatenate([_random_stack(rng, 10, d, rank) for rank in range(1, d + 1)])
        problems, spectra = qcore.density_problems(rho.reshape(2, -1, d, d))
        assert problems == [None] * len(rho) and spectra.shape == (2, len(rho) // 2, d)
        got = qcore.entropy_of_spectra(spectra).reshape(-1)
        assert np.abs(got - qcore.entropy_of_stack(rho)).max() < 1e-12
        herm = (rho + rho.conj().swapaxes(-1, -2)) / 2  # exactly Hermitian
        got = qcore.entropy_of_spectra(qcore.density_problems(herm)[1])
        assert got.tobytes() == qcore.entropy_of_stack(herm).tobytes()
    nan = np.eye(2) / 2
    nan[0, 0] = np.nan
    assert np.isnan(qcore.density_problems(np.stack([nan, np.eye(2) / 2]))[1][0]).all()


def _phase_fix_loop(vecs):
    """One column at a time: the reference for the stacked phase fix."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if len(nz):
            ph = col[nz[0]] / abs(col[nz[0]])
            out[:, j] = col * ph.conjugate()
    return out


def _purify_loop(rho):
    """One matrix at a time: the reference for the padded purification stack."""
    lam, vec = qcore.sorted_eigh(rho)
    lam = np.clip(lam, 0.0, None)
    rank = max(np.count_nonzero(lam > qcore.TOL_RANK), 1)
    return vec[:, :rank] * np.sqrt(lam[:rank] / lam[:rank].sum())


def test_stacked_draws_and_purifications_match_lone_results_bitwise():
    rng = np.random.default_rng(14)
    for d in (1, 2, 3, 4, 7, 9):
        g = qcore.ginibre((12, d, d), rng)
        g[0, 0, :-1] = 0.0  # columns whose first entry is exactly zero
        g[1, :, 0] = 1e-13  # a column with no entry above 1e-12
        fixed = qcore._phase_fix_columns(g)
        isos = qcore.isometry_from_ginibre(g)
        for k in range(len(g)):
            assert fixed[k].tobytes() == _phase_fix_loop(g[k]).tobytes()
            assert isos[k].tobytes() == qcore.isometry_from_ginibre(g[k]).tobytes()
        drawn = []
        for rank in range(1, d + 1):
            g = qcore.ginibre((8, d, rank), rng)
            rho = qcore.density_from_ginibre(g)
            vals, vecs = qcore.sorted_eigh(rho)
            amps, ranks = qcore.purify_of_stack(rho)
            assert amps.shape == rho.shape and ranks.tolist() == [rank] * len(g)
            # the padding is +0.0, as a zero-padded lone purification's
            assert not amps[:, :, rank:].view(np.uint64).any()
            for k in range(len(g)):
                assert rho[k].tobytes() == qcore.density_from_ginibre(g[k]).tobytes()
                lone_vals, lone_vecs = qcore.sorted_eigh(rho[k])
                assert vals[k].tobytes() == lone_vals.tobytes()
                assert vecs[k].tobytes() == lone_vecs.tobytes()
                assert amps[k, :, :rank].tobytes() == _purify_loop(rho[k]).tobytes()
            drawn.append(rho)
        # one stack of every rank, interleaved
        rho = rng.permutation(np.concatenate(drawn))
        amps, ranks = qcore.purify_of_stack(rho)
        for k, rank in enumerate(ranks.tolist()):
            assert amps[k, :, :rank].tobytes() == _purify_loop(rho[k]).tobytes()
            assert not amps[k, :, rank:].view(np.uint64).any()


def test_psd_sqrt_cutoff_is_per_matrix():
    # against the largest eigenvalue of the whole stack, 1e-14 would zero the
    # second matrix entirely
    stack = np.array([np.diag([1.0, 0.0]), np.diag([1e-20, 1e-21])], dtype=complex)
    roots = qcore.psd_sqrt(stack)
    assert roots[1].tobytes() == qcore.psd_sqrt(stack[1]).tobytes()
    assert roots[1][1, 1].real == pytest.approx(math.sqrt(1e-21), rel=1e-12)


def test_density_problems_match_density_operator_messages():
    good = np.eye(3, dtype=complex) / 3
    skew = good.copy()
    skew[0, 1] = 0.1  # not Hermitian
    nan = good.copy()
    nan[1, 1] = np.nan
    bad = [skew, np.eye(3) / 2, nan, np.diag([1.5, -0.25, -0.25])]
    messages = []
    for mat in bad:
        with pytest.raises(ValueError) as lone:
            dm(mat, [("A", 3)])
        messages.append(str(lone.value))
        assert qcore.density_problems(np.stack([good, mat, good]))[0] == [None, messages[-1], None]
    assert messages[2] == "non-finite entries in density matrix"
    mixed = np.stack([good] + bad + [good]).reshape(2, 3, 3, 3)
    assert qcore.density_problems(mixed)[0] == [None] + messages + [None]


# --- inequality property suites (small count here; the selftest runs 1000) ---

def _pair(rng, d):
    return random_density(d, rng), random_density(d, rng)


def test_fuchs_van_de_graaf_random():
    rng = np.random.default_rng(101)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        rho, sig = _pair(rng, d)
        f = qcore.fidelity_of_stack(rho, sig)
        t = qcore.trace_distance_of_stack(rho, sig)
        assert 1 - f <= t + 1e-9
        assert t <= math.sqrt(max(1 - f * f, 0.0)) + 1e-9


def test_pinsker_random():
    rng = np.random.default_rng(102)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        rho, sig = _pair(rng, d)
        rel = qcore.relative_entropy_of_stack(rho, sig)
        assert 2 * qcore.trace_distance_of_stack(rho, sig) <= math.sqrt(2 * math.log(2) * rel) + 1e-9


def test_fannes_audenaert_random():
    rng = np.random.default_rng(103)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        rho, sig = _pair(rng, d)
        eps = qcore.trace_distance_of_stack(rho, sig)
        gap = abs(qcore.entropy_of_mat(rho) - qcore.entropy_of_mat(sig))
        assert gap <= eps * math.log2(d) + qcore.binary_entropy(min(eps, 1.0)) + 1e-9


def test_alicki_fannes_winter_random():
    rng = np.random.default_rng(104)
    for _ in range(200):
        da, db = 2, int(rng.integers(2, 4))
        rho = random_density(da * db, rng)
        sig = random_density(da * db, rng)
        eps = qcore.trace_distance_of_stack(rho, sig)
        gap = abs(_conditional_entropy(rho, (da, db), 1) - _conditional_entropy(sig, (da, db), 1))
        assert gap <= 2 * eps * math.log2(da) + 2 * qcore.binary_entropy(min(eps, 1.0)) + 1e-9


def test_relative_entropy_infinite_on_support_mismatch():
    assert qcore.relative_entropy_of_stack(np.eye(2) / 2, np.diag([1.0, 0.0])) == math.inf


def test_density_operator_validation():
    with pytest.raises(ValueError):
        dm(np.diag([0.7, 0.7]), [("A", 2)])  # trace 1.4
    with pytest.raises(ValueError):
        dm(np.diag([1.5, -0.5]), [("A", 2)])  # negative eigenvalue
    with pytest.raises(ValueError):
        dm(np.eye(3) / 3, [("A", 2)])  # dims mismatch


def test_isometry_validation():
    from cqrate.qcore import Isometry
    with pytest.raises(ValueError):
        Isometry(np.array([[1.0, 0.0], [0.0, 0.5]]), (2,), (2,))
    with pytest.raises(ValueError):
        Isometry(np.ones((1, 2)), (2,), (1,))
    with pytest.raises(ValueError, match="non-positive dimension"):
        Isometry(np.eye(2), (2,), (-2, -1))  # the right product from a negative pair


def test_records_holding_arrays_compare_by_identity():
    # a record equals only itself: `==` and hashing must not touch its arrays
    from cqrate.idelta import IdeltaResult
    from cqrate.qcore import Isometry
    from cqrate.reference import source_a

    def iso():
        return Isometry(np.eye(2), (2,), (2,))

    makers = (source_a,
              lambda: dm(np.eye(2) / 2, [("A", 2)]),
              iso,
              lambda: IdeltaResult(0.0, 1.0, 0.0, iso(), 1))
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2
