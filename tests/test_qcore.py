import math

import numpy as np
import pytest

from cqrate import qcore
from cqrate.qcore import DensityOperator, DimsSpec, PureState
from cqrate.source import cq_state_xb

H14 = 0.8112781244591328  # binary entropy at 1/4, frozen from 30-digit arithmetic
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def dm(mat, pairs):
    return DensityOperator(mat, DimsSpec(pairs))


def test_partial_trace_maximally_entangled():
    rho = dm(np.outer(PHI_PLUS, PHI_PLUS.conj()), [("B", 2), ("R", 2)])
    red = qcore.partial_trace(rho, ["B"])
    assert np.allclose(red.mat, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product():
    rho = dm(np.diag([0.0, 1.0, 0.0, 0.0]), [("A", 2), ("B", 2)])  # |0><0| ⊗ |1><1|
    red = qcore.partial_trace(rho, ["A"])
    assert np.allclose(red.mat, np.diag([1.0, 0.0]), atol=1e-12)


def test_partial_trace_cq_source(src_b):
    omega = cq_state_xb(src_b)
    red = qcore.partial_trace(omega, ["X"])
    assert np.allclose(red.mat, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_trace_label_errors():
    rho = dm(np.eye(4) / 4, [("A", 2), ("B", 2)])
    with pytest.raises(KeyError):
        qcore.partial_trace(rho, ["Z"])


def test_entropy_examples():
    assert qcore.von_neumann_entropy(dm(np.eye(2) / 2, [("A", 2)])) == pytest.approx(1.0, abs=1e-12)
    assert qcore.von_neumann_entropy(dm(np.diag([1.0, 0.0]), [("A", 2)])) == 0.0
    got = qcore.von_neumann_entropy(dm(np.diag([0.75, 0.25]), [("A", 2)]))
    assert got == pytest.approx(H14, abs=1e-12)


def test_entropy_rejects_non_hermitian():
    with pytest.raises(ValueError):
        dm(np.array([[0.5, 0.5], [0.0, 0.5]]), [("A", 2)])


def test_conditional_entropy_product():
    sa = np.diag([0.75, 0.25])
    rho = dm(np.kron(sa, np.eye(2) / 2), [("A", 2), ("B", 2)])
    assert qcore.conditional_entropy(rho, ["A"], ["B"]) == pytest.approx(H14, abs=1e-10)


def test_conditional_entropy_entangled_negative():
    rho = dm(np.outer(PHI_PLUS, PHI_PLUS.conj()), [("A", 2), ("B", 2)])
    assert qcore.conditional_entropy(rho, ["A"], ["B"]) == pytest.approx(-1.0, abs=1e-10)


def test_conditional_entropy_cq_source(src_b):
    omega = cq_state_xb(src_b)
    assert qcore.conditional_entropy(omega, ["B"], ["X"]) == pytest.approx(0.5, abs=1e-10)


def test_overlapping_labels_rejected():
    rho = dm(np.eye(4) / 4, [("A", 2), ("B", 2)])
    with pytest.raises(ValueError):
        qcore.conditional_entropy(rho, ["A"], ["A"])
    with pytest.raises(ValueError):
        qcore.mutual_information(rho, ["A", "B"], ["B"])


def test_mutual_information_examples(src_b):
    prod = dm(np.kron(np.diag([0.75, 0.25]), np.eye(2) / 2), [("A", 2), ("B", 2)])
    assert qcore.mutual_information(prod, ["A"], ["B"]) == pytest.approx(0.0, abs=1e-10)
    ent = dm(np.outer(PHI_PLUS, PHI_PLUS.conj()), [("A", 2), ("B", 2)])
    assert qcore.mutual_information(ent, ["A"], ["B"]) == pytest.approx(2.0, abs=1e-10)
    omega = cq_state_xb(src_b)
    assert qcore.mutual_information(omega, ["X"], ["B"]) == pytest.approx(
        1.0 + H14 - 1.5, abs=1e-10)


def test_cmi_nonnegative_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        rho = dm(qcore.random_density(8, rng), [("A", 2), ("B", 2), ("C", 2)])
        assert qcore.conditional_mutual_information(rho, ["A"], ["B"], ["C"]) >= -1e-8


def test_fidelity_examples():
    rng = np.random.default_rng(3)
    rho = dm(qcore.random_density(3, rng), [("A", 3)])
    assert qcore.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    k0 = PureState([1, 0], DimsSpec([("A", 2)]))
    k1 = PureState([0, 1], DimsSpec([("A", 2)]))
    assert qcore.fidelity(k0, k1) == 0.0
    mixed = dm(np.eye(2) / 2, [("A", 2)])
    assert qcore.fidelity(mixed, k0) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_fidelity_symmetric_and_pure_consistent():
    rng = np.random.default_rng(11)
    for _ in range(25):
        r1 = dm(qcore.random_density(3, rng), [("A", 3)])
        r2 = dm(qcore.random_density(3, rng), [("A", 3)])
        assert qcore.fidelity(r1, r2) == pytest.approx(qcore.fidelity(r2, r1), abs=1e-9)
        v = qcore.random_pure(3, rng)
        pure = PureState(v, DimsSpec([("A", 3)]))
        # matrix-sqrt path loses ~sqrt(eps) precision on rank-deficient input
        assert qcore.fidelity(r1, pure) == pytest.approx(
            qcore.fidelity(r1, pure.density()), abs=1e-7)


def test_fidelity_dim_mismatch():
    with pytest.raises(ValueError):
        qcore.fidelity(dm(np.eye(2) / 2, [("A", 2)]), dm(np.eye(3) / 3, [("A", 3)]))


def test_trace_distance_and_norms():
    rho = dm(np.diag([0.75, 0.25]), [("A", 2)])
    assert qcore.trace_distance(rho, rho) == 0.0
    assert qcore.operator_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0, abs=1e-12)
    assert qcore.trace_norm(np.diag([1.0, -3.0])) == pytest.approx(4.0, abs=1e-12)


def test_binary_entropy():
    assert qcore.binary_entropy(0.5) == 1.0
    assert qcore.binary_entropy(0.0) == 0.0
    assert qcore.binary_entropy(1.0) == 0.0
    with pytest.raises(ValueError):
        qcore.binary_entropy(1.5)
    with pytest.raises(ValueError):
        qcore.binary_entropy(-0.1)


def test_purify_examples():
    pure_in = dm(np.diag([1.0, 0.0]), [("A", 2)])
    psi = qcore.purify(pure_in)
    assert psi.dims.dim("R") == 1
    assert np.allclose(psi.vec, [1, 0], atol=1e-12)

    mixed = dm(np.eye(2) / 2, [("A", 2)])
    psi = qcore.purify(mixed)
    assert psi.dims.dim("R") == 2
    assert qcore.trace_distance(psi.reduced(["A"]), mixed) < 1e-12

    diag = dm(np.diag([0.75, 0.25]), [("A", 2)])
    psi = qcore.purify(diag)
    # canonical: descending eigenvalues, phase-fixed eigenvectors
    amps = np.abs(psi.vec.reshape(2, 2))
    assert amps[0, 0] == pytest.approx(math.sqrt(0.75), abs=1e-12)
    assert amps[1, 1] == pytest.approx(math.sqrt(0.25), abs=1e-12)


def test_purify_roundtrip_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        rank = int(rng.integers(1, d + 1))
        rho = dm(qcore.random_density(d, rng, rank=rank), [("A", d)])
        psi = qcore.purify(rho)
        assert qcore.trace_distance(psi.reduced(["A"]), rho) < 1e-10


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = qcore.random_density(4, rng)
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


def test_uhlmann_identity_case():
    rng = np.random.default_rng(13)
    rho = dm(qcore.random_density(2, rng), [("A", 2)])
    psi = qcore.purify(rho, ref_label="B")
    v, ach = qcore.uhlmann_isometry(psi, psi, ["A"])
    assert ach == pytest.approx(1.0, abs=1e-9)
    rotated = (np.kron(np.eye(2), v.mat) @ psi.vec)
    assert abs(abs(np.vdot(rotated, psi.vec)) - 1.0) < 1e-9


def test_uhlmann_same_marginal():
    rng = np.random.default_rng(17)
    rho = dm(qcore.random_density(2, rng), [("A", 2)])
    p1 = qcore.purify(rho, ref_label="B")
    # a second purification: rotate the reference
    u = qcore.random_isometry(2, 2, rng)
    p2 = PureState((np.kron(np.eye(2), u) @ p1.vec), DimsSpec([("A", 2), ("C", 2)]))
    _, ach = qcore.uhlmann_isometry(p1, p2, ["A"])
    assert ach == pytest.approx(1.0, abs=1e-9)


def test_uhlmann_commuting_closed_form():
    r1 = dm(np.eye(2) / 2, [("A", 2)])
    r2 = dm(np.diag([0.75, 0.25]), [("A", 2)])
    p1 = qcore.purify(r1, ref_label="B")
    p2 = qcore.purify(r2, ref_label="C")
    _, ach = qcore.uhlmann_isometry(p1, p2, ["A"])
    expect = math.sqrt(3 / 8) + math.sqrt(1 / 8)  # closed form for commuting pair
    assert ach == pytest.approx(expect, abs=1e-9)
    assert ach == pytest.approx(qcore.fidelity(r1, r2), abs=1e-9)


def test_uhlmann_achieves_marginal_fidelity_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        r1 = dm(qcore.random_density(2, rng), [("A", 2)])
        r2 = dm(qcore.random_density(2, rng), [("A", 2)])
        p1 = qcore.purify(r1, ref_label="B")
        p2 = qcore.purify(r2, ref_label="C")
        v, ach = qcore.uhlmann_isometry(p1, p2, ["A"])
        assert ach == pytest.approx(qcore.fidelity(r1, r2), abs=1e-8)
        moved = np.kron(np.eye(2), v.mat) @ p1.vec
        got = abs(np.vdot(
            np.pad(p2.vec.reshape(2, -1), ((0, 0), (0, v.mat.shape[0] - p2.dims.dim("C")))).reshape(-1),
            moved))
        assert got == pytest.approx(ach, abs=1e-8)


# --- inequality property suites (small count here; the selftest runs 1000) ---

def _pair(rng, d):
    return (dm(qcore.random_density(d, rng), [("A", d)]),
            dm(qcore.random_density(d, rng), [("A", d)]))


def test_fuchs_van_de_graaf_random():
    rng = np.random.default_rng(101)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        rho, sig = _pair(rng, d)
        f = qcore.fidelity(rho, sig)
        t = qcore.trace_distance(rho, sig)
        assert 1 - f <= t + 1e-9
        assert t <= math.sqrt(max(1 - f * f, 0.0)) + 1e-9


def test_pinsker_random():
    rng = np.random.default_rng(102)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        rho, sig = _pair(rng, d)
        rel = qcore.relative_entropy(rho, sig)
        assert 2 * qcore.trace_distance(rho, sig) <= math.sqrt(2 * math.log(2) * rel) + 1e-9


def test_fannes_audenaert_random():
    rng = np.random.default_rng(103)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        rho, sig = _pair(rng, d)
        eps = qcore.trace_distance(rho, sig)
        gap = abs(qcore.von_neumann_entropy(rho) - qcore.von_neumann_entropy(sig))
        assert gap <= eps * math.log2(d) + qcore.binary_entropy(min(eps, 1.0)) + 1e-9


def test_alicki_fannes_winter_random():
    rng = np.random.default_rng(104)
    for _ in range(200):
        da, db = 2, int(rng.integers(2, 4))
        spec = [("A", da), ("B", db)]
        rho = dm(qcore.random_density(da * db, rng), spec)
        sig = dm(qcore.random_density(da * db, rng), spec)
        eps = qcore.trace_distance(rho, sig)
        gap = abs(qcore.conditional_entropy(rho, ["A"], ["B"])
                  - qcore.conditional_entropy(sig, ["A"], ["B"]))
        assert gap <= 2 * eps * math.log2(da) + 2 * qcore.binary_entropy(min(eps, 1.0)) + 1e-9


def test_relative_entropy_infinite_on_support_mismatch():
    rho = dm(np.eye(2) / 2, [("A", 2)])
    sig = dm(np.diag([1.0, 0.0]), [("A", 2)])
    assert qcore.relative_entropy(rho, sig) == math.inf


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
        Isometry(np.array([[1.0, 0.0], [0.0, 0.5]]), DimsSpec([("A", 2)]), DimsSpec([("B", 2)]))
    with pytest.raises(ValueError):
        Isometry(np.ones((1, 2)), DimsSpec([("A", 2)]), DimsSpec([("B", 1)]))
