import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    mix_with_maximally_mixed, random_density, random_generic_source, random_pure, random_source,
    source_doc, tensor_sources,
)
from cqrate import qcore, source
from cqrate.errors import SpecError

H14 = 0.8112781244591328


def test_load_source_src_a():
    doc = {"probs": [0.5, 0.5],
           "states": [{"amplitudes": [[1, 0], [0, 0]], "dims": {"B": 2, "R": 1}},
                      {"amplitudes": [[0, 0], [1, 0]], "dims": {"B": 2, "R": 1}}]}
    src = source.load_source(doc)
    assert src.alphabet_size == 2 and src.dim_b == 2 and src.dim_r == 1


def test_load_source_rejects_unnormalized_probs():
    doc = {"probs": [0.5, 0.4],
           "states": [{"amplitudes": [[1, 0], [0, 0]], "dims": {"B": 2, "R": 1}}] * 2}
    with pytest.raises(SpecError, match="not normalized"):
        source.load_source(doc)


def test_load_source_rejects_unnormalized_state():
    doc = {"probs": [1.0],
           "states": [{"amplitudes": [[0.5, 0], [0, 0]], "dims": {"B": 2, "R": 1}}]}
    with pytest.raises(SpecError, match="normalized"):
        source.load_source(doc)


def test_load_source_rejects_non_finite_amplitudes():
    # every comparison with NaN is false, so the norm test alone passes it
    doc = {"probs": [1.0],
           "states": [{"amplitudes": [[math.nan, 0], [0, 0]], "dims": {"B": 2, "R": 1}}]}
    with pytest.raises(SpecError, match="non-finite"):
        source.load_source(doc)


@pytest.mark.parametrize("state", [
    {"amplitudes": [[1, 0]], "dims": {"B": -1, "R": -1}},
    {"amplitudes": [[1, 0], [0, 0]], "dims": {"B": -2, "R": -1}},
    {"amplitudes": [], "dims": {"B": 0, "R": 1}},
], ids=["both-negative", "negative-product-two", "zero-B"])
def test_load_source_rejects_non_positive_dims(state):
    # the length check alone passes these: |B||R| matches the amplitude count
    with pytest.raises(SpecError, match="positive integer dims"):
        source.load_source({"probs": [1.0], "states": [state]})


def test_load_source_src_b_round_trip(src_b):
    doc = source_doc(src_b)
    again = source.load_source(doc)
    assert np.allclose(src_b.psi, again.psi, atol=1e-12)


def test_load_source_malformed():
    with pytest.raises(SpecError):
        source.load_source({"probs": [1.0]})
    with pytest.raises(SpecError):
        source.load_source({"probs": [1.0], "states": [{"bogus": 1}]})
    with pytest.raises(SpecError):
        source.load_source([1, 2, 3])


@pytest.mark.parametrize("state", [
    {"amplitudes": [["x", 0], [0, 0]], "dims": {"B": 2, "R": 1}},
    {"amplitudes": [[1, 0, 0], [0, 0]], "dims": {"B": 2, "R": 1}},
    {"amplitudes": [10 ** 400, 0], "dims": {"B": 2, "R": 1}},
    {"amplitudes": 5, "dims": {"B": 2, "R": 1}},
    {"density": [[1, 0], [0]], "dim": 2},
    {"density": [["x", 0], [0, 1]], "dim": 2},
    {"density": [[10 ** 400, 0], [0, 0]], "dim": 2},
], ids=["amp-text", "amp-triple", "amp-overflow", "amp-number",
        "density-ragged", "density-text", "density-overflow"])
def test_load_source_malformed_complex_entries(state):
    with pytest.raises(SpecError, match="malformed complex entries"):
        source.load_source({"probs": [1.0], "states": [state]})


# Every accepted form of a complex entry with the number it parses to: ints
# round as float() rounds them, and a -0.0 keeps its sign in the part it is in
# (a bare real's imaginary part is +0.0, as in complex(x)).
ACCEPTED_ENTRIES = [
    ([[1, -2], [2 ** 53 + 1, 3 ** 40]], [[1, -2], [float(2 ** 53 + 1), float(3 ** 40)]]),
    ([[0.5, -0.0], [1e-300, -2.5]], [[0.5, complex(-0.0, 0.0)], [1e-300, -2.5]]),
    (np.array([[1 + 2j, complex(-0.0, -0.0)], [complex(0.0, -0.0), -3j]]).tolist(),
     [[1 + 2j, complex(-0.0, -0.0)], [complex(0.0, -0.0), -3j]]),
    ([[[0.6, -0.0], [-0.0, 0.8]], [[1, 2], [0, -0.0]]],
     [[complex(0.6, -0.0), complex(-0.0, 0.8)], [1 + 2j, complex(0.0, -0.0)]]),
    ([[[0.6, -0.0], 0.8, -0.0, (1, 2)]],
     [[complex(0.6, -0.0), 0.8, complex(-0.0, 0.0), 1 + 2j]]),
    ([[0.6, complex(-0.0, 0.8), [0, -0.0]]], [[0.6, complex(-0.0, 0.8), complex(0.0, -0.0)]]),
    ([[[0.6, 0.0], [0.0, -0.8]]], [[0.6, complex(0.0, -0.8)]]),
    ([[]], np.zeros((1, 0))),
]


@pytest.mark.parametrize("rows, want", ACCEPTED_ENTRIES,
                         ids=["ints", "floats", "python-complex", "pairs",
                              "mixed-row", "complex-mixed-row", "amplitude-row", "empty-row"])
def test_parse_complex_matrix_accepted_forms(rows, want):
    got = source._parse_complex_matrix(rows)
    want = np.array(want, dtype=complex)
    assert got.dtype == complex and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows, message", [
    ([[True, 0]], "True is not a number"),
    ([[0, "1"]], "'1' is not a number"),
    ([[[1, False]]], "False is not a number"),
    ([[["0.5", 0]]], "'0.5' is not a number"),
    ([[[1, 0], 1, [0, True]]], "True is not a number"),
], ids=["bool", "string", "pair-bool", "pair-string", "mixed-row-bool"])
def test_parse_complex_matrix_rejects_a_non_number(rows, message):
    with pytest.raises(SpecError) as exc:
        source._parse_complex_matrix(rows)
    assert str(exc.value) == f"malformed complex entries: {message}"


@pytest.mark.parametrize("rows", [
    [[1, 0], [0]],
    [[[1, 0], [0, 1]], [[1, 0]]],
    [[[1, 2, 3]]],
    [[1, [1, 2, 3]]],
    [[[1, 2], [3]]],
    [[[[1, 2], [3, 4]]]],
    [[[1, [2, 3]]]],
    [[10 ** 400]],
    [[[0, 10 ** 400]]],
    [[None]],
    5,
    [5],
], ids=["ragged", "ragged-pairs", "triple", "mixed-row-triple", "short-pair", "deeper",
        "pair-of-list", "overflow", "pair-overflow", "null", "number", "number-row"])
def test_parse_complex_matrix_rejects_malformed_entries(rows):
    with pytest.raises(SpecError, match="^malformed complex entries: "):
        source._parse_complex_matrix(rows)


def test_load_source_density_inputs_purified():
    doc = {"probs": [0.5, 0.5],
           "states": [{"density": [[0.75, 0], [0, 0.25]], "dim": 2},
                      {"density": [[1.0, 0], [0, 0.0]], "dim": 2}]}
    src = source.load_source(doc)
    # R padded to the max rank (2); marginals reproduced
    assert src.dim_r == 2
    assert np.allclose(src.rho_b, [np.diag([0.75, 0.25]), np.diag([1.0, 0.0])], atol=1e-10)


def test_load_source_mixed_amplitude_and_density_dims():
    doc = {"probs": [0.5, 0.5],
           "states": [{"amplitudes": [[1, 0], [0, 0]], "dims": {"B": 2, "R": 1}},
                      {"density": [[0.5, 0], [0, 0.5]], "dim": 2}]}
    src = source.load_source(doc)
    assert src.dim_r == 2  # padded to the purification rank


def test_phase_fixing_deterministic():
    v = np.array([1j, 0, 0, 1j]) / np.sqrt(2)
    src = source.make_source([1.0], [v], 2, 2)
    assert src.psi[0, 0, 0].real > 0
    assert abs(src.psi[0, 0, 0].imag) < 1e-12


# --- entropic profile -------------------------------------------------------

def test_profile_src_a(src_a):
    p = source.entropic_profile(src_a)
    assert p.s_b == pytest.approx(1.0, abs=1e-12)
    assert p.s_b_given_x == pytest.approx(0.0, abs=1e-12)
    assert p.s_xb == pytest.approx(1.0, abs=1e-12)
    assert p.s_x == pytest.approx(1.0, abs=1e-12)
    assert p.s_x_given_b == pytest.approx(0.0, abs=1e-12)
    assert p.i_x_b == pytest.approx(1.0, abs=1e-12)


def test_profile_src_b(src_b):
    p = source.entropic_profile(src_b)
    assert p.s_b == pytest.approx(H14, abs=1e-10)
    assert p.s_b_given_x == pytest.approx(0.5, abs=1e-10)
    assert p.s_xb == pytest.approx(1.5, abs=1e-10)
    assert p.s_x_given_b == pytest.approx(1.5 - H14, abs=1e-10)
    assert p.i_x_b == pytest.approx(H14 - 0.5, abs=1e-10)


def test_profile_src_c(src_c):
    p = source.entropic_profile(src_c)
    assert p.s_b == pytest.approx(2.0, abs=1e-10)
    assert p.s_b_given_x == pytest.approx(1.0, abs=1e-10)
    assert p.i_x_b == pytest.approx(1.0, abs=1e-10)
    assert p.s_xb == pytest.approx(2.0, abs=1e-10)


# each state is (kind, k): an amplitude entry with |R| = k, or a density
# entry of rank min(k, |B|), which load_source purifies and pads
_SPEC_STATE = st.tuples(st.sampled_from(["amplitudes", "density"]), st.integers(1, 3))


def _pairs(values) -> list:
    return [[float(a.real), float(a.imag)] for a in values]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(db=st.integers(1, 3), states=st.lists(_SPEC_STATE, min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_profile_identities_random(db, states, seed):
    rng = np.random.default_rng(seed)
    entries, inputs = [], []
    for kind, k in states:
        if kind == "amplitudes":
            amp = random_pure(db * k, rng)
            entries.append({"amplitudes": _pairs(amp), "dims": {"B": db, "R": k}})
            m = amp.reshape(db, k)
            inputs.append(m @ m.conj().T)
        else:
            rho = random_density(db, rng, rank=min(k, db))
            entries.append({"density": [_pairs(row) for row in rho], "dim": db})
            inputs.append(rho)
    probs = rng.dirichlet(np.ones(len(states)))
    src = source.load_source({"probs": probs.tolist(), "states": entries})
    assert np.max(np.abs(src.rho_b - np.array(inputs))) <= 1e-10

    p = source.entropic_profile(src)
    assert p.s_x_given_b == p.s_xb - p.s_b
    assert p.s_b_given_x == p.s_xb - p.s_x
    assert p.i_x_b == p.s_x + p.s_b - p.s_xb
    assert p.s_x_given_b >= -1e-9 and p.s_b_given_x >= -1e-9
    assert -1e-9 <= p.i_x_b <= min(p.s_x, p.s_b) + 1e-9
    assert p.s_b <= math.log2(db) + 1e-9


# --- genericity -------------------------------------------------------------

def test_genericity_src_a(src_a):
    rep = source.genericity_report(src_a)
    assert rep.lambda_mins == (0.0, 0.0)
    assert not rep.is_generic


def test_genericity_src_b(src_b):
    rep = source.genericity_report(src_b)
    assert rep.witness == 0
    assert rep.lambda0 == pytest.approx(0.5, abs=1e-12)
    assert rep.is_generic


def test_genericity_src_c(src_c):
    rep = source.genericity_report(src_c)
    assert max(rep.lambda_mins) < 1e-12
    assert not rep.is_generic


def test_perturbed_source_always_generic():
    rng = np.random.default_rng(37)
    for _ in range(10):
        src = random_source(rng, nx=2, dim_b=2, dim_r=2)
        mixed = mix_with_maximally_mixed(src, 1e-3)
        assert source.genericity_report(mixed).is_generic


@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.5, 1.0])
def test_mix_with_maximally_mixed_values(src_a, src_c, eps):
    for src in (src_a, src_c):
        mixed = mix_with_maximally_mixed(src, eps)
        db = src.dim_b
        assert mixed.dim_r == db  # src_a's rank-1 states are padded at eps = 0
        want = (1.0 - eps) * src.rho_b + eps * np.eye(db) / db
        assert np.max(np.abs(mixed.rho_b - want)) <= 1e-10


@pytest.mark.parametrize("eps", [-0.5, 3.0])
def test_mix_with_maximally_mixed_rejects_a_non_state(src_c, eps):
    with pytest.raises(ValueError, match="negative eigenvalue"):
        mix_with_maximally_mixed(src_c, eps)


# --- transfer operator ------------------------------------------------------

def test_transfer_identity_on_witness(src_b):
    t = source.transfer_operators(src_b, 0)
    assert t.shape == (2, 2, 2)
    assert np.allclose(t[0], np.eye(2), atol=1e-12)


def test_transfer_src_b(src_b):
    t = source.transfer_operators(src_b, 0)[1]
    lhs = np.kron(np.eye(2), t) @ src_b.psi[0].reshape(-1)
    assert np.linalg.norm(lhs - src_b.psi[1].reshape(-1)) <= 1e-8
    assert qcore.operator_norm(t) <= math.sqrt(2.0) + 1e-8


def test_transfer_requires_full_support(src_a):
    with pytest.raises(ValueError, match="full support"):
        source.transfer_operators(src_a, 0)


def test_transfer_random_generic_sources():
    rng = np.random.default_rng(41)
    for _ in range(20):
        src = random_generic_source(rng, nx=3, dim_b=2, eps=1e-2)
        rep = source.genericity_report(src)
        bound = 1.0 / math.sqrt(rep.lambda0) + 1e-8
        ts = source.transfer_operators(src, rep.witness)
        for x, t in enumerate(ts):
            lhs = np.kron(np.eye(src.dim_b), t) @ src.psi[rep.witness].reshape(-1)
            assert np.linalg.norm(lhs - src.psi[x].reshape(-1)) <= 1e-8
            assert qcore.operator_norm(t) <= bound


def test_transfer_operators_with_a_larger_reference():
    """|R| > |B|: psi_x0 has a proper R-support, off which every T_x vanishes
    and on which T_x0 is the identity."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        src = random_source(rng, nx=3, dim_b=2, dim_r=3)
        rep = source.genericity_report(src)
        x0 = rep.witness
        m0 = src.psi[x0]
        ts = source.transfer_operators(src, x0)
        assert ts.shape == (3, 3, 3)
        for x, t in enumerate(ts):
            assert np.max(np.abs(t - (np.linalg.pinv(m0) @ src.psi[x]).T)) <= 1e-12
            lhs = np.kron(np.eye(src.dim_b), t) @ m0.reshape(-1)
            assert np.linalg.norm(lhs - src.psi[x].reshape(-1)) <= 1e-8
        assert np.all(qcore.operator_norm(ts) <= 1.0 / math.sqrt(rep.lambda0) + 1e-8)
        # the R-support of psi_x0 is the range of m0^T; its complement is the null space of conj(m0)
        _, _, vh = np.linalg.svd(m0.conj())
        kernel = vh[src.dim_b:].conj().T
        assert np.max(np.abs(ts @ kernel)) <= 1e-12
        support = np.linalg.svd(m0.T, full_matrices=False)[0]
        assert np.max(np.abs(ts[x0] - support @ support.conj().T)) <= 1e-12


# --- tensor products --------------------------------------------------------

def test_tensor_sources_profile_adds(src_a, src_b):
    prod = tensor_sources(src_a, src_b)
    pa = source.entropic_profile(src_a)
    pb = source.entropic_profile(src_b)
    pp = source.entropic_profile(prod)
    assert pp.s_b == pytest.approx(pa.s_b + pb.s_b, abs=1e-9)
    assert pp.s_xb == pytest.approx(pa.s_xb + pb.s_xb, abs=1e-9)
    assert pp.i_x_b == pytest.approx(pa.i_x_b + pb.i_x_b, abs=1e-9)


def test_tensor_sources_states_are_krons_bit_for_bit():
    rng = np.random.default_rng(5)
    s1, s2 = random_source(rng, 2, 2, 3), random_source(rng, 3, 2, 2)
    prod = tensor_sources(s1, s2)
    for x1 in range(2):
        for x2 in range(3):  # kron of the (|B|, |R|) matrices groups B1 B2 and R1 R2
            vec = np.kron(s1.psi[x1], s2.psi[x2]).reshape(-1, 1)
            want = qcore._phase_fix_columns(vec).reshape(prod.dim_b, prod.dim_r)
            assert np.array_equal(prod.psi[3 * x1 + x2], want)


def test_tensor_sources_states_normalized(src_b):
    prod = tensor_sources(src_b, src_b)
    assert prod.dim_b == 4 and prod.dim_r == 4 and prod.alphabet_size == 4
    assert np.allclose(np.linalg.norm(prod.psi, axis=(1, 2)), 1.0, atol=1e-10)
