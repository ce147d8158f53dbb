import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import per_sequence_evaluate, per_sequence_outputs, random_code_doc, random_source
from cqrate import codes, qcore, source
from cqrate.errors import DimensionCapError, SpecError
from cqrate.qcore import DensityOperator, LabeledVector

SPECS = Path(__file__).resolve().parent.parent / "specs"


def _clamp_note(eps: float) -> str:
    return f"epsilon {eps} outside [0, 1/6]: binary entropy argument clamped"


def test_identity_code_exact(src_a, src_b):
    for src, n in [(src_a, 1), (src_a, 2), (src_b, 1), (src_b, 2)]:
        code = codes.identity_code(src, n)
        rep = codes.average_fidelity(src, code)
        assert rep.avg_fidelity == 1.0
        assert rep.epsilon == 0.0
        dec = codes.decoupling_cmi(src, code)
        assert dec.cmi == 0.0
        assert dec.passed


def test_identity_code_rates(src_b):
    code = codes.identity_code(src_b, 2)
    assert code.rate_x == pytest.approx(1.0)
    assert code.rate_b == pytest.approx(1.0)


def test_truncation_full_rank_is_identity_like(src_b):
    code = codes.truncation_code(src_b, 1, 2)
    assert codes.average_fidelity(src_b, code).avg_fidelity == 1.0


def test_truncation_src_b_rank1(src_b):
    # keep only the 3/4 eigenvector of omega^B = diag(3/4, 1/4):
    # x = 0 (Phi+): decoder outputs |0><0| ⊗ I/2 against Phi+ -> F = 1/2;
    # x = 1 (|00>): perfect -> F = 1; average 3/4
    code = codes.truncation_code(src_b, 1, 1)
    rep = codes.average_fidelity(src_b, code)
    assert rep.avg_fidelity == pytest.approx(0.75, abs=1e-12)
    per = {xs: f for xs, _, f in rep.per_sequence}
    assert per[(0,)] == pytest.approx(0.5, abs=1e-12)
    assert per[(1,)] == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < rep.avg_fidelity < 1.0


def test_truncation_rank_validation(src_b):
    with pytest.raises(SpecError):
        codes.truncation_code(src_b, 1, 0)
    with pytest.raises(SpecError):
        codes.truncation_code(src_b, 1, 5)


def test_per_sequence_sum_matches_average(src_b):
    code = codes.truncation_code(src_b, 2, 2)
    rep = codes.average_fidelity(src_b, code)
    total = sum(w * f for _, w, f in rep.per_sequence)
    assert rep.avg_fidelity == pytest.approx(total, abs=1e-10)
    dec = codes.decoupling_cmi(src_b, code)
    assert dec.fidelity == rep
    assert dec.warnings == (_clamp_note(rep.epsilon),)  # eps > 1/6


def test_truncation_fidelity_monotone_in_rank(src_b):
    # not asserted in general, but holds on this source
    fids = []
    for r in (1, 2):
        code = codes.truncation_code(src_b, 1, r)
        fids.append(codes.average_fidelity(src_b, code).avg_fidelity)
    assert fids[0] <= fids[1]


def test_delta_n_eps_values():
    assert codes.delta_n_eps(1, 0.0, 2, 2) == 0.0
    assert codes.delta_n_eps(1, 1 / 6, 2, 2) == pytest.approx(8.0, abs=1e-12)
    assert codes.delta_n_eps(7, 1 / 6, 2, 2) == pytest.approx(8.0, abs=1e-12)  # h(1) = 0
    # second term halves when n doubles, first term unchanged
    d1 = codes.delta_n_eps(1, 0.1, 2, 2)
    d2 = codes.delta_n_eps(2, 0.1, 2, 2)
    first = 4 * np.sqrt(0.6) * 2
    assert d1 - first == pytest.approx(2 * (d2 - first), abs=1e-12)


def test_delta_n_eps_domain_warning(src_b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = codes.delta_n_eps(1, 0.25, 2, 2)
        dec = codes.decoupling_cmi(src_b, codes.truncation_code(src_b, 1, 1))
    assert val == pytest.approx(4 * np.sqrt(1.5) * 2, abs=1e-12)  # h clamped to h(1) = 0
    assert dec.fidelity.epsilon == pytest.approx(0.25, abs=1e-12)
    assert dec.bound == codes.delta_n_eps(1, dec.fidelity.epsilon, 2, 2)
    assert dec.warnings == (_clamp_note(dec.fidelity.epsilon),)


def test_decoupling_truncation_passes(src_a, src_b):
    clamped = 0
    for src, n, r in [(src_a, 1, 1), (src_b, 1, 1), (src_b, 2, 1), (src_b, 2, 3)]:
        code = codes.truncation_code(src, n, r)
        dec = codes.decoupling_cmi(src, code)
        assert dec.cmi <= dec.bound + 1e-8
        eps = dec.fidelity.epsilon
        assert dec.warnings == ((_clamp_note(eps),) if eps > 1 / 6 else ())
        clamped += bool(dec.warnings)
    assert clamped > 0


def test_decoupling_adversarial_replace_code(src_a):
    # decoder discards C_B and outputs a fixed |0>: eps = 1/2, large slack
    m = np.zeros((4, 2), dtype=complex)
    for b in range(2):
        m[b, b] = 1.0  # |b>_CB -> |0>_Bhat |b>_WD
    doc = {"n": 1,
           "U_X": {"matrix": np.eye(2).tolist(), "dims": {"C_X": 2, "W_X": 1}},
           "U_B": {"matrix": np.eye(2).tolist(), "dims": {"C_B": 2, "W_B": 1}},
           "V": {"matrix": np.kron(np.eye(2), m).tolist(), "dims": {"W_D": 2}}}
    code = codes.load_code(doc, src_a)
    rep = codes.average_fidelity(src_a, code)
    assert rep.avg_fidelity == pytest.approx(0.5, abs=1e-12)
    dec = codes.decoupling_cmi(src_a, code)
    assert dec.warnings == (_clamp_note(rep.epsilon),)
    assert dec.passed
    assert dec.bound > dec.cmi + 1.0  # bound grows much faster than the CMI


def test_assisted_k1_matches_unassisted_bitwise(src_b):
    una = codes.identity_code(src_b, 1)
    asst = codes.BlockCode(una.n, una.u_x, una.u_b, una.v, k=1, l=1, mode="assisted")
    r1 = codes.average_fidelity(src_b, una)
    r2 = codes.average_fidelity(src_b, asst)
    assert r1.avg_fidelity == r2.avg_fidelity
    assert r1.per_sequence == r2.per_sequence
    assert codes.decoupling_cmi(src_b, una).cmi == codes.decoupling_cmi(src_b, asst).cmi


def test_assisted_passthrough_k2(src_a):
    # entanglement passed through untouched: B0 -> B0', D0 -> D0' via the decoder
    ub = np.eye(4, dtype=complex)  # (Bn, B0) -> (CB = Bn⊗B0 relabeled..., B0p, WB)
    # U_B: B ⊗ B0 -> C_B(2) ⊗ B0'(2) ⊗ W_B(1), identity relabeling
    doc = {"n": 1, "K": 2, "L": 2, "mode": "assisted",
           "U_X": {"matrix": np.eye(2).tolist(), "dims": {"C_X": 2, "W_X": 1}},
           "U_B": {"matrix": ub.tolist(), "dims": {"C_B": 2, "W_B": 1}},
           "V": {"matrix": np.eye(8).tolist(), "dims": {"W_D": 1}}}
    # V: (C_X 2, C_B 2, D0 2) -> (Xhat 2, Bhat 2, D0p 2, WD 1) identity relabeling
    code = codes.load_code(doc, src_a)
    rep = codes.average_fidelity(src_a, code)
    assert rep.avg_fidelity == 1.0
    dec = codes.decoupling_cmi(src_a, code)
    assert dec.cmi == 0.0 and dec.passed


def test_block_length_cap(src_b):
    with pytest.raises(DimensionCapError):
        codes.identity_code(src_b, 3)


def test_load_code_builders(src_b):
    code = codes.load_code({"builder": "identity", "n": 2}, src_b)
    assert code.n == 2
    code = codes.load_code({"builder": "truncation", "n": 1, "rank": 1}, src_b)
    assert code.u_b.out_dims[0] == 1
    with pytest.raises(SpecError):
        codes.load_code({"builder": "nope"}, src_b)
    with pytest.raises(SpecError):
        codes.load_code({"builder": "truncation", "n": 1}, src_b)


def test_load_code_explicit_validation(src_a):
    with pytest.raises(SpecError):
        codes.load_code({"n": 1, "U_X": {"matrix": [[1]], "dims": {}}}, src_a)
    bad = {"n": 1,
           "U_X": {"matrix": [[1, 0], [0, 0.5]], "dims": {"C_X": 2, "W_X": 1}},
           "U_B": {"matrix": np.eye(2).tolist(), "dims": {"C_B": 2, "W_B": 1}},
           "V": {"matrix": np.eye(4).tolist(), "dims": {"W_D": 1}}}
    with pytest.raises(SpecError, match="isometry|invalid"):
        codes.load_code(bad, src_a)


def test_builders_check_the_block_length_before_forming_it(src_b):
    for build in (codes.identity_code, lambda src, n: codes.truncation_code(src, n, 1)):
        for n in (0, -1):
            with pytest.raises(SpecError, match="block length"):
                build(src_b, n)
        with pytest.raises(DimensionCapError):
            build(src_b, 3)
        with pytest.raises(DimensionCapError):
            build(src_b, 10 ** 18)  # no |B|^n or |X|^n is formed


def _random_code(src, n: int, assisted: bool, rng: np.random.Generator) -> codes.BlockCode:
    """The code of `random_code_doc`, loaded."""
    return codes.load_code(random_code_doc(src, n, assisted, rng), src)


def _sequences(outputs) -> list:
    """(x^n, weight, the output states' LabeledVector stack, row) of every
    sequence of the chunks that `coded_outputs` yielded, in order."""
    return [(xs, p, lv, row) for chunk, weights, lv in outputs
            for row, (xs, p) in enumerate(zip(chunk, weights))]


@pytest.mark.parametrize("assisted", [False, True], ids=["unassisted", "assisted-k2"])
def test_fidelity_matches_the_dense_reference(src_b, assisted):
    """Each per-sequence fidelity equals F(t, rho) with rho the dense reduced
    state of the kept registers."""
    with open(SPECS / "mixed_example.json") as fh:
        mixed = source.load_source(json.load(fh))
    rng = np.random.default_rng(3)
    kept = ["Xhat", "Bhat", "D0p", "B0p", "Rn"]  # in coded-output order
    for src in (src_b, mixed):
        for n in (1, 2):
            code = _random_code(src, n, assisted, rng)
            rep = codes.average_fidelity(src, code)
            outputs = _sequences(codes.coded_outputs(src, code))
            assert [xs for xs, _, _ in rep.per_sequence] == [xs for xs, _, _, _ in outputs]
            nxn, dbn, drn = (d ** n for d in (src.alphabet_size, src.dim_b, src.dim_r))
            phi_l = np.eye(code.l, dtype=complex).reshape(-1) / np.sqrt(code.l)
            for i, ((xs, _, f), (_, _, lv, row)) in enumerate(zip(rep.per_sequence, outputs)):
                pairs = [(lbl, d) for lbl, d in zip(lv.labels, lv.dims) if lbl in kept]
                rho = DensityOperator(lv.reduced(kept)[row], pairs)
                ket_x = np.eye(1, nxn, i, dtype=complex)[0]
                target = LabeledVector(
                    np.kron(np.kron(ket_x, source.sequence_state(src, xs)), phi_l),
                    [("Xhat", nxn), ("Bhat", dbn), ("Rn", drn), ("B0p", code.l), ("D0p", code.l)])
                t = target.reorder(kept).vecs[0]
                ref = math.sqrt(min(max(np.vdot(t, rho.mat @ t).real, 0.0), 1.0))
                assert abs(f - ref) <= 1e-12, (src.name, n, xs)


def test_coded_outputs_enumerate_sequences_in_basis_order():
    """On a 3-symbol source at n = 2, the identity code's outputs come in
    itertools.product order, and the classical copy of x^n is |3·x_1 + x_2>."""
    src = random_source(np.random.default_rng(4), 3, 2, 2)
    outputs = _sequences(codes.coded_outputs(src, codes.identity_code(src, 2)))
    assert [xs for xs, _, _, _ in outputs] == [(x1, x2) for x1 in range(3) for x2 in range(3)]
    for xs, _, lv, row in outputs:
        i = 3 * xs[0] + xs[1]
        assert np.allclose(lv.reduced(["Xhat"])[row], np.outer(np.eye(9)[i], np.eye(9)[i]),
                           atol=1e-12), xs


def _reference_sources() -> list:
    """The four specs and a seeded 3-symbol random source (9 sequences at n = 2)."""
    srcs = []
    for name in ("src_a", "src_b", "src_c", "mixed_example"):
        with open(SPECS / f"{name}.json") as fh:
            srcs.append(source.load_source(json.load(fh)))
    return srcs + [random_source(np.random.default_rng(5), 3, 2, 2)]


# STACK_ENTRIES as a function of one output's amplitudes and |X|^n: one
# sequence per chunk (a cap below one output), an uneven split (4 + 4 + 1 of
# nine sequences, 3 + 1 of four, 2 + 1 of three, 1 + 1 of two) and the default.
CHUNKINGS = {"one-per-chunk": lambda amps, nxn: 1,
             "uneven": lambda amps, nxn: {2: 1, 3: 2, 4: 3, 9: 4}[nxn] * amps,
             "default": lambda amps, nxn: qcore.STACK_ENTRIES}


@pytest.mark.parametrize("chunking", list(CHUNKINGS))
@pytest.mark.parametrize("assisted", [False, True], ids=["unassisted", "assisted-k2"])
@pytest.mark.parametrize("n", [1, 2])
def test_chunked_walk_matches_the_per_sequence_walk(monkeypatch, n, assisted, chunking):
    """The chunked coded outputs, fidelities, average fidelity and CMI equal
    the per-sequence walk's bit for bit, whatever the chunks; no chunk holds
    more than STACK_ENTRIES amplitudes unless it is one sequence."""
    rng = np.random.default_rng(17)
    for src in _reference_sources():
        code = _random_code(src, n, assisted, rng)
        nxn = src.alphabet_size ** n
        reference = list(per_sequence_outputs(src, code))
        amps = reference[0][2].size
        cap = CHUNKINGS[chunking](amps, nxn)
        monkeypatch.setattr(qcore, "STACK_ENTRIES", cap)
        chunks = list(codes.coded_outputs(src, code))
        for chunk, weights, lv in chunks:
            assert len(chunk) == len(weights) == len(lv.vecs) >= 1
            assert lv.vecs.size <= cap or len(chunk) == 1
        assert len(chunks) == -(-nxn // max(cap // amps, 1))
        for (xs, p, lv, row), (xs_ref, p_ref, vec, labels, dims) in zip(
                _sequences(chunks), reference, strict=True):
            assert (xs, p, list(lv.labels), list(lv.dims)) == (xs_ref, p_ref, labels, dims)
            assert lv.vecs[row].tobytes() == vec.tobytes(), (src.name, xs)
        rows, avg, cmi = per_sequence_evaluate(src, code)
        rep = codes.decoupling_cmi(src, code)
        assert rep.fidelity.per_sequence == tuple(rows), src.name
        assert (rep.fidelity.avg_fidelity, rep.cmi) == (avg, cmi), src.name


def test_decoupling_cmi_memory_peak(src_c):
    """The kept registers of src_c at n = 2, K = L = 2 span 1024 dimensions;
    the evaluation must not form their density matrix."""
    code = _random_code(src_c, 2, True, np.random.default_rng(0))
    tracemalloc.start()
    try:
        codes.decoupling_cmi(src_c, code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
