import collections
import contextlib
import dataclasses
import io

import numpy as np
import pytest

from conftest import mix_with_maximally_mixed, random_source
from cqrate import cli, idelta, qcore, selftest, source
from cqrate.errors import InternalError


def test_run_selftest_unknown_suite():
    with pytest.raises(ValueError, match="unknown suites"):
        selftest.run_selftest(suites=["bogus"])


def test_suite_result_shape():
    res = selftest.suite_fvdg(seed=0, count=20)
    assert res.name == "fvdg"
    assert res.checks == 20
    assert res.passed
    d = res.as_dict()
    assert set(d) == {"name", "checks", "violations", "passed", "details"}


def test_suites_deterministic():
    r1 = selftest.suite_pinsker(seed=5, count=50)
    r2 = selftest.suite_pinsker(seed=5, count=50)
    assert r1 == r2


def test_run_selftest_subset():
    results = selftest.run_selftest(seed=0, suites=["fannes", "ssa"])
    assert [r.name for r in results] == ["fannes", "ssa"]
    assert all(r.passed for r in results)


def test_suite_ssa_reports_an_internal_error_as_a_violation(monkeypatch):
    def broken(*args, **kwargs):
        raise InternalError("conditional mutual information -1 violates strong subadditivity")

    monkeypatch.setattr(qcore, "check_ssa", broken)
    res = selftest.suite_ssa(seed=0, count=3)
    assert res.violations == 3
    assert "strong subadditivity" in res.details[0]


def test_a_state_derived_in_a_suite_that_fails_validation_is_a_violation(monkeypatch):
    # a purify that doubles its amplitudes makes the round trip's state trace 4:
    # a fault inside the suite, reported per instance and as exit 1, not as an
    # input error (exit 2)
    purify = qcore.purify_of_stack

    def doubled(mats):
        amps, ranks = purify(mats)
        return 2.0 * amps, ranks

    monkeypatch.setattr(qcore, "purify_of_stack", doubled)
    res = selftest.suite_purify(seed=0, count=20)
    assert res.violations == 20
    assert res.details[0].startswith("instance 0: density matrix trace 3.99")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["selftest", "--suite", "purify", "--seed", "0"])
    assert rc == 1
    assert "suite purify: 1000 checks, 1000 violations - FAIL" in out.getvalue()
    assert out.getvalue().endswith("selftest: FAIL (1000 checks, seed 0)\n")


# The stacked suites as selftest builds them: name -> (key, draw, evaluate).
STACKED = {
    "fvdg": (1, selftest._draw_pair, selftest._fvdg),
    "pinsker": (2, selftest._draw_pair, selftest._pinsker),
    "fannes": (3, selftest._draw_pair, selftest._fannes),
    "afw": (4, selftest._draw_bipartite_pair, selftest._afw),
    "ssa": (5, selftest._draw_tripartite, selftest._ssa),
    "purify": (6, selftest._draw_purify, selftest._purify),
}


def _ginibre_two_calls(shape, rng):
    """A Ginibre draw as two calls: the real parts, then the imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pair(rng):
    d = int(rng.integers(2, 5))
    return d, [_ginibre_two_calls((d, d), rng) for _ in range(2)]


def _bipartite_pair(rng):
    da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    return (da, db), [_ginibre_two_calls((da * db, da * db), rng) for _ in range(2)]


def _tripartite(rng):
    return (2, 2, 2), [_ginibre_two_calls((8, 8), rng)]


def _purify_instance(rng):
    d = int(rng.integers(2, 5))
    rank = int(rng.integers(1, d + 1))
    return (d, rank), [_ginibre_two_calls((d, rank), rng), _ginibre_two_calls((d, d), rng)]


# Each draw helper's instances as successive one-matrix Ginibre draws.
GINIBRE_ORDER = {selftest._draw_pair: _pair, selftest._draw_bipartite_pair: _bipartite_pair,
                 selftest._draw_tripartite: _tripartite, selftest._draw_purify: _purify_instance}


def test_ginibre_draws_the_stream_of_two_calls():
    for shape in [(3,), (2, 5), (4, 3, 3)]:
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        assert qcore.ginibre(shape, a).tobytes() == _ginibre_two_calls(shape, b).tobytes()
        assert a.random() == b.random()
    # the dense branch of the optimizer's random direction (always taken at d = 2)
    g = _ginibre_two_calls((2, 2), np.random.default_rng(5))
    want = (g - g.conj().T) / 2.0
    assert idelta._random_direction(np.random.default_rng(5), 2).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", list(STACKED))
def test_suite_stacks_are_successive_ginibre_draws(monkeypatch, name):
    key, draw, _ = STACKED[name]
    rng = selftest._rng(3, key)
    want = collections.defaultdict(list)
    for _ in range(300):
        group, mats = GINIBRE_ORDER[draw](rng)
        want[group].append(mats)
    for entries in (200, selftest.STACK_ENTRIES):
        monkeypatch.setattr(selftest, "STACK_ENTRIES", entries)
        seen = collections.defaultdict(list)

        def record(group, *stacks):
            seen[group].append(stacks)
            return [None] * len(stacks[0])

        assert selftest._seeded_suite(name, key, draw, record)(3, 300).passed
        assert seen.keys() == want.keys()
        for group, mats in want.items():
            for got, expect in zip(zip(*seen[group]), zip(*mats), strict=True):
                assert np.concatenate(got).tobytes() == np.array(expect).tobytes()
        if entries == 200:
            # every group spans several stacks
            assert min(map(len, seen.values())) > 1


def _problems_by_instance(monkeypatch, name: str, entries: int, count: int = 300):
    """Every instance's problem at SLACK = -1e9, keyed by the instance's drawn
    bits, with stacks of at most `entries` drawn reals; also the suite's result
    and the number of stacks of each group."""
    monkeypatch.setattr(selftest, "SLACK", -1e9)
    monkeypatch.setattr(selftest, "STACK_ENTRIES", entries)
    key, draw, evaluate = STACKED[name]
    problems = {}
    stacks_per_group = collections.Counter()

    def record(group, *stacks):
        found = evaluate(group, *stacks)
        for k, problem in enumerate(found):
            problems[b"".join(s[k].tobytes() for s in stacks)] = problem
        stacks_per_group[group] += 1
        return found

    res = selftest._seeded_suite(name, key, draw, record)(0, count)
    assert res == selftest.SUITES[name](0, count)
    return problems, res, stacks_per_group


@pytest.mark.parametrize("name", ["fvdg", "pinsker", "fannes", "afw"])
def test_stack_grouping_changes_no_bit(monkeypatch, name):
    # at SLACK = -1e9 every instance is a violation and prints its values
    # in full: repr round-trips every bit
    lone, lone_res, lone_stacks = _problems_by_instance(monkeypatch, name, 1)
    assert lone_res.violations == len(lone) == sum(lone_stacks.values()) == 300
    assert all(lone.values())
    for entries in (1_000, selftest.STACK_ENTRIES):
        stacked, res, stacks = _problems_by_instance(monkeypatch, name, entries)
        assert stacked == lone and res == lone_res
        if entries == 1_000:
            # every group spans several stacks
            assert min(stacks.values()) > 1


def test_sandwich_flags_a_generic_i0_that_is_not_zero(monkeypatch):
    # the theorem gives I0 = 0 on SRC-B; a value as small as 1e-9 is a violation
    curve_of = idelta.idelta_curve

    def nudged(src, *args, **kwargs):
        curve = curve_of(src, *args, **kwargs)
        return dataclasses.replace(curve, i0=1e-9) if src.name == "SRC-B" else curve

    monkeypatch.setattr(idelta, "idelta_curve", nudged)
    res = selftest.suite_sandwich(0)
    assert (res.checks, res.violations) == (7502, 1)
    assert res.details == ("SRC-B: I0 estimate 1e-09 is not the theorem's 0",)


def test_sandwich_flags_a_generic_i0_tilde_that_is_not_zero(monkeypatch):
    # the theorem gives I~0 = 0 on SRC-B as well; 1e-9 is a violation
    curve_of = idelta.idelta_curve

    def nudged(src, *args, **kwargs):
        curve = curve_of(src, *args, **kwargs)
        return dataclasses.replace(curve, i0_tilde=1e-9) if src.name == "SRC-B" else curve

    monkeypatch.setattr(idelta, "idelta_curve", nudged)
    res = selftest.suite_sandwich(0)
    assert (res.checks, res.violations) == (7502, 1)
    assert res.details == ("SRC-B: I~0 estimate 1e-09 is not the theorem's 0",)


def _transfer_sources(seed: int, count: int = 100):
    """The transfer suite's sources at `seed` by the one-source path, before
    and after the admixture of I/|B|."""
    rng = selftest._rng(seed, 7)
    pairs = []
    for _ in range(count):
        nx = int(rng.integers(2, 4))
        drawn = random_source(rng, nx, 2, 2)
        pairs.append((drawn, mix_with_maximally_mixed(drawn, selftest.TRANSFER_EPS)))
    return pairs


OPTIMIZER_FREE = ["fvdg", "pinsker", "fannes", "afw", "ssa", "purify", "transfer"]


def test_a_transfer_source_that_fails_the_density_checks_is_its_violation(monkeypatch):
    # a negative admixture -eps makes a mixed state's smallest eigenvalue
    # (1 + eps) lambda - eps/2, negative exactly where lambda < eps / (2 (1 + eps)):
    # put that threshold between the two smallest lambdas of the sources
    lams = [float(np.linalg.eigvalsh(drawn.rho_b)[:, 0].min()) for drawn, _ in _transfer_sources(0)]
    first, second = sorted(lams)[:2]
    cut = (first + second) / 2.0
    checks = selftest.suite_transfer(0).checks
    monkeypatch.setattr(selftest, "TRANSFER_EPS", -2.0 * cut / (1.0 - 2.0 * cut))
    results = {r.name: r for r in selftest.run_selftest(0, OPTIMIZER_FREE)}
    assert list(results) == OPTIMIZER_FREE
    res = results.pop("transfer")
    assert (res.checks, res.violations) == (checks, 1)
    assert res.details[0].startswith(
        f"source {lams.index(first)}: density matrix has negative eigenvalue")
    assert all(r.passed for r in results.values())


def test_a_transfer_source_whose_witness_lacks_full_support_is_its_violation(monkeypatch):
    # with the full-support cutoff between the two smallest lambda0, only the
    # source with the smallest fails it
    lam0 = [source.genericity_report(mixed).lambda0 for _, mixed in _transfer_sources(0)]
    first, second = sorted(lam0)[:2]
    monkeypatch.setattr(source, "TOL_GENERIC", (first + second) / 2.0)
    res = selftest.suite_transfer(0)
    assert res.violations == 1
    assert res.details[0].startswith(f"source {lam0.index(first)}: witness state")
    assert "does not have full support on B" in res.details[0]


@pytest.mark.parametrize("seed", range(10))
def test_stacked_transfer_suite_matches_the_one_source_path(monkeypatch, seed):
    stacked = {}
    evaluate = selftest._transfer_stack

    def record(probs, vecs):
        out = evaluate(probs, vecs)
        for k, p in enumerate(probs):
            stacked[p.tobytes()] = [v[k] for v in out]
        return out

    monkeypatch.setattr(selftest, "_transfer_stack", record)
    assert selftest.suite_transfer(seed).passed
    for _, src in _transfer_sources(seed):
        rep = source.genericity_report(src)
        t = source.transfer_operators(src, rep.witness)
        errs = np.linalg.norm(src.psi[rep.witness] @ t.swapaxes(1, 2) - src.psi, axis=(1, 2))
        problem, witness, lam0, got_errs, got_nrms = stacked.pop(src.probs.tobytes())
        assert problem is None and witness == rep.witness and lam0 == rep.lambda0
        assert np.max(np.abs(got_errs - errs)) <= 1e-12
        assert np.max(np.abs(got_nrms - qcore.operator_norm(t))) <= 1e-12
    assert not stacked


def test_the_transfer_suite_obeys_the_stack_cap(monkeypatch):
    want = selftest.suite_transfer(0)
    sizes = collections.defaultdict(list)  # |X| -> sources per evaluated stack
    evaluate = selftest._transfer_stack

    def record(probs, vecs):
        sizes[probs.shape[1]].append(len(probs))
        return evaluate(probs, vecs)

    monkeypatch.setattr(selftest, "_transfer_stack", record)
    monkeypatch.setattr(selftest, "STACK_ENTRIES", 60)
    assert selftest.suite_transfer(0) == want
    # a source draws |X| probabilities and |X| amplitude vectors of length 4
    assert all(n <= 60 // (5 * nx) for nx, ns in sizes.items() for n in ns)
    assert max(map(len, sizes.values())) > 1
