import collections
import contextlib
import dataclasses
import io

import numpy as np
import pytest

from conftest import mix_with_maximally_mixed
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


# The stacked suites as selftest builds them: name -> (key, kind, evaluate).
STACKED = {
    "fvdg": (1, selftest._PAIR, selftest._fvdg),
    "pinsker": (2, selftest._PAIR, selftest._pinsker),
    "fannes": (3, selftest._PAIR, selftest._fannes),
    "afw": (4, selftest._BIPARTITE_PAIR, selftest._afw),
    "ssa": (5, selftest._TRIPARTITE, selftest._ssa),
    "purify": (6, selftest._PURIFY, selftest._purify),
}
STACKS = selftest._stacks


def _ginibre_two_calls(shape, rng):
    """A Ginibre draw as two calls: the real parts, then the imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _purify_keys(rng, count):
    d = rng.integers(2, 5, size=count)
    return list(zip(d.tolist(), rng.integers(1, d + 1).tolist()))


# Each suite's draw: every instance's group from one call, then, group by
# group, each of an instance's arrays for all of the group's instances in
# turn, an array given as its matrices' successive one-matrix Ginibre draws.
PAIR_ORDER = (lambda rng, n: rng.integers(2, 5, size=n).tolist(),
              [lambda rng, d: [_ginibre_two_calls((d, d), rng) for _ in range(2)]])
GINIBRE_ORDER = {
    "fvdg": PAIR_ORDER,
    "pinsker": PAIR_ORDER,
    "fannes": PAIR_ORDER,
    "afw": (lambda rng, n: [tuple(k) for k in rng.integers(2, 4, size=(n, 2)).tolist()],
            [lambda rng, k: [_ginibre_two_calls((k[0] * k[1],) * 2, rng) for _ in range(2)]]),
    "ssa": (lambda rng, n: [(2, 2, 2)] * n, [lambda rng, _: [_ginibre_two_calls((8, 8), rng)]]),
    "purify": (_purify_keys, [lambda rng, k: [_ginibre_two_calls((k[0], k[1]), rng)],
                              lambda rng, k: [_ginibre_two_calls((k[0], k[0]), rng)]]),
}


def _by_group(groups: list) -> dict:
    """The instances of each group, the groups in order of first appearance."""
    members = {}
    for i, group in enumerate(groups):
        members.setdefault(group, []).append(i)
    return members


def test_ginibre_draws_the_stream_of_two_calls():
    for shape in [(3,), (2, 5), (4, 3, 3)]:
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        assert qcore.ginibre(shape, a).tobytes() == _ginibre_two_calls(shape, b).tobytes()
        assert a.random() == b.random()
    # the dense branch of the optimizer's random direction (always taken at d = 2)
    g = _ginibre_two_calls((2, 2), np.random.default_rng(5))
    want = (g - g.conj().T) / 2.0
    assert idelta._random_direction(np.random.default_rng(5), 2).tobytes() == want.tobytes()


def _spy_stacks(monkeypatch, entries: int) -> list:
    """Cap the stacks at `entries` drawn entries and record the (group,
    instance indices, arrays) of every stack that `_stacks` hands on."""
    monkeypatch.setattr(qcore, "STACK_ENTRIES", entries)
    handed = []

    def spy(*args):
        for stack in STACKS(*args):
            handed.append(stack)
            yield stack

    monkeypatch.setattr(selftest, "_stacks", spy)
    return handed


def _spans_several_stacks(handed: list) -> bool:
    return min(collections.Counter(group for group, _, _ in handed).values()) > 1


@pytest.mark.parametrize("name", list(STACKED))
def test_suite_stacks_are_successive_ginibre_draws(monkeypatch, name):
    # the group keys first, then each group's instances in turn, the groups
    # in order of first appearance
    key, kind, _ = STACKED[name]
    draw_keys, draw_arrays = GINIBRE_ORDER[name]
    rng = selftest._rng(3, key)
    members = _by_group(draw_keys(rng, 300))
    want = {i: (group, []) for group, index in members.items() for i in index}
    for group, index in members.items():
        for draw in draw_arrays:
            for i in index:
                want[i][1].extend(draw(rng, group))
    for entries in (200, qcore.STACK_ENTRIES):
        handed = _spy_stacks(monkeypatch, entries)
        seen = []

        def record(group, *stacks):
            seen.append(stacks)
            return [None] * len(stacks[0])

        assert selftest._seeded_suite(name, key, kind, record)(3, 300).passed
        got = {i: (group, [s[row] for s in stacks])
               for (group, index, _), stacks in zip(handed, seen, strict=True)
               for row, i in enumerate(index)}
        assert got.keys() == want.keys()
        for i, (group, mats) in want.items():
            assert got[i][0] == group
            for a, b in zip(got[i][1], mats, strict=True):
                assert a.tobytes() == b.tobytes()
        if entries == 200:
            assert _spans_several_stacks(handed)


@pytest.mark.parametrize("name", list(STACKED) + ["transfer"])
def test_no_instance_bit_depends_on_the_stack_cap(monkeypatch, name):
    count = 100 if name == "transfer" else 300
    bits = {}
    for entries in (200, qcore.STACK_ENTRIES):
        handed = _spy_stacks(monkeypatch, entries)
        assert selftest.SUITES[name](3, count).passed
        bits[entries] = {i: [a[row].tobytes() for a in arrays]
                         for _, index, arrays in handed for row, i in enumerate(index)}
        if entries == 200:
            assert _spans_several_stacks(handed)
    assert len(bits[200]) == count and bits[200] == bits[qcore.STACK_ENTRIES]


def _problems_by_instance(monkeypatch, name: str, entries: int, count: int = 300):
    """Every instance's problem at SLACK = -1e9, keyed by the instance's drawn
    bits, with stacks of at most `entries` drawn reals; also the suite's result
    and the number of stacks of each group."""
    monkeypatch.setattr(selftest, "SLACK", -1e9)
    monkeypatch.setattr(qcore, "STACK_ENTRIES", entries)
    key, kind, evaluate = STACKED[name]
    problems = {}
    stacks_per_group = collections.Counter()

    def record(group, *stacks):
        found = evaluate(group, *stacks)
        for k, problem in enumerate(found):
            problems[b"".join(s[k].tobytes() for s in stacks)] = problem
        stacks_per_group[group] += 1
        return found

    res = selftest._seeded_suite(name, key, kind, record)(0, count)
    assert res == selftest.SUITES[name](0, count)
    return problems, res, stacks_per_group


@pytest.mark.parametrize("name", ["fvdg", "pinsker", "fannes", "afw"])
def test_stack_grouping_changes_no_bit(monkeypatch, name):
    # at SLACK = -1e9 every instance is a violation and prints its values
    # in full: repr round-trips every bit
    lone, lone_res, lone_stacks = _problems_by_instance(monkeypatch, name, 1)
    assert lone_res.violations == len(lone) == sum(lone_stacks.values()) == 300
    assert all(lone.values())
    for entries in (1_000, qcore.STACK_ENTRIES):
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
    and after the admixture of I/|B|.  The |X| of every source come from one
    call; then, |X| by |X| in order of first appearance, each source draws
    its probabilities, and the group its unit amplitude vectors from one
    Ginibre draw."""
    rng = selftest._rng(seed, 7)
    drawn = [None] * count
    for nx, index in _by_group(rng.integers(2, 4, size=count).tolist()).items():
        probs = [(1.0 - nx * 0.1) * rng.dirichlet(np.ones(nx)) + 0.1 for _ in index]
        vecs = qcore.ginibre((len(index), nx, 4), rng)
        vecs = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)
        for i, p, v in zip(index, probs, vecs):
            drawn[i] = source.make_source(p, v, 2, 2, name="random")
    return [(src, mix_with_maximally_mixed(src, selftest.TRANSFER_EPS)) for src in drawn]


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
    monkeypatch.setattr(qcore, "STACK_ENTRIES", 60)
    assert selftest.suite_transfer(0) == want
    # a source draws |X| probabilities and |X| amplitude vectors of length 4
    assert all(n <= 60 // (5 * nx) for nx, ns in sizes.items() for n in ns)
    assert max(map(len, sizes.values())) > 1
