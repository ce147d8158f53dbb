import dataclasses
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import optimize, optimize_unflagged, probe_source
from cqrate import cli, idelta, qcore, region, source
from cqrate.idelta import OptimizerOptions

I_XB_B = 0.3112781244591328  # I(X:B) of SRC-B
SPECS = Path(__file__).resolve().parent.parent / "specs"


def _load(name: str) -> source.CqSource:
    if name == "probe":
        return probe_source()
    with open(SPECS / f"{name}.json") as fh:
        return source.load_source(json.load(fh))


def test_apply_channel_trivial_w(src_b):
    param = idelta.make_channel_param(np.eye(2, dtype=complex), 2, 2, 1)
    sigma, ixw, irwx = idelta.apply_channel(src_b, param)
    assert ixw == pytest.approx(0.0, abs=1e-10)
    assert irwx == pytest.approx(0.0, abs=1e-10)
    assert sigma.labels == ("X", "W", "R")


def test_apply_channel_identity_to_w(src_b):
    param = idelta.make_channel_param(np.eye(2, dtype=complex), 2, 1, 2)
    _, ixw, irwx = idelta.apply_channel(src_b, param)
    assert ixw == pytest.approx(I_XB_B, abs=1e-9)
    assert irwx == pytest.approx(1.0, abs=1e-9)  # psi_0 maximally entangled, psi_1 product


def test_apply_channel_src_c_keep_second_factor(src_c):
    param = idelta.make_channel_param(np.eye(4, dtype=complex), 4, 2, 2)
    _, ixw, irwx = idelta.apply_channel(src_c, param)
    assert ixw == pytest.approx(1.0, abs=1e-9)
    assert irwx == pytest.approx(0.0, abs=1e-9)


def test_apply_channel_certifies_from_sigma_not_the_evaluator(monkeypatch, src_a):
    def garbage(self, v, g):
        return {key: np.full(len(v), 7.5) for key in ("ixw", "irwx", "icw", "icx")}
    monkeypatch.setattr(idelta._Evaluator, "informations", garbage)
    param = idelta.make_channel_param(np.eye(2, dtype=complex), 2, 1, 2)
    _, ixw, irwx = idelta.apply_channel(src_a, param)
    assert ixw == pytest.approx(1.0, abs=1e-9)
    assert irwx == pytest.approx(0.0, abs=1e-9)


def test_apply_channel_dim_mismatch(src_b):
    param = idelta.make_channel_param(np.eye(4, dtype=complex), 4, 2, 2)
    with pytest.raises(ValueError, match="dim"):
        idelta.apply_channel(src_b, param)


def test_channel_marginals_src_c(src_c):
    param = idelta.make_channel_param(np.eye(4, dtype=complex), 4, 2, 2)
    info = idelta.channel_marginal_informations(src_c, param)
    assert info["icx"] == pytest.approx(0.0, abs=1e-9)
    assert info["icw"] == pytest.approx(0.0, abs=1e-9)


# --- optimizer --------------------------------------------------------------

def test_optimize_src_a_any_delta(src_a, light_opts):
    for delta in (0.0, 1.0):
        res = optimize(src_a, delta, light_opts)
        assert res.param is not None
        assert res.value == pytest.approx(1.0, abs=idelta.TOL_OPT)
        assert res.constraint <= delta + idelta.TOL_FEAS


def test_optimize_src_c_delta_zero(src_c, light_opts):
    res = optimize(src_c, 0.0, light_opts)
    assert res.value >= 1.0 - idelta.TOL_OPT
    assert res.constraint <= idelta.TOL_FEAS


def test_optimize_src_b_collapse(src_b, light_opts, monkeypatch):
    climbs = _count_climbs(monkeypatch)
    res = optimize_unflagged(src_b, 0.0, light_opts)
    assert res.value <= 0.05
    assert len(climbs) == 1  # the climb, not the theorem, answered


def test_optimize_rejects_negative_delta(src_a, light_opts):
    with pytest.raises(ValueError):
        optimize(src_a, -0.1, light_opts)


def test_optimize_dims_validation(src_b):
    with pytest.raises(ValueError, match="cap"):
        optimize(src_b, 0.0, OptimizerOptions(c_dim=8, w_dim=2, restarts=1))
    with pytest.raises(ValueError, match="isometry"):
        optimize(src_b, 0.0, OptimizerOptions(c_dim=1, w_dim=1, restarts=1))


def test_option_surface_is_what_the_cli_sets():
    names = {f.name for f in dataclasses.fields(OptimizerOptions)}
    assert names == {"seed", "restarts", "c_dim", "w_dim", "iters_per_stage"}
    args = cli.build_parser().parse_args(
        ["idelta", "--source", "s.json", "--delta-grid", "0", "--seed", "5",
         "--restarts", "3", "--iters", "7", "--cdim", "2", "--wdim", "4"])
    assert cli._optimizer_options(args) == OptimizerOptions(
        seed=5, restarts=3, c_dim=2, w_dim=4, iters_per_stage=7)


@pytest.mark.parametrize("field, value, message", [
    ("seed", -1, "seed must be >= 0"),
    ("restarts", -3, "restarts must be >= 0"),
    ("iters_per_stage", -1, "iters_per_stage must be >= 0"),
    ("c_dim", 0, "c_dim must be >= 1"),
    ("w_dim", -2, "w_dim must be >= 1"),
])
def test_malformed_budgets_are_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        OptimizerOptions(**{field: value})
    OptimizerOptions(restarts=0, iters_per_stage=0, c_dim=1, w_dim=1)  # the smallest budget


def test_optimize_deterministic(src_b):
    opts = OptimizerOptions(seed=3, restarts=3, iters_per_stage=15)
    r1 = optimize(src_b, 0.05, opts)
    r2 = optimize(src_b, 0.05, opts)
    assert r1.value == r2.value
    assert r1.constraint == r2.constraint
    assert np.array_equal(r1.param.mat, r2.param.mat)


def test_lockstep_restarts_are_independent(src_b, src_c):
    opts = OptimizerOptions(seed=3, restarts=4, iters_per_stage=15)
    pure_b, pure_c = idelta._Ensemble.from_source(src_b), idelta._Ensemble.from_source(src_c)
    mixed = idelta._Ensemble.conditioned(src_b, np.array([[0.7, 0.2], [0.3, 0.8]]))
    for ens, unassisted in ((pure_b, False), (pure_c, False), (mixed, False), (pure_b, True)):
        c = w = 2
        ev = idelta._Evaluator([ens], c, w, want_c=unassisted)
        seeds = np.random.SeedSequence(7).spawn(4)
        v0 = np.stack([qcore.random_isometry(c * w, ens.dim_b, np.random.default_rng(s))
                       for s in seeds])
        stacked = idelta._climb(ev, v0, [(0, 0.05)], opts,
                                [np.random.default_rng(s) for s in seeds])[0]
        assert any(out is not None for out in stacked)
        for i, seed in enumerate(seeds):
            alone = idelta._climb(ev, v0[i:i + 1], [(0, 0.05)], opts,
                                  [np.random.default_rng(seed)])[0][0]
            if alone is None:
                assert stacked[i] is None
                continue
            assert alone[:2] == stacked[i][:2]
            assert alone[2].tobytes() == stacked[i][2].tobytes()


# --- one climb per delta grid -------------------------------------------------

def _assert_same_result(batched: idelta.IdeltaResult, alone: idelta.IdeltaResult):
    """Equal bit for bit: value, constraint, V, candidates and restarts_used."""
    assert batched.delta == alone.delta
    assert batched.value == alone.value
    assert batched.constraint == alone.constraint
    assert batched.candidates == alone.candidates
    assert batched.restarts_used == alone.restarts_used
    if alone.param is None:
        assert batched.param is None
    else:
        assert batched.param.out_dims == alone.param.out_dims
        assert batched.param.mat.tobytes() == alone.param.mat.tobytes()


@pytest.mark.parametrize("name", ["src_a", "src_b", "src_c", "mixed_example", "probe"])
def test_a_batched_grid_gives_each_delta_its_lone_result(name):
    src = _load(name)
    ens = idelta._Ensemble.from_source(src)
    for dims in ({}, {"c_dim": 2, "w_dim": 2}, {"c_dim": 1, "w_dim": src.dim_b}):
        opts = OptimizerOptions(seed=2, restarts=3, iters_per_stage=6, **dims)
        for grid in ([0.0, 0.01, 0.1], [1e-3, 0.05]):
            curve = idelta.idelta_curve(src, grid, opts)
            assert len(curve.results) == len(grid)
            for delta, res in zip(grid, curve.results):
                _assert_same_result(res, optimize(src, delta, opts))
        unassisted = idelta._optimize_ensemble([(ens, 0.0), (ens, 0.1)], opts, unassisted=True)
        for delta, res in zip([0.0, 0.1], unassisted):
            _assert_same_result(
                res, idelta._optimize_ensemble([(ens, delta)], opts, unassisted=True)[0])


@pytest.mark.parametrize("name", ["src_a", "src_b", "src_c", "mixed_example", "probe"])
def test_estimates_give_the_lone_results_at_zero_and_on_the_grid(name):
    src = _load(name)
    opts = OptimizerOptions(seed=4, restarts=3, iters_per_stage=6)
    grid = (1e-4, 1e-3, 1e-2, 1e-1)
    curve = idelta.idelta_curve(src, grid, opts)
    _assert_same_result(curve.i0_result, optimize(src, 0.0, opts))
    # delta = 0 riding in the stack leaves the grid's results as they are alone
    alone = idelta._optimize_ensemble([(idelta._Ensemble.from_source(src), d) for d in grid], opts)
    for batched, res in zip(curve.results, alone):
        _assert_same_result(batched, res)


def _markov_problems(monkeypatch, src, y_dim: int, opts: OptimizerOptions) -> list:
    """The (ensemble, delta) problems and results of the one optimizer call
    that `markov_interpolation` makes."""
    calls = []
    original = idelta._optimize_ensemble

    def recording(problems, opts, unassisted=False):
        results = original(problems, opts, unassisted)
        calls.append((problems, results))
        return results

    monkeypatch.setattr(region, "_optimize_ensemble", recording)
    region.markov_interpolation(src, y_dim, opts)
    monkeypatch.undo()
    assert len(calls) == 1
    return calls[0]


@pytest.mark.parametrize("y_dim", [2, 3])
@pytest.mark.parametrize("name", ["src_b", "src_c", "mixed_example", "probe"])
def test_stacked_markov_maps_give_each_map_its_lone_result(monkeypatch, name, y_dim):
    src = _load(name)
    for dims in ({}, {"c_dim": 2, "w_dim": 2}):
        opts = OptimizerOptions(seed=6, restarts=3, iters_per_stage=6, **dims)
        problems, results = _markov_problems(monkeypatch, src, y_dim, opts)
        assert len(problems) == 9  # identity, four noisy and four random maps
        assert len({id(ens) for ens, _ in problems}) == 9
        for (ens, delta), res in zip(problems, results):
            assert delta == 0.0
            _assert_same_result(res, idelta._optimize_ensemble([(ens, delta)], opts)[0])


def test_estimates_draw_each_direction_once_for_the_whole_grid(monkeypatch, probe):
    opts = OptimizerOptions(seed=1, restarts=3, iters_per_stage=5)
    drawn = []
    draw = idelta._random_direction

    def counted(rng, d):
        drawn.append(d)
        return draw(rng, d)

    monkeypatch.setattr(idelta, "_random_direction", counted)
    idelta.idelta_curve(probe, opts=opts)  # the default grid's delta and delta = 0
    db = probe.dim_b
    restarts = [max(opts.restarts, len(idelta._start_points(db, c, w)))
                for c, w in idelta._dims_menu(db) if c > 1 and w > 1]
    assert len(restarts) == 2  # (4, 4) and (2, 2); the other splits are closed form
    assert len(drawn) == sum(restarts) * len(idelta.PENALTY_SCHEDULE) * opts.iters_per_stage


def test_each_retraction_takes_three_rows_per_restart_and_problem(monkeypatch, src_b):
    """Row r = g·n + i of the climb is restart i of problem g, each row
    steps on its own, and two equal problems give equal results."""
    rows = []
    retract = idelta._qr_retract

    def counted(v):
        rows.append(len(v))
        return retract(v)

    monkeypatch.setattr(idelta, "_qr_retract", counted)
    opts = OptimizerOptions(seed=1, restarts=3, iters_per_stage=5, c_dim=2, w_dim=2)
    ens = idelta._Ensemble.from_source(src_b)
    problems = [(ens, 0.05), (ens, 0.05), (ens, 0.2)]
    once, twice, _ = idelta._optimize_ensemble(problems, opts)
    assert rows == [3 * opts.restarts * len(problems)] * (
        len(idelta.PENALTY_SCHEDULE) * opts.iters_per_stage)
    _assert_same_result(once, twice)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("1e400")],
                         ids=["nan", "inf", "1e400"])
def test_non_finite_deltas_are_rejected(src_b, bad):
    opts = OptimizerOptions(restarts=1, iters_per_stage=1)
    with pytest.raises(ValueError, match="finite"):
        optimize(src_b, bad, opts)
    with pytest.raises(ValueError, match="finite"):
        idelta.idelta_curve(src_b, [0.0, bad], opts)
    with pytest.raises(ValueError, match="finite"):
        idelta.idelta_curve(src_b, (0.1, bad), opts)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(which=st.integers(0, 3), c=st.integers(1, 4), w=st.integers(1, 4),
       want_c=st.booleans(), rows=st.sampled_from([1, 3, 30, 90]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_retraction_and_evaluation_act_row_by_row(
        ensembles, which, c, w, want_c, rows, seed):
    """The invariants the batched climb relies on, on stacks as large as
    G·3R (G deltas, R restarts): each row is retracted and evaluated as if
    alone."""
    ens = ensembles[which]
    assume(c * w >= ens.dim_b)
    d = c * w
    rng = np.random.default_rng(seed)
    v = np.stack([qcore.random_isometry(d, ens.dim_b, rng) for _ in range(rows)])
    g = rng.standard_normal((rows, d, d)) + 1j * rng.standard_normal((rows, d, d))
    stepped = v + 0.3 * ((g - g.conj().swapaxes(-1, -2)) / 2.0) @ v  # as a climb step
    q = idelta._qr_retract(stepped)
    gram = q.conj().swapaxes(-1, -2) @ q
    assert np.abs(gram - np.eye(ens.dim_b)).max() <= 1e-12
    ev = idelta._Evaluator([ens], c, w, want_c=want_c)
    stacked = ev.informations(q, np.zeros(rows, dtype=int))
    assert set(stacked) == ({"ixw", "irwx", "icw", "icx"} if want_c else {"ixw", "irwx"})
    for i in range(rows):
        assert idelta._qr_retract(stepped[i:i + 1]).tobytes() == q[i:i + 1].tobytes()
        alone = ev.informations(q[i:i + 1], np.zeros(1, dtype=int))
        for key, vals in stacked.items():
            assert vals[i:i + 1].tobytes() == alone[key].tobytes(), key


@settings(max_examples=50, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["conditioned", "pure"]), y_dim=st.integers(2, 3),
       n_ens=st.integers(1, 4), constant=st.booleans(), c=st.integers(1, 4),
       w=st.integers(1, 4), want_c=st.booleans(), rows=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_informations_on_mixed_ensembles_act_row_by_row(
        kind, y_dim, n_ens, constant, c, w, want_c, rows, seed):
    """A stack whose rows sit on different ensembles gives each row the
    informations of that row alone on its own ensemble, bit for bit."""
    assume(c * w >= 2)
    rng = np.random.default_rng(seed)
    if kind == "pure":  # two sources with equal |X|, |B| and |R|
        ensembles = [idelta._Ensemble.from_source(_load(name))
                     for name in ("src_b", "mixed_example", "src_b", "mixed_example")[:n_ens]]
    else:
        src = _load("mixed_example" if seed % 2 else "src_b")
        maps = [rng.dirichlet(np.ones(y_dim), size=src.alphabet_size).T for _ in range(n_ens)]
        if constant:  # its other symbols have p(y) = 0 and a zero block
            maps[0] = np.zeros((y_dim, src.alphabet_size))
            maps[0][0] = 1.0
        ensembles = [idelta._Ensemble.conditioned(src, cond) for cond in maps]
    g = rng.integers(0, len(ensembles), size=rows)
    v = np.stack([qcore.random_isometry(c * w, 2, rng) for _ in range(rows)])
    stacked = idelta._Evaluator(ensembles, c, w, want_c=want_c).informations(v, g)
    assert set(stacked) == ({"ixw", "irwx", "icw", "icx"} if want_c else {"ixw", "irwx"})
    for i in range(rows):
        alone = idelta._Evaluator([ensembles[g[i]]], c, w, want_c=want_c).informations(
            v[i:i + 1], np.zeros(1, dtype=int))
        for key, vals in stacked.items():
            assert vals[i:i + 1].tobytes() == alone[key].tobytes(), (key, i)


def _per_block_informations(ev: idelta._Evaluator, v: np.ndarray,
                            g: np.ndarray) -> dict[str, np.ndarray]:
    """`_Evaluator.informations` block by block: one product, one set of
    reductions and separate entropy calls per block and quantity.  The fused
    kernel must give its bits."""
    c, w, r, e = ev.c, ev.w, ev.dim_r, ev.dim_e
    n, d = v.shape[0], c * w
    runs, lo = [], 0
    for j, rows in itertools.groupby(g.tolist()):
        hi = lo + len(list(rows))
        runs.append((lo, hi, j))
        lo = hi
    probs, s_r = ev.probs.take(g, axis=0).T, ev.s_r.take(g, axis=0).T
    rho_w, rho_c, rho_ce, rho_cw = [], [], [], []
    for k in range(len(probs)):
        o = np.empty((n * d, r * e), dtype=complex)
        for lo, hi, j in runs:
            np.matmul(v[lo:hi].reshape(-1, ev.dim_b), ev.mats[j][k], out=o[lo * d:hi * d])
        o = o.reshape(n, c, w, -1)
        rho_w.append(np.einsum("ncwk,ncvk->nwv", o, o.conj()))
        o_e = o.reshape(n, c, w, r, e)
        rho_ce.append(np.einsum("ncwre,ndwrf->ncedf", o_e, o_e.conj()).reshape(n, c * e, c * e))
        if ev.want_c:
            rho_c.append(np.einsum("ncwk,ndwk->ncd", o, o.conj()))
            rho_cw.append(np.einsum("ncwk,ndvk->ncwdv", o, o.conj()).reshape(n, d, d))
    out = {}
    out["ixw"], s_w = qcore.holevo_of_stack(probs, rho_w)
    s_wr = qcore.entropy_of_stack(np.stack(rho_ce))
    irwx = 0.0
    for p, s_w_x, s_r_x, s_wr_x in zip(probs, s_w, s_r, s_wr):
        irwx += p * np.maximum(s_w_x + s_r_x - s_wr_x, 0.0)
    out["irwx"] = irwx
    if ev.want_c:
        out["icx"], s_c = qcore.holevo_of_stack(probs, rho_c)
        s_cw = qcore.entropy_of_stack(qcore.weighted_average(probs, rho_cw))
        out["icw"] = np.maximum(s_c[-1] + s_w[-1] - s_cw, 0.0)
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["conditioned", "pure"]), dim_b=st.sampled_from([2, 4]),
       nx=st.integers(2, 3), y_dim=st.integers(2, 3), n_ens=st.integers(1, 3),
       c=st.integers(1, 4), w=st.integers(1, 4), w_is_ce=st.booleans(),
       want_c=st.booleans(), rows=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_fused_informations_equal_the_per_block_reference(
        kind, dim_b, nx, y_dim, n_ens, c, w, w_is_ce, want_c, rows, seed):
    """Every block in one contraction and every entropy of one size in one
    eigensolve give the per-block evaluation's bits: pure (|E| = 1) and
    conditioned (|E| = |X|) ensembles, |B| = 2 and 4, runs of rows on several
    ensembles in one stack, and |W| = |C||E| (one entropy call) or not."""
    rng = np.random.default_rng(seed)
    if kind == "pure":  # sources of equal |X|, |B| and |R|
        ensembles = [idelta._Ensemble.from_source(source.random_source(rng, nx, dim_b, 2))
                     for _ in range(n_ens)]
    else:
        src = source.random_source(rng, nx, dim_b, 2)
        ensembles = [idelta._Ensemble.conditioned(src, rng.dirichlet(np.ones(y_dim), size=nx).T)
                     for _ in range(n_ens)]
    if w_is_ce:
        w = c * ensembles[0].dim_e
    assume(c * w >= dim_b)
    g = rng.integers(0, n_ens, size=rows)
    v = np.stack([qcore.random_isometry(c * w, dim_b, rng) for _ in range(rows)])
    ev = idelta._Evaluator(ensembles, c, w, want_c=want_c)
    fused, reference = ev.informations(v, g), _per_block_informations(ev, v, g)
    assert set(fused) == set(reference)
    for key, vals in reference.items():
        assert fused[key].tobytes() == vals.tobytes(), key


def test_stacked_ensembles_must_share_their_shape(src_b, src_c):
    two = idelta._Ensemble.conditioned(src_b, np.eye(2))
    for other in (idelta._Ensemble.from_source(src_b),  # |E| = 1
                  idelta._Ensemble.conditioned(src_b, np.ones((3, 2)) / 3),  # three blocks
                  idelta._Ensemble.conditioned(src_c, np.eye(2))):  # |B| = 4
        with pytest.raises(ValueError, match="differ"):
            idelta._Evaluator([two, other], 2, 2)


def test_start_points_are_distinct_and_hold_both_embeddings():
    for dim_b in range(1, 5):
        for c in range(1, 6):
            for w in range(1, 6):
                if c * w < dim_b:
                    continue
                starts = idelta._start_points(dim_b, c, w)
                # the basis embedding, which is B into W (c = 0) when B fits
                assert np.array_equal(starts[0], np.eye(c * w, dim_b))
                if c >= dim_b:  # B into C, trivial W
                    into_c = np.zeros((c * w, dim_b))
                    into_c[np.arange(dim_b) * w, np.arange(dim_b)] = 1.0
                    assert any(np.array_equal(s, into_c) for s in starts)
                for i, s in enumerate(starts):
                    assert not any(np.array_equal(s, t) for t in starts[:i])


def test_fewer_restarts_give_the_first_restarts_results(src_b):
    for c, w in idelta._dims_menu(src_b.dim_b):
        few, many = (optimize(
            src_b, 1.0, OptimizerOptions(seed=3, restarts=n, iters_per_stage=15,
                                          c_dim=c, w_dim=w)) for n in (3, 6))
        assert few.candidates
        assert few.candidates == many.candidates[:len(few.candidates)]


# --- closed-form degenerate splits -------------------------------------------

@pytest.fixture(scope="module")
def ensembles(src_a, src_b, src_c):
    """The pure blocks of SRC-A/B/C and a mixed Y-conditioned ensemble."""
    mixed = idelta._Ensemble.conditioned(src_b, np.array([[0.7, 0.2], [0.3, 0.8]]))
    return [idelta._Ensemble.from_source(s) for s in (src_a, src_b, src_c)] + [mixed]


def test_closed_form_splits_match_a_climb(ensembles):
    for ens in ensembles:
        db = ens.dim_b
        for c, w in ((1, db), (db, 1)):
            opts = OptimizerOptions(seed=5, restarts=3, iters_per_stage=10, c_dim=c, w_dim=w)
            for unassisted in (False, True):
                ev = idelta._Evaluator([ens], c, w, want_c=unassisted)
                for delta in (0.0, 0.01, 0.1):
                    closed, = idelta._optimize_ensemble([(ens, delta)], opts,
                                                        unassisted=unassisted)
                    assert closed.restarts_used == 1
                    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(3)]
                    v0 = np.stack([np.eye(c * w, db, dtype=complex)]
                                  + [qcore.random_isometry(c * w, db, rng) for rng in rngs[1:]])
                    climbed = [out for out in idelta._climb(ev, v0, [(0, delta)], opts, rngs)[0]
                               if out is not None]
                    assert (closed.param is not None) == bool(climbed)
                    for value, constraint, _ in climbed:
                        assert value == pytest.approx(closed.value, abs=1e-9)
                        assert constraint == pytest.approx(closed.constraint, abs=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(which=st.integers(0, 3), trivial_w=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_degenerate_split_informations_do_not_depend_on_the_isometry(
        ensembles, which, trivial_w, seed):
    ens = ensembles[which]
    db = ens.dim_b
    c, w = (db, 1) if trivial_w else (1, db)
    ev = idelta._Evaluator([ens], c, w, want_c=True)
    v = qcore.random_isometry(c * w, db, np.random.default_rng(seed))
    one = np.zeros(1, dtype=int)
    at_v = ev.informations(v[np.newaxis], one)
    at_identity = ev.informations(np.eye(c * w, db, dtype=complex)[np.newaxis], one)
    for key in ("ixw", "irwx", "icw", "icx"):
        assert abs(at_v[key][0] - at_identity[key][0]) <= 1e-12, key


@pytest.mark.parametrize("name", ["src_a", "src_b", "src_c", "mixed_example"])
def test_returned_channels_are_certified_by_apply_channel(name, light_opts):
    src = _load(name)
    results = [optimize(src, d, light_opts) for d in (0.0, 0.01, 0.1)]
    results.append(idelta.optimize_I0_minus(src, light_opts))
    for res in results:
        assert res.param is not None
        sigma, ixw, irwx = idelta.apply_channel(src, res.param)
        assert abs(ixw - res.value) <= idelta.TOL_FEAS
        assert abs(irwx - res.constraint) <= idelta.TOL_FEAS
        # and from the entropies of sigma^{XWR} itself
        assert abs(qcore.mutual_information(sigma, ["X"], ["W"]) - res.value) <= idelta.TOL_FEAS
        assert abs(qcore.conditional_mutual_information(sigma, ["R"], ["W"], ["X"])
                   - res.constraint) <= idelta.TOL_FEAS


# --- problems retired before the climb ---------------------------------------

def _count_climbs(monkeypatch) -> list:
    """The problem list of every `_climb` call from here on."""
    calls = []
    climb = idelta._climb

    def counting(ev, v0, problems, opts, rngs):
        calls.append(problems)
        return climb(ev, v0, problems, opts, rngs)

    monkeypatch.setattr(idelta, "_climb", counting)
    return calls


def _orthogonal_supports(seed: int, dim_b: int, nx: int, dim_r: int, spare: int):
    """psi_x = (U ⊗ 1_R)(sum_i |e_i> ⊗ |a_xi>) over a block of basis vectors
    e_i, with U Haar on B and the a_xi the rows of a normalized Ginibre
    matrix.  The nx blocks partition the basis less at least `spare` vectors
    and are at most |R| long, so the supports are pairwise orthogonal and
    need not span B."""
    rng = np.random.default_rng(seed)
    sizes = np.ones(nx, dtype=int)
    for _ in range(dim_b - nx - spare):
        grow = np.flatnonzero(sizes < dim_r)
        if grow.size:
            sizes[rng.choice(grow)] += 1
    u = qcore.random_isometry(dim_b, dim_b, rng)
    edges = np.concatenate([[0], np.cumsum(sizes)])
    mats = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        a = qcore.ginibre((hi - lo, dim_r), rng)
        mats.append(u[:, lo:hi] @ a / np.linalg.norm(a))
    probs = 0.8 * rng.dirichlet(np.ones(nx)) + 0.2 / nx
    return source.make_source(probs, mats, dim_b, dim_r)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim_b=st.integers(2, 6), nx=st.integers(1, 6), dim_r=st.integers(1, 3),
       spare=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_orthogonal_supports_are_retired_before_the_climb(dim_b, nx, dim_r, spare, seed):
    """With pairwise orthogonal supports every I_delta and I0^- equal I(X:B):
    the support measurement (or, at |R| = 1, the identity into W) reaches
    it feasibly, so nothing is climbed, and apply_channel certifies the
    channel with I(R:W|X) = 0."""
    nx = min(nx, dim_b)
    src = _orthogonal_supports(seed, dim_b, nx, dim_r, min(spare, dim_b - nx))
    ixb = source.entropic_profile(src).i_x_b
    eps = idelta.RETIRE_TOL * max(1.0, ixb)
    opts = OptimizerOptions(seed=0, restarts=2, iters_per_stage=2)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_climbs(mp)
        curve = idelta.idelta_curve(src, (0.0, 1e-4, 0.1), opts)
        minus = idelta.optimize_I0_minus(src, opts)
    assert calls == []
    for value in (*curve.values, curve.i0, curve.i0_tilde):
        assert abs(value - ixb) <= eps
    for res in (*curve.results, minus):
        assert abs(res.value - ixb) <= eps
        _, ixw, irwx = idelta.apply_channel(src, res.param)
        assert abs(ixw - res.value) <= idelta.TOL_FEAS
        assert irwx <= 1e-12


@pytest.mark.parametrize("name", ["probe", "src_c_overlap"])
@pytest.mark.parametrize("loose", [False, True], ids=["default", "loose"])
def test_supports_that_are_not_orthogonal_still_climb(monkeypatch, request, name, loose):
    """The probe's supports meet only in 0, and SRC-C's overlap here by 1e-6:
    neither has a closed form, so both deltas climb (4, 4) and (2, 2).  A
    loose orthogonality test builds the support measurement, and its
    evaluated I(X:W), below U - RETIRE_TOL, still retires nothing."""
    src = request.getfixturevalue(name)
    if loose:
        monkeypatch.setattr(idelta, "ORTHO_TOL", 1.0)
    ens = idelta._Ensemble.from_source(src)
    assert (ens.support_measurement is None) != loose
    calls = _count_climbs(monkeypatch)
    idelta._optimize_ensemble([(ens, 0.0), (ens, 0.01)],
                              OptimizerOptions(seed=0, restarts=2, iters_per_stage=4))
    assert calls == [[(0, 0.0), (0, 0.01)]] * 2


def test_pinned_dims_retire_only_with_the_pinned_split(monkeypatch, src_c):
    calls = _count_climbs(monkeypatch)
    budget = {"seed": 0, "restarts": 2, "iters_per_stage": 10}
    # (2, 2) has no closed-form channel: it climbs to the result it had
    # before problems were retired
    curve = idelta.idelta_curve(src_c, (0.0, 0.01, 0.1),
                                OptimizerOptions(c_dim=2, w_dim=2, **budget))
    assert len(calls) == 1
    best = (0.9999999999999999, 1.1102230246251565e-16)
    for res in curve.results:
        assert (res.value, res.constraint, res.restarts_used) == (*best, 2)
        assert hashlib.sha256(res.param.mat.tobytes()).hexdigest() == (
            "d131990bc2736e59ea82cb107b072b0fc266160226d0d7937f0a9ae2422f1133")
    assert [res.candidates for res in curve.results] == [
        (best,), *[(best, (0.9946132557164022, 0.005387232835445843))] * 2]
    calls.clear()
    # (4, 4) holds the support measurement, and (1, 4) only the identity
    # into W, which is infeasible at delta = 0
    retired = optimize(src_c, 0.0, OptimizerOptions(c_dim=4, w_dim=4, **budget))
    into_w = optimize(src_c, 0.0, OptimizerOptions(c_dim=1, w_dim=4, **budget))
    assert calls == []
    assert retired.param.out_dims == (4, 4) and retired.restarts_used == 1
    assert abs(retired.value - 1.0) <= idelta.RETIRE_TOL
    assert into_w.param is None and into_w.restarts_used == 1


# --- Y-conditioned ensembles -------------------------------------------------

def _maps(nx: int) -> list[np.ndarray]:
    """cond[y, x]: the constant map (whose other rows have p(y) = 0), the
    identity map and a noisy identity."""
    const = np.zeros((nx, nx))
    const[0] = 1.0
    return [const, np.eye(nx), 0.6 * np.eye(nx) + 0.4 / nx]


def _sigma_ycwr(src, cond: np.ndarray, v: np.ndarray, c: int, w: int) -> qcore.DensityOperator:
    """sigma^{YCWR} = sum_y p(y) |y><y| ⊗ (V ⊗ 1_R) rho_y (V ⊗ 1_R)†, with
    rho_y = sum_x p(x) cond[y, x] |psi_x><psi_x| / p(y) on B⊗R."""
    py = cond @ src.probs
    k = np.kron(v, np.eye(src.dim_r))
    blocks = []
    for y, p in enumerate(py):
        rho = sum(src.probs[x] * cond[y, x] * np.outer(m.reshape(-1), m.reshape(-1).conj())
                  for x, m in enumerate(src.psi))
        blocks.append(k @ (rho / p if p > 0 else rho) @ k.conj().T)
    return qcore.DensityOperator(qcore.block_diagonal(py, blocks),
                                 [("Y", len(py)), ("C", c), ("W", w), ("R", src.dim_r)])


@pytest.mark.parametrize("name", ["src_b", "mixed_example"])
def test_conditioned_informations_match_an_explicit_state(name):
    src = _load(name)
    rng = np.random.default_rng(11)
    for cond in _maps(src.alphabet_size):
        ens = idelta._Ensemble.conditioned(src, cond)
        for c, w in ((2, 2), (1, 2), (2, 1)):
            v = np.stack([qcore.random_isometry(c * w, src.dim_b, rng) for _ in range(3)])
            info = idelta._Evaluator([ens], c, w, want_c=True).informations(
                v, np.zeros(len(v), dtype=int))
            for i in range(len(v)):
                sigma = _sigma_ycwr(src, cond, v[i], c, w)
                ref = {"ixw": qcore.mutual_information(sigma, ["Y"], ["W"]),
                       "irwx": qcore.conditional_mutual_information(sigma, ["R"], ["W"], ["Y"]),
                       "icw": qcore.mutual_information(sigma, ["C"], ["W"]),
                       "icx": qcore.mutual_information(sigma, ["C"], ["Y"])}
                for key, val in ref.items():
                    assert abs(info[key][i] - val) <= 1e-10, (key, c, w)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(["src_a", "src_b", "src_c", "mixed_example"]),
       c=st.integers(1, 4), w=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_source_ensemble_equals_its_identity_conditioning(name, c, w, seed):
    src = _load(name)
    assume(c * w >= src.dim_b)
    v = qcore.random_isometry(c * w, src.dim_b, np.random.default_rng(seed))[np.newaxis]
    direct = idelta._Evaluator([idelta._Ensemble.from_source(src)], c, w, want_c=True)
    copied = idelta._Evaluator([idelta._Ensemble.conditioned(src, np.eye(src.alphabet_size))],
                               c, w, want_c=True)
    one = np.zeros(1, dtype=int)
    at_direct, at_copied = direct.informations(v, one), copied.informations(v, one)
    for key in ("ixw", "irwx", "icw", "icx"):
        assert abs(at_direct[key][0] - at_copied[key][0]) <= 1e-12, key


def test_data_processing_ceiling(src_a, src_b, light_opts):
    for src in (src_a, src_b):
        ixb = source.entropic_profile(src).i_x_b
        for delta in (0.0, 0.5):
            res = optimize_unflagged(src, delta, light_opts)
            assert res.value <= ixb + 1e-6


# --- oracle -----------------------------------------------------------------

def test_oracle_validation(src_c):
    with pytest.raises(ValueError):
        idelta.oracle_grid(src_c, 0.0)  # |B| = 4


def test_oracle_src_a(src_a):
    assert idelta.oracle_grid(src_a, 0.0) == pytest.approx(1.0, abs=0.02)


def test_oracle_src_b(src_b):
    assert idelta.oracle_grid(src_b, 0.0) <= 0.05
    assert idelta.oracle_grid(src_b, 2.0) == pytest.approx(I_XB_B, abs=0.02)


def test_optimizer_beats_oracle(src_a, src_b, light_opts):
    for src in (src_a, src_b):
        for delta in (0.0, 0.1, 1.0):
            res = optimize_unflagged(src, delta, light_opts)  # src_b climbs at delta = 0 too
            ora = idelta.oracle_grid(src, delta)
            assert res.value >= ora - idelta.TOL_OPT


def _loop_built_oracle_net() -> np.ndarray:
    """The oracle net as a circuit, one isometry at a time: Rz(phi) Ry(theta)
    on the input qubit, a controlled-Ry(alpha) onto an ancilla |0>, and the
    (C, W) legs swapped or not."""
    def ry(t):
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)

    steps = idelta.ORACLE_STEPS
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    net = []
    for th in np.linspace(0.0, math.pi, steps):
        for ph in np.linspace(0.0, 2 * math.pi, steps, endpoint=False):
            uin = np.diag([np.exp(-1j * ph / 2), np.exp(1j * ph / 2)]) @ ry(th)
            for al in np.linspace(0.0, math.pi, steps):
                cry = np.zeros((4, 4), dtype=complex)
                cry[:2, :2] = np.eye(2)
                cry[2:, 2:] = ry(al)
                base = cry @ np.kron(uin, np.array([[1.0], [0.0]]))
                net += [swap @ base, base]
    return np.stack(net)


def test_oracle_net_is_the_circuit_family():
    net = idelta._oracle_net()
    assert net.shape == (2 * idelta.ORACLE_STEPS ** 3, 4, 2)
    assert np.array_equal(net, _loop_built_oracle_net())
    assert np.allclose(net.conj().swapaxes(1, 2) @ net, np.eye(2), atol=1e-12)


def test_oracle_net_is_read_only():
    net = idelta._oracle_net()
    with pytest.raises(ValueError):
        net[0, 0, 0] = 1.0


def test_oracle_evaluates_a_source_once(monkeypatch):
    src = _load("src_b")  # a new object, so not in the cache yet
    calls = []
    informations = idelta._Evaluator.informations

    def counting(self, v, g):
        calls.append(len(v))
        return informations(self, v, g)

    monkeypatch.setattr(idelta._Evaluator, "informations", counting)
    deltas = (0.0, 0.1, 1.0)
    got = [idelta.oracle_grid(src, d) for d in deltas]
    net = idelta._oracle_net()
    assert calls == [len(net)]
    info = informations(idelta._Evaluator([idelta._Ensemble.from_source(src)], 2, 2),
                        net, np.zeros(len(net), dtype=int))
    cached = idelta._oracle_informations(src)
    for key in ("ixw", "irwx"):
        assert cached[key].tobytes() == info[key].tobytes()
        assert not cached[key].flags.writeable
    for d, value in zip(deltas, got):
        feasible = info["ixw"][info["irwx"] <= d + idelta.TOL_FEAS]
        assert value == max(0.0, float(feasible.max()))


def test_oracle_net_is_built_once(src_a, src_b):
    idelta._oracle_net.cache_clear()
    idelta._oracle_informations.cache_clear()  # the sources may be evaluated already
    for src in (src_a, src_b):
        for delta in (0.0, 0.1):
            idelta.oracle_grid(src, delta)
    assert idelta._oracle_net.cache_info().misses == 1


# --- curve and estimates ----------------------------------------------------

def test_curve_flat_src_a(src_a, light_opts):
    curve = idelta.idelta_curve(src_a, [0.0, 0.1, 0.5], light_opts)
    assert all(v == pytest.approx(1.0, abs=idelta.TOL_OPT) for v in curve.values)


def test_curve_monotone(src_b, light_opts):
    curve = idelta.idelta_curve(src_b, [0.0, 0.05, 0.1, 0.2], light_opts)
    assert all(v2 >= v1 for v1, v2 in zip(curve.values, curve.values[1:]))
    assert curve.values == tuple(np.maximum.accumulate(curve.raw_values))


def test_curve_grid_validation(src_a, light_opts):
    assert idelta.idelta_curve(src_a, [0.2, 0.1], light_opts).deltas == (0.1, 0.2)


@pytest.mark.parametrize("name", ["src_b", "src_c", "mixed_example", "probe"])
def test_an_unsorted_grid_gives_the_sorted_curve(name):
    src = _load(name)
    opts = OptimizerOptions(seed=3, restarts=3, iters_per_stage=6)
    unsorted = idelta.idelta_curve(src, [0.2, 0.1], opts)
    curve = idelta.idelta_curve(src, [0.1, 0.2], opts)
    assert (unsorted.deltas, unsorted.values, unsorted.raw_values, unsorted.warnings) == \
        (curve.deltas, curve.values, curve.raw_values, curve.warnings)
    assert (unsorted.i0, unsorted.i0_tilde) == (curve.i0, curve.i0_tilde)
    for a, b in zip(unsorted.results + (unsorted.i0_result,), curve.results + (curve.i0_result,)):
        _assert_same_result(a, b)


def _fake_optimizer(monkeypatch, values: dict[float, float]) -> list[list[float]]:
    """Replace the batched optimizer by a lookup in `values`; returns the
    delta lists it is called with.  Every call must pass one ensemble
    object, so that the grid's rows go through one product per block."""
    calls = []

    def fake(problems, opts, unassisted=False):
        assert len({id(ens) for ens, _ in problems}) == 1
        calls.append([d for _, d in problems])
        return [idelta.IdeltaResult(d, values[d], 0.0, None, 1) for _, d in problems]
    monkeypatch.setattr(idelta, "_optimize_ensemble", fake)
    return calls


def test_curve_warns_when_a_raw_value_drops(monkeypatch, src_b):
    _fake_optimizer(monkeypatch, {0.0: 0.3, 0.05: 0.2, 0.1: 0.25})
    curve = idelta.idelta_curve(src_b, [0.0, 0.05, 0.1])
    assert curve.raw_values == (0.3, 0.2, 0.25)
    assert curve.values == (0.3, 0.3, 0.3)
    assert [w.split(":")[0] for w in curve.warnings] == [
        "monotonicity violation at delta=0.05", "monotonicity violation at delta=0.1"]


def test_estimates_take_I0_from_a_grid_that_holds_zero(monkeypatch, probe):
    """On a source that is not generic, I~0 is the value at the smallest
    positive grid delta, or at I0_TILDE_DELTA when the grid has none."""
    calls = _fake_optimizer(monkeypatch, {0.0: 0.1, 0.05: 0.3, 0.1: 0.2,
                                          idelta.I0_TILDE_DELTA: 0.15})
    curve = idelta.idelta_curve(probe, (0.1, 0.0, 0.05))
    assert calls == [[0.0, 0.05, 0.1]]
    assert (curve.i0, curve.i0_tilde, curve.i0_result.delta) == (0.1, 0.3, 0.0)
    calls.clear()
    curve = idelta.idelta_curve(probe, (0.1, 0.05))
    assert calls == [[0.05, 0.1, 0.0]]
    assert (curve.i0, curve.i0_tilde, curve.i0_result.delta) == (0.1, 0.3, 0.0)
    assert curve.deltas == (0.05, 0.1) and len(curve.results) == 2
    calls.clear()
    curve = idelta.idelta_curve(probe, (0.0,))
    assert calls == [[0.0, idelta.I0_TILDE_DELTA]]
    assert (curve.i0, curve.i0_tilde) == (0.1, 0.15)
    calls.clear()
    curve = idelta.idelta_curve(probe)
    assert calls == [[idelta.I0_TILDE_DELTA, 0.0]]
    assert (curve.deltas, curve.results, curve.i0, curve.i0_tilde) == ((), (), 0.1, 0.15)


def test_estimates_on_a_generic_source_take_the_theorem(monkeypatch, src_b):
    """On a generic source I0 = I~0 = 0, whatever the delta = 0 result reads,
    and no delta is added for I~0."""
    calls = _fake_optimizer(monkeypatch, {0.0: 0.0, 0.05: 0.3, 0.1: 0.2})
    curve = idelta.idelta_curve(src_b, (0.1, 0.05))
    assert calls == [[0.05, 0.1, 0.0]]
    assert (curve.values, curve.i0, curve.i0_tilde) == ((0.3, 0.3), 0.0, 0.0)
    calls.clear()
    curve = idelta.idelta_curve(src_b)
    assert calls == [[0.0]]
    assert (curve.i0, curve.i0_tilde) == (0.0, 0.0)
    _fake_optimizer(monkeypatch, {0.0: 0.01})
    curve = idelta.idelta_curve(src_b)
    assert (curve.i0, curve.i0_tilde, curve.i0_result.value) == (0.0, 0.0, 0.01)


def test_estimates_src_a(src_a, light_opts):
    est = idelta.idelta_curve(src_a, opts=light_opts)
    assert est.i0 == pytest.approx(1.0, abs=idelta.TOL_OPT)
    assert est.i0_tilde == pytest.approx(1.0, abs=idelta.TOL_OPT)


def test_estimates_src_b(src_b, light_opts):
    est = idelta.idelta_curve(src_b, opts=light_opts)
    assert est.i0 <= 0.05
    assert est.i0_tilde <= 0.05
    assert est.i0_tilde >= est.i0


def test_estimates_src_c(src_c, light_opts):
    est = idelta.idelta_curve(src_c, opts=light_opts)
    assert est.i0 >= 0.95
    assert est.i0_tilde >= 0.95


# --- unassisted variant -----------------------------------------------------

def test_i0_minus_src_c(src_c, light_opts):
    res = idelta.optimize_I0_minus(src_c, light_opts)
    assert res.value >= 1.0 - idelta.TOL_OPT
    assert res.constraint <= idelta.TOL_FEAS


def test_i0_minus_never_exceeds_i0(src_a, src_b, src_c, light_opts):
    for src in (src_a, src_b, src_c):
        minus = idelta.optimize_I0_minus(src, light_opts)
        i0 = optimize(src, 0.0, light_opts)
        assert minus.value <= i0.value + idelta.TOL_OPT


def test_i0_minus_trivial_channel_feasible(src_b, light_opts):
    res = idelta.optimize_I0_minus(src_b, light_opts)
    assert res.param is not None  # the trivial-W start is always feasible
    assert res.value >= 0.0


# --- generic collapse -------------------------------------------------------

def test_i0_collapses_on_random_generic_sources(light_opts, monkeypatch):
    climbs = _count_climbs(monkeypatch)
    rng = np.random.default_rng(0)
    for _ in range(5):
        src = source.random_generic_source(rng, nx=2, dim_b=2, eps=1e-2)
        assert optimize_unflagged(src, 0.0, light_opts).value <= 0.05
    assert len(climbs) == 5


def _generic(name: str) -> source.CqSource:
    if name.startswith("random"):  # random-B<|B|>-X<|X|>
        dim_b, nx = (int(part[1:]) for part in name.split("-")[1:])
        return source.random_generic_source(np.random.default_rng(7), nx=nx, dim_b=dim_b)
    return _load(name)


@pytest.mark.parametrize("name", ["src_b", "mixed_example", "random-B3-X2", "random-B4-X3"])
def test_generic_sources_take_the_trivial_channel_at_zero(name, monkeypatch):
    """At delta = 0 on a generic source the theorem gives I0 = 0, which the
    (|B|, 1) trivial-W embedding meets: the problem, assisted or not, is
    retired with no climb, and apply_channel certifies the channel."""
    src = _generic(name)
    assert source.genericity_report(src).is_generic
    climbs = _count_climbs(monkeypatch)
    opts = OptimizerOptions(seed=0, restarts=4, iters_per_stage=10)
    for res in (optimize(src, 0.0, opts), idelta.optimize_I0_minus(src, opts)):
        assert res.param.out_dims == (src.dim_b, 1)
        _, ixw, irwx = idelta.apply_channel(src, res.param)
        assert abs(ixw) <= 1e-12 and abs(res.value) <= 1e-12
        assert irwx <= 1e-12
    assert climbs == []


def test_only_a_source_ensemble_is_generic(src_a, src_b):
    """The theorem is about the pure BR blocks of a source, so a
    Y-conditioned ensemble is never generic, even of a generic source."""
    assert idelta._Ensemble.from_source(src_b).generic is True
    assert idelta._Ensemble.from_source(src_a).generic is False
    for cond in (np.eye(2), np.full((2, 2), 0.5), np.eye(3)[:, :2], np.ones((1, 2))):
        assert idelta._Ensemble.conditioned(src_b, cond).generic is False


def test_a_symbol_with_zero_probability_is_no_witness(light_opts):
    """psi_2 has full support but p = 0, so it constrains no channel: the
    source is not generic, and the support measurement of psi_0 = |0>|0> and
    psi_1 = |1>|0> gives I0 = I~0 = I(X:B) = 1, not the generic case's 0."""
    e = np.eye(2)
    src = source.make_source([0.5, 0.5, 0.0], [np.outer(e[0], e[0]), np.outer(e[1], e[0]),
                                               np.eye(2) / np.sqrt(2.0)], 2, 2)
    rep = source.genericity_report(src)
    assert rep.lambda_mins[2] == pytest.approx(0.5)
    assert not rep.is_generic and rep.witness in (0, 1)
    curve = idelta.idelta_curve(src, (), light_opts)
    assert curve.i0 == pytest.approx(1.0, abs=1e-12)
    assert curve.i0_tilde == pytest.approx(1.0, abs=1e-12)


# --- additivity -------------------------------------------------------------

def test_two_copy_additivity_src_a(src_a, light_opts):
    single = optimize(src_a, 0.0, light_opts)
    double = optimize(source.tensor_sources(src_a, src_a), 0.0,
                      OptimizerOptions(seed=0, restarts=4, iters_per_stage=30, w_dim=4, c_dim=4))
    assert abs(double.value - 2 * single.value) <= 0.05


# --- known-answer sources at |B| = 4 and 6 ----------------------------------

def _product_removable(seed: int, b1: int, b2: int, r: int):
    """psi_x = (U ⊗ 1_R)(phi^{B'R} ⊗ |x>^{B''}) with U Haar on B = B'⊗B'', phi
    a normalized Ginibre (|B'|, |R|) matrix and p = 0.8·Dirichlet + 0.2/|B''|.
    U† takes every psi_x to phi ⊗ |x>, so I_delta = I(X:B) = H(p) at every delta."""
    rng = np.random.default_rng(seed)
    u = qcore.random_isometry(b1 * b2, b1 * b2, rng)
    phi = qcore.ginibre((b1, r), rng)
    phi /= np.linalg.norm(phi)
    probs = 0.8 * rng.dirichlet(np.ones(b2)) + 0.2 / b2
    mats = [u @ np.kron(phi, np.eye(b2)[:, [x]]) for x in range(b2)]
    return source.make_source(probs, mats, b1 * b2, r), u, qcore.entropy_from_eigvals(probs)


@pytest.mark.parametrize("seed, shape", [(0, (2, 2, 2)), (1, (2, 3, 2)), (2, (3, 2, 3))],
                         ids=["B4", "B6-R2", "B6-R3"])
def test_known_answer_sources_bound_the_climb(seed, shape):
    """The certificate U† reaches H(p) exactly feasibly; the climb stays at or
    below it, and apply_channel certifies every channel it returns.  Whether
    the climb reaches H(p) is not asserted: at |B| = 6 it often does not.
    The supports psi_x^B are orthogonal, so `idelta_curve` retires every
    problem at H(p); the climb is run directly, at (|B|, |B|) from that
    split's starts and random isometries."""
    b1, b2, _ = shape
    db = b1 * b2
    src, u, h_p = _product_removable(seed, *shape)
    assert abs(source.entropic_profile(src).i_x_b - h_p) <= 1e-9
    _, ixw, irwx = idelta.apply_channel(src, idelta.make_channel_param(u.conj().T, db, b1, b2))
    assert abs(ixw - h_p) <= 1e-9
    assert irwx <= 1e-12
    opts = OptimizerOptions(seed=0, restarts=4, iters_per_stage=10)
    retired = idelta.idelta_curve(src, (0.0, 0.1), opts)
    outcomes = [(res.delta, res.value, res.constraint, res.param) for res in retired.results]
    assert all(abs(value - h_p) <= 1e-9 for _, value, _, _ in outcomes)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(opts.restarts)]
    starts = idelta._start_points(db, db, db)
    v0 = np.stack(starts + [qcore.random_isometry(db * db, db, rng) for rng in rngs[len(starts):]])
    climbed = idelta._climb(idelta._Evaluator([idelta._Ensemble.from_source(src)], db, db), v0,
                            [(0, 0.0), (0, 0.1)], opts, rngs)
    for delta, outs in zip((0.0, 0.1), climbed):
        outcomes += [(delta, out[0], out[1], idelta.make_channel_param(out[2], db, db, db))
                     for out in outs if out is not None]
    assert len(outcomes) > len(retired.results)
    for delta, value, constraint, param in outcomes:
        assert value <= h_p + 1e-9
        _, ixw, irwx = idelta.apply_channel(src, param)
        assert abs(ixw - value) <= idelta.TOL_FEAS
        assert abs(irwx - constraint) <= idelta.TOL_FEAS
        assert irwx <= delta + idelta.TOL_FEAS
