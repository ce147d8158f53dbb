"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from conftest import optimize, optimize_unflagged, run_cli, unflagged
from cqrate import cli, codes, idelta, region, selftest, source
from cqrate.idelta import OptimizerOptions
from cqrate.reference import source_a, source_b, source_c

H14 = 0.8112781244591328


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def run_analyze(src) -> dict:
    doc = source.source_doc(src)
    buf = io.StringIO()
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
        path = fh.name
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["analyze", "--source", path])
        assert rc == 0
        return json.loads(buf.getvalue())
    finally:
        os.unlink(path)


def test_criterion_1_entropic_reproduction():
    with criterion(1, "entropic reproduction"):
        t0 = time.time()
        da = run_analyze(source_a())["profile"]
        assert da["S_B"] == pytest.approx(1.0, abs=1e-9)
        assert da["S_B_given_X"] == pytest.approx(0.0, abs=1e-9)
        assert da["S_XB"] == pytest.approx(1.0, abs=1e-9)
        assert da["S_X_given_B"] == pytest.approx(0.0, abs=1e-9)
        assert da["I_X_B"] == pytest.approx(1.0, abs=1e-9)
        db = run_analyze(source_b())["profile"]
        assert db["S_B"] == pytest.approx(H14, abs=1e-9)
        assert db["S_B_given_X"] == pytest.approx(0.5, abs=1e-9)
        assert db["S_XB"] == pytest.approx(1.5, abs=1e-9)
        assert db["S_X_given_B"] == pytest.approx(1.5 - H14, abs=1e-9)
        assert db["I_X_B"] == pytest.approx(H14 - 0.5, abs=1e-9)
        assert time.time() - t0 < 1.0


def test_criterion_2_generic_collapse(monkeypatch):
    """`idelta_curve` takes I0 = I~0 = 0 from the theorem on a generic source,
    with no climb; the climb is checked against the theorem on the source's
    ensemble marked not generic, at delta = 0 and at the delta 1e-4 of the
    I~0 estimate."""
    with criterion(2, "generic collapse"):
        t0 = time.time()
        climbs = []
        climb = idelta._climb
        monkeypatch.setattr(idelta, "_climb", lambda *args: climbs.append(args) or climb(*args))
        opts = OptimizerOptions(seed=0, restarts=4, iters_per_stage=30)
        rng = np.random.default_rng(0)
        sources = [source_b()]
        for _ in range(20):
            sources.append(source.random_generic_source(rng, nx=2, dim_b=2, eps=1e-3))
        for src in sources:
            prof = source.entropic_profile(src)
            est = idelta.idelta_curve(src, opts=opts)
            assert est.i0 == est.i0_tilde == 0.0
            ens = unflagged(src)
            i0, i0t = (res.value for res in idelta._optimize_ensemble(
                [(ens, 0.0), (ens, idelta.I0_TILDE_DELTA)], opts))
            assert i0 <= 0.05, f"{src.name}: climbed I0 {i0}"
            _, _, inner, outer = region.estimated_regions(prof, i0, i0t)
            gap = region.boundary_hausdorff(inner, outer)
            assert gap <= 0.1, f"{src.name}: Hausdorff gap {gap}"
        assert len(climbs) == len(sources)  # the one (2, 2) split of each unflagged stack
        assert time.time() - t0 < 300.0


def test_criterion_3_price_of_ignorance():
    with criterion(3, "merging point and distilled entanglement"):
        prof = source.entropic_profile(source_b())
        m = region.merging_point(prof)
        assert m.rx == pytest.approx(1.0, abs=1e-9)
        assert m.rb == pytest.approx(0.5 * (H14 + 0.5), abs=1e-9)
        assert m.ebit_rate == pytest.approx(-0.5 * prof.i_x_b, abs=1e-9)


def test_criterion_4_i0_structure_src_c():
    with criterion(4, "I0 structure on the product-removable source"):
        t0 = time.time()
        src = source_c()
        prof = source.entropic_profile(src)
        opts = OptimizerOptions(seed=0, restarts=6, iters_per_stage=40)
        est = idelta.idelta_curve(src, opts=opts)
        assert est.i0 >= 0.95
        assert est.i0_result.constraint <= 1e-4
        q = region.qsr_point(prof, src, est.i0_result)
        assert q.rx == pytest.approx(1.0, abs=0.03)
        assert q.rb == pytest.approx(1.0, abs=0.03)
        outer = region.outer_bound_region(prof, min(est.i0_tilde, prof.i_x_b))
        rb_plane = [hp for hp in outer.half_planes if (hp.ax, hp.ab) == (0.0, 1.0)][0]
        assert rb_plane.b == pytest.approx(1.0, abs=0.03)  # vs 1.5 for merging
        assert time.time() - t0 < 120.0


def test_criterion_5_definition_properties():
    with criterion(5, "curve monotonicity, oracle floor, additivity"):
        t0 = time.time()
        opts = OptimizerOptions(seed=0, restarts=6, iters_per_stage=40)
        curve = idelta.idelta_curve(source_b(), [0.0, 0.05, 0.1, 0.2], opts)
        assert all(v2 >= v1 for v1, v2 in zip(curve.values, curve.values[1:]))
        for src in (source_a(), source_b()):
            for delta in (0.0, 0.1, 1.0):
                res = optimize_unflagged(src, delta, opts)  # src_b climbs at delta = 0 too
                ora = idelta.oracle_grid(src, delta)
                assert res.value >= ora - 0.02, \
                    f"{src.name} delta={delta}: {res.value} < oracle {ora}"
        single = optimize(source_a(), 0.0, opts)
        doubled = source.tensor_sources(source_a(), source_a())
        double = optimize(
            doubled, 0.0,
            OptimizerOptions(seed=0, restarts=4, iters_per_stage=30, c_dim=4, w_dim=4))
        assert abs(double.value - 2 * single.value) <= 0.05
        assert time.time() - t0 < 600.0


def test_criterion_6_decoupling():
    with criterion(6, "decoupling condition"):
        for src in (source_a(), source_b()):
            for n in (1, 2):
                code = codes.identity_code(src, n)
                rep = codes.average_fidelity(src, code)
                dec = codes.decoupling_cmi(src, code)
                assert rep.epsilon == 0.0
                assert dec.cmi == 0.0
                assert dec.cmi <= dec.bound + 1e-8
                for rank in {1, src.dim_b ** n - 1}:
                    tcode = codes.truncation_code(src, n, rank)
                    tdec = codes.decoupling_cmi(src, tcode)
                    assert tdec.cmi <= tdec.bound + 1e-8, \
                        f"{src.name} n={n} r={rank}: cmi {tdec.cmi} > {tdec.bound}"


def test_criterion_7_inequality_suites():
    with criterion(7, "norm and entropy inequality suites"):
        for name in ("fvdg", "pinsker", "fannes", "afw", "ssa"):
            res = selftest.SUITES[name](seed=0, count=1000)
            assert res.checks == 1000
            assert res.violations == 0, f"{name}: {res.details}"
        res = selftest.suite_transfer(seed=0, count=100)
        assert res.violations == 0, f"transfer: {res.details}"


def test_criterion_8_region_identities(monkeypatch):
    with criterion(8, "region geometry identities"):
        for src in (source_a(), source_b(), source_c()):
            prof = source.entropic_profile(src)
            dw = region.dw_point(prof)
            assert abs(dw.rx + 2 * dw.rb - (prof.s_b + prof.s_xb)) <= 1e-12
        src = source_c()
        prof = source.entropic_profile(src)
        for i0 in (0.0, 0.5, 1.0):
            reg = region.inner_bound_region(prof, i0)
            line = [hp for hp in reg.half_planes if hp.ax == 1.0 and hp.ab > 0.0][0]
            qsr_rb = 0.5 * (prof.s_b + prof.s_b_given_x - i0)
            assert abs(line.ax * dw.rx + line.ab * dw.rb - line.b) <= 1e-9
            assert abs(line.ax * prof.s_x + line.ab * qsr_rb - line.b) <= 1e-9
        opts = OptimizerOptions(seed=0, restarts=6, iters_per_stage=40)
        monkeypatch.setattr(region, "MARKOV_RANDOM_MAPS", 1)
        pts = region.markov_interpolation(src, 2, opts)
        dw = region.dw_point(prof)
        assert any(abs(p.rx - dw.rx) <= 0.03 and abs(p.rb - dw.rb) <= 0.03 for p in pts)
        assert any(abs(p.rx - 1.0) <= 0.03 and abs(p.rb - 1.0) <= 0.03 for p in pts)


def test_criterion_9_selftest_determinism(tmp_path):
    with criterion(9, "selftest determinism"):
        outs = []
        docs = []
        for i in range(2):
            doc_path = tmp_path / f"selftest{i}.json"
            proc = run_cli("selftest", "--seed", "0", "--out", str(doc_path))
            assert proc.returncode == 0, proc.stdout + proc.stderr
            outs.append(proc.stdout)
            docs.append(doc_path.read_bytes())
        assert outs[0] == outs[1]
        assert docs[0] == docs[1]
