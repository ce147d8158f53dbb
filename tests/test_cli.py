import contextlib
import copy
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SRC, random_density, run_cli, run_python, source_doc
from cqrate import cli, codes, idelta, qcore, region, source
from cqrate.qcore import DensityOperator
from cqrate.reference import source_a, source_b

H14 = 0.8112781244591328
SPECS = Path(__file__).resolve().parent.parent / "specs"
SRC_B_SPEC = str(SPECS / "src_b.json")
# the identity code on specs/src_b.json at n = 1, written out as matrices
EXPLICIT_IDENTITY = {
    "n": 1, "K": 1, "L": 1, "mode": "unassisted",
    "U_X": {"matrix": np.eye(2).tolist(), "dims": {"C_X": 2, "W_X": 1}},
    "U_B": {"matrix": np.eye(2).tolist(), "dims": {"C_B": 2, "W_B": 1}},
    "V": {"matrix": np.eye(4).tolist(), "dims": {"W_D": 1}},
}
TRUNCATION = {"builder": "truncation", "n": 1, "rank": 1}


@pytest.fixture(scope="module")
def spec_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    paths = {}
    for name, builder in [("a", source_a), ("b", source_b)]:
        p = d / f"src_{name}.json"
        p.write_text(json.dumps(source_doc(builder())))
        paths[name] = str(p)
    code = d / "identity.json"
    code.write_text(json.dumps({"builder": "identity", "n": 1}))
    paths["identity"] = str(code)
    trunc = d / "trunc.json"
    trunc.write_text(json.dumps({"builder": "truncation", "n": 1, "rank": 1}))
    paths["trunc"] = str(trunc)
    big = d / "identity3.json"
    big.write_text(json.dumps({"builder": "identity", "n": 3}))
    paths["identity3"] = str(big)
    bad = d / "bad.json"
    bad.write_text("{not json")
    paths["bad"] = str(bad)
    return paths


def test_analyze_src_a(spec_paths):
    out = run_cli("analyze", "--source", spec_paths["a"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["profile"]["S_B"] == pytest.approx(1.0, abs=1e-9)
    assert doc["genericity"]["is_generic"] is False
    assert doc["points"]["dw"] == {"rX": pytest.approx(0.0), "rB": pytest.approx(1.0)}


def test_analyze_src_b(spec_paths):
    doc = json.loads(run_cli("analyze", "--source", spec_paths["b"]).stdout)
    assert doc["profile"]["S_B"] == pytest.approx(H14, abs=1e-9)
    assert doc["profile"]["S_B_given_X"] == pytest.approx(0.5, abs=1e-9)
    assert doc["genericity"]["is_generic"] is True


def test_analyze_missing_file():
    out = run_cli("analyze", "--source", "does_not_exist.json")
    assert out.returncode == 2
    assert "error" in out.stderr


def test_analyze_malformed_json(spec_paths):
    assert run_cli("analyze", "--source", spec_paths["bad"]).returncode == 2


def test_package_import_loads_no_submodule():
    # `import cqrate` runs the docstring and version alone: start-up pays
    # only for the modules that a command imports
    out = run_python("-c", "import cqrate, sys; print(cqrate.__file__); "
                           "print(sorted(m for m in sys.modules if m.startswith('cqrate.')))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [str(SRC / "cqrate" / "__init__.py"), "[]"]


def test_analyze_rejects_a_state_off_by_a_trace_tolerance(tmp_path):
    """An amplitude state is held to the bound of a density entry's trace:
    amplitudes scaled by 1 + 0.9e-8 give tr psi_x - 1 = 1.8e-8 > TOL_TRACE."""
    doc = json.loads(Path(SRC_B_SPEC).read_text())
    for state in doc["states"]:
        state["amplitudes"] = [[re * (1 + 0.9e-8), im * (1 + 0.9e-8)]
                               for re, im in state["amplitudes"]]
    spec = tmp_path / "scaled.json"
    spec.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["analyze", "--source", str(spec)]) == 2
    assert "not normalized" in err.getvalue()


def test_analyze_deterministic_output(spec_paths):
    o1 = run_cli("analyze", "--source", spec_paths["b"])
    o2 = run_cli("analyze", "--source", spec_paths["b"])
    assert o1.stdout == o2.stdout


@pytest.mark.parametrize("states", [
    [{"amplitudes": [math.sqrt(0.5), 0, 0, math.sqrt(0.5)], "dims": {"B": 2, "R": 2}}],
    [{"amplitudes": [1], "dims": {"B": 1, "R": 1}}] * 2,
], ids=["phi-plus", "trivial-B"])
def test_analyze_writes_no_negative_zero(tmp_path, states):
    """I(X:B) = 0 on both specs, so the merging point distills 0 ebits: its E
    reads 0.0, not -0.0."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"probs": [1 / len(states)] * len(states), "states": states}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", "--source", str(spec)]) == 0
    assert "-0.0" not in out.getvalue()
    assert json.loads(out.getvalue())["points"]["merging"]["E"] == 0.0


def test_verify_code_identity(spec_paths):
    out = run_cli("verify-code", "--source", spec_paths["b"], "--code", spec_paths["identity"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["fidelity"]["epsilon"] == 0.0
    assert doc["decoupling"]["cmi"] == 0.0
    assert doc["decoupling"]["pass"] is True
    assert doc["warnings"] == []


def test_verify_code_truncation(spec_paths):
    out = run_cli("verify-code", "--source", spec_paths["b"], "--code", spec_paths["trunc"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["fidelity"]["avg_fidelity"] == pytest.approx(0.75, abs=1e-9)
    assert doc["decoupling"]["pass"] is True


def test_verify_code_records_the_epsilon_clamp():
    """eps = 0.25 is outside the [0, 1/6] domain of delta(n, eps): the
    document says so, and nothing is printed to stderr."""
    out = run_cli("verify-code", "--source", SRC_B_SPEC, "--code", str(SPECS / "code_trunc1.json"))
    assert out.returncode == 0
    assert out.stderr == ""
    doc = json.loads(out.stdout)
    assert doc["decoupling"]["epsilon_used"] == 0.25
    assert doc["warnings"] == ["epsilon 0.25 outside [0, 1/6]: binary entropy argument clamped"]


_BUDGET = ["--restarts", "2", "--iters", "3"]


@pytest.mark.parametrize("spec", ["src_a", "src_b", "src_c", "mixed_example"])
@pytest.mark.parametrize("command, flags", [
    ("analyze", []),
    ("region", _BUDGET),
    ("region", [*_BUDGET, "--format", "csv", "--mode", "unassisted"]),
    ("idelta", [*_BUDGET, "--delta-grid", "0,0.1", "--emit-channels"]),
    ("verify-code", ["--code", str(SPECS / "code_trunc1.json")]),
], ids=["analyze", "region", "region-csv-unassisted", "idelta", "verify-code"])
def test_no_command_writes_to_stderr_on_a_valid_spec(spec, command, flags):
    """Numerical warnings belong in the document: a warning raised on the
    way is an error here, and stderr must stay empty."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = cli.main([command, "--source", str(SPECS / f"{spec}.json"), *flags])
    assert rc == 0
    assert err.getvalue() == ""


def test_verify_code_walks_the_coded_outputs_once(monkeypatch):
    walks = []
    walk = codes.coded_outputs

    def counted(src, code):
        walks.append(code.n)
        return walk(src, code)

    monkeypatch.setattr(codes, "coded_outputs", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify-code", "--source", SRC_B_SPEC,
                         "--code", str(SPECS / "code_identity.json")]) == 0
    assert len(walks) == 1


def test_verify_code_cap_exit_3(spec_paths):
    out = run_cli("verify-code", "--source", spec_paths["b"], "--code", spec_paths["identity3"])
    assert out.returncode == 3


@pytest.mark.parametrize("nx, rc", [(16, 0), (17, 3)])
def test_built_code_maps_are_capped(nx, rc, tmp_path):
    """The n = 2 identity code forms a V with (|X|^2 |B|^2)^2 entries: 65,536
    at |X| = 16 and |B| = |R| = 1, the cap, and 83,521 at |X| = 17, which
    exits 3 before any matrix is formed."""
    src = source.make_source([1 / nx] * nx, [[1.0]] * nx, 1, 1)
    (tmp_path / "src.json").write_text(json.dumps(source_doc(src)))
    (tmp_path / "code.json").write_text(json.dumps({"builder": "identity", "n": 2}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["verify-code", "--source", str(tmp_path / "src.json"),
                         "--code", str(tmp_path / "code.json")]) == rc
    assert ("83521 matrix entries, over the cap 65536" in err.getvalue()) == (rc == 3)


def test_region_with_precomputed_estimates(spec_paths):
    out = run_cli("region", "--source", spec_paths["b"], "--i0", "0", "--i0-tilde", "0")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert set(doc["regions"]) == {"inner", "outer"}
    for kind, reg in doc["regions"].items():
        assert reg["kind"] == kind
        assert len(reg["boundary_samples"]) == 200
        assert len(reg["vertices"]) == 2


def test_region_csv_format(spec_paths):
    out = run_cli("region", "--source", spec_paths["b"], "--i0", "0", "--i0-tilde", "0",
                  "--format", "csv")
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "rX,rB,region_kind"
    assert len(lines) == 1 + 2 * 200
    assert lines[1].endswith(",inner")


def test_region_unassisted_mode_adds_halfplane(spec_paths):
    base = json.loads(run_cli("region", "--source", spec_paths["b"],
                              "--i0", "0", "--i0-tilde", "0").stdout)
    una = json.loads(run_cli("region", "--source", spec_paths["b"],
                             "--i0", "0", "--i0-tilde", "0", "--mode", "unassisted").stdout)
    assert len(una["regions"]["outer"]["halfplanes"]) == \
        len(base["regions"]["outer"]["halfplanes"]) + 1
    assert any(hp["aX"] == 1.0 and hp["aB"] == 1.0
               for hp in una["regions"]["outer"]["halfplanes"])


def _region_on(spec, monkeypatch, *flags):
    """The region document of a spec and the deltas of every optimizer call."""
    calls = []
    optimize = idelta._optimize_ensemble

    def recording(problems, opts, unassisted=False):
        calls.append([delta for _, delta in problems])
        return optimize(problems, opts, unassisted)

    monkeypatch.setattr(idelta, "_optimize_ensemble", recording)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["region", "--source", str(SPECS / f"{spec}.json"), *flags]) == 0
    return json.loads(out.getvalue()), calls


def test_region_climbs_only_the_deltas_it_reads(monkeypatch):
    """`region` on a non-generic source reads I0 and I~0 only, so it makes
    one optimizer call on delta = 1e-4 (the smallest positive grid delta)
    and delta = 0."""
    _, calls = _region_on("src_a", monkeypatch, "--restarts", "1", "--iters", "1")
    assert calls == [[1e-4, 0.0]]


@pytest.mark.parametrize("spec", ["src_a", "src_b", "src_c", "mixed_example"])
def test_region_on_the_specs_climbs_nothing(spec, monkeypatch):
    """Every answer on the four specs has a closed form: the generic case on
    src_b and mixed_example, and on src_a and src_c, whose supports are
    orthogonal, a channel that reaches I(X:B) feasibly."""
    climbs = []
    climb = idelta._climb
    monkeypatch.setattr(idelta, "_climb", lambda *args: climbs.append(args) or climb(*args))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["region", "--source", str(SPECS / f"{spec}.json")]) == 0
    assert climbs == []
    doc = json.loads(out.getvalue())
    if not doc["genericity"]["is_generic"]:
        for key in ("I0", "I0_tilde"):
            assert abs(doc["estimates"][key] - doc["profile"]["I_X_B"]) <= idelta.RETIRE_TOL


@pytest.mark.parametrize("spec", ["src_b", "src_c"])
def test_given_estimates_at_zero_write_the_merging_point(spec, monkeypatch):
    """I0 = 0 is the trivial-W channel's, whether the theorem or --i0 gives
    it; another given I0 has no channel, so no QSR point."""
    doc, calls = _region_on(spec, monkeypatch, "--i0", "0", "--i0-tilde", "0")
    assert doc["points"]["qsr"] == doc["points"]["merging"]
    doc, _ = _region_on(spec, monkeypatch, "--i0", "0.2", "--i0-tilde", "0.3")
    assert doc["points"]["qsr"] is None
    assert calls == []


@pytest.mark.parametrize("spec", ["src_b", "mixed_example"])
def test_region_takes_the_generic_case_in_closed_form(spec, monkeypatch):
    """On a generic source I0 = I~0 = 0 by the theorem: one optimizer call on
    delta = 0, which the trivial-W channel retires with no climb, the QSR
    point is the merging point, and the inner and outer regions are one
    region."""
    climbs = []
    climb = idelta._climb
    monkeypatch.setattr(idelta, "_climb", lambda *args: climbs.append(args) or climb(*args))
    doc, calls = _region_on(spec, monkeypatch)
    assert doc["genericity"]["is_generic"] is True
    assert calls == [[0.0]]
    assert climbs == []
    assert doc["estimates"] == {"I0": 0.0, "I0_tilde": 0.0, "gap": 0.0}
    _assert_collapsed(doc)


def _assert_collapsed(doc: dict):
    """The QSR point is the merging point and inner and outer are one region."""
    assert doc["points"]["qsr"] == doc["points"]["merging"]
    inner, outer = doc["regions"]["inner"], doc["regions"]["outer"]
    assert inner["vertices"] == outer["vertices"]
    assert len(inner["halfplanes"]) == len(outer["halfplanes"])
    for hi, ho in zip(inner["halfplanes"], outer["halfplanes"]):
        assert hi == pytest.approx(ho, abs=1e-12)


@pytest.mark.parametrize("spec", ["src_b", "mixed_example"])
def test_idelta_and_region_agree_on_a_generic_source(spec, monkeypatch):
    """Both read I0 and I~0 from `idelta_curve`, which takes the theorem."""
    region_doc, _ = _region_on(spec, monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["idelta", "--source", str(SPECS / f"{spec}.json"),
                         "--delta-grid", "0.01,0.1", "--restarts", "2", "--iters", "10"]) == 0
    assert json.loads(out.getvalue())["estimates"] == region_doc["estimates"] == \
        {"I0": 0.0, "I0_tilde": 0.0, "gap": 0.0}


def test_pinned_dims_keep_the_theorem_on_a_generic_source(monkeypatch):
    """The pinned (2, 2) split has no trivial-W channel, so src_b's delta = 0
    problem is climbed and reads a small positive value within TOL_FEAS;
    the estimates still take the theorem's 0, and the regions collapse."""
    doc, calls = _region_on("src_b", monkeypatch, "--cdim", "2", "--wdim", "2",
                            "--restarts", "4", "--iters", "60")
    assert calls == [[0.0]]
    assert doc["estimates"] == {"I0": 0.0, "I0_tilde": 0.0, "gap": 0.0}
    _assert_collapsed(doc)


@pytest.mark.parametrize("command", [["region"], ["idelta", "--delta-grid", "0.1"]])
def test_pinned_dims_over_the_cap_exit_2_on_a_generic_source(command):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([*command, "--source", SRC_B_SPEC, "--wdim", "99"])
    assert rc == 2
    assert err.getvalue() == "error: channel dims (2, 99) exceed the default cap |B|^2 = 4\n"


def test_idelta_command(spec_paths):
    out = run_cli("idelta", "--source", spec_paths["a"], "--delta-grid", "0,0.5",
                  "--restarts", "3", "--iters", "20")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["curve"]["deltas"] == [0.0, 0.5]
    assert doc["estimates"]["I0"] == pytest.approx(1.0, abs=0.02)
    assert doc["curve"]["values"][0] <= doc["curve"]["values"][1] + 1e-12


def test_idelta_empty_grid(spec_paths):
    out = run_cli("idelta", "--source", spec_paths["a"], "--delta-grid", ",")
    assert out.returncode == 2


@pytest.mark.parametrize("grid", ["nan", "inf", "1e400", "0,nan"])
def test_idelta_non_finite_delta_exit_2(grid):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["idelta", "--source", SRC_B_SPEC, "--delta-grid", grid,
                       "--restarts", "1", "--iters", "1"])
    assert rc == 2
    assert err.getvalue().startswith("error:") and "finite" in err.getvalue()


def test_idelta_writes_no_negative_zero():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["idelta", "--source", SRC_B_SPEC, "--delta-grid=-0,0.1",
                       "--restarts", "1", "--iters", "1", "--emit-channels"])
    assert rc == 0
    doc = json.loads(out.getvalue())
    zeros = [doc["curve"]["deltas"][0], doc["channels"][0]["delta"]]
    assert [math.copysign(1.0, d) for d in zeros] == [1.0, 1.0]


@pytest.mark.parametrize("command", ["region", "idelta"])
@pytest.mark.parametrize("flags, message", [
    (["--restarts", "-3"], "restarts must be >= 0"),
    (["--iters", "-2"], "iters_per_stage must be >= 0"),
    (["--cdim", "0"], "c_dim must be >= 1"),
    (["--cdim", "-2", "--wdim", "-2"], "c_dim must be >= 1"),
    (["--wdim", "0"], "w_dim must be >= 1"),
    (["--seed", "-1"], "seed must be >= 0"),
], ids=["restarts", "iters", "cdim", "cdim-wdim", "wdim", "seed"])
def test_malformed_optimizer_budget_exit_2(command, flags, message):
    extra = ["--delta-grid", "0,0.1"] if command == "idelta" else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([command, "--source", SRC_B_SPEC, *extra, *flags])
    assert rc == 2
    assert err.getvalue() == f"error: {message}, got {flags[1]}\n"
    assert out.getvalue() == ""


def test_provenance_records_the_optimizer_budget():
    """Runs that differ only in --iters, --cdim or --wdim give different
    numbers, so their provenance differs too; an option not given is null."""
    def provenance(*flags):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["idelta", "--source", SRC_B_SPEC, "--delta-grid", "0.1",
                             "--restarts", "1", *flags]) == 0
        return json.loads(out.getvalue())["provenance"]

    one = provenance("--iters", "1")
    assert one != provenance("--iters", "2")
    assert (one["cdim"], one["wdim"]) == (None, None)
    pinned = provenance("--iters", "1", "--cdim", "2", "--wdim", "2")
    assert (pinned["iters"], pinned["cdim"], pinned["wdim"]) == (1, 2, 2)


def test_selftest_negative_seed_exit_2():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["selftest", "--seed", "-1"])
    assert rc == 2
    assert err.getvalue() == "error: seed must be >= 0, got -1\n"
    assert out.getvalue() == ""


@pytest.mark.parametrize("i0, i0_tilde", [("nan", "nan"), ("inf", "0"), ("0", "-inf")])
def test_region_non_finite_estimates_exit_2(i0, i0_tilde):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["region", "--source", SRC_B_SPEC, f"--i0={i0}",
                       f"--i0-tilde={i0_tilde}"])
    assert rc == 2
    assert err.getvalue().startswith("error:") and "finite" in err.getvalue()


@pytest.mark.parametrize("command, flags", [
    ("analyze", []),
    ("idelta", ["--delta-grid", "0", "--restarts", "1", "--iters", "1"]),
    ("verify-code", ["--code", str(SPECS / "code_identity.json")]),
])
def test_non_finite_probability_exit_2(command, flags, tmp_path):
    spec = tmp_path / "src.json"
    spec.write_text(json.dumps(_doc_of_source_b_with(("probs",), [math.nan, 1.0])))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([command, "--source", str(spec), *flags])
    assert rc == 2, out.getvalue()
    assert err.getvalue().startswith("error:") and "probs" in err.getvalue()


def test_non_finite_amplitude_exit_2(tmp_path):
    spec = tmp_path / "src.json"
    spec.write_text(json.dumps(_doc_of_source_b_with(("states", 1, "amplitudes", 0),
                                                     [math.nan, 0.0])))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["analyze", "--source", str(spec)])
    assert rc == 2, out.getvalue()
    assert err.getvalue().startswith("error:") and "non-finite" in err.getvalue()


def test_dump_writes_strict_json():
    assert json.loads(cli._dump({"d": np.float64(0.5)})) == {"d": 0.5}
    for bad in (math.nan, np.float64("nan"), math.inf, -math.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._dump({"a": bad})
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._dump({"a": [0.5, bad]})
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._dump({"a": [[0.5], [0.5, float(bad)]]})
    for bad in (np.int64(1), {1.0}, object()):
        for doc in ({"a": bad}, [0.5, bad], [[0.5], [0.5, bad]]):
            with pytest.raises(TypeError):
                json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
            with pytest.raises(TypeError):
                cli._dump(doc)


# floats json.dumps writes in each of its forms: -0.0, subnormals, the
# switch to exponent notation at 1e16 and 1e-5, and np.float64
DOC_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from([-0.0, 5e-324, 2.225e-308, 1e16, 1e-7, 0.1, 1e-5, 9999999999999998.0])
              | st.floats(allow_nan=False, allow_infinity=False).map(np.float64))
DOC_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
               | DOC_FLOATS | st.text())
# rows of floats, as boundary samples and Stinespring entries are written
DOC_ROWS = st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                             | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7]), max_size=3),
                    min_size=1, max_size=4)
DOC_TREES = st.recursive(
    DOC_SCALARS | DOC_ROWS,
    lambda kids: (st.lists(kids, max_size=5) | st.lists(kids, max_size=5).map(tuple)
                  | st.dictionaries(st.text(), kids, max_size=5)),
    max_leaves=40)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=DOC_TREES | st.lists(DOC_TREES, max_size=4) | st.lists(DOC_FLOATS, max_size=6)
       | DOC_ROWS.map(tuple))
def test_dump_writes_what_json_dumps_writes(doc):
    """Nested dicts, lists and tuples (empty ones, a top-level list and
    rows of floats among them), any str (non-ASCII, quotes, backslashes, control characters),
    big and negative ints, floats, np.float64, bools and None."""
    assert cli._dump(doc) == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def test_non_finite_document_value_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(region, "dw_point", lambda prof: region.RatePoint(math.nan, 0.0))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["analyze", "--source", SRC_B_SPEC]) == 1
    assert out.getvalue() == "" and err.getvalue().startswith("internal error:")


def test_idelta_result_without_channel_writes_null_constraint():
    # pinned dims that admit no channel: the result's constraint is inf
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["idelta", "--source", SRC_B_SPEC, "--cdim", "1", "--wdim", "2",
                         "--delta-grid", "0", "--emit-channels"]) == 0
    [channel] = json.loads(out.getvalue())["channels"]
    assert channel["constraint"] is None and channel["stinespring"] is None


def test_region_writes_no_negative_zero():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["region", "--source", SRC_B_SPEC, "--i0=-0", "--i0-tilde=-0"]) == 0
    text = out.getvalue()
    assert re.search(r"(?<![\w.])-0(\.0*)?(?![\w.])", text) is None
    estimates = json.loads(text)["estimates"]
    assert (estimates["I0"], estimates["I0_tilde"]) == (0.0, 0.0)


def test_region_clamps_finite_out_of_range_estimates():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["region", "--source", SRC_B_SPEC, "--i0=5", "--i0-tilde=-1"]) == 0
    estimates = json.loads(out.getvalue())["estimates"]
    i_x_b = json.loads(out.getvalue())["profile"]["I_X_B"]
    assert (estimates["I0"], estimates["I0_tilde"]) == (i_x_b, i_x_b)


def test_idelta_emit_channels(spec_paths):
    out = run_cli("idelta", "--source", spec_paths["a"], "--delta-grid", "0",
                  "--restarts", "2", "--iters", "10", "--emit-channels")
    doc = json.loads(out.stdout)
    assert len(doc["channels"]) == 1
    assert doc["channels"][0]["stinespring"] is not None


def test_selftest_single_suite():
    out = run_cli("selftest", "--suite", "fvdg", "--seed", "0")
    assert out.returncode == 0
    assert "suite fvdg: 1000 checks, 0 violations - PASS" in out.stdout


def test_selftest_unknown_suite():
    assert run_cli("selftest", "--suite", "bogus").returncode == 2


def test_selftest_alternate_seed_same_verdict():
    out = run_cli("selftest", "--suite", "fvdg", "--seed", "7")
    assert out.returncode == 0
    assert "0 violations - PASS" in out.stdout


def test_out_file_matches_stdout(spec_paths, tmp_path):
    target = tmp_path / "doc.json"
    out = run_cli("analyze", "--source", spec_paths["a"], "--out", str(target))
    assert target.read_text() == out.stdout


def _with(doc: dict, path: tuple[str, ...], value) -> dict:
    doc = copy.deepcopy(doc)
    *outer, key = path
    target = doc
    for k in outer:
        target = target[k]
    target[key] = value
    return doc


# negative dims in pairs whose products still match the identity matrices
NEGATIVE_DIMS = copy.deepcopy(EXPLICIT_IDENTITY)
NEGATIVE_DIMS["U_X"]["dims"] = {"C_X": -2, "W_X": -1}
NEGATIVE_DIMS["U_B"]["dims"] = {"C_B": -2, "W_B": -1}


@pytest.mark.parametrize("doc, message", [
    (_with(EXPLICIT_IDENTITY, ("U_X", "matrix"), 5), ""),
    (_with(TRUNCATION, ("rank",), [1]), ""),
    (_with(EXPLICIT_IDENTITY, ("K",), [1]), ""),
    (_with(EXPLICIT_IDENTITY, ("U_X", "dims"), 3), ""),
    ({"builder": "identity", "n": -1}, ""),
    (_with(TRUNCATION, ("n",), 0), ""),
    ({"builder": "identity", "n": 1.9}, ""),
    (_with(TRUNCATION, ("rank",), 1.5), ""),
    (_with(EXPLICIT_IDENTITY, ("U_X", "dims", "C_X"), 2.5), ""),
    (NEGATIVE_DIMS, "invalid code matrices: .*non-positive dimension"),
    ({"builder": "identity", "n": True}, "n must be an integer"),
    ({"builder": "truncation", "n": "1", "rank": "1"}, "n must be an integer"),
    (_with(EXPLICIT_IDENTITY, ("U_X", "dims", "C_X"), "2"), "C_X must be an integer"),
    (_with(EXPLICIT_IDENTITY, ("U_X", "matrix"), [[True, 0], [0, 1]]), "not a number"),
    (_with(EXPLICIT_IDENTITY, ("U_X", "matrix"), [["1", 0], [0, 1]]), "not a number"),
], ids=["matrix-int", "rank-list", "K-list", "dims-int", "n-negative", "truncation-n0",
        "n-fraction", "rank-fraction", "dims-fraction", "dims-negative-pairs",
        "n-bool", "n-rank-strings", "dims-string", "matrix-bool", "matrix-string"])
def test_verify_code_malformed_spec_exit_2(doc, message, tmp_path):
    code = tmp_path / "code.json"
    code.write_text(json.dumps(doc))
    out = run_cli("verify-code", "--source", SRC_B_SPEC, "--code", str(code))
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert re.search(message, out.stderr)


@pytest.mark.parametrize("doc", [EXPLICIT_IDENTITY, TRUNCATION], ids=["explicit", "truncation"])
def test_fuzz_base_code_specs_are_valid(doc, tmp_path):
    code = tmp_path / "code.json"
    code.write_text(json.dumps(doc))
    assert cli.main(["verify-code", "--source", SRC_B_SPEC, "--code", str(code)]) == 0


def _non_finite_identity(pos_value) -> list:
    m = np.eye(2).tolist()
    m[pos_value[0] // 2][pos_value[0] % 2] = pos_value[1]
    return m


# values that are not a valid replacement for any code-spec field: n = 3 or
# more is over the block-length cap, everything else is malformed
JUNK = st.one_of(
    st.tuples(st.integers(0, 3), st.sampled_from([math.nan, math.inf, -math.inf]))
    .map(_non_finite_identity),
    st.none(),
    st.text(alphabet="aZ _-.", max_size=4),
    st.integers(max_value=0),
    st.integers(min_value=3, max_value=2 ** 80),
    st.floats(max_value=0.99, allow_nan=False),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.one_of(st.none(), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.one_of(st.none(), st.text(max_size=2)),
                    max_size=2),
)
FIELDS = [(EXPLICIT_IDENTITY, (reg, part)) for reg in ("U_X", "U_B", "V")
          for part in ("matrix", "dims")]
FIELDS += [(EXPLICIT_IDENTITY, (key,)) for key in ("n", "K", "L")]
FIELDS += [(TRUNCATION, (key,)) for key in ("n", "rank", "builder")]


@pytest.fixture(scope="module")
def fuzz_code_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "code.json"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(field=st.sampled_from(FIELDS), junk=JUNK)
def test_verify_code_junk_field_exits_2_or_3(fuzz_code_path, field, junk):
    base, path = field
    fuzz_code_path.write_text(json.dumps(_with(base, path, junk)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["verify-code", "--source", SRC_B_SPEC, "--code", str(fuzz_code_path)])
    assert rc in (2, 3), err.getvalue()
    assert err.getvalue().startswith("error:")


def _doc_of_source_b_with(path: tuple, value) -> dict:
    with open(SRC_B_SPEC) as fh:
        return _with(json.load(fh), path, value)


@pytest.mark.parametrize("doc", [
    _doc_of_source_b_with(("states", 0, "dims", "B"), 2.5),
    _doc_of_source_b_with(("states", 0, "dims", "R"), 2.5),
    {"probs": [1.0], "states": [{"density": [[0.5, 0], [0, 0.5]], "dim": 2.5}]},
    _doc_of_source_b_with(("states", 0, "dims", "B"), "2"),
    {"probs": [1.0], "states": [{"amplitudes": [[1, 0], [0, 0]], "dims": {"B": 2, "R": True}}]},
    {"probs": [1.0], "states": [{"density": [[0.5, 0], [0, 0.5]], "dim": "2"}]},
], ids=["B", "R", "density-dim", "B-string", "R-bool", "density-dim-string"])
def test_source_non_integral_dims_exit_2(doc, tmp_path):
    spec = tmp_path / "src.json"
    spec.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["analyze", "--source", str(spec)]) == 2
    assert err.getvalue().startswith("error:")


def _one_state(probs, amplitudes) -> dict:
    return {"probs": probs, "states": [{"amplitudes": amplitudes, "dims": {"B": 2, "R": 1}}]}


# each would be a valid spec if its booleans and strings were read as numbers
@pytest.mark.parametrize("doc", [
    _one_state([True], [[1, 0], [0, 0]]),
    _doc_of_source_b_with(("probs",), ["0.5", "0.5"]),
    _one_state([1.0], [[True, False], [0, 0]]),
    _one_state([1.0], [["0.6", "0"], [0.8, 0]]),
    _one_state([1.0], [True, 0]),
], ids=["probs-bool", "probs-string", "amplitude-bools", "amplitude-strings",
        "amplitude-bare-bool"])
def test_source_non_number_exit_2(doc, tmp_path):
    spec = tmp_path / "src.json"
    spec.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["analyze", "--source", str(spec)]) == 2
    assert err.getvalue().startswith("error:") and "not a number" in err.getvalue()


def _spec_doc(name: str) -> dict:
    with open(SPECS / f"{name}.json") as fh:
        return json.load(fh)


# junk in place of each source-spec field, on a pure (amplitudes) and a mixed
# (density) spec; every run must end in a document or a clean input error
SOURCE_FIELDS = [(_spec_doc("src_b"), path) for path in (
    ("probs",), ("probs", 0), ("states",), ("states", 0, "amplitudes"), ("states", 1, "amplitudes"),
    ("states", 0, "dims", "B"), ("states", 1, "dims", "R"), ("states", 0, "dims"),
    ("name",))]
SOURCE_FIELDS += [(_spec_doc("mixed_example"), path) for path in (
    ("probs",), ("probs", 0), ("states", 0, "density"), ("states", 1, "density"), ("states", 0, "dim"),
    ("states", 1), ("name",))]


@pytest.fixture(scope="module")
def fuzz_source_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "src.json"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(field=st.sampled_from(SOURCE_FIELDS), junk=JUNK)
def test_source_junk_field_exits_0_or_2(fuzz_source_path, field, junk):
    base, path = field
    fuzz_source_path.write_text(json.dumps(_with(base, path, junk)))
    # verify-code never builds omega^{XB}, so it checks the source on its own path
    for command, *flags in (["analyze"], ["region", "--i0", "0", "--i0-tilde", "0"],
                            ["verify-code", "--code", str(SPECS / "code_identity.json")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main([command, "--source", str(fuzz_source_path), *flags])
        assert rc in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert (rc == 2) == err.getvalue().startswith("error:"), err.getvalue()


def test_integral_floats_are_accepted(tmp_path):
    def verify(code_doc: dict, src_doc: dict) -> str:
        (tmp_path / "code.json").write_text(json.dumps(code_doc))
        (tmp_path / "src.json").write_text(json.dumps(src_doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["verify-code", "--source", str(tmp_path / "src.json"),
                             "--code", str(tmp_path / "code.json")]) == 0
        return out.getvalue()

    with open(SRC_B_SPEC) as fh:
        plain = json.load(fh)
    floats = _doc_of_source_b_with(("states", 0, "dims", "B"), 2.0)
    assert verify({"builder": "identity", "n": 2.0}, floats) == \
        verify({"builder": "identity", "n": 2}, plain)


def test_ssa_violation_is_an_internal_error_exit_1(monkeypatch):
    """A broken identity is the program's fault, not the input's: exit 1."""
    entropy = qcore._entropy_of_subsystems

    def inflated(mats, dims, labels):  # S(ABC) one bit too large breaks I(A:B|C) >= 0
        return entropy(mats, dims, labels) + (1.0 if len(labels) == 3 else 0.0)

    def profile_with_cmi(src):
        rho = DensityOperator(random_density(8, np.random.default_rng(0)),
                              [("A", 2), ("B", 2), ("C", 2)])
        qcore.conditional_mutual_information(rho, ["A"], ["B"], ["C"])

    monkeypatch.setattr(qcore, "_entropy_of_subsystems", inflated)
    monkeypatch.setattr(source, "entropic_profile", profile_with_cmi)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["analyze", "--source", SRC_B_SPEC])
    assert rc == 1
    assert err.getvalue().startswith("internal error:")
    assert "strong subadditivity" in err.getvalue()


def test_linalg_failure_is_an_internal_error_exit_1(monkeypatch):
    """LinAlgError is a ValueError, but a failed eigensolve is the program's
    fault, not the input's: exit 1."""
    def failing(mats):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(qcore, "entropy_of_stack", failing)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["region", "--source", str(SPECS / "src_a.json"),
                       "--restarts", "1", "--iters", "1"])
    assert rc == 1
    assert err.getvalue() == "internal error: Eigenvalues did not converge\n"


def test_a_value_error_inside_the_program_is_an_internal_error_exit_1(monkeypatch):
    """Only a SpecError (or an OSError) is the input's fault: a ValueError
    raised by the program's own arithmetic exits 1."""
    def failing(mats):
        raise ValueError("operands could not be broadcast together with shapes (3,2) (4,2)")

    monkeypatch.setattr(qcore, "entropy_of_stack", failing)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["region", "--source", str(SPECS / "src_a.json"),
                       "--restarts", "1", "--iters", "1"])
    assert rc == 1
    assert err.getvalue().startswith("internal error: operands could not be broadcast")


def test_a_spec_that_is_not_utf8_is_an_input_error_exit_2(tmp_path):
    spec = tmp_path / "src.json"
    spec.write_bytes(b"\xff\xfe{}")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["analyze", "--source", str(spec)])
    assert rc == 2
    assert err.getvalue().startswith("error:") and "not valid JSON" in err.getvalue()


def _undecodable_specs(tmp_path) -> dict:
    """Files the JSON decoder rejects without a JSONDecodeError: nesting past
    the recursion limit, and a 5,000-digit integer in a source's probs and in
    a code's n."""
    deep = "[" * 200_000 + "]" * 200_000
    src = json.loads(Path(SRC_B_SPEC).read_text())
    code = json.loads((SPECS / "code_identity.json").read_text())
    big = "1" * 5000
    specs = {"deep": deep,
             "source-digits": json.dumps(src).replace('"probs": [', f'"probs": [{big}, ', 1),
             "code-digits": json.dumps(code).replace('"n": ', f'"n": {big}', 1)}
    paths = {}
    for name, text in specs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    return paths


@pytest.mark.parametrize("flag,name", [("--source", "deep"), ("--source", "source-digits"),
                                       ("--code", "deep"), ("--code", "code-digits")])
def test_a_spec_the_decoder_rejects_without_a_decode_error_exits_2(flag, name, tmp_path):
    paths = {"--source": SRC_B_SPEC, "--code": str(SPECS / "code_identity.json"),
             flag: str(_undecodable_specs(tmp_path)[name])}
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["verify-code", *(a for kv in paths.items() for a in kv)])
    assert rc == 2, err.getvalue()
    assert err.getvalue().startswith("error:") and "not valid JSON" in err.getvalue()
    if flag == "--source":
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli.main(["analyze", "--source", paths["--source"]]) == 2
        assert err.getvalue().startswith("error:") and "not valid JSON" in err.getvalue()


@pytest.mark.parametrize("flag", ["--source", "--code", "--out"])
def test_a_directory_path_is_an_input_error_exit_2(flag, tmp_path):
    paths = {"--source": SRC_B_SPEC, "--code": str(SPECS / "code_identity.json"),
             "--out": str(tmp_path / "out.json"), flag: str(tmp_path)}
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["verify-code", *(a for kv in paths.items() for a in kv)])
    assert rc == 2
    assert err.getvalue().startswith("error:") and "Is a directory" in err.getvalue()


@pytest.mark.parametrize("flag", ["--i0", "--i0-tilde"])
def test_region_lone_estimate_flag_exit_2(monkeypatch, flag):
    calls = []
    monkeypatch.setattr(idelta, "_optimize_ensemble", lambda *a, **k: calls.append(a))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["region", "--source", SRC_B_SPEC, flag, "0.2"])
    assert rc == 2
    assert err.getvalue() == "error: --i0 and --i0-tilde must be given together\n"
    assert out.getvalue() == "" and calls == []
