import contextlib
import copy
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqrate import cli, source
from cqrate.reference import source_a, source_b

H14 = 0.8112781244591328
SRC_B_SPEC = str(Path(__file__).resolve().parent.parent / "specs" / "src_b.json")
# the identity code on specs/src_b.json at n = 1, written out as matrices
EXPLICIT_IDENTITY = {
    "n": 1, "K": 1, "L": 1, "mode": "unassisted",
    "U_X": {"matrix": np.eye(2).tolist(), "dims": {"C_X": 2, "W_X": 1}},
    "U_B": {"matrix": np.eye(2).tolist(), "dims": {"C_B": 2, "W_B": 1}},
    "V": {"matrix": np.eye(4).tolist(), "dims": {"W_D": 1}},
}
TRUNCATION = {"builder": "truncation", "n": 1, "rank": 1}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "cqrate.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def spec_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    paths = {}
    for name, builder in [("a", source_a), ("b", source_b)]:
        p = d / f"src_{name}.json"
        p.write_text(json.dumps(source.source_doc(builder())))
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


def test_analyze_deterministic_output(spec_paths):
    o1 = run_cli("analyze", "--source", spec_paths["b"])
    o2 = run_cli("analyze", "--source", spec_paths["b"])
    assert o1.stdout == o2.stdout


def test_verify_code_identity(spec_paths):
    out = run_cli("verify-code", "--source", spec_paths["b"], "--code", spec_paths["identity"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["fidelity"]["epsilon"] == 0.0
    assert doc["decoupling"]["cmi"] == 0.0
    assert doc["decoupling"]["pass"] is True


def test_verify_code_truncation(spec_paths):
    out = run_cli("verify-code", "--source", spec_paths["b"], "--code", spec_paths["trunc"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["fidelity"]["avg_fidelity"] == pytest.approx(0.75, abs=1e-9)
    assert doc["decoupling"]["pass"] is True


def test_verify_code_cap_exit_3(spec_paths):
    out = run_cli("verify-code", "--source", spec_paths["b"], "--code", spec_paths["identity3"])
    assert out.returncode == 3


def test_region_with_precomputed_estimates(spec_paths):
    out = run_cli("region", "--source", spec_paths["b"], "--i0", "0", "--i0-tilde", "0")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert set(doc["regions"]) == {"generic", "inner", "outer"}
    gen = doc["regions"]["generic"]
    assert gen["kind"] == "exact"
    assert len(gen["boundary_samples"]) == 200
    assert len(gen["vertices"]) == 2


def test_region_csv_format(spec_paths):
    out = run_cli("region", "--source", spec_paths["b"], "--i0", "0", "--i0-tilde", "0",
                  "--format", "csv")
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "rX,rB,region_kind"
    assert len(lines) == 1 + 3 * 200
    assert lines[1].endswith(",generic")


def test_region_unassisted_mode_adds_halfplane(spec_paths):
    base = json.loads(run_cli("region", "--source", spec_paths["b"],
                              "--i0", "0", "--i0-tilde", "0").stdout)
    una = json.loads(run_cli("region", "--source", spec_paths["b"],
                             "--i0", "0", "--i0-tilde", "0", "--mode", "unassisted").stdout)
    assert len(una["regions"]["outer"]["halfplanes"]) == \
        len(base["regions"]["outer"]["halfplanes"]) + 1
    assert any(hp["aX"] == 1.0 and hp["aB"] == 1.0
               for hp in una["regions"]["outer"]["halfplanes"])


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


@pytest.mark.parametrize("doc", [
    _with(EXPLICIT_IDENTITY, ("U_X", "matrix"), 5),
    _with(TRUNCATION, ("rank",), [1]),
    _with(EXPLICIT_IDENTITY, ("K",), [1]),
    _with(EXPLICIT_IDENTITY, ("U_X", "dims"), 3),
    {"builder": "identity", "n": -1},
    _with(TRUNCATION, ("n",), 0),
], ids=["matrix-int", "rank-list", "K-list", "dims-int", "n-negative", "truncation-n0"])
def test_verify_code_malformed_spec_exit_2(doc, tmp_path):
    code = tmp_path / "code.json"
    code.write_text(json.dumps(doc))
    out = run_cli("verify-code", "--source", SRC_B_SPEC, "--code", str(code))
    assert out.returncode == 2
    assert out.stderr.startswith("error:")


@pytest.mark.filterwarnings("ignore:epsilon .* outside:RuntimeWarning")
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
