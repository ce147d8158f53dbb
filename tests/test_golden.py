"""Byte-for-byte guard on cqrate's output documents.

The files under `tests/golden/` are the documents that the runs below
produced; a change that alters any byte of them changes cqrate's numbers.
The optimizer runs cover the pure-block search (`region`, `idelta
--emit-channels` with and without delta = 0 in the grid, and at the
default budget), the I(C:W) <= I(C:X) path behind the QSR point
(`region`), the purified Y-conditioned
blocks (`markov_interpolation`), the unassisted climb (`optimize_I0_minus`)
and the brute-force oracle (`oracle_grid`).  The exact runs
cover the entropic profile (`analyze`), the code evaluation at block lengths
1 and 2 (`verify-code`, the n = 2 code specs are written to a temporary
directory) and of an explicit-matrix code whose entries mix [re, im] pairs,
bare numbers and -0.0 (`specs/code_explicit.json`), the region geometry from given estimates (`region --i0
--i0-tilde`, JSON and CSV), the closed forms at the default budget
(`region` with no budget flags, where no problem is climbed: the generic
case on src_b and mixed_example, whose delta = 0 problem the trivial-W
channel answers, and on src_a and src_c the support measurement), and the
seven optimizer-free selftest suites at their default counts for seeds 0-9.  The stdout of `selftest --seed 0` pins
every suite at its default budget, the oracle and sandwich suites included,
which run the optimizer.  A forced-violation document runs four
suites with `selftest.SLACK` below 0, so their `details` hold the instance
indices and the F, T, S(rho||sigma), gap and eps values bit for bit.  Rewrite the files
only on purpose, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from cqrate import cli, idelta, region, selftest, source
from cqrate.idelta import OptimizerOptions

GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = Path(__file__).resolve().parent.parent / "specs"
BUDGET = ("--seed", "0", "--restarts", "2", "--iters", "10")
BUDGET_OPTS = OptimizerOptions(seed=0, restarts=2, iters_per_stage=10)
MARKOV_OPTS = OptimizerOptions(seed=0, restarts=2, iters_per_stage=4)
SOURCES = ("src_a", "src_b", "src_c", "mixed_example")
# code specs written to the temporary directory next to the shipped ones
N2_CODES = {"code_identity_n2": {"builder": "identity", "n": 2},
            "code_trunc1_n2": {"builder": "truncation", "n": 2, "rank": 1}}


def _spec(name: str) -> str:
    return str(SPECS / f"{name}.json")


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    if rc != 0:
        raise RuntimeError(f"cqrate {' '.join(argv)} exited {rc}")
    return out.getvalue()


def _code(name: str, tmp: Path) -> str:
    if name not in N2_CODES:
        return _spec(name)
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(N2_CODES[name]))
    return str(path)


def _load(name: str) -> source.CqSource:
    with open(_spec(name)) as fh:
        return source.load_source(json.load(fh))


def _markov(name: str) -> str:
    points = region.markov_interpolation(_load(name), 2, MARKOV_OPTS)
    return json.dumps([p.as_dict() for p in points], indent=2, sort_keys=True) + "\n"


def _unassisted_oracle() -> str:
    """optimize_I0_minus on every source at the golden budget, with its
    channel, and oracle_grid on the |B| = 2 sources."""
    doc = {"I0_minus": {}, "oracle": {}}
    for s in SOURCES:
        src = _load(s)
        res = idelta.optimize_I0_minus(src, BUDGET_OPTS)
        doc["I0_minus"][s] = {
            "value": res.value, "constraint": res.constraint,
            "restarts_used": res.restarts_used, "candidates": res.candidates,
            "c_dim": res.param.out_dims[0] if res.param else None,
            "w_dim": res.param.out_dims[1] if res.param else None,
            "stinespring": None if res.param is None else
            [[[float(z.real), float(z.imag)] for z in row] for row in res.param.mat]}
        if src.dim_b == 2:
            doc["oracle"][s] = [[d, idelta.oracle_grid(src, d)] for d in (0.0, 0.1, 1.0)]
    return cli._dump(doc)


OPTIMIZER_FREE = ["fvdg", "pinsker", "fannes", "afw", "ssa", "purify", "transfer"]


def _selftest(seed: int) -> str:
    return cli._dump([r.as_dict() for r in selftest.run_selftest(seed, OPTIMIZER_FREE)])


def _forced_violations() -> str:
    """fvdg, pinsker, fannes and afw at seed 0, count 20, with the slack of
    every inequality at -1, and afw again at -3, where its first violations
    appear."""
    slack = selftest.SLACK
    doc = {}
    try:
        for forced, suites in ((-1.0, ["fvdg", "pinsker", "fannes", "afw"]), (-3.0, ["afw"])):
            selftest.SLACK = forced
            doc[f"slack {forced}"] = [selftest.SUITES[name](0, 20).as_dict() for name in suites]
    finally:
        selftest.SLACK = slack
    return cli._dump(doc)


FIXED = ("--i0", "0", "--i0-tilde", "0")

DOCUMENTS = {
    **{f"region_{s}.json": (lambda tmp, s=s: _cli("region", "--source", _spec(s), *BUDGET))
       for s in SOURCES},
    **{f"idelta_{s}.json": (lambda tmp, s=s: _cli("idelta", "--source", _spec(s),
                                                  "--delta-grid", "0.01,0.1",
                                                  "--emit-channels", *BUDGET))
       for s in ("src_a", "src_b", "src_c")},
    **{name: (lambda tmp, s=s: _cli("idelta", "--source", _spec(s),
                                    "--delta-grid", "0,0.01,0.1", "--emit-channels", *BUDGET))
       for name, s in (("idelta_src_b_grid0.json", "src_b"),
                       ("idelta_mixed_example.json", "mixed_example"))},
    **{f"idelta_default_{s}.json": (lambda tmp, s=s: _cli(
        "idelta", "--source", _spec(s), "--delta-grid", "0,0.01,0.1", "--emit-channels",
        "--seed", "0"))
       for s in ("src_b", "mixed_example")},
    **{f"markov_{s}.json": (lambda tmp, s=s: _markov(s)) for s in ("src_b", "mixed_example")},
    "unassisted_oracle.json": lambda tmp: _unassisted_oracle(),
    **{f"analyze_{s}.json": (lambda tmp, s=s: _cli("analyze", "--source", _spec(s)))
       for s in SOURCES},
    **{f"verify_{s}_{c}.json": (lambda tmp, s=s, c=c: _cli("verify-code", "--source", _spec(s),
                                                           "--code", _code(c, tmp)))
       for s in SOURCES for c in ("code_identity", "code_trunc1", *N2_CODES)},
    **{f"verify_{s}_code_explicit.json": (lambda tmp, s=s: _cli("verify-code", "--source", _spec(s),
                                                                "--code", _spec("code_explicit")))
       for s in ("src_b", "mixed_example")},
    **{f"region_default_{s}.json": (lambda tmp, s=s: _cli("region", "--source", _spec(s)))
       for s in SOURCES},
    **{f"region_fixed_{s}.{fmt}": (lambda tmp, s=s, fmt=fmt: _cli(
        "region", "--source", _spec(s), *FIXED, "--format", fmt))
       for s in ("src_b", "src_c") for fmt in ("json", "csv")},
    **{f"selftest_seed{seed}.json": (lambda tmp, seed=seed: _selftest(seed)) for seed in range(10)},
    "selftest_stdout_seed0.txt": lambda tmp: _cli("selftest", "--seed", "0"),
    "selftest_forced_violation.json": lambda tmp: _forced_violations(),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_golden_document(name, tmp_path):
    assert DOCUMENTS[name](tmp_path) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in sorted(DOCUMENTS.items()):
            (GOLDEN / name).write_text(make(Path(tmp)))
            print(f"wrote {GOLDEN / name}")
