"""Byte-for-byte guard on cqrate's output documents.

The files under `tests/golden/` are the documents that the runs below
produced; a change that alters any byte of them changes cqrate's numbers.
The optimizer runs cover the pure-block search (`region`, `idelta
--emit-channels`), the I(C:W) <= I(C:X) path behind the QSR point (`region`)
and the mixed Y-conditioned blocks (`markov_interpolation`).  The exact runs
cover the entropic profile (`analyze`), the code evaluation at block lengths
1 and 2 (`verify-code`, the n = 2 code specs are written to a temporary
directory) and the region geometry from given estimates (`region --i0
--i0-tilde`, JSON and CSV).  Rewrite the files only on purpose, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from cqrate import cli, region, source
from cqrate.idelta import OptimizerOptions

GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = Path(__file__).resolve().parent.parent / "specs"
BUDGET = ("--seed", "0", "--restarts", "2", "--iters", "10")
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


def _markov(name: str) -> str:
    with open(_spec(name)) as fh:
        src = source.load_source(json.load(fh))
    points = region.markov_interpolation(src, 2, MARKOV_OPTS)
    return json.dumps([p.as_dict() for p in points], indent=2, sort_keys=True) + "\n"


FIXED = ("--i0", "0", "--i0-tilde", "0")

DOCUMENTS = {
    **{f"region_{s}.json": (lambda tmp, s=s: _cli("region", "--source", _spec(s), *BUDGET))
       for s in ("src_a", "src_b", "src_c")},
    **{f"idelta_{s}.json": (lambda tmp, s=s: _cli("idelta", "--source", _spec(s),
                                                  "--delta-grid", "0.01,0.1",
                                                  "--emit-channels", *BUDGET))
       for s in ("src_b", "src_c")},
    **{f"markov_{s}.json": (lambda tmp, s=s: _markov(s)) for s in ("src_b", "mixed_example")},
    **{f"analyze_{s}.json": (lambda tmp, s=s: _cli("analyze", "--source", _spec(s)))
       for s in SOURCES},
    **{f"verify_{s}_{c}.json": (lambda tmp, s=s, c=c: _cli("verify-code", "--source", _spec(s),
                                                           "--code", _code(c, tmp)))
       for s in SOURCES for c in ("code_identity", "code_trunc1", *N2_CODES)},
    **{f"region_fixed_{s}.{fmt}": (lambda tmp, s=s, fmt=fmt: _cli(
        "region", "--source", _spec(s), *FIXED, "--format", fmt))
       for s in ("src_b", "src_c") for fmt in ("json", "csv")},
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
