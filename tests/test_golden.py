"""Byte-for-byte guard on the optimizer's output documents.

The files under `tests/golden/` are the documents that the runs below
produced; a change that alters any byte of them changes cqrate's numbers.
The runs cover the pure-block search (`region`, `idelta --emit-channels`),
the I(C:W) <= I(C:X) path behind the QSR point (`region`) and the mixed
Y-conditioned blocks (`markov_interpolation`).  Rewrite the files only on
purpose, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from cqrate import cli, region, source
from cqrate.idelta import OptimizerOptions

GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = Path(__file__).resolve().parent.parent / "specs"
BUDGET = ["--seed", "0", "--restarts", "2", "--iters", "10"]
MARKOV_OPTS = OptimizerOptions(seed=0, restarts=2, iters_per_stage=4)


def _spec(name: str) -> str:
    return str(SPECS / f"{name}.json")


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([*argv, *BUDGET])
    if rc != 0:
        raise RuntimeError(f"cqrate {' '.join(argv)} exited {rc}")
    return out.getvalue()


def _markov(name: str) -> str:
    with open(_spec(name)) as fh:
        src = source.load_source(json.load(fh))
    points = region.markov_interpolation(src, 2, MARKOV_OPTS)
    return json.dumps([p.as_dict() for p in points], indent=2, sort_keys=True) + "\n"


DOCUMENTS = {
    **{f"region_{s}.json": (lambda s=s: _cli("region", "--source", _spec(s)))
       for s in ("src_a", "src_b", "src_c")},
    **{f"idelta_{s}.json": (lambda s=s: _cli("idelta", "--source", _spec(s),
                                             "--delta-grid", "0.01,0.1", "--emit-channels"))
       for s in ("src_b", "src_c")},
    **{f"markov_{s}.json": (lambda s=s: _markov(s)) for s in ("src_b", "mixed_example")},
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_golden_document(name):
    assert DOCUMENTS[name]() == (GOLDEN / name).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in sorted(DOCUMENTS.items()):
        (GOLDEN / name).write_text(make())
        print(f"wrote {GOLDEN / name}")
