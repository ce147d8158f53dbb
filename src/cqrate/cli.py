"""Command-line surface: analyze, region, idelta, verify-code, selftest.

Exit codes: 0 success, 1 internal error (or failed verification), 2 input
error (a `SpecError`, or an OSError on a named file), 3 resource cap
exceeded.  Output documents are deterministic for a
fixed (config, seed): no timestamps, sorted keys, strict JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__, codes, idelta, qcore, region, selftest, source
from .errors import DimensionCapError, SpecError
from .idelta import OptimizerOptions


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _provenance(args, command: str) -> dict:
    return {
        "tool": "cqrate",
        "version": __version__,
        "command": command,
        "seed": getattr(args, "seed", 0),
        "mode": getattr(args, "mode", None),
        "restarts": getattr(args, "restarts", None),
        "tolerances": {
            "tol_herm": qcore.TOL_HERM,
            "tol_psd": qcore.TOL_PSD,
            "tol_feas": idelta.TOL_FEAS,
            "tol_opt": idelta.TOL_OPT,
            "tol_generic": source.TOL_GENERIC,
        },
    }


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SpecError(f"{path}: not valid JSON ({exc})") from exc


def _optimizer_options(args) -> OptimizerOptions:
    kw = {"seed": args.seed, "w_dim": args.wdim, "c_dim": args.cdim}
    if args.restarts is not None:
        kw["restarts"] = args.restarts
    if args.iters is not None:
        kw["iters_per_stage"] = args.iters
    return OptimizerOptions(**kw)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _analysis(args, command: str):
    """The source, its profile and genericity report, and the document block
    analyze and region share: provenance, profile, genericity, DW and merging."""
    src = source.load_source(_load_json(args.source))
    prof = source.entropic_profile(src)
    gen = source.genericity_report(src)
    block = {
        "provenance": _provenance(args, command),
        "profile": prof.as_dict(),
        "genericity": gen.as_dict(),
        "points": {"dw": region.dw_point(prof).as_dict(),
                   "merging": region.merging_point(prof).as_dict()},
    }
    return src, prof, gen, block


def cmd_analyze(args) -> int:
    src, _, _, doc = _analysis(args, "analyze")
    doc["source"] = {"name": src.name, "alphabet_size": src.alphabet_size,
                     "dim_b": src.dim_b, "dim_r": src.dim_r}
    _emit(_dump(doc), args.out)
    return 0


def cmd_region(args) -> int:
    if (args.i0 is None) != (args.i0_tilde is None):
        raise SpecError("--i0 and --i0-tilde must be given together")
    for flag, value in (("--i0", args.i0), ("--i0-tilde", args.i0_tilde)):
        if value is not None and not math.isfinite(value):
            raise SpecError(f"{flag} must be finite, got {value}")
    src, prof, gen, doc = _analysis(args, "region")
    opts = _optimizer_options(args)
    doc["points"]["qsr"] = None
    if args.i0 is not None:
        i0, i0t = args.i0, args.i0_tilde
    else:
        curve = idelta.idelta_curve(src, opts=opts)
        i0, i0t = curve.i0, curve.i0_tilde
        if curve.i0_result.param is not None:
            doc["points"]["qsr"] = region.qsr_point(prof, src, curve.i0_result).as_dict()
    i0, i0t, inner, outer = region.estimated_regions(prof, i0, i0t, args.mode)
    regions = {"generic": region.generic_region(prof, gen.is_generic),
               "inner": inner, "outer": outer}
    rx_hi = max(v.rx for r in regions.values() for v in r.vertices) + 1.0
    doc["source"] = {"name": src.name}
    doc["estimates"] = {"I0": i0, "I0_tilde": i0t, "gap": i0t - i0}
    doc["regions"] = {k: region.region_to_doc(r, rx_hi) for k, r in regions.items()}
    if args.format == "csv":
        lines = ["rX,rB,region_kind"]
        for name, r in doc["regions"].items():
            lines += [f"{rx!r},{rb!r},{name}" for rx, rb in r["boundary_samples"]]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump(doc), args.out)
    return 0


def cmd_idelta(args) -> int:
    src = source.load_source(_load_json(args.source))
    try:
        grid = [float(tok) for tok in args.delta_grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise SpecError(f"bad --delta-grid: {exc}") from exc
    curve = idelta.idelta_curve(src, grid, _optimizer_options(args))
    doc = {
        "provenance": _provenance(args, "idelta"),
        "source": {"name": src.name},
        "curve": {"deltas": list(curve.deltas), "values": list(curve.values),
                  "raw_values": list(curve.raw_values),
                  "warnings": list(curve.warnings)},
        "estimates": {"I0": curve.i0, "I0_tilde": curve.i0_tilde,
                      "gap": curve.i0_tilde - curve.i0},
    }
    if args.emit_channels:
        channels = []
        for d, res in zip(curve.deltas, curve.results):
            # a result with no channel has constraint inf, written as null
            mat = c_dim = w_dim = constraint = None
            if res.param is not None:
                mat = [[[float(z.real), float(z.imag)] for z in row]
                       for row in res.param.mat]
                c_dim, w_dim = res.param.out_dims
                constraint = res.constraint
            channels.append({"delta": d, "value": res.value,
                             "constraint": constraint,
                             "c_dim": c_dim, "w_dim": w_dim,
                             "stinespring": mat})
        doc["channels"] = channels
    _emit(_dump(doc), args.out)
    return 0


def cmd_verify_code(args) -> int:
    src = source.load_source(_load_json(args.source))
    code = codes.load_code(_load_json(args.code), src)
    dec = codes.decoupling_cmi(src, code)
    fid = dec.fidelity
    doc = {
        "provenance": _provenance(args, "verify-code"),
        "source": {"name": src.name},
        "code": {"n": code.n, "K": code.k, "L": code.l, "mode": code.mode,
                 "rate_x": code.rate_x, "rate_b": code.rate_b},
        "fidelity": {
            "avg_fidelity": fid.avg_fidelity,
            "epsilon": fid.epsilon,
            "per_sequence": [{"xn": list(xs), "weight": w, "fidelity": f}
                             for xs, w, f in fid.per_sequence],
        },
        "decoupling": {"cmi": dec.cmi, "bound": dec.bound,
                       "pass": dec.passed, "epsilon_used": fid.epsilon},
        "warnings": list(dec.warnings),
    }
    _emit(_dump(doc), args.out)
    return 0 if dec.passed else 1


def cmd_selftest(args) -> int:
    suites = [args.suite] if args.suite else None
    results = selftest.run_selftest(seed=args.seed, suites=suites)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"suite {r.name}: {r.checks} checks, {r.violations} violations - {status}")
        for d in r.details:
            lines.append(f"  {d}")
    ok = all(r.passed for r in results)
    lines.append(f"selftest: {'PASS' if ok else 'FAIL'} "
                 f"({sum(r.checks for r in results)} checks, seed {args.seed})")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        doc = {"provenance": _provenance(args, "selftest"),
               "suites": [r.as_dict() for r in results],
               "all_passed": ok}
        with open(args.out, "w") as fh:
            fh.write(_dump(doc))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqrate",
        description="Entropic analysis, constrained channel optimization and "
                    "rate regions for classical-quantum source compression.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_source=True):
        if needs_source:
            p.add_argument("--source", required=True, help="source spec JSON path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="also write the output document here")

    def add_opt_flags(p):
        p.add_argument("--restarts", type=int, default=None)
        p.add_argument("--iters", type=int, default=None,
                       help="hill-climb iterations per penalty stage")
        p.add_argument("--wdim", type=int, default=None, help="pin the W dimension")
        p.add_argument("--cdim", type=int, default=None, help="pin the C dimension")

    p = sub.add_parser("analyze", help="entropic profile, genericity, DW/merging points")
    add_common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("region", help="generic/inner/outer rate regions with plot data")
    add_common(p)
    add_opt_flags(p)
    p.add_argument("--mode", choices=["assisted", "unassisted"], default="assisted")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--i0", type=float, default=None,
                   help="precomputed I0; with --i0-tilde, skips optimization")
    p.add_argument("--i0-tilde", dest="i0_tilde", type=float, default=None)
    p.set_defaults(fn=cmd_region)

    p = sub.add_parser("idelta", help="I_delta curve and I0 estimates")
    add_common(p)
    add_opt_flags(p)
    p.add_argument("--delta-grid", dest="delta_grid", required=True,
                   help="comma-separated deltas, e.g. 0,0.05,0.1")
    p.add_argument("--emit-channels", action="store_true",
                   help="include the optimized Stinespring matrices per delta")
    p.set_defaults(fn=cmd_idelta)

    p = sub.add_parser("verify-code", help="average fidelity and decoupling check")
    add_common(p)
    p.add_argument("--code", required=True, help="code spec JSON path")
    p.set_defaults(fn=cmd_verify_code)

    p = sub.add_parser("selftest", help="run the seeded property suites")
    add_common(p, needs_source=False)
    p.add_argument("--suite", default=None,
                   help=f"run one suite only; available: {', '.join(selftest.SUITES)}")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DimensionCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # InternalError, or any other failure of the program
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
