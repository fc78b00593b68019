"""Command-line driver: config handling, dispatch, and JSON/CSV report emission.

Reports are reproducible: identical config and library version produce
byte-identical CSV output (deterministic ordering everywhere). Every report
embeds the resolved configuration and the package version. Floats in CSV are
written with 17 significant digits so they round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import __version__
from .arithmetic import char_sum, primes_between
from .congruence import (
    _closure_size,
    rep_lambda_p,
    rep_lambda_p0,
    trace_bruteforce,
    trace_formula,
)
from .schottky import (
    GroupValidationError,
    SchottkyGroup,
    distortion_report,
    named_group,
    validate_group,
)
from .transfer import DEFAULT_N, hs_prime_sum
from .zeta import (
    delta,
    delta_methods,
    jensen_bound,
    new_eigenvalue_count,
    real_zeros,
    refined_zeta,
    zeta_det,
)

OUTPUT_ENV_VAR = "SCHOTTKY_ZETA_OUT"


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def load_group(spec: str) -> SchottkyGroup:
    """Resolve a group argument: named family, JSON file path, or inline JSON."""
    if spec.startswith("gamma_m:"):
        return named_group(spec)
    if spec.lstrip().startswith("{"):
        return validate_group(json.loads(spec))
    path = Path(spec)
    if path.exists():
        return validate_group(json.loads(path.read_text()))
    raise ValueError(f"cannot resolve group spec {spec!r}: not a named group, file, or JSON")


def load_rep(group: SchottkyGroup, name: str):
    if name == "trivial":
        return None
    if name.startswith("lambda_p0:"):
        return rep_lambda_p0(group, int(name.split(":", 1)[1]))
    if name.startswith("lambda_p:"):
        return rep_lambda_p(group, int(name.split(":", 1)[1]))
    raise ValueError(f"unknown representation {name!r}")


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


# -- command implementations ----------------------------------------------------


def cmd_validate(args, outdir: Path) -> dict:
    group = load_group(args.group)
    report = {"ok": True, "label": group.label, "m": group.m, "violations": []}
    _write_csv(outdir / "validate.csv", ["label", "m", "ok"], [[group.label, group.m, 1]])
    return report


def cmd_words(args, outdir: Path) -> dict:
    group = load_group(args.group)
    rows = []
    for w in group.words_of_length(args.length):
        g = group.word_matrix(w)
        rows.append([
            ".".join(map(str, w)), g.trace(), g.frobenius_norm(), group.interval_length(w),
        ])
    _write_csv(outdir / "words.csv", ["word", "trace", "frobenius_norm", "interval_length"], rows)
    return {"count": len(rows), "length": args.length}


def cmd_partition(args, outdir: Path) -> dict:
    group = load_group(args.group)
    part = group.partition(args.tau)
    rows = []
    for name, words in (("Z", part.Z), ("Y", part.Y)):
        for w in words:
            lo, hi = group.interval(w)
            rows.append([
                name, ".".join(map(str, w)), lo, hi, group.interval_length(w), group.upsilon(w),
            ])
    _write_csv(
        outdir / "partition.csv",
        ["set", "word", "interval_lo", "interval_hi", "interval_length", "upsilon"],
        rows,
    )
    return {"tau": args.tau, "z_size": len(part.Z), "y_size": len(part.Y),
            "max_depth": part.max_depth}


def cmd_distortion(args, outdir: Path) -> dict:
    group = load_group(args.group)
    d = args.delta if args.delta is not None else delta(group, n_basis=args.n_basis)
    report = distortion_report(group, args.max_len, _float_list(args.taus), d)
    rd = report.as_dict()
    rows = [[k, v[0], v[1]] for k, v in sorted(rd.items()) if isinstance(v, list) and len(v) == 2]
    _write_csv(outdir / "distortion.csv", ["quantity", "min", "max"], rows)
    return rd


def cmd_zeta(args, outdir: Path) -> dict:
    group = load_group(args.group)
    rep = load_rep(group, args.rep)
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    part = group.partition(args.tau) if args.refined else None
    rows = []
    for i in range(args.points):
        re = args.re_lo + (args.re_hi - args.re_lo) * i / (args.points - 1)
        s = complex(re, args.im)
        if part is not None:
            v = refined_zeta(group, part, s, rep, args.n_basis)
        else:
            v = zeta_det(group, s, rep, args.n_basis)
        rows.append([s.real, s.imag, v.real, v.imag, abs(v)])
    _write_csv(outdir / "zeta.csv", ["re_s", "im_s", "det_re", "det_im", "det_abs"], rows)
    return {"rep": args.rep, "points": args.points, "refined": bool(args.refined)}


def cmd_zeros(args, outdir: Path) -> dict:
    group = load_group(args.group)
    rep = load_rep(group, args.rep)
    report = real_zeros(group, rep, args.lo, args.hi, tol=args.tol, n_basis=args.n_basis)
    rows = [[z.real, z.imag, m, (z * (1 - z)).real] for z, m in report.zeros]
    _write_csv(outdir / "zeros.csv", ["re_s", "im_s", "multiplicity", "lambda"], rows)
    return report.as_dict()


def cmd_delta(args, outdir: Path) -> dict:
    group = load_group(args.group)
    d1, d2 = delta_methods(group, tol=args.tol, n_basis=args.n_basis)
    _write_csv(outdir / "delta.csv", ["group", "delta", "bisection", "zeta_zero"],
               [[group.label, d1, d1, d2]])
    return {"group": group.label, "delta": d1, "bisection": d1, "zeta_zero": d2}


def cmd_np(args, outdir: Path) -> dict:
    group = load_group(args.group)
    count = new_eigenvalue_count(group, args.p, args.sigma, tol=args.tol, n_basis=args.n_basis)
    _write_csv(outdir / "np.csv", ["p", "sigma", "count"], [[args.p, args.sigma, count]])
    return {"p": args.p, "sigma": args.sigma, "count": count}


def _trace_check_one(group: SchottkyGroup, p: int, words) -> dict:
    closure = _closure_size(group, p)
    if closure != p * (p * p - 1):
        return {"p": p, "surjective": False, "closure_size": closure,
                "words_checked": 0, "mismatches": 0}
    mismatches = 0
    checked = 0
    for w in words:
        g = group.word_matrix(w)
        if abs(g.trace()) <= 2:
            continue
        checked += 1
        if trace_formula(group, g, p) != trace_bruteforce(group, g, p):
            mismatches += 1
    return {"p": p, "surjective": True, "closure_size": closure,
            "words_checked": checked, "mismatches": mismatches}


def cmd_trace_check(args, outdir: Path) -> dict:
    group = load_group(args.group)
    words = [w for w in group.words_up_to(args.max_len) if w]
    results = [_trace_check_one(group, p, words) for p in primes_between(args.pmin - 1, args.pmax)]
    rows = [[r["p"], int(r["surjective"]), r["closure_size"], r["words_checked"], r["mismatches"]]
            for r in results]
    _write_csv(outdir / "trace_check.csv",
               ["p", "surjective", "closure_size", "words_checked", "mismatches"], rows)
    total = sum(r["mismatches"] for r in results)
    return {"primes": [r["p"] for r in results], "total_mismatches": total, "per_prime": results}


def cmd_charsum(args, outdir: Path) -> dict:
    ds = _int_list(args.d)
    xs = _float_list(args.x)
    recs = sorted((char_sum(d, x) for d in ds for x in xs), key=lambda r: (r.d, r.x))
    rows = [[r.d, r.x, r.total, r.bound_ratio] for r in recs]
    _write_csv(outdir / "charsum.csv", ["d", "x", "sum", "bound_ratio"], rows)
    return {"records": [
        {"d": r.d, "x": r.x, "sum": r.total, "unweighted": r.unweighted,
         "bound_ratio": r.bound_ratio, "prime_count": r.prime_count}
        for r in recs
    ]}


def cmd_hs_sum(args, outdir: Path) -> dict:
    group = load_group(args.group)
    s = complex(args.s)
    rec = hs_prime_sum(group, args.tau, s, args.x, mode=args.mode)
    rows = [[rec.tau, str(rec.s), rec.x] + [
        "" if v is None else v for v in (rec.direct, rec.decomposed, rec.diagonal, rec.off_diagonal)
    ]]
    _write_csv(outdir / "hs_sum.csv",
               ["tau", "s", "x", "direct", "decomposed", "diagonal", "offdiagonal"], rows)
    return {"tau": rec.tau, "s": str(rec.s), "x": rec.x, "primes": list(rec.primes),
            "direct": rec.direct, "decomposed": rec.decomposed,
            "diagonal": rec.diagonal, "off_diagonal": rec.off_diagonal,
            "fallback_pairs": rec.fallback_pairs}


def cmd_jensen(args, outdir: Path) -> dict:
    group = load_group(args.group)
    bound = jensen_bound(
        group, args.p, args.sigma, args.tau, K=args.K, n_basis=args.n_basis,
        theta_samples=args.theta_samples, bound_tol=args.bound_tol,
    )
    _write_csv(outdir / "jensen.csv", ["p", "sigma", "tau", "K", "bound"],
               [[args.p, args.sigma, args.tau, args.K, bound]])
    return {"p": args.p, "sigma": args.sigma, "tau": args.tau, "K": args.K, "bound": bound}


COMMANDS = {
    "validate": cmd_validate,
    "words": cmd_words,
    "partition": cmd_partition,
    "distortion": cmd_distortion,
    "zeta": cmd_zeta,
    "zeros": cmd_zeros,
    "delta": cmd_delta,
    "np": cmd_np,
    "trace-check": cmd_trace_check,
    "charsum": cmd_charsum,
    "hs-sum": cmd_hs_sum,
    "jensen": cmd_jensen,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schottky-zeta",
        description="Resonances of Schottky surfaces and congruence covers.",
    )
    parser.add_argument("--config", help="JSON config file; command-line flags win")
    parser.add_argument("--out", help=f"output directory (default: ${OUTPUT_ENV_VAR} or cwd)")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; every command runs serially")
    sub = parser.add_subparsers(dest="command", required=True)

    add = sub.add_parser

    p = add("validate")
    p.add_argument("--group", required=True)

    p = add("words")
    p.add_argument("--group", required=True)
    p.add_argument("--length", type=int, required=True)

    p = add("partition")
    p.add_argument("--group", required=True)
    p.add_argument("--tau", type=float, required=True)

    p = add("distortion")
    p.add_argument("--group", required=True)
    p.add_argument("--max-len", type=int, default=5)
    p.add_argument("--taus", default="0.01,0.001")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--n-basis", type=int, default=DEFAULT_N)

    p = add("zeta")
    p.add_argument("--group", required=True)
    p.add_argument("--rep", default="trivial")
    p.add_argument("--re-lo", type=float, required=True)
    p.add_argument("--re-hi", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--refined", action="store_true")
    p.add_argument("--tau", type=float, default=2.0**-6)
    p.add_argument("--n-basis", type=int, default=DEFAULT_N)

    p = add("zeros")
    p.add_argument("--group", required=True)
    p.add_argument("--rep", default="trivial")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--n-basis", type=int, default=DEFAULT_N)

    p = add("delta")
    p.add_argument("--group", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--n-basis", type=int, default=DEFAULT_N)

    p = add("np")
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--n-basis", type=int, default=DEFAULT_N)

    p = add("trace-check")
    p.add_argument("--group", required=True)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--pmin", type=int, default=5)
    p.add_argument("--pmax", type=int, default=47)

    p = add("charsum")
    p.add_argument("--d", required=True, help="comma-separated discriminants")
    p.add_argument("--x", required=True, help="comma-separated dyadic endpoints")

    p = add("hs-sum")
    p.add_argument("--group", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--s", default="0.9", help="complex point, e.g. 0.9+0.5j")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--mode", choices=["direct", "decomposed", "both"], default="both")

    p = add("jensen")
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--K", type=float, default=6.0)
    p.add_argument("--n-basis", type=int, default=DEFAULT_N)
    p.add_argument("--theta-samples", type=int, default=512)
    p.add_argument("--bound-tol", type=float, default=0.1)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Two-pass parse: config file values become defaults, flags override."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        config = json.loads(Path(known.config).read_text())
        if not isinstance(config, dict):
            raise ValueError("config file must contain a JSON object")
        subparsers = parser._subparsers._group_actions[0].choices.values()
        valid = {action.dest for sp in (parser, *subparsers) for action in sp._actions}
        unknown = sorted(set(config) - valid)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        parser.set_defaults(**config)
        for sp in subparsers:
            sp.set_defaults(**{k: v for k, v in config.items()
                               if any(a.dest == k for a in sp._actions)})
            for action in sp._actions:
                if action.dest in config:
                    action.required = False
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = _apply_config(parser, argv)
        outdir = Path(args.out or os.environ.get(OUTPUT_ENV_VAR) or ".")
        outdir.mkdir(parents=True, exist_ok=True)
        resolved = {k: v for k, v in sorted(vars(args).items()) if k != "config"}
        report = COMMANDS[args.command](args, outdir)
        payload = {
            "command": args.command,
            "version": __version__,
            "config": {k: str(v) if isinstance(v, Path) else v for k, v in resolved.items()},
            "report": report,
        }
        _write_json(outdir / f"{args.command.replace('-', '_')}.json", payload)
        print(json.dumps({"command": args.command, "status": "ok",
                          "out": str(outdir)}, sort_keys=True))
        return 0
    except SystemExit:
        raise
    except BaseException as exc:
        error = {
            "status": "error",
            "error_type": type(exc).__name__,
            "message": str(exc),
        }
        if isinstance(exc, GroupValidationError):
            error["violations"] = exc.violations
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
