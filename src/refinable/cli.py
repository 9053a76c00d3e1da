"""Command-line front end.

Subcommands wire the library into reproducible workflows:

    check           refinability decision on an instance (+ mask round-trip)
    mask            construct and print mask, translations, coefficients
    lawton          polynomial divisibility test Q(z) | Q(z^m)
    erdos           construct and verify a power-orbit avoidance certificate
    cascade         grid solution of the refinement equation, CSV dump
    ftprobe         truncated Fourier product vs the closed-form transform
    decay           Fourier-decay probe (orbit floor for |H|)
    mvcheck         s-variate refinability decision
    counterexample  one-shot reproduction of the non-lattice 10-translation
                    instance over Q(sqrt(10))
    factorize-check numeric k-fold convolution factorization check

Only ``cascade``, ``ftprobe`` and ``factorize-check`` run a float
kernel; they import numpy and ``splinecore`` when they start.  Every
other command is exact and loads neither, ``decay --bspline`` included:
the exact core builds the B-spline masks.

Exit codes: 0 success/accepted, 1 refuted or failed check, 2 usage error,
3 internal consistency error.  Output is byte-identical for identical
(argv, seed, precision).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from .errors import (
    ConstructionFailure,
    CycleInconsistency,
    RefinableError,
    RootIsolationFailure,
)
from .exactreal import FieldDescriptor, QQ, _json_field, field_make, parse_element
from .powermod import (
    check_admissibility,
    erdos_construct,
    erdos_params,
    erdos_verify,
)
from .refinery import (
    BoxSplineSpec,
    MaskSpec,
    bspline_mask,
    counterexample_instance,
    decay_probe,
    decide_univariate,
    lawton_check,
    mask_construct,
    multivariate_decide,
    verify_mask_identity,
)

USAGE_ERRORS = (ValueError, KeyError, json.JSONDecodeError)
INTERNAL_ERRORS = (CycleInconsistency, ConstructionFailure, RootIsolationFailure)


def _rational(text: str, flag: str) -> Fraction:
    """The rational a command-line value gives; ValueError, a usage error,
    for a zero denominator as for any other malformed value."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} value {text!r} has denominator 0") from None


def _parse_field(text: str) -> FieldDescriptor:
    n, k = (int(v) for v in text.split(","))
    return field_make(n, k)


def _load_instance(args) -> dict:
    """Resolve an instance from --instance JSON or inline flags.

    Returns {"desc", "lam", "columns" (list of FieldElement tuples), "s"}.
    """
    if getattr(args, "instance", None):
        with open(args.instance) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("instance must be a JSON object")
        desc = _json_field(data, "instance")
        lam = parse_element(str(data["lambda"]), desc)
        raw_cols = data["columns"]
        if not isinstance(raw_cols, list) or not raw_cols:
            raise ValueError("columns must be a non-empty list")
        cols = []
        for col in raw_cols:
            if isinstance(col, list):
                cols.append(tuple(parse_element(str(x), desc) for x in col))
            else:
                cols.append((parse_element(str(col), desc),))
    else:
        if not (getattr(args, "field", None) and getattr(args, "lam", None)
                and getattr(args, "columns", None)):
            raise ValueError("need --instance or all of --field/--lambda/--columns")
        desc = _parse_field(args.field)
        lam = parse_element(args.lam, desc)
        cols = []
        for col in args.columns.split(";"):
            parts = col.split(",")
            cols.append(tuple(parse_element(p, desc) for p in parts))
    s = len(cols[0])
    if any(len(c) != s for c in cols):
        raise ValueError("columns have inconsistent dimension")
    return {"desc": desc, "lam": lam, "columns": cols, "s": s}


def _config_echo(args, **extra) -> dict:
    cfg = {"subcommand": args.subcommand}
    for key in ("instance", "field", "lam", "columns", "prec", "depth", "grid",
                "iters", "out", "format", "seed", "J", "points", "wmax", "tol",
                "p", "d", "m", "targets", "c", "extra_n", "bspline",
                "verify_mask"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key if key != "lam" else "lambda"] = getattr(args, key)
    cfg.update(extra)
    return cfg


def _emit(args, report: dict, text_lines: Optional[list[str]] = None) -> None:
    fmt = getattr(args, "format", "json") or "json"
    if fmt == "json":
        payload = json.dumps(report, indent=2)
    elif fmt == "text":
        payload = "\n".join(text_lines or _flatten_text(report))
    elif fmt == "csv" and "csv" in report:
        payload = report["csv"]
    else:
        raise ValueError(f"{args.subcommand} has no {fmt} form")
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(payload + ("\n" if not payload.endswith("\n") else ""))
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _flatten_text(obj, prefix="") -> list[str]:
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{prefix}{k}:")
                lines.extend(_flatten_text(v, prefix + "  "))
            else:
                lines.append(f"{prefix}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.extend(_flatten_text(v, prefix + "  "))
            else:
                lines.append(f"{prefix}- {v}")
    else:
        lines.append(f"{prefix}{obj}")
    return lines


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_check(args) -> int:
    inst = _load_instance(args)
    if inst["s"] == 1:
        report = decide_univariate([c[0] for c in inst["columns"]], inst["lam"])
    else:
        report = multivariate_decide(BoxSplineSpec(inst["desc"], inst["columns"]),
                                     inst["lam"])
    out = {"config": _config_echo(args), "report": report.to_jsonable()}
    code = 0 if report.refinable else 1
    if args.verify_mask:
        if inst["s"] != 1:
            raise ValueError("--verify-mask supports univariate instances")
        with open(args.verify_mask) as fh:
            data = json.load(fh)
        mask = MaskSpec.from_jsonable(data.get("mask", data) if isinstance(data, dict) else data)
        ok = verify_mask_identity([c[0] for c in inst["columns"]],
                                  inst["lam"], mask)
        out["mask_identity"] = ok
        if not ok:
            code = 1
    _emit(args, out)
    return code


def _cmd_mask(args) -> int:
    inst = _load_instance(args)
    if inst["s"] != 1:
        raise ValueError("mask handles univariate instances; use mvcheck")
    mask = mask_construct([c[0] for c in inst["columns"]], inst["lam"])
    out = {"config": _config_echo(args)}
    if mask is None:
        out["mask"] = None
        _emit(args, out)
        return 1
    out["mask"] = mask.to_jsonable()
    out["translations"] = [d.to_text() for d in mask.translations]
    out["coefficients"] = [c.to_text() for c in mask.refinement_coefficients]
    _emit(args, out)
    return 0


def _cmd_lawton(args) -> int:
    p = [_rational(v, "--p") for v in args.p.split(",")]
    res = lawton_check(p, args.d, args.m)
    out = {"config": _config_echo(args), "result": res.to_jsonable()}
    _emit(args, out)
    return 0 if res.refinable else 1


def _cmd_erdos(args) -> int:
    desc = _parse_field(args.field) if args.field else QQ
    lam = parse_element(args.lam, desc)
    targets = [_rational(t, "--targets") for t in args.targets.split(";")]
    g, c_default = erdos_params(lam, len(targets))
    out = {"config": _config_echo(args), "g": g, "c_default": str(c_default)}
    c = c_default
    if args.c:
        c = _rational(args.c, "--c")
        adm = check_admissibility(lam, len(targets), g, c)
        out["admissibility"] = adm
        if not all(adm.values()):
            out["error"] = "user-supplied c violates the admissibility inequalities"
            _emit(args, out)
            return 1
    cert = erdos_construct(lam, targets, args.depth, c=c)
    rep = erdos_verify(cert, extra_n=args.extra_n)
    out["certificate"] = cert.to_jsonable()
    out["verification"] = rep.to_jsonable()
    _emit(args, out)
    return 0 if rep.certified else 3


def _cmd_cascade(args) -> int:
    from .splinecore import cascade_solve

    mask = _mask_from_args(args)
    grid = cascade_solve(mask, grid_size=args.grid, iters=args.iters)
    out = {
        "config": _config_echo(args),
        "grid": {"a": grid.a, "b": grid.b, "h": grid.h, "n": len(grid.samples)},
        "residual": grid.meta["residual"],
        "integral": grid.integral(),
    }
    if args.format == "csv":
        out["csv"] = grid.to_csv()
    _emit(args, out)
    return 0


def _mask_from_args(args) -> MaskSpec:
    if getattr(args, "bspline", None) is not None:
        return bspline_mask(args.bspline, 2 if args.m is None else args.m)
    inst = _load_instance(args)
    if inst["s"] != 1:
        raise ValueError("univariate instance required")
    mask = mask_construct([c[0] for c in inst["columns"]], inst["lam"])
    if mask is None:
        raise ValueError("instance is not refinable; no mask to work with")
    return mask


def _cmd_ftprobe(args) -> int:
    import numpy as np

    from .splinecore import boxspline_ft_f64, fourier_product_f64

    if args.points < 1:
        raise ValueError("points must be >= 1")
    if not 0 < args.wmax < float("inf"):
        raise ValueError(f"wmax must be finite and > 0, got {args.wmax!r}")
    if not args.tol >= 0:  # NaN included
        raise ValueError(f"tol must be >= 0, got {args.tol!r}")
    inst = _load_instance(args)
    if inst["s"] != 1:
        raise ValueError("univariate instance required")
    A = [c[0] for c in inst["columns"]]
    mask = mask_construct(A, inst["lam"])
    if mask is None:
        raise ValueError("instance is not refinable")
    spec = BoxSplineSpec.univariate(inst["desc"], A)
    rng = np.random.default_rng(args.seed)
    w = rng.uniform(-args.wmax, args.wmax, args.points)
    prod = fourier_product_f64(mask, w, args.J)
    closed = boxspline_ft_f64(spec, w)
    err = float(np.max(np.abs(prod - closed)))
    out = {"config": _config_echo(args), "points": args.points, "J": args.J,
           "max_abs_deviation": err, "tolerance": args.tol}
    _emit(args, out)
    return 0 if err <= args.tol else 1


def _cmd_decay(args) -> int:
    mask = _mask_from_args(args)
    rep = decay_probe(mask, J=args.J, prec=args.prec)
    out = {"config": _config_echo(args), "report": rep.to_jsonable()}
    _emit(args, out)
    return 0 if rep.epsilon0 > 0 else 1


def _cmd_mvcheck(args) -> int:
    inst = _load_instance(args)
    spec = BoxSplineSpec(inst["desc"], inst["columns"])
    report = multivariate_decide(spec, inst["lam"])
    out = {"config": _config_echo(args), "report": report.to_jsonable()}
    _emit(args, out)
    return 0 if report.refinable else 1


def _cmd_counterexample(args) -> int:
    desc, lam, A = counterexample_instance()
    mask = mask_construct(A, lam)
    theta = desc.theta()
    expected = {}
    for i in range(5):
        expected[desc.rational(i)] = Fraction(1, 10)
        expected[desc.rational(i) + theta / 2] = Fraction(1, 10)
    exact_match = mask is not None and mask.H.terms == expected
    out = {
        "config": _config_echo(args),
        "field": "Q(t), t^2 = 10",
        "lambda": lam.to_text(),
        "directions": [a.to_text() for a in A],
        "translations": [d.to_text() for d in mask.translations],
        "translations_decimal": [f"{float(d):.17g}" for d in mask.translations],
        "coefficient": "1/10 (each of the 10 terms)",
        "mask": mask.to_jsonable(),
        "exact_match": exact_match,
    }
    lines = [
        "dilation: sqrt(10)",
        "directions: 1, sqrt(5/2) = t/2 over Q(t), t^2 = 10",
        "translations: " + ", ".join(d.to_text() for d in mask.translations),
        "mask coefficients: 1/10 each",
        f"exact match: {exact_match}",
    ]
    _emit(args, out, text_lines=lines)
    return 0 if exact_match else 3


def _cmd_factorize_check(args) -> int:
    from .splinecore import convolution_factorization_check

    if not args.tol >= 0:  # NaN included
        raise ValueError(f"tol must be >= 0, got {args.tol!r}")
    inst = _load_instance(args)
    if inst["s"] != 1:
        raise ValueError("univariate instance required")
    rep = convolution_factorization_check([c[0] for c in inst["columns"]],
                                          inst["lam"], grid_size=args.grid,
                                          iters=args.iters)
    out = {"config": _config_echo(args), "report": rep.to_jsonable(),
           "tolerance": args.tol}
    _emit(args, out)
    return 0 if rep.sup_rel_distance <= args.tol else 1


# ---------------------------------------------------------------------------
# parser


def _add_instance_flags(sp) -> None:
    sp.add_argument("--instance", help="instance JSON file")
    sp.add_argument("--field", help="field descriptor 'n,k'")
    sp.add_argument("--lambda", dest="lam", help="dilation, field-element text")
    sp.add_argument("--columns", help="directions 'fe;fe;...' (',' inside a column)")


def _add_common_flags(sp) -> None:
    sp.add_argument("--prec", type=int, default=64, help="precision bits")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.add_argument("--out", help="write the report to this path")
    sp.add_argument("--format", choices=["json", "csv", "text"], default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="refinable",
        description="Exact refinability decisions for box splines under "
                    "non-integer dilations, with certified orbit avoidance.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("check", help="refinability decision")
    _add_instance_flags(sp)
    _add_common_flags(sp)
    sp.add_argument("--verify-mask", dest="verify_mask",
                    help="mask JSON to re-check against the instance")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("mask", help="construct and print the mask")
    _add_instance_flags(sp)
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_mask)

    sp = sub.add_parser("lawton", help="Q(z) | Q(z^m) divisibility test")
    sp.add_argument("--p", required=True, help="coefficients 'p0,p1,...'")
    sp.add_argument("--d", type=int, required=True, help="spline degree")
    sp.add_argument("--m", type=int, required=True, help="integer dilation")
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_lawton)

    sp = sub.add_parser("erdos", help="orbit avoidance certificate")
    sp.add_argument("--field", help="field descriptor 'n,k' (default Q)")
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--targets", default="0", help="residues 'r1;r2;...'")
    sp.add_argument("--depth", type=int, default=4)
    sp.add_argument("--c", help="user-supplied constant (must stay admissible)")
    sp.add_argument("--extra-n", dest="extra_n", type=int, default=0,
                    help="empirical scan beyond the certified window")
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_erdos)

    sp = sub.add_parser("cascade", help="grid cascade solution")
    _add_instance_flags(sp)
    sp.add_argument("--bspline", type=int, help="B-spline degree shortcut")
    sp.add_argument("--m", type=int, help="integer dilation for --bspline")
    sp.add_argument("--grid", type=int, default=1024)
    sp.add_argument("--iters", type=int, default=30)
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_cascade)

    sp = sub.add_parser("ftprobe", help="Fourier product vs closed form")
    _add_instance_flags(sp)
    sp.add_argument("--J", type=int, default=40)
    sp.add_argument("--points", type=int, default=100)
    sp.add_argument("--wmax", type=float, default=50.0)
    sp.add_argument("--tol", type=float, default=1e-8)
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_ftprobe)

    sp = sub.add_parser("decay", help="Fourier-decay probe")
    _add_instance_flags(sp)
    sp.add_argument("--bspline", type=int, help="B-spline degree shortcut")
    sp.add_argument("--m", type=int, help="integer dilation for --bspline")
    sp.add_argument("--J", type=int, default=200)
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_decay)

    sp = sub.add_parser("mvcheck", help="s-variate refinability decision")
    _add_instance_flags(sp)
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_mvcheck)

    sp = sub.add_parser("counterexample",
                        help="reproduce the non-lattice translation instance")
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_counterexample)

    sp = sub.add_parser("factorize-check", help="k-fold convolution check")
    _add_instance_flags(sp)
    sp.add_argument("--grid", type=int, default=4096)
    sp.add_argument("--iters", type=int, default=30)
    sp.add_argument("--tol", type=float, default=1e-2)
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_factorize_check)

    return ap


def run(argv: list[str]) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except INTERNAL_ERRORS as exc:
        sys.stderr.write(f"internal consistency error: {exc}\n")
        return 3
    except (RefinableError, *USAGE_ERRORS, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
