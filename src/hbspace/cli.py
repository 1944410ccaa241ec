"""Command-line surface: parse symbol/measure JSON, run analyzers, emit reports.

Exit codes: 0 determinate verdicts, 2 at least one undetermined verdict,
3 inconsistent equivalence group (both reports attached in the output),
1 input or convergence errors.  Reports are written atomically.
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import scenarios
from .analyzers import (
    a2_check,
    carleson_sup_scan,
    corona_check,
    direct_carleson_verdict,
    norm_equivalence_verdict,
    reverse_carleson_verdict,
    reverse_inf_scan,
    _jsonable,
)
from .convergence import DEFAULT_DEPTH, DEFAULT_GRID_EXPONENT
from .errors import ConfigurationError, HbError
from .measures import DiskMeasure, GridArcWeight, PowerArcWeight
from .space import (
    SymbolB,
    _complex_list,
    cauchy_kernel_taylor,
    hb_norm,
    kernel_norm_closed_form,
    monomial_norm,
    pythagorean_mate,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDETERMINED = 2
EXIT_INCONSISTENT = 3


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno} "
            f"(char {exc.pos}): {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hb-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(doc, args, text_summary=None):
    payload = json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"
    out = getattr(args, "out", None)
    if out:
        _atomic_write(out, payload)
    if text_summary and getattr(args, "format", "json") == "text":
        print(text_summary)
    elif not out:
        print(payload, end="")


def _check_bounds(args):
    ge = getattr(args, "grid_exp", None)
    if ge is not None and not 8 <= ge <= 18:
        raise ConfigurationError(f"grid exponent {ge} outside [8, 18]")
    depth = getattr(args, "depth", None)
    if depth is not None and not 4 <= depth <= 20:
        raise ConfigurationError(f"scan depth {depth} outside [4, 20]")
    cap = getattr(args, "truncation_cap", None)
    if cap is not None and not 256 <= cap <= 2 ** 16:
        raise ConfigurationError(f"truncation cap {cap} outside [256, 65536]")


def _pair(args):
    """The symbol in `--b` and its mate on the `--grid-exp` grid, once the bounds are checked."""
    _check_bounds(args)
    b = SymbolB.from_json(_load_json(args.b))
    return pythagorean_mate(b, size=2 ** args.grid_exp)


def _measure(args):
    return DiskMeasure.from_json(_load_json(args.mu))


def _weight(args):
    if getattr(args, "alpha", None) is not None:
        alpha = float(args.alpha)
        return PowerArcWeight(2.0 * alpha, 1.0, 0.0)
    doc = _load_json(args.weight)
    if "grid" in doc:
        return GridArcWeight(np.asarray(doc["grid"], dtype=float))
    if "power" in doc:
        p = doc["power"]
        return PowerArcWeight(
            float(p["exponent"]), float(p.get("scale", 1.0)), float(p.get("angle", 0.0))
        )
    raise ConfigurationError("weight JSON must contain 'grid' or 'power'")


def _report_exit(report):
    doc = report.to_json()
    if report.diagnostics.get("equivalence_violation"):
        return EXIT_INCONSISTENT, doc
    flat = [c.verdict for c in report.conditions.values()]
    if report.overall == "undetermined" or "undetermined" in flat:
        return EXIT_UNDETERMINED, doc
    return EXIT_OK, doc


def cmd_mate(args):
    pair = _pair(args)
    doc = {
        "extremeness": pair.extremeness.to_json(),
        "mate_residual": pair.diagnostics.get("mate_residual"),
        "a": _describe_a(pair.a),
    }
    summary = (
        f"extremeness: {pair.extremeness.verdict}\n"
        f"mate identity residual: {pair.diagnostics.get('mate_residual'):.3e}"
    )
    _emit(doc, args, summary)
    return EXIT_OK


def _describe_a(a):
    from .functions import GridOuter, PowerOuter, RationalFn

    if isinstance(a, RationalFn):
        return {"form": "rational", "numerator": _complex_list(a.num),
                "denominator": _complex_list(a.den)}
    if isinstance(a, PowerOuter):
        return {"form": "power", "alpha": a.alpha, "scale": a.scale}
    if isinstance(a, GridOuter):
        return {"form": "outer_grid", "value_at_zero": a.value_at_zero()}
    return {"form": type(a).__name__}


def cmd_norms(args):
    pair = _pair(args)
    cap = args.truncation_cap
    if args.monomial is not None:
        value = monomial_norm(args.monomial, pair)
        doc = {"input": {"monomial": args.monomial}, "hb_norm": value}
    elif args.kernel is not None:
        lam = complex(*(float(x) for x in args.kernel.split(",")))
        closed = kernel_norm_closed_form(lam, pair)
        generic = hb_norm(cauchy_kernel_taylor(lam), pair, cap=cap)
        doc = {
            "input": {"kernel": [lam.real, lam.imag]},
            "hb_norm": generic,
            "closed_form": float(np.sqrt(closed.norm_squared)),
        }
    else:
        coeffs = np.array([complex(c[0], c[1]) for c in _load_json(args.coeffs)])
        doc = {"input": {"coefficients": len(coeffs)}, "hb_norm": hb_norm(coeffs, pair, cap=cap)}
    _emit(doc, args, f"hb_norm: {doc['hb_norm']:.12g}")
    return EXIT_OK


def cmd_analyze(kind):
    def run(args):
        pair = _pair(args)
        mu = _measure(args)
        if kind == "direct":
            report = direct_carleson_verdict(pair, mu, depth=args.depth, seed=args.seed)
        elif kind == "reverse":
            report = reverse_carleson_verdict(pair, mu, depth=args.depth)
        else:
            report = norm_equivalence_verdict(pair, mu, depth=args.depth)
        code, doc = _report_exit(report)
        lines = [f"{kind}: {report.overall}"]
        for key, cond in report.conditions.items():
            lines.append(f"  {key}: {cond.verdict}"
                         + (f" (value {cond.value:.6g})" if cond.value is not None else ""))
        _emit(doc, args, "\n".join(lines))
        return code

    return run


def cmd_a2(args):
    _check_bounds(args)
    scan = a2_check(_weight(args), depth=args.depth)
    verdict = scan.verdict()
    doc = {"verdict": verdict, "scan": scan.to_json()}
    _emit(doc, args, f"a2: {verdict} (sup {scan.value:.6g}, exponent {scan.exponent:.3f})")
    return EXIT_UNDETERMINED if verdict == "undetermined" else EXIT_OK


def cmd_corona(args):
    pair = _pair(args)
    scan = corona_check(pair, depth=args.depth)
    verdict = scan.verdict()
    _emit(scan.to_json(), args, f"corona: {verdict} (inf {scan.value:.6g})")
    return EXIT_UNDETERMINED if verdict == "undetermined" else EXIT_OK


def cmd_scenario(args):
    if args.action == "list":
        doc = {"catalog": scenarios.catalog()}
        _emit(doc, args, "\n".join(scenarios.catalog()))
        return EXIT_OK
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise ConfigurationError(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            params[key] = float(value)
        except ValueError:
            params[key] = value
    if args.name == "all":
        doc = scenarios.run_all(depth=args.depth, seed=args.seed)
        ok = doc["all_ok"]
    else:
        scenario = scenarios.build(args.name, params)
        doc = scenarios.run_scenario(scenario, depth=args.depth, seed=args.seed)
        ok = doc["ok"]
    lines = []
    for r in doc["scenarios"] if "scenarios" in doc else [doc]:
        for c in r["checks"]:
            mark = "ok " if c["ok"] else "MISMATCH"
            lines.append(f"{r['name']}: {c['analyzer']} expected={c['expected']} "
                         f"actual={c['actual']} [{mark}]")
    _emit(doc, args, "\n".join(lines))
    return EXIT_OK if ok else EXIT_UNDETERMINED


def cmd_scan_dump(args):
    _check_bounds(args)
    if args.kind == "a2":
        scan = a2_check(_weight(args), depth=args.depth, collect_table=True)
    else:
        mu = _measure(args)
        if args.kind == "reverse":
            scan = reverse_inf_scan(mu, depth=args.depth, collect_table=True)
        else:
            scan = carleson_sup_scan(mu, depth=args.depth, collect_table=True)
    csv_text = scan.table_csv()
    if args.out:
        _atomic_write(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hb",
        description="de Branges-Rovnyak space computations and Carleson measure analysis",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, mu=False, depth=True):
        p.add_argument("--seed", type=int, default=0,
                       help="seed for pseudo-random alpha scans and sampling draws")
        p.add_argument("--b", required=True, help="symbol JSON file")
        if mu:
            p.add_argument("--mu", required=True, help="measure JSON file")
        p.add_argument("--grid-exp", type=int, default=DEFAULT_GRID_EXPONENT,
                       dest="grid_exp", help="boundary grid exponent in [8, 18]")
        if depth:
            p.add_argument("--depth", type=int, default=DEFAULT_DEPTH,
                           help="dyadic scan depth in [4, 20]")
        p.add_argument("--truncation-cap", type=int, default=2 ** 16, dest="truncation_cap")
        p.add_argument("--out", help="report path (written atomically)")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("mate", help="construct the Pythagorean mate")
    common(p, depth=False)
    p.set_defaults(func=cmd_mate)

    p = sub.add_parser("norms", help="H(b) norms of monomials, kernels, or coefficient data")
    common(p, depth=False)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--monomial", type=int)
    g.add_argument("--kernel", help="lambda as 're,im'")
    g.add_argument("--coeffs", help="JSON file of [re, im] Taylor coefficients")
    p.set_defaults(func=cmd_norms)

    for kind, label in (("direct", "direct Carleson"), ("reverse", "reverse Carleson"),
                        ("equivalence", "norm equivalence")):
        p = sub.add_parser(f"analyze-{kind}", help=f"{label} analysis")
        common(p, mu=True)
        p.set_defaults(func=cmd_analyze(kind))

    p = sub.add_parser("a2", help="Muckenhoupt condition scan")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--weight", help="weight JSON file ('grid' or 'power')")
    g.add_argument("--alpha", type=float,
                   help="shortcut for the weight |1 - e^(it)|^(2 alpha)")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.set_defaults(func=cmd_a2)

    p = sub.add_parser("corona", help="corona pair check")
    common(p)
    p.set_defaults(func=cmd_corona)

    p = sub.add_parser("scenario", help="catalog scenarios")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("name", nargs="?", default="all")
    p.add_argument("--param", action="append", help="key=value, repeatable")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("scan-dump", help="emit per-arc scan values as CSV")
    p.add_argument("--kind", choices=("reverse", "carleson", "a2"), required=True)
    p.add_argument("--mu", help="measure JSON (reverse/carleson)")
    p.add_argument("--weight", help="weight JSON (a2)")
    p.add_argument("--alpha", type=float)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_scan_dump)
    return parser


_parser = None  # built by the first `main` call of the process


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except HbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
