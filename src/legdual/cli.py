"""Command-line front end: evaluate functions, verify identities, run the
whole suite, and emit sweep, convergence, and asymptotic tables as JSON, CSV,
or text.

Exit codes: 0 success, 1 domain or usage error, 2 verification failure.
"""

import argparse
import csv
import io
import json
import re
import sys

from .errors import ConvergenceError, DomainError, LegdualError
from .harness import HarnessConfig, asymptotic_checks, convergence_table, run_suite
from .hypergeom import DEFAULT_POLICY, TruncationPolicy
from .legendre import ParameterPoint, ferrers_p, legendre_p, legendre_q
from .registry import _schema, evaluate_identity, list_identities, sweep_identity

__all__ = ["main", "entry", "parse_complex", "format_complex"]

_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:(?P<sign>[+-])(?P<im>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)

_EVAL_FNS = {
    "ferrers": ferrers_p,
    "legendre": legendre_p,
    "legendre_q": legendre_q,
}


def parse_complex(text: str) -> complex:
    """`<real>` or `<real>(+|-)<real>i`, no spaces, '.' decimal point."""
    m = _COMPLEX_RE.match(text.strip())
    if m is None:
        raise ValueError(f"cannot parse complex literal '{text}'")
    re_part = float(m.group("re"))
    if m.group("im") is None:
        return complex(re_part, 0.0)
    im = float(m.group("im"))
    return complex(re_part, im if m.group("sign") == "+" else -im)


def _sig17(v: float) -> str:
    return f"{v:.17g}"


def format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_sig17(z.real)}{sign}{_sig17(abs(z.imag))}i"


def _catalog_params() -> dict:
    """The union of every entry's parameter names and kinds."""
    return {k: v for d in list_identities() for k, v in _schema(d.id).items()}


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sub.add_argument("--out", help="write output to this file instead of stdout")


def _add_params(sub: argparse.ArgumentParser) -> None:
    for name in _catalog_params():
        sub.add_argument(f"--{name}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legdual",
        description="Ferrers/Legendre function evaluation and identity verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate a function at a point")
    p_eval.add_argument("function", choices=sorted(_EVAL_FNS))
    p_eval.add_argument("--nu", required=True)
    p_eval.add_argument("--mu", required=True)
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--rel-tol", type=float, help="series relative tolerance")
    p_eval.add_argument("--max-terms", type=int, help="series term cap")
    _add_output(p_eval)

    p_verify = subs.add_parser("verify", help="check one identity at one point")
    p_verify.add_argument("id")
    p_verify.add_argument("--x", type=float, required=True)
    _add_params(p_verify)
    _add_output(p_verify)

    p_sweep = subs.add_parser("sweep", help="check one identity over sampled points")
    p_sweep.add_argument("id")
    p_sweep.add_argument("--samples", type=int, default=30)
    p_sweep.add_argument("--seed", type=int, default=0)
    _add_output(p_sweep)

    p_suite = subs.add_parser("suite", help="run the whole identity suite")
    p_suite.add_argument("--seed", type=int, default=0)

    p_conv = subs.add_parser("convergence",
                             help="per-term convergence diagnostics at a point")
    p_conv.add_argument("id")
    p_conv.add_argument("--x", type=float, required=True)
    p_conv.add_argument("--n-max", type=int, default=40)
    _add_params(p_conv)
    _add_output(p_conv)

    p_asympt = subs.add_parser("asympt", help="run the asymptotic ratio checks")
    _add_output(p_asympt)

    p_list = subs.add_parser("list", help="enumerate the identity catalog")
    _add_output(p_list)

    return parser


def _policy_from(args: argparse.Namespace) -> TruncationPolicy:
    given = {"rel_tol": args.rel_tol, "max_terms": args.max_terms}
    try:
        return DEFAULT_POLICY._replace(**{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:
        # TruncationPolicy's message opens with the field: name its flag
        raise ValueError("--" + str(exc).replace("_", "-", 1)) from None


def _collect_params(args: argparse.Namespace) -> dict:
    """The parameter flags given, parsed; the registry checks the point."""
    return {name: parse_complex(getattr(args, name)) for name in _catalog_params()
            if getattr(args, name) is not None}


def _emit(args: argparse.Namespace, doc, csv_rows, text_lines) -> None:
    fmt = args.format
    if fmt == "json":
        payload = json.dumps(doc, sort_keys=True, indent=2)
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows)
        payload = buf.getvalue().rstrip("\n")
    else:
        payload = "\n".join(text_lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _flatten(doc: dict, prefix: str = "") -> dict:
    # a nested dict becomes <key>_<name> columns, an [re, im] pair <key>_re
    # and <key>_im
    out = {}
    for key, value in doc.items():
        name = prefix + key
        if isinstance(value, dict):
            out.update(_flatten(value, name + "_"))
        elif isinstance(value, list):
            out[name + "_re"], out[name + "_im"] = value
        else:
            out[name] = value
    return out


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _sig17(value)
    return str(value)


def _csv_rows(docs) -> list:
    """One row per JSON document, one column per flattened key, in order."""
    flat = [_flatten(doc) for doc in docs]
    header = list(dict.fromkeys(k for row in flat for k in row))
    return [header] + [[_cell(row.get(k)) for k in header] for row in flat]


def _cmd_eval(args: argparse.Namespace) -> int:
    fn = _EVAL_FNS[args.function]
    pt = ParameterPoint(parse_complex(args.nu), parse_complex(args.mu))
    sv = fn(pt, args.x, _policy_from(args))
    v = complex(sv.value)
    doc = {
        "function": args.function,
        "nu": [pt.nu.real, pt.nu.imag],
        "mu": [pt.mu.real, pt.mu.imag],
        "x": args.x,
        "value": [v.real, v.imag],
        "terms_used": sv.terms_used,
        "error_estimate": sv.error_estimate,
    }
    _emit(args, doc, _csv_rows([doc]), [format_complex(v)])
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    params = _collect_params(args)
    report = evaluate_identity(args.id, params, args.x)
    doc = report.to_dict()
    _emit(args, doc, _csv_rows([doc]),
          [f"{report.id}: {'pass' if report.passed else 'FAIL'} "
           f"rel_err={report.rel_err:.3e}"])
    return 0 if report.passed else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    reports = sweep_identity(args.id, n_samples=args.samples, seed=args.seed)
    n_fail = sum(1 for r in reports if not r.passed)
    doc = {"id": args.id, "samples": args.samples, "seed": args.seed,
           "points": len(reports), "failures": n_fail,
           "reports": [r.to_dict() for r in reports]}
    text = [f"{args.id}: {len(reports) - n_fail}/{len(reports)} points pass"]
    _emit(args, doc, _csv_rows(doc["reports"]), text)
    return 0 if n_fail == 0 else 2


def _cmd_suite(args: argparse.Namespace) -> int:
    # the report on stdout is byte-identical across runs; the time is not
    result = run_suite(HarnessConfig(seed=args.seed))
    print(result.serialize())
    print(f"wall_time={result.wall_time:.3f} s", file=sys.stderr)
    return 0 if result.ok else 2


def _cmd_convergence(args: argparse.Namespace) -> int:
    params = _collect_params(args)
    rows = convergence_table(args.id, params, args.x, args.n_max)
    # how the summed right-hand side stops; a sum that fails says why instead
    try:
        report = evaluate_identity(args.id, params, args.x)
        stop = {"stop_reason": report.stop_reason,
                "extrap_err": report.extrap_err,
                "terms_used": report.terms_used}
        stop_text = (f"stop_reason={report.stop_reason} "
                     f"extrap_err={report.extrap_err:.6e} "
                     f"terms_used={report.terms_used}")
    except (ConvergenceError, DomainError) as exc:
        stop = {"stop_reason": None, "extrap_err": None, "terms_used": None,
                "error": f"{type(exc).__name__}: {exc}"}
        stop_text = f"error={stop['error']}"
    doc = {"id": args.id, "x": args.x, **stop,
           "rows": [{"n": n, "term_mag": t, "error": e} for n, t, e in rows]}
    # each CSV row repeats how the sum stopped; "error" is the row's own
    # column there, so a failure's message is "failure"
    stop["failure"] = stop.pop("error", None)
    text = [f"{n:4d}  {t:.6e}  {e:.6e}" for n, t, e in rows] + [stop_text]
    _emit(args, doc, _csv_rows({**row, **stop} for row in doc["rows"]), text)
    return 0


def _cmd_asympt(args: argparse.Namespace) -> int:
    outcomes = asymptotic_checks()
    rows = sorted(outcomes.items())
    text = [f"{k}: {'pass' if v else 'FAIL'}" for k, v in rows]
    _emit(args, outcomes, _csv_rows({"check": k, "passed": v} for k, v in rows), text)
    return 0 if all(outcomes.values()) else 2


def _cmd_list(args: argparse.Namespace) -> int:
    descs = list_identities()
    doc = [{"id": d.id, "kind": d.kind.value} for d in descs]
    text = [f"{d.id:12s} {d.kind.value}" for d in descs]
    _emit(args, doc, _csv_rows(doc), text)
    return 0


_DISPATCH = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "suite": _cmd_suite,
    "convergence": _cmd_convergence,
    "asympt": _cmd_asympt,
    "list": _cmd_list,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _DISPATCH[args.command](args)
    except (LegdualError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
