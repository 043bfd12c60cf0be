"""Command-line front end: evaluate functions, verify identities, run the
whole suite, and emit sweep, convergence, and asymptotic tables as JSON, CSV,
or text.

Exit codes: 0 success, 1 domain or usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .errors import ConvergenceError, LegdualError
from .harness import HarnessConfig, asymptotic_checks, convergence_table, run_suite
from .hypergeom import DEFAULT_POLICY, TruncationPolicy
from .legendre import ParameterPoint, ferrers_p, legendre_p, legendre_q
from .registry import evaluate_identity, get_descriptor, list_identities, sweep_identity

__all__ = ["main", "entry", "parse_complex", "format_complex"]

_ENV_PREFIX = "LEGDUAL_"

_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:(?P<sign>[+-])(?P<im>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)

_PARAM_FLAGS = ("nu", "mu", "lam", "k", "m", "l")
_INT_PARAMS = frozenset(("k", "m", "l"))

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
        z = complex(re_part, 0.0)
    else:
        im = float(m.group("im"))
        z = complex(re_part, im if m.group("sign") == "+" else -im)
    if not (abs(z.real) < float("inf") and abs(z.imag) < float("inf")):
        raise ValueError(f"complex literal '{text}' is not finite")
    return z


def _sig17(v: float) -> str:
    return f"{v:.17g}"


def format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_sig17(z.real)}{sign}{_sig17(abs(z.imag))}i"


def _env_default(name: str, fallback=None):
    return os.environ.get(_ENV_PREFIX + name.upper(), fallback)


def _add_policy(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rel-tol", type=float,
                     default=_env_default("rel_tol"), help="series relative tolerance")
    sub.add_argument("--max-terms", type=int,
                     default=_env_default("max_terms"), help="series term cap")


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv", "text"),
                     default=_env_default("format", "json"))
    sub.add_argument("--out", default=_env_default("out"),
                     help="write output to this file instead of stdout")


def _add_params(sub: argparse.ArgumentParser) -> None:
    for name in _PARAM_FLAGS:
        sub.add_argument(f"--{name}", default=None)


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
    _add_policy(p_eval)
    _add_output(p_eval)

    p_verify = subs.add_parser("verify", help="check one identity at one point")
    p_verify.add_argument("id")
    p_verify.add_argument("--x", type=float, required=True)
    _add_params(p_verify)
    _add_policy(p_verify)
    _add_output(p_verify)

    p_sweep = subs.add_parser("sweep", help="check one identity over sampled points")
    p_sweep.add_argument("id")
    p_sweep.add_argument("--samples", type=int, default=30)
    p_sweep.add_argument("--seed", type=int, default=_env_default("seed", "0"))
    _add_policy(p_sweep)
    _add_output(p_sweep)

    p_suite = subs.add_parser("suite", help="run the whole identity suite")
    p_suite.add_argument("--seed", type=int, default=_env_default("seed", "0"))

    p_conv = subs.add_parser("convergence",
                             help="per-term convergence diagnostics at a point")
    p_conv.add_argument("id")
    p_conv.add_argument("--x", type=float, required=True)
    p_conv.add_argument("--n-max", type=int, default=40)
    _add_params(p_conv)
    _add_policy(p_conv)
    _add_output(p_conv)

    p_asympt = subs.add_parser("asympt", help="run the asymptotic ratio checks")
    _add_output(p_asympt)

    p_list = subs.add_parser("list", help="enumerate the identity catalog")
    _add_output(p_list)

    return parser


def _policy_from(args: argparse.Namespace) -> TruncationPolicy:
    rel_tol, max_terms = args.rel_tol, args.max_terms
    if rel_tol is None and max_terms is None:
        return DEFAULT_POLICY
    return TruncationPolicy(
        rel_tol=float(rel_tol) if rel_tol is not None else DEFAULT_POLICY.rel_tol,
        abs_floor=DEFAULT_POLICY.abs_floor,
        consecutive_small=DEFAULT_POLICY.consecutive_small,
        max_terms=int(max_terms) if max_terms is not None else DEFAULT_POLICY.max_terms,
    )


def _collect_params(args: argparse.Namespace) -> dict:
    params = {}
    for name in _PARAM_FLAGS:
        raw = getattr(args, name, None)
        if raw is None:
            continue
        z = parse_complex(str(raw))
        if name in _INT_PARAMS:
            if z.imag != 0.0 or z.real != int(z.real):
                raise ValueError(f"--{name} must be an integer, got '{raw}'")
            params[name] = int(z.real)
        else:
            params[name] = z
    if not params:
        raise ValueError("no identity parameters given")
    return params


def _emit(args: argparse.Namespace, doc, csv_rows=None, text_lines=None) -> None:
    fmt = args.format
    if fmt == "json":
        payload = json.dumps(doc, sort_keys=True, indent=2)
    elif fmt == "csv":
        if csv_rows is None:
            raise ValueError("csv output is not available for this command")
        payload = "\n".join(",".join(row) for row in csv_rows)
    else:
        payload = "\n".join(text_lines if text_lines is not None
                            else [json.dumps(doc, sort_keys=True)])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _report_csv(reports) -> list:
    header = ["id", "x", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
              "abs_err", "rel_err", "terms_used", "passed", "tolerance"]
    rows = [header]
    for r in reports:
        rows.append([
            r.id, _sig17(r.x),
            _sig17(r.lhs.real), _sig17(r.lhs.imag),
            _sig17(r.rhs.real), _sig17(r.rhs.imag),
            _sig17(r.abs_err), _sig17(r.rel_err),
            str(r.terms_used), str(r.passed).lower(), _sig17(r.tolerance_used),
        ])
    return rows


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
    csv_rows = [["function", "x", "value_re", "value_im", "terms_used"],
                [args.function, _sig17(args.x), _sig17(v.real), _sig17(v.imag),
                 str(sv.terms_used)]]
    _emit(args, doc, csv_rows, [format_complex(v)])
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    get_descriptor(args.id)
    params = _collect_params(args)
    report = evaluate_identity(args.id, params, args.x, _policy_from(args))
    _emit(args, report.to_dict(), _report_csv([report]),
          [f"{report.id}: {'pass' if report.passed else 'FAIL'} "
           f"rel_err={report.rel_err:.3e}"])
    return 0 if report.passed else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    get_descriptor(args.id)
    reports = sweep_identity(args.id, n_samples=args.samples, seed=args.seed,
                             policy=_policy_from(args))
    n_fail = sum(1 for r in reports if not r.passed)
    doc = {"id": args.id, "samples": args.samples, "seed": args.seed,
           "points": len(reports), "failures": n_fail,
           "reports": [r.to_dict() for r in reports]}
    text = [f"{args.id}: {len(reports) - n_fail}/{len(reports)} points pass"]
    _emit(args, doc, _report_csv(reports), text)
    return 0 if n_fail == 0 else 2


def _cmd_suite(args: argparse.Namespace) -> int:
    # the report on stdout is byte-identical across runs; the time is not
    result = run_suite(HarnessConfig(seed=args.seed))
    print(result.serialize())
    print(f"wall_time={result.wall_time:.3f} s", file=sys.stderr)
    return 0 if result.ok else 2


def _cmd_convergence(args: argparse.Namespace) -> int:
    get_descriptor(args.id)
    params = _collect_params(args)
    policy = _policy_from(args)
    rows = convergence_table(args.id, params, args.x, args.n_max, policy)
    # how the summed right-hand side stops; a sum that fails says why instead
    try:
        report = evaluate_identity(args.id, params, args.x, policy)
        stop = {"stop_reason": report.stop_reason,
                "extrap_err": report.extrap_err,
                "terms_used": report.terms_used}
        stop_text = (f"stop_reason={report.stop_reason} "
                     f"extrap_err={report.extrap_err:.6e} "
                     f"terms_used={report.terms_used}")
    except ConvergenceError as exc:
        stop = {"stop_reason": None, "extrap_err": None, "terms_used": None,
                "error": f"{type(exc).__name__}: {exc}"}
        stop_text = f"error={stop['error']}"
    doc = {"id": args.id, "x": args.x, **stop,
           "rows": [{"n": n, "term_mag": t, "error": e} for n, t, e in rows]}
    sr = "" if stop["stop_reason"] is None else stop["stop_reason"]
    ee = "" if stop["extrap_err"] is None else _sig17(stop["extrap_err"])
    csv_rows = [["n", "term_mag", "error", "stop_reason", "extrap_err"]]
    csv_rows += [[str(n), _sig17(t), _sig17(e), sr, ee] for n, t, e in rows]
    text = [f"{n:4d}  {t:.6e}  {e:.6e}" for n, t, e in rows] + [stop_text]
    _emit(args, doc, csv_rows, text)
    return 0


def _cmd_asympt(args: argparse.Namespace) -> int:
    outcomes = asymptotic_checks()
    csv_rows = [["check", "passed"]]
    csv_rows += [[k, str(v).lower()] for k, v in sorted(outcomes.items())]
    text = [f"{k}: {'pass' if v else 'FAIL'}" for k, v in sorted(outcomes.items())]
    _emit(args, outcomes, csv_rows, text)
    return 0 if all(outcomes.values()) else 2


def _cmd_list(args: argparse.Namespace) -> int:
    descs = list_identities()
    doc = [{"id": d.id, "kind": d.kind.value} for d in descs]
    csv_rows = [["id", "kind"]] + [[d.id, d.kind.value] for d in descs]
    text = [f"{d.id:12s} {d.kind.value}" for d in descs]
    _emit(args, doc, csv_rows, text)
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
