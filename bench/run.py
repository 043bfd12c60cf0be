"""legdual benchmark: seeded workloads against the public API, end-to-end
metrics with tracing off, and per-layer metrics from a separate traced run.

Run from the repository root:

    python3 bench/run.py --workload catalog --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --seed 0            # every workload, one child each

``--trace 0`` measures set-up, then repeats timed passes over the seeded
inputs until ``--seconds`` have elapsed (at least one pass) and reports the
end-to-end metrics.  ``--trace 1`` runs one traced pass and reports the
per-layer metrics and the tracing overhead.  Every pass is
checked; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` is the
number of distinct operations in the seeded inputs and ``failed`` the number
of those that failed in any pass, so both depend on the seed alone, not on
how many passes fitted in the time.  The exit code is 0
when every check passed, 1 when one failed, and 2 when the library could not
be imported or set up (no result is printed then).

Each run also writes its full record (machine, source digest, checks,
metrics) to ``bench/results/``, plus the spans of a traced run; ``--out
FILE`` appends the record to a trajectory file such as ``bench/BENCH_0.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from reference import REF_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("catalog", "finite_sweep", "point_eval")
SETUP_REPEATS = 9

# Identities swept one by one in the traced run (the infinite series).
SERIES_IDS = (
    "thm4.fwd", "thm4.inv", "thm5.fwd", "thm5.inv", "thm6.p1a", "thm6.p1b",
    "thm6.p2a", "thm6.p2b", "thm7.q1", "thm7.q2", "thm7.q3", "thm7.q4",
    "thm8.g1", "thm8.r1", "thm8.r2", "thm8.g2", "thm9.fwd", "thm9.inv",
)

# name -> (unit, better); the order of BENCHMARK.json.  Times are in "ref",
# multiples of the reference loop's time measured alongside (see
# reference.py); setup_s, which must be in seconds, is its ref value times
# REF_NOMINAL_S.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_ref": ("ref", "lower"),
    "ops_per_ref": ("1/ref", "higher"),
    "op_p99_ref": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed and recorded, but not compared between commits: the raw times
# drift with the host's load; a catalog pass's median op is one of the short
# finite sums, so which of them the seed draws moves it by 15-50%; and the
# quality figures are 0, or vary over orders of magnitude, on a correct
# program.
RAW = {
    "setup_raw_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ref": "ref",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "ref_s": "s",
    "failed_frac": "fraction",
    "worst_rel_err": "ratio",
    "termscale_frac": "fraction",
}


def _per_layer() -> dict:
    out = {}
    for prefix in ("hypergeom.gauss_2f1", "hypergeom.pfq_terminating",
                   "hypergeom.gamma", "hypergeom.pochhammer",
                   "legendre.ferrers_p", "legendre.legendre_p", "legendre.legendre_q",
                   "coeffs.frak_N", "coeffs.frak_D", "coeffs.omega_pm",
                   "coeffs.script_G", "coeffs.script_G_hat", "coeffs.frak_p",
                   "coeffs.lauricella_G",
                   "polys.gauss_hyper_poly", "polys.gegenbauer",
                   "polys.mittag_leffler_g", "polys.bateman_g", "polys.jacobi",
                   "registry.evaluate_identity", "registry.P"):
        out[f"{prefix}.calls"] = ("count", "lower")
        out[f"{prefix}.self_s"] = ("s", "lower")
    out["hypergeom.gauss_2f1.terms"] = ("count", "lower")
    out["legendre.failed"] = ("count", "lower")
    out["registry.evaluate_identity.p50_ms"] = ("ms", "lower")
    out["registry.evaluate_identity.p99_ms"] = ("ms", "lower")
    out["registry.terms"] = ("count", "lower")
    for ident in SERIES_IDS + ("finite_sum", "vanishing_sum"):
        out[f"registry.sweep.{ident}.s"] = ("s", "lower")
    out["asympt.tail_order_predict.calls"] = ("count", "lower")
    out["harness.run_suite.self_s"] = ("s", "lower")
    out["harness.asymptotic_checks.s"] = ("s", "lower")
    out["trace.wall_s"] = ("s", "lower")
    out["trace.calls"] = ("count", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    out["trace.self_share"] = ("fraction", "higher")
    return out


PER_LAYER = _per_layer()


class SetupError(RuntimeError):
    """The library could not be imported or set up; no result is printed."""


# --------------------------------------------------------------------------
# environment


def import_library():
    """Import legdual from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import legdual
    except ImportError as exc:
        raise SetupError(f"cannot import legdual from {SRC}: {exc}") from exc
    if SRC not in Path(legdual.__file__).resolve().parents:
        raise SetupError(f"legdual imported from {legdual.__file__}, not {SRC}")
    return legdual


def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def src_digest() -> str:
    """sha256 over the library sources, naming the code measured."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


_SETUP_CODE = """\
import sys, time
sys.path.insert(0, {bench!r})
from reference import reference_loop
r0 = time.perf_counter()
reference_loop()
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import legdual
legdual.list_identities()
t1 = time.perf_counter()
reference_loop()
r1 = time.perf_counter()
print(t1 - t0, (t0 - r0 + r1 - t1) / 2, legdual.__file__)
"""


def measure_setup(repeats: int = SETUP_REPEATS) -> list:
    """(seconds, reference seconds) from a fresh interpreter's `import
    legdual` until the catalog is listable, timed inside `repeats` child
    processes after one untimed child that writes the bytecode caches; each
    child also times the reference loop just before and after."""
    code = _SETUP_CODE.format(bench=str(HERE), src=str(SRC))
    samples = []
    for i in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-E", "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up child failed: {proc.stderr.strip()}")
        seconds, ref, path = proc.stdout.split()
        if SRC not in Path(path).resolve().parents:
            raise SetupError(f"set-up child imported legdual from {path}")
        if i:
            samples.append((float(seconds), float(ref)))
    return samples


# --------------------------------------------------------------------------
# metrics


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(setup: list, passes: list, outcome) -> tuple:
    """(metrics, raw, notes) of an untraced run; `passes` holds
    (wall seconds, seconds spent on the reference, work in ref,
    median reference seconds, op latencies in s, op latencies in ref) per
    pass."""
    wall_ref = statistics.median(work for _, _, work, *_ in passes)
    wall_s = statistics.median(wall - spent for wall, spent, *_ in passes)
    ops_per_pass = outcome.ops
    metrics = {
        # set-up in ref, reported as seconds at the nominal reference speed
        "setup_s": REF_NOMINAL_S * statistics.median(t / ref for t, ref in setup),
        "wall_ref": wall_ref,
        "ops_per_ref": ops_per_pass / wall_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "setup_raw_s": statistics.median(t for t, _ in setup),
        "wall_s": wall_s,
        "ops_per_s": ops_per_pass / wall_s,
        "ref_s": statistics.median(ref for _, _, _, ref, *_ in passes),
        "failed_frac": len(outcome.failed) / outcome.ops,
        "worst_rel_err": outcome.worst_rel_err,
        "termscale_frac": len(outcome.termscale) / outcome.ops,
    }
    lat = sorted(x for *_, lats, _ in passes for x in lats)
    lat_ref = sorted(x for *_, lats in passes for x in lats)
    if lat:
        metrics["op_p99_ref"] = percentile(lat_ref, 0.99)
        raw["op_p50_ref"] = percentile(lat_ref, 0.50)
        raw["op_p50_ms"] = 1e3 * percentile(lat, 0.50)
        raw["op_p99_ms"] = 1e3 * percentile(lat, 0.99)
    notes = {
        "passes": len(passes),
        "walls_s": [wall for wall, *_ in passes],
        "ref_s_per_pass": [ref for _, _, _, ref, *_ in passes],
        "setup_samples_s": setup,
        "latency_samples": len(lat),
        "samples_beyond_p99": len(lat) - max(1, math.ceil(0.99 * len(lat))),
    }
    return metrics, raw, notes


def layer_metrics(tracer, kind_of: dict, traced_wall: float, call_cost: float) -> dict:
    """Per-layer metrics of a traced pass.  The tracing overhead is the
    number of probed calls times the probe's cost per call, both measured
    in this run: a second, untraced catalog pass to subtract would take a
    traced run past three minutes on a slow host."""
    agg = tracer.by_prefix()
    metrics = {}
    for prefix, row in agg.items():
        metrics[f"{prefix}.calls"] = row["calls"]
        metrics[f"{prefix}.self_s"] = row["self_s"]
    if "hypergeom.gauss_2f1" in agg:
        metrics["hypergeom.gauss_2f1.terms"] = agg["hypergeom.gauss_2f1"]["terms"]
    legendre = [agg[p] for p in ("legendre.ferrers_p", "legendre.legendre_p",
                                 "legendre.legendre_q") if p in agg]
    if legendre:
        metrics["legendre.failed"] = sum(row["raised"] for row in legendre)
    if "registry.evaluate_identity" in agg:
        points = sorted(s.end - s.start for s in tracer.spans
                        if s.name == "evaluate_identity")
        metrics["registry.evaluate_identity.p50_ms"] = (
            1e3 * percentile(points, 0.50) if points else 0.0)
        metrics["registry.evaluate_identity.p99_ms"] = (
            1e3 * percentile(points, 0.99) if points else 0.0)
        metrics["registry.terms"] = agg["registry.evaluate_identity"]["terms"]
    if "registry.sweep_identity" in agg:
        sweeps = {ident: 0.0 for ident in SERIES_IDS + ("finite_sum", "vanishing_sum")}
        for s in tracer.spans:
            if s.name != "sweep_identity" or s.label not in kind_of:
                continue
            kind = kind_of[s.label].value
            key = s.label if kind == "infinite_series" else kind
            if key in sweeps:
                sweeps[key] += s.end - s.start
        for key, seconds in sweeps.items():
            if key in kind_of or key in ("finite_sum", "vanishing_sum"):
                metrics[f"registry.sweep.{key}.s"] = seconds
    if "asympt.tail_order_predict" in agg:
        metrics["asympt.tail_order_predict.calls"] = agg["asympt.tail_order_predict"]["calls"]
    if "harness.run_suite" in agg:
        metrics["harness.run_suite.self_s"] = agg["harness.run_suite"]["self_s"]
    if "harness.asymptotic_checks" in agg:
        metrics["harness.asymptotic_checks.s"] = agg["harness.asymptotic_checks"]["total_s"]
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.calls"] = sum(row["calls"] for row in agg.values())
    metrics["trace.overhead_s"] = metrics["trace.calls"] * call_cost
    metrics["trace.self_share"] = sum(row["self_s"] for row in agg.values()) / traced_wall
    return metrics


# --------------------------------------------------------------------------
# one run


def bench(name: str, seed: int, seconds: float, trace: bool,
          size: "int | None" = None, mutate=None) -> dict:
    """Run one workload and return its record.  `size` shrinks the inputs
    (sample count per identity, or draws per function) and `mutate(inputs)`
    may alter them after preparation; both exist for the self-test."""
    legdual = import_library()
    from tracer import Tracer
    from reference import Speedometer
    from workloads import WORKLOADS, Outcome

    workload = WORKLOADS[name]
    setup = [] if trace else measure_setup()
    inputs = workload.prepare(seed, size)
    if mutate is not None:
        mutate(inputs)
    outcome = Outcome()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, _, output = workload.run_pass(inputs)
        finally:
            tracer.uninstall()
        workload.check(inputs, output, outcome)
        kind_of = {d.id: d.kind for d in legdual.list_identities()}
        metrics = layer_metrics(tracer, kind_of, traced_wall, Tracer.call_cost())
        expected = PER_LAYER
        record["missing_probes"] = tracer.missing
        record["spans_file"] = str(_write_spans(record, tracer).relative_to(ROOT))
        raw, notes = {}, {}
    else:
        meter = Speedometer()
        passes = []
        deadline = time.perf_counter() + seconds
        while True:
            meter.start_pass()
            wall, lat, output = workload.run_pass(inputs, meter)
            work = meter.end_pass()
            passes.append((wall, meter.spent, work, statistics.median(meter.samples),
                           array("d", (s for s, _ in lat)), array("d", (r for _, r in lat))))
            workload.check(inputs, output, outcome)
            del output
            if time.perf_counter() >= deadline:
                break
        metrics, raw, notes = end_to_end(setup, passes, outcome)
        expected = END_TO_END
    record.update({
        "machine": machine_info(),
        "src_sha256": src_digest(),
        "correct": outcome.correct,
        "attempted": outcome.ops,
        "failed": len(outcome.failed),
        "mismatched": len(outcome.mismatched),
        "errored": len(outcome.errored),
        "report_sha256": sorted(outcome.digests),
        "checks": outcome.notes,
        "metrics": {k: {"value": metrics[k], "unit": expected[k][0]}
                    for k in expected if k in metrics},
        "missing_metrics": [k for k in expected if k not in metrics],
        "raw": {k: {"value": v, "unit": RAW[k]} for k, v in raw.items()},
        "notes": notes,
    })
    return record


def _write_spans(record: dict, tracer) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{record['workload']}-seed{record['seed']}-spans.json"
    doc = {
        "workload": record["workload"], "seed": record["seed"],
        "edges": tracer.edges(),
        "spans": [vars(s) for s in tracer.spans],
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def print_report(record: dict) -> None:
    m = record["machine"]
    print(f"workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} seconds={record['seconds']}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} "
          f"python={m['implementation']} {m['python']}")
    print(f"src_sha256: {record['src_sha256']}")
    print(f"check: correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']} mismatched={record['mismatched']} "
          f"errored={record['errored']} report_sha256={record['report_sha256']} "
          f"{json.dumps(record['checks'], sort_keys=True)}")
    notes = record["notes"]
    if notes:
        print(f"passes={notes['passes']} latency_samples={notes['latency_samples']} "
              f"samples_beyond_p99={notes['samples_beyond_p99']}")
    for group in ("metrics", "raw"):
        for key, entry in record[group].items():
            print(f"  {key:<40} {entry['value']:<24.6g} {entry['unit']}")
    for key in record["missing_metrics"]:
        print(f"  {key:<40} missing")
    for probe in record.get("missing_probes", ()):
        print(f"  probe not found: {probe}")


def append_to(path: Path, record: dict) -> None:
    """Append a record to a trajectory file {"entries": [...]}."""
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"entries": []}
    doc["entries"].append(record)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# command line


def run_one(args) -> int:
    try:
        record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.out is not None:
        append_to(args.out, record)
    print_report(record)
    print(result_line(record), flush=True)
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own child process, so that each reports its
    own peak memory; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out is not None:
            cmd += ["--out", str(args.out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode == 2 or not lines:
            return 2
        status = max(status, proc.returncode)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = entry
    print(json.dumps(merged), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the record to this trajectory file")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
