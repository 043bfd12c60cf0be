"""Seeded workloads of the legdual benchmark and the checks on their outputs.

Each workload is a closed loop: one caller on one thread issues the next
operation when the previous one returns.  A workload is built from a seed
(`prepare`), run one pass at a time over the same inputs (`run_pass`, the
only timed part), and checked (`check`).  The library is reached through the
``legdual`` package attributes at call time, so the tracer's wrappers are
seen.

* ``catalog`` -- ``run_suite(HarnessConfig(seed=S))`` at the default sample
  counts: all 47 identities and the asymptotic checks, the headline number.
  Loads registry, coeffs, polys, hypergeom, legendre, asympt and harness.
* ``finite_sweep`` -- ``run_suite`` restricted to the finite and vanishing
  sums at their default counts, for six seeds per pass: short terminating
  sums with no Wynn extrapolation and no large-n coefficients, so it
  bypasses the infinite-series path that the catalog spends its time in.
* ``point_eval`` -- single calls of ``ferrers_p``, ``legendre_p`` and
  ``legendre_q`` in equal shares, each checked against mpmath: the library
  used as a special-function library, loading only hypergeom and legendre.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field

import legdual
from legdual.errors import LegdualError
from reference import Speedometer
from tracer import find_function, rebind

# The library's stated tolerance for infinite series (registry.TOL_SERIES),
# fixed here so that a change to the library cannot loosen the check.
POINT_REL_TOL = 1e-9
ORACLE_DPS = 30

# registry box for (nu, mu)
_RE = (-1.5, 2.5)
_IM = (-1.0, 1.0)
# point_eval x ranges; a quarter of the Ferrers draws sit within 1e-2 of 1
_NEAR_ONE_SHARE = 0.25
_P_XMAX = 1e4
_Q_XMAX = 1e3


@dataclass
class Outcome:
    """Checked result of the passes of one run, accumulated pass by pass so
    that no pass's outputs outlive its check.  Every pass replays the same
    inputs, so an op counts once however many passes ran: `ops` is the
    number of distinct ops, and the sets hold the keys of the ops that
    failed (or passed only on the term scale) in any pass.  A seed thus
    gives the same counts on a fast host and a slow one."""

    ops: int = 0
    failed: set = field(default_factory=set)
    mismatched: set = field(default_factory=set)
    errored: set = field(default_factory=set)
    worst_rel_err: float = 0.0
    termscale: set = field(default_factory=set)
    correct: bool = True
    digests: set = field(default_factory=set)
    notes: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# sweeps over the identity catalog


class SweepWorkload:
    """``run_suite`` over some identity kinds, once for each of `suites`
    seeds derived from the workload seed.  An op is one identity point,
    timed at the ``evaluate_identity`` boundary.  The finite sums' cost
    varies by about 8% between seeds; a pass over several seeds averages
    that out."""

    def __init__(self, kinds: tuple, suites: int = 1):
        self.kinds = kinds
        self.suites = suites

    def prepare(self, seed: int, size: "int | None" = None) -> dict:
        default = legdual.HarnessConfig().sample_counts
        counts = {k: (default[k] if size is None else size) for k in self.kinds}
        kind_of = {d.id: d.kind for d in legdual.list_identities()}
        configs = [legdual.HarnessConfig(seed=seed * self.suites + j, sample_counts=counts)
                   for j in range(self.suites)]
        return {"configs": configs, "kind_of": kind_of}

    def run_pass(self, inputs: dict, meter: "Speedometer | None" = None):
        """Returns (wall seconds, per-op (seconds, ref) latencies, output).
        Ops are timed, and the meter ticks between them, only when a meter
        is given."""
        points = []
        restore = _time_points(points, meter) if meter is not None else []
        try:
            start = time.perf_counter()
            results = [legdual.run_suite(cfg) for cfg in inputs["configs"]]
            wall = time.perf_counter() - start
        finally:
            for mod, attr, fn in restore:
                setattr(mod, attr, fn)
        return wall, [p[:2] for p in points], (results, [p[2] for p in points])

    def check(self, inputs: dict, output, out: Outcome) -> None:
        """Every pass must pass the suites and give the same report bytes
        for each seed (acceptance criterion 7)."""
        results, reports = output
        out.digests.add(tuple(hashlib.sha256(r.serialize().encode()).hexdigest()
                              for r in results))
        ops = 0
        for j, result in enumerate(results):
            ops += sum(result.pass_counts.values()) + len(result.failures)
            for r in result.failures:
                key = (j, r.id, r.x, repr(r.params))
                out.failed.add(key)
                if r.error is not None:
                    out.errored.add(key)
            out.correct = out.correct and result.ok
        out.ops = max(out.ops, ops)
        out.correct = out.correct and len(out.digests) == 1
        out.notes = {"suite_ok": [r.ok for r in results],
                     "suite_seeds": [cfg.seed for cfg in inputs["configs"]],
                     "asymptotic": results[-1].asymptotic}
        vanishing = legdual.Kind.VANISHING_SUM
        for k, r in enumerate(reports):
            if r is None or not r.passed:
                continue
            if r.rel_err > r.tolerance_used:
                out.termscale.add(k)  # passed only on the max-|term| scale
            elif inputs["kind_of"].get(r.id) is not vanishing:
                out.worst_rel_err = max(out.worst_rel_err, r.rel_err)


def _time_points(sink: list, meter: "Speedometer") -> list:
    """Wrap evaluate_identity wherever legdual bound it, ticking the meter
    and then appending (seconds, ref, report or None) per call; returns
    what to restore."""
    hit = find_function(("evaluate_identity",))
    if hit is None:
        return []
    fn = hit[1]
    clock = time.perf_counter

    def timed(*args, **kwargs):
        meter.tick()
        report = None
        start = clock()
        try:
            report = fn(*args, **kwargs)
            return report
        finally:
            lat = clock() - start
            sink.append((lat, lat / meter.local(), report))

    return [(mod, attr, fn) for mod, attr in rebind(fn, timed)]


# --------------------------------------------------------------------------
# single function calls against an mpmath oracle


def _box(rng: random.Random) -> complex:
    return complex(rng.uniform(*_RE), rng.uniform(*_IM))


def _lattice(rng: random.Random, n: int) -> list:
    """n points (u, v) in (0, 1]^2, one in each cell of a rank-1 (Fibonacci)
    lattice and jittered within it, in random order.  Each coordinate alone
    is uniform, and every seed covers the square the same way, so both the
    summed cost of a pass and its slowest calls -- which grow with x and
    with -Re(nu) -- are nearly the same from seed to seed."""
    if n == 0:
        return []
    k = max(1, round(n * 0.6180339887))
    while math.gcd(k, n) != 1:
        k += 1
    pts = [((i + 1.0 - rng.random()) / n, ((i * k) % n + 1.0 - rng.random()) / n)
           for i in range(n)]
    rng.shuffle(pts)
    return pts


def point_inputs(seed: int, per_function: int) -> list:
    """[(function name, nu, mu, x)] in a seeded random order; x and Re(nu)
    come from `_lattice`, Im(nu) and mu are drawn from the registry box."""
    rng = random.Random(seed)
    near = round(per_function * _NEAR_ONE_SHARE)
    draws = {
        # uniform on (0, 0.99), and log-uniform distance 1e-8..1e-2 below 1
        "ferrers_p": [(0.99 * u, v) for u, v in _lattice(rng, per_function - near)]
        + [(1.0 - 10.0 ** (-2.0 - 6.0 * u), v) for u, v in _lattice(rng, near)],
        "legendre_p": [(_P_XMAX ** u, v) for u, v in _lattice(rng, per_function)],
        "legendre_q": [(_Q_XMAX ** u, v) for u, v in _lattice(rng, per_function)],
    }
    ops = []
    for name, pairs in draws.items():
        for x, v in pairs:
            nu = complex(_RE[0] + (_RE[1] - _RE[0]) * v, rng.uniform(*_IM))
            ops.append((name, nu, _box(rng), x))
    rng.shuffle(ops)
    return ops


def oracle(ops: list) -> list:
    """mpmath reference values: legenp type 2 (Ferrers) or 3, legenq type 3,
    at order -mu, as in the library's tests."""
    import mpmath as mp

    kind = {"ferrers_p": (mp.legenp, 2), "legendre_p": (mp.legenp, 3),
            "legendre_q": (mp.legenq, 3)}
    out = []
    with mp.workdps(ORACLE_DPS):
        for name, nu, mu, x in ops:
            fn, typ = kind[name]
            out.append(complex(fn(mp.mpc(nu), -mp.mpc(mu), mp.mpf(x), type=typ)))
    return out


class PointWorkload:
    def prepare(self, seed: int, size: "int | None" = None) -> dict:
        ops = point_inputs(seed, 500 if size is None else size)
        return {"ops": ops, "oracle": oracle(ops)}

    def run_pass(self, inputs: dict, meter: "Speedometer | None" = None):
        """Returns (wall seconds, per-op (seconds, ref) latencies, output);
        without a meter the ref latencies are None."""
        fns = {name: getattr(legdual, name)
               for name in ("ferrers_p", "legendre_p", "legendre_q")}
        point = legdual.ParameterPoint
        clock = time.perf_counter
        latencies = []
        values = []
        start = clock()
        for name, nu, mu, x in inputs["ops"]:
            if meter is not None:
                meter.tick()
            t0 = clock()
            try:
                v = fns[name](point(nu, mu), x).value
            except LegdualError as exc:
                # the class only: the exception's traceback would keep this
                # frame, and each pass's lists, alive until a full collection
                v = type(exc)
            lat = clock() - t0
            latencies.append((lat, lat / meter.local() if meter is not None else None))
            values.append(v)
        return clock() - start, latencies, values

    def check(self, inputs: dict, values: list, out: Outcome) -> None:
        """A typed LegdualError is a failed op; a value off the oracle by
        more than POINT_REL_TOL is a failed op and a wrong output."""
        errors = out.notes.setdefault("typed_errors", {})
        out.ops = len(inputs["ops"])
        for i, ((name, *_), ref, v) in enumerate(
                zip(inputs["ops"], inputs["oracle"], values, strict=True)):
            if isinstance(v, type):
                if i not in out.errored:
                    key = f"{name}: {v.__name__}"
                    errors[key] = errors.get(key, 0) + 1
                out.failed.add(i)
                out.errored.add(i)
                continue
            rel = abs(v - ref) / abs(ref) if ref else abs(v)
            if rel <= POINT_REL_TOL:
                out.worst_rel_err = max(out.worst_rel_err, rel)
            else:
                out.failed.add(i)
                out.mismatched.add(i)
                out.correct = False


WORKLOADS = {
    "catalog": SweepWorkload(tuple(legdual.Kind)),
    "finite_sweep": SweepWorkload(
        (legdual.Kind.FINITE_SUM, legdual.Kind.VANISHING_SUM), suites=6),
    "point_eval": PointWorkload(),
}
