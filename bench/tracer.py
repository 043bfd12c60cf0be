"""Per-layer tracing for the legdual benchmark, installed from outside the
package.

A probe replaces one public function of a legdual module, and every other
module attribute bound to the same function object (the names each caller
imported, such as ``registry.frak_N`` or the package-level re-exports), with
a timing wrapper.  Nothing inside ``src/`` is edited.

A catalog pass makes millions of boundary calls, so the tracer keeps
per-(function, caller) aggregates -- calls, total time, self time, raised
exceptions, summed ``terms_used`` -- rather than one span per call.  Full
spans are kept only for calls at most ``SPAN_DEPTH`` probes deep, which
reaches the identity-point level (run_suite > sweep_identity >
evaluate_identity) and the single calls of the point workload.

A probe lists alternative function names.  The first name found defined in
some legdual module is traced, so a function that a refactor moves to
another module, or renames to one of the listed names (``registry._P``
becoming a public ``P``), is still found; a probe that finds none is
reported as missing instead of failing the run.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

SPAN_DEPTH = 3

# (metric prefix, alternative function names, counts summed terms_used).
# Probes that share a prefix are summed into one metric.
PROBES = (
    ("hypergeom.gauss_2f1", ("gauss_2f1",), True),
    ("hypergeom.pfq_terminating", ("pfq_terminating",), False),
    ("hypergeom.gamma", ("gamma",), False),
    ("hypergeom.gamma", ("recip_gamma",), False),
    ("hypergeom.pochhammer", ("pochhammer",), False),
    ("legendre.ferrers_p", ("ferrers_p",), False),
    ("legendre.legendre_p", ("legendre_p",), False),
    ("legendre.legendre_q", ("legendre_q",), False),
    ("coeffs.frak_N", ("frak_N",), False),
    ("coeffs.frak_D", ("frak_D",), False),
    ("coeffs.omega_pm", ("omega_pm",), False),
    ("coeffs.script_G", ("script_G",), False),
    ("coeffs.script_G_hat", ("script_G_hat",), False),
    ("coeffs.frak_p", ("frak_p",), False),
    ("coeffs.lauricella_G", ("lauricella_G",), False),
    ("polys.gauss_hyper_poly", ("gauss_hyper_poly",), False),
    ("polys.gegenbauer", ("gegenbauer",), False),
    ("polys.mittag_leffler_g", ("mittag_leffler_g",), False),
    ("polys.bateman_g", ("bateman_g",), False),
    ("polys.jacobi", ("jacobi",), False),
    ("registry.P", ("_P", "P"), False),
    ("registry.evaluate_identity", ("evaluate_identity",), True),
    ("registry.sweep_identity", ("sweep_identity",), False),
    ("asympt.tail_order_predict", ("tail_order_predict",), False),
    ("harness.run_suite", ("run_suite",), False),
    ("harness.asymptotic_checks", ("asymptotic_checks",), False),
)

_ROOT = -1


def legdual_modules() -> list:
    """The imported legdual package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "legdual" or name.startswith("legdual."))]


def find_function(names) -> "tuple[str, object] | None":
    """First of `names` defined (not merely imported) in a legdual module,
    as (qualified name, function)."""
    modules = legdual_modules()
    for name in names:
        for mod in modules:
            fn = getattr(mod, name, None)
            if callable(fn) and getattr(fn, "__module__", None) == mod.__name__:
                return f"{mod.__name__}.{name}", fn
    return None


def rebind(original, replacement) -> list:
    """Point every legdual module attribute bound to `original` at
    `replacement`; returns the (module, attribute) pairs changed."""
    changed = []
    for mod in legdual_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


@dataclass
class Span:
    span_id: int
    parent_id: int
    name: str
    label: "str | None"
    start: float
    end: float


@dataclass
class Tracer:
    """Installs the probes, aggregates calls per (probe, calling probe), and
    restores every rebound attribute on `uninstall`."""

    probes: tuple = PROBES
    span_depth: int = SPAN_DEPTH
    # [calls, total_s, self_s, raised, terms] per (probe index, caller index)
    stats: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    found: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)
    _last_span_id: list = field(default_factory=lambda: [0])

    def install(self) -> None:
        self._stack = [[_ROOT, 0.0, 0]]
        for index, (prefix, names, count_terms) in enumerate(self.probes):
            hit = find_function(names)
            if hit is None:
                self.missing.append(f"{prefix} ({' or '.join(names)})")
                continue
            qualname, fn = hit
            self.found[index] = qualname
            for mod, attr in rebind(fn, self._wrap(index, fn, count_terms)):
                self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _wrap(self, index: int, fn, count_terms: bool):
        stack = self._stack
        stats = self.stats
        spans = self.spans
        span_depth = self.span_depth
        last_id = self._last_span_id
        clock = time.perf_counter
        name = fn.__name__

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = 0
            if len(stack) <= span_depth:
                last_id[0] += 1
                span_id = last_id[0]
            # [probe index, time spent in probed callees, span id]
            frame = [index, 0.0, span_id]
            stack.append(frame)
            raised = 0
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                raised = 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (index, parent[0])
                row = stats.get(key)
                if row is None:
                    row = stats[key] = [0, 0.0, 0.0, 0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
                row[3] += raised
                if count_terms and result is not None:
                    row[4] += getattr(result, "terms_used", 0)
                if frame[2]:
                    label = args[0] if args and isinstance(args[0], str) else None
                    spans.append(Span(frame[2], parent[2], name, label,
                                      start, start + elapsed))

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def call_cost(n: int = 100_000) -> float:
        """Seconds a probe adds to one call, timed on a no-op."""
        probe = Tracer(probes=(), span_depth=0)
        probe.install()

        def noop():
            return None

        wrapped = probe._wrap(0, noop, False)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(n):
            noop()
        t1 = clock()
        for _ in range(n):
            wrapped()
        t2 = clock()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / n)

    def by_prefix(self) -> dict:
        """Aggregates summed over callers and over probes sharing a prefix:
        prefix -> {calls, total_s, self_s, raised, terms}."""
        fields = ("calls", "total_s", "self_s", "raised", "terms")
        out = {self.probes[i][0]: dict.fromkeys(fields, 0) for i in self.found}
        for (index, _), row in self.stats.items():
            agg = out[self.probes[index][0]]
            for key, value in zip(fields, row):
                agg[key] += value
        return out

    def edges(self) -> list:
        """Per-(function, caller) rows, for the span file."""
        def label(index):
            return "<benchmark>" if index == _ROOT else self.found[index]
        return [
            {"function": label(i), "caller": label(p), "calls": row[0],
             "total_s": row[1], "self_s": row[2], "raised": row[3], "terms": row[4]}
            for (i, p), row in sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        ]
