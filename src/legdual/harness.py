"""Suite orchestration: seeded identity sweeps, asymptotic ratio checks, and
per-point convergence diagnostics."""

import itertools
import math
import time
from collections import namedtuple

from .asympt import (
    darboux_G_leading,
    gegenbauer_uniform_asympt,
    large_degree_leading,
    watson_mu_leading,
)
from .coeffs import FactorList, frak_p, lauricella_G
from .hypergeom import gamma
from .legendre import ParameterPoint, ferrers_p, legendre_p
from .polys import gegenbauer
from .registry import Kind, _point, _running_sums, get_descriptor, list_identities, sweep_identity

__all__ = [
    "HarnessConfig",
    "SuiteResult",
    "run_suite",
    "asymptotic_checks",
    "convergence_table",
]

REPORT_VERSION = 1


# --------------------------------------------------------------------------
# configuration and results

class HarnessConfig(namedtuple("HarnessConfig", "seed sample_counts", defaults=(0, None))):
    """Suite parameters: `seed` (int) and `sample_counts` (dict, or None for
    the defaults), which maps identity kinds to the number of parameter
    samples swept per identity of that kind; kinds left out are skipped
    entirely.  An empty map, a key that is not a `Kind` or a count that is
    not an integer of at least 1 raises ValueError: a suite of no
    identities checks nothing."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "HarnessConfig":
        seed, sample_counts = super().__new__(cls, *args, **kwargs)
        if sample_counts is None:
            sample_counts = {
                Kind.INFINITE_SERIES: 30,
                Kind.FINITE_SUM: 50,
                Kind.VANISHING_SUM: 50,
            }
        if not sample_counts:
            raise ValueError("sample_counts is empty: a suite of no identities checks nothing")
        for kind, n in sample_counts.items():
            if not isinstance(kind, Kind):
                raise ValueError(f"sample_counts key {kind!r} is not a Kind")
            if not (1 <= n < math.inf and n % 1 == 0):
                raise ValueError(f"sample count for {kind} must be an integer >= 1, got {n}")
        return super().__new__(cls, seed, sample_counts)

    @classmethod
    def _make(cls, iterable) -> "HarnessConfig":
        # `_replace` builds through here: check its counts too
        return cls(*iterable)

    def count_for(self, kind: Kind) -> "int | None":
        n = self.sample_counts.get(kind)
        return None if n is None else int(n)


class SuiteResult(namedtuple("SuiteResult", "pass_counts failures asymptotic wall_time")):
    """`pass_counts` (dict), `failures` (list), `asymptotic` (dict) and
    `wall_time` (float)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures and all(self.asymptotic.values())

    def serialize(self) -> str:
        """Canonical JSON.  Wall time is reported separately on the object;
        the serialized form is a pure function of the configuration so that
        identical configs give byte-identical reports."""
        import json  # here, so that importing the package does not load it

        doc = {
            "version": REPORT_VERSION,
            "ok": self.ok,
            "pass_counts": {k: int(v) for k, v in sorted(self.pass_counts.items())},
            "failures": [r.to_dict() for r in self.failures],
            "asymptotic": {k: bool(v) for k, v in sorted(self.asymptotic.items())},
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# asymptotic ratio checks

def _gegenbauer_bound_ok() -> bool:
    for n in (10, 25, 50, 100):
        for tau in (0.3, 0.8, 1.0):
            for alpha in (0.1, 0.5, 1.0, 3.0):
                est = gegenbauer_uniform_asympt(n, tau, alpha)
                exact = gegenbauer(n, 0.5 - tau - n, math.tanh(alpha))
                # the bound is on the exact quantities; allow evaluation roundoff
                slack = 1e-12 * (abs(exact) + abs(est.leading))
                if abs(exact - est.leading) > est.remainder_bound + slack:
                    return False
    return True


def _exact(pt: ParameterPoint, alpha: float, domain: str) -> complex:
    """P at coth(alpha) (domain "coth") or the Ferrers P at tanh(alpha)."""
    if domain == "coth":
        return legendre_p(pt, 1.0 / math.tanh(alpha)).value
    return ferrers_p(pt, math.tanh(alpha)).value


def _watson_residual(nu: complex, mu: complex, alpha: float, domain: str) -> float:
    exact = _exact(ParameterPoint(nu, mu), alpha, domain) * gamma(mu - nu)
    lead = watson_mu_leading(nu, mu, alpha)
    return abs(exact - lead) / abs(lead)


def _large_degree_residual(sigma: complex, nu: complex, alpha: float,
                           domain: str) -> float:
    exact = _exact(ParameterPoint(nu, sigma + nu), alpha, domain)
    lead = large_degree_leading(sigma, nu, alpha, domain)
    return abs(exact - lead) / abs(lead)


def _darboux_ratio_ok(n: int = 200, rel: float = 0.10) -> bool:
    f = FactorList((0.7 + 0j, 0.4 + 0j), (1.0 + 0j, -0.6 + 0j))
    exact = lauricella_G(n, f)
    lead = darboux_G_leading(n, f).leading
    return abs(exact / lead - 1.0) <= rel


def _sqrt_family_slope_ok(rel: float = 0.15) -> bool:
    rho, tau = 0.6, 0.9
    n1, n2 = 60, 120
    s = (math.log(abs(frak_p(n2, rho, tau, 1.0)))
         - math.log(abs(frak_p(n1, rho, tau, 1.0)))) / (math.log(n2) - math.log(n1))
    predicted = rho - 1.0
    return abs(s - predicted) <= rel * abs(predicted)


def asymptotic_checks() -> dict:
    """Named pass/fail outcomes of the large-parameter ratio tests."""
    out = {}
    out["gegenbauer_hard_bound"] = _gegenbauer_bound_ok()
    nu, alpha = 0.3 + 0j, 0.7
    for domain in ("coth", "tanh"):
        r1 = _watson_residual(nu, 24.0 + 0j, alpha, domain)
        r2 = _watson_residual(nu, 48.0 + 0j, alpha, domain)
        out[f"watson_order_{domain}"] = r2 <= 0.7 * r1
    sigma = 0.4 + 0j
    for domain in ("coth", "tanh"):
        r1 = _large_degree_residual(sigma, 30.5 + 0j, 0.9, domain)
        r2 = _large_degree_residual(sigma, 61.0 + 0j, 0.9, domain)
        out[f"large_degree_{domain}"] = r2 <= 0.7 * r1
    out["darboux_leading_ratio"] = _darboux_ratio_ok()
    out["sqrt_family_slope"] = _sqrt_family_slope_ok()
    return out


# --------------------------------------------------------------------------
# suite driver

def run_suite(cfg: HarnessConfig = HarnessConfig()) -> SuiteResult:
    """Sweep every registered identity per the configured sample counts and
    run the asymptotic checks.  Failed points are collected, not raised;
    errors that are not the library's own propagate (see sweep_identity)."""
    t0 = time.perf_counter()
    pass_counts = {}
    failures = []
    for desc in list_identities():
        n = cfg.count_for(desc.kind)
        if n is None:
            continue
        reports = sweep_identity(desc.id, n_samples=n, seed=cfg.seed)
        pass_counts[desc.id] = sum(1 for r in reports if r.passed)
        failures.extend(r for r in reports if not r.passed)
    return SuiteResult(pass_counts, failures, asymptotic_checks(),
                       time.perf_counter() - t0)


# --------------------------------------------------------------------------
# per-point convergence diagnostics

def convergence_table(identity_id: str, params: dict, x: float, n_max: int) -> list:
    """Rows (n, |term|, |partial sum - reference|) for n = 0..n_max, where
    the reference is the identity's closed-form left-hand side and the
    partial sums are the ones evaluate_identity sums.  Terms past a
    termination index are exactly zero by definition of the sum.  An n_max
    below 0 raises ValueError; a point `_point` refuses, DomainError."""
    entry = get_descriptor(identity_id)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    p, x, _ = _point(entry, params, x)
    reference = complex(entry.lhs(p, x))
    sums = itertools.islice(_running_sums(entry, p, x), n_max + 1)
    return [(n, abs(t), abs(partial - reference))
            for n, (t, partial) in enumerate(sums)]
