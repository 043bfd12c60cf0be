"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single pass/fail line
so the suite log doubles as a sign-off checklist.
"""

import cmath
import itertools
import math
import random
import sys

import pytest

from legdual.asympt import gegenbauer_uniform_asympt
from legdual.coeffs import (
    FactorList,
    frak_C,
    frak_D,
    frak_N,
    frak_p,
    lauricella_G,
    omega_pm,
    script_G,
    script_G_hat,
)
from legdual.harness import HarnessConfig, asymptotic_checks, run_suite
from legdual.hypergeom import DEFAULT_POLICY, recip_gamma
from legdual.legendre import ParameterPoint, ferrers_p, legendre_p
from legdual.polys import bateman_g, gauss_hyper_poly, gegenbauer, mittag_leffler_g
from legdual.registry import (
    INV_SQRT2,
    TOL_BOUNDARY,
    _get_impl,
    _sum_terms,
    evaluate_identity,
    list_identities,
)

SQRT_PI = math.sqrt(math.pi)


def _criterion(num, label, ok, detail=""):
    verdict = "pass" if ok else "FAIL"
    print(f"criterion {num} ({label}): {verdict}", file=sys.__stdout__)
    assert ok, f"criterion {num} ({label}): {verdict} {detail}"


def test_criterion_1_identity_sweeps():
    # full catalog at release sample counts; boundary points are part of the
    # per-identity grids wherever the identity admits them
    result = run_suite(HarnessConfig(seed=0))
    boundary = evaluate_identity(
        "thm4.fwd", {"nu": -0.8 + 0.3j, "mu": 0.5 - 0.2j}, INV_SQRT2)
    ok = (
        result.ok
        and not result.failures
        and len(result.pass_counts) == len(list_identities())
        and boundary.passed
        and boundary.tolerance_used == TOL_BOUNDARY == 1e-6
    )
    _criterion(1, "identity sweeps", ok,
               detail=f"failures={[(f.id, f.x) for f in result.failures][:8]}")


TAU = 0.7 + 0.2j
RHO = -0.4 + 0.1j
_LAUR = FactorList((0.7 + 0j, 0.4 - 0.2j, -0.3 + 0j),
                   (1.0 + 0j, -0.6 + 0j, 0.35 + 0.1j))


def _laur_closed(z):
    out = 1.0 + 0j
    for t, w in zip(_LAUR.taus, _LAUR.ws):
        out = out * (1 - w * z) ** (-t)
    return out


# (label, closed form at z, coefficient of z^n, evaluation points)
_GEN_FAMILIES = [
    ("ratio-power",
     lambda z: (1 - z) ** (TAU - RHO) * (1 - (1 - 1.3) * z) ** (-TAU),
     lambda n: gauss_hyper_poly(n, TAU, RHO, 1.3),
     (0.2, -0.35, 0.3 + 0.2j)),
    ("binomial pair",
     lambda z: (1 + z) ** (TAU + (0.5 - 0.3j)) * (1 - z) ** (-TAU),
     lambda n: bateman_g(n, TAU, 0.5 - 0.3j),
     (0.25, -0.4, 0.2 + 0.15j)),
    ("two-sided ratio",
     lambda z: ((1 + z) / (1 - z)) ** (0.8 - 0.4j),
     lambda n: mittag_leffler_g(n, 0.8 - 0.4j),
     (0.3, -0.25, 0.2 + 0.2j)),
    ("sqrt base",
     lambda z: (1 + cmath.sqrt(1 - z)) ** (-TAU),
     lambda n: 2.0 ** -TAU * frak_p(n, 0.0, TAU, 0.5),
     (0.4, -0.5, 0.3)),
    ("sqrt with pole",
     lambda z: (1 - 0.6 * z) ** (-RHO) * (1 + cmath.sqrt(1 - z)) ** (-TAU),
     lambda n: 2.0 ** -TAU * frak_p(n, RHO, TAU, 0.6),
     (0.4, -0.3, 0.25)),
    ("shifted sinh",
     lambda u: (math.sinh(u.real) + math.sinh(0.8)) ** (-TAU),
     None,
     (1.3, 1.6, 2.1)),
    ("three-factor",
     lambda z: (1 - 0.5 * z) ** TAU * (1 + z / 0.5) ** (-TAU) * (1 + z * z) ** (-RHO),
     lambda n: script_G(n, TAU, RHO, 0.5),
     (0.2, -0.15, 0.1 + 0.1j)),
    ("three-factor hatted",
     lambda z: (1 + 0.55 * z) ** TAU * (1 + z / 0.55) ** (-TAU) * (1 - z * z) ** (-RHO),
     lambda n: script_G_hat(n, TAU, RHO, 0.55),
     (0.2, -0.15, 0.1 + 0.1j)),
    ("scaled sqrt",
     lambda z: (1 + 0.65 * cmath.sqrt(1 + z)) ** (-TAU),
     lambda n: frak_D(n, TAU, 0.65, False) * (-1.0) ** n / 2.0 ** n,
     (0.3, -0.25, 0.2)),
    ("pole times sqrt",
     lambda z: (1 + 0.7 * z) ** (-(0.6 + 0.1j))
     * ((1 + cmath.sqrt(1 + z * z)) / 2) ** (-(0.9 - 0.2j)),
     lambda n: omega_pm(n, 0.6 + 0.1j, 0.9 - 0.2j, 0.7, 1),
     (0.3, -0.25, 0.2)),
    ("cauchy ratio",
     None,
     lambda n: frak_N(n, 0.6 + 0.1j, 0.9 - 0.2j, 0.65, 1),
     (0.25, -0.2, 0.15)),
    ("factor product",
     _laur_closed,
     lambda n: lauricella_G(n, _LAUR),
     (0.3, -0.4, 0.2 + 0.25j)),
]


def _frak_N_closed(z):
    nu, mu, x = 0.6 + 0.1j, 0.9 - 0.2j, 0.65
    ratio = abs(x ** -2.0 - 1.0)
    root = cmath.sqrt(1 + z * z)
    return ((1 + x * root) ** nu * (1 + root) ** (-mu)
            / (2.0 ** -mu * (1 + z / math.sqrt(ratio)) ** nu))


def test_criterion_2_generating_functions():
    worst = 0.0
    for label, closed, coef, points in _GEN_FAMILIES:
        for z in points:
            if label == "shifted sinh":
                lhs = closed(complex(z))
                rhs = sum(frak_C(n, 0.8, TAU) * cmath.exp(-(n + TAU) * z)
                          for n in range(140))
            else:
                lhs = _frak_N_closed(z) if closed is None else closed(z)
                rhs = sum(coef(n) * z ** n for n in range(140))
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    _criterion(2, "generating functions", worst <= 1e-9, detail=f"worst={worst:.3g}")


def test_criterion_3_hard_bound_grid():
    violations = 0
    for n in (10, 25, 50, 100):
        for tau in (0.3, 0.8, 1.0):
            for alpha in (0.1, 0.5, 1.0, 3.0):
                est = gegenbauer_uniform_asympt(n, tau, alpha)
                exact = gegenbauer(n, 0.5 - tau - n, math.tanh(alpha))
                # roundoff allowance: the bound itself is exact at tau = 1
                slack = 1e-12 * (abs(exact) + abs(est.leading))
                if abs(exact - est.leading) > est.remainder_bound + slack:
                    violations += 1
    _criterion(3, "hard bound grid", violations == 0,
               detail=f"violations={violations}")


def test_criterion_4_asymptotic_ratios():
    outcomes = asymptotic_checks()
    keys = ("watson_order_coth", "watson_order_tanh",
            "large_degree_coth", "large_degree_tanh",
            "darboux_leading_ratio", "sqrt_family_slope")
    ok = all(outcomes[k] for k in keys)
    _criterion(4, "asymptotic ratios", ok,
               detail=f"failed={[k for k in keys if not outcomes[k]]}")


def test_criterion_5_symmetry_and_ode():
    rng = random.Random(12)

    def sample():
        return (complex(rng.uniform(-2, 2), rng.uniform(-1, 1)),
                complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1)),
                rng.uniform(0.15, 0.85))

    worst_sym = 0.0
    for _ in range(100):
        nu, mu, x = sample()
        a = ferrers_p(ParameterPoint(nu, mu), x).value
        b = ferrers_p(ParameterPoint(-1.0 - nu, mu), x).value
        worst_sym = max(worst_sym, abs(a - b) / abs(a))

    h = 1e-4
    worst_ode = 0.0
    for _ in range(20):
        nu, mu, x = sample()
        point = ParameterPoint(nu, mu)
        y0 = ferrers_p(point, x).value
        yp = ferrers_p(point, x + h).value
        ym = ferrers_p(point, x - h).value
        d1 = (yp - ym) / (2.0 * h)
        d2 = (yp - 2.0 * y0 + ym) / (h * h)
        t1 = (1.0 - x * x) * d2
        t2 = -2.0 * x * d1
        t3 = (nu * (nu + 1.0) - mu * mu / (1.0 - x * x)) * y0
        scale = max(abs(t1), abs(t2), abs(t3))
        worst_ode = max(worst_ode, abs(t1 + t2 + t3) / scale)

    ok = worst_sym <= 1e-12 and worst_ode <= 1e-5
    _criterion(5, "symmetry and differential equation", ok,
               detail=f"sym={worst_sym:.3g} ode={worst_ode:.3g}")


def _series_value(ident, params, x):
    return _sum_terms(_get_impl(ident), params, x, DEFAULT_POLICY).value


def _roundtrip_error(fwd, params, x, inner_direct, inner_composed):
    """Re-sum the forward series with each inner function value supplied by
    its partner series instead of direct evaluation."""
    impl = _get_impl(fwd)
    direct = impl.lhs(params, x, DEFAULT_POLICY)
    composed = 0j
    terms = impl.terms(params, x, DEFAULT_POLICY)
    for n, term in enumerate(itertools.islice(terms, impl.n_top(params) + 1)):
        if term == 0:
            continue
        composed += term * inner_composed(params, x, n) / inner_direct(params, x, n)
    return abs(composed / direct - 1.0)


def _u(x):
    return (1.0 - x) / (1.0 + x)


_NU = 0.6 + 0.2j
_ROUND_TRIPS = [
    ("thm4.fwd", {"nu": -3.0 + 0j, "mu": 0.7 + 0j}, 0.85,
     lambda p, x, n: (legendre_p(ParameterPoint(p["nu"] + n, p["mu"] + n), 1.0 / x).value
                      / x ** (p["nu"] + n + 1.0)),
     lambda p, x, n: _series_value(
         "thm4.inv", {"nu": p["nu"] + n, "mu": p["mu"] + n}, x)),
    ("thm5.fwd", {"nu": _NU, "mu": _NU - 4.0}, 0.8,
     lambda p, x, n: legendre_p(ParameterPoint(p["nu"], p["mu"] + n), 1.0 / x).value,
     lambda p, x, n: _series_value(
         "thm5.inv", {"nu": p["nu"], "mu": p["mu"] + n}, x)),
    ("thm6.p1a", {"nu": _NU, "mu": _NU - 4.0}, 0.8,
     lambda p, x, n: legendre_p(
         ParameterPoint(p["nu"] - p["mu"] - n, p["mu"] + n), 1.0 / x).value,
     lambda p, x, n: (_series_value("thm6.p1b", {"nu": p["nu"], "mu": p["mu"] + n}, x)
                      * 2.0 ** (p["mu"] + n) * x ** (p["mu"] + n - p["nu"]))),
    ("thm7.q1", {"nu": _NU, "mu": _NU - 4.0}, 0.8,
     lambda p, x, n: (recip_gamma(0.5 * (n + p["mu"] - p["nu"] + 1.0))
                      * _u(x) ** (0.25 * (n + p["mu"] - p["nu"]))
                      * ferrers_p(ParameterPoint(
                          p["nu"], 0.5 * (p["mu"] + p["nu"] + n)), x).value),
     lambda p, x, n: _series_value(
         "thm7.q2", {"nu": p["nu"], "mu": p["mu"] + n}, x)),
    ("thm8.r1", {"nu": _NU, "mu": _NU - 4.0}, 0.8,
     lambda p, x, n: ((1.0 - x * x) ** (0.25 * (p["mu"] - p["nu"] + n))
                      * ferrers_p(ParameterPoint(
                          0.5 * (p["mu"] - p["nu"] - 2.0 + n),
                          0.5 * (p["mu"] + p["nu"] + n)), x).value
                      * recip_gamma(0.5 * (p["mu"] - p["nu"] + n + 1.0))
                      / 2.0 ** (0.5 * (3.0 * p["mu"] - p["nu"] + n))),
     lambda p, x, n: (_series_value("thm8.g1", {"nu": p["nu"], "mu": p["mu"] + n}, x)
                      * x ** p["nu"] * 2.0 ** n
                      * (1.0 - x * x) ** (-0.5 * p["nu"]))),
    ("thm9.fwd", {"nu": _NU, "mu": _NU - 4.0}, 0.8,
     lambda p, x, n: (SQRT_PI * 2.0 ** (2.0 * p["nu"] - p["mu"] - n)
                      * legendre_p(ParameterPoint(
                          p["nu"], 0.5 * (n + p["mu"] + p["nu"])),
                          (1.0 + x * x) / (2.0 * x)).value
                      * recip_gamma(0.5 * (p["mu"] - p["nu"] + n + 1.0))
                      * x ** p["nu"]),
     lambda p, x, n: _series_value(
         "thm9.inv", {"nu": p["nu"], "mu": p["mu"] + n}, x)),
]


def test_criterion_6_round_trip_inverseness():
    errs = {fwd: _roundtrip_error(fwd, params, x, direct, composed)
            for fwd, params, x, direct, composed in _ROUND_TRIPS}
    worst = max(errs.values())
    _criterion(6, "round-trip inverseness", worst <= 1e-10,
               detail=f"errors={errs}")


def test_criterion_7_determinism():
    from legdual.registry import Kind

    cfg = HarnessConfig(seed=5, sample_counts={
        Kind.INFINITE_SERIES: 2, Kind.FINITE_SUM: 3, Kind.VANISHING_SUM: 3,
    })
    first = run_suite(cfg).serialize()
    second = run_suite(cfg).serialize()
    _criterion(7, "deterministic reports", first == second)
