"""First-kind Ferrers functions on (-1,1), associated Legendre functions of
the first and second kind on (1,infinity), complex degree and order.

All fractional powers have positive real bases on the supported windows and
are taken as principal values.  The reciprocal-gamma prefactor makes the
values entire in the order parameter: where 1 + mu is a nonpositive integer
they are the limit.

`_P(nu, mu, x)` is the one first-kind dispatcher over both intervals; it
takes integer degree k >= 0 and order -m with m <= k to the degree
recurrence (`_P_int`), the library's one integer-degree evaluator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import DomainError, PoleError
from .hypergeom import (
    DEFAULT_POLICY,
    SeriesValue,
    TruncationPolicy,
    gamma,
    gauss_2f1,
    is_nonpos_int,
    pochhammer,
    recip_gamma,
    terminating_index,
)

__all__ = [
    "Domain",
    "Argument",
    "ParameterPoint",
    "ferrers_p",
    "legendre_p",
    "legendre_q",
]


class Domain(Enum):
    FERRERS = "ferrers"
    LEGENDRE = "legendre"


@dataclass(frozen=True)
class Argument:
    """Evaluation point with its interval tag."""

    x: float
    domain: Domain = field(init=False)

    def __post_init__(self) -> None:
        x = float(self.x)
        if not math.isfinite(x) or x <= -1.0 or x == 1.0:
            raise DomainError(f"argument x = {x} outside (-1,1) union (1,inf)")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "domain",
                           Domain.FERRERS if x < 1.0 else Domain.LEGENDRE)


@dataclass(frozen=True)
class ParameterPoint:
    nu: complex
    mu: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", complex(self.nu))
        object.__setattr__(self, "mu", complex(self.mu))


def _as_argument(x: "Argument | float") -> Argument:
    return x if isinstance(x, Argument) else Argument(float(x))


def _f_over_gamma_c(
    a: complex,
    b: complex,
    c: complex,
    t: float,
    policy: TruncationPolicy,
) -> SeriesValue:
    """2F1(a,b;c;t)/Gamma(c), entire in c.

    At c = -m, m in N0, the value is the limit (DLMF 15.2.3_5)
    (a)_{m+1} (b)_{m+1} t^{m+1} / (m+1)! 2F1(a+m+1, b+m+1; m+2; t), zero
    where the series terminates below index m + 1.
    """
    if not is_nonpos_int(c):
        return _scaled(recip_gamma(c), gauss_2f1(a, b, c, t, policy))
    m = int(round(-c.real))
    stops = [k for k in (terminating_index(a), terminating_index(b)) if k is not None]
    if stops and min(stops) <= m:
        return SeriesValue(0j, 0, 0.0)
    lead = pochhammer(a, m + 1) * pochhammer(b, m + 1) * t ** (m + 1) / math.factorial(m + 1)
    return _scaled(lead, gauss_2f1(a + (m + 1), b + (m + 1), m + 2, t, policy))


def _scaled(prefactor: complex, sv: SeriesValue) -> SeriesValue:
    return SeriesValue(prefactor * sv.value, sv.terms_used,
                       sv.error_estimate * abs(prefactor))


def ferrers_p(p: ParameterPoint, x: "Argument | float",
              policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Ferrers function of the first kind, order -mu, degree nu, on (-1,1)."""
    arg = _as_argument(x)
    if arg.domain is not Domain.FERRERS:
        raise DomainError(f"ferrers_p requires -1 < x < 1, got {arg.x}")
    nu, mu = p.nu, p.mu
    t = (1.0 - arg.x) / 2.0
    a, b, c = -nu, nu + 1.0, 1.0 + mu
    if arg.x <= 0.0:
        if terminating_index(a) is None:
            a, b = b, a
        k = terminating_index(a)
        if k is None:
            raise DomainError(
                "x <= 0 is supported only when the hypergeometric series terminates"
            )
        # at t >= 1/2 the terms alternate and cancel; Pfaff's transformation
        # (1-t)^k 2F1(-k, c-b; c; t/(t-1)) sums terms of one sign
        sv = _scaled((1.0 - t) ** k, _f_over_gamma_c(a, c - b, c, t / (t - 1.0), policy))
    else:
        sv = _f_over_gamma_c(a, b, c, t, policy)
    base = (1.0 - arg.x) / (1.0 + arg.x)
    prefactor = cmath.exp(0.5 * mu * math.log(base))
    return _scaled(prefactor, sv)


def legendre_p(p: ParameterPoint, x: "Argument | float",
               policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Associated Legendre function of the first kind, order -mu, on (1,inf)."""
    arg = _as_argument(x)
    if arg.domain is not Domain.LEGENDRE:
        raise DomainError(f"legendre_p requires x > 1, got {arg.x}")
    return _legendre_p_series(p.nu, p.mu, (arg.x - 1.0) / (arg.x + 1.0),
                              math.log(arg.x - 1.0), math.log(arg.x + 1.0), policy)


def _legendre_p_series(nu: complex, mu: complex, t: float, log_xm1: float,
                       log_xp1: float, policy: TruncationPolicy) -> SeriesValue:
    """legendre_p at the x > 1 given by t = (x-1)/(x+1), log(x-1) and
    log(x+1), so that a caller who knows x - 1 better than x passes it on."""
    sv = _f_over_gamma_c(-nu, mu - nu, 1.0 + mu, t, policy)
    prefactor = cmath.exp(
        -nu * math.log(2.0)
        + 0.5 * mu * log_xm1
        + (nu - 0.5 * mu) * log_xp1
    )
    return _scaled(prefactor, sv)


def legendre_q(p: ParameterPoint, x: "Argument | float",
               policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Second-kind associated Legendre function on (1,inf), via the
    first-kind function at the reciprocal-like argument x/s, s = sqrt(x^2-1).

    x/s tends to 1 as x grows, so x/s - 1 is never formed: with x/s - 1 =
    1/(s (x + s)) and x/s + 1 = (x + s)/s, the series variable is
    1/(x + s)^2 and the logarithms are sums of log s and log(x + s)."""
    arg = _as_argument(x)
    if arg.domain is not Domain.LEGENDRE:
        raise DomainError(f"legendre_q requires x > 1, got {arg.x}")
    nu, mu = p.nu, p.mu
    if is_nonpos_int(nu - mu + 1.0):
        raise PoleError(f"gamma prefactor pole at nu - mu + 1 = {nu - mu + 1.0}")
    s = math.sqrt((arg.x - 1.0) * (arg.x + 1.0))
    log_s, log_xs = math.log(s), math.log(arg.x + s)
    sv = _legendre_p_series(mu - 0.5, nu + 0.5, (arg.x + s) ** -2.0,
                            -log_s - log_xs, log_xs - log_s, policy)
    prefactor = (math.sqrt(math.pi / 2.0) * cmath.exp(-1j * math.pi * mu)
                 * gamma(nu - mu + 1.0) / math.sqrt(s))
    return _scaled(prefactor, sv)


def _P_int(k: int, m: int, x: float) -> float:
    """P of integer degree k >= 0 and integer order m >= -k, both argument
    ranges, via the degree recurrence.

    The recurrence is forward-stable where the terminating hypergeometric
    series cancels catastrophically (large degree, moderate x)."""
    if m < 0:
        mm = -m
        ratio = math.factorial(k - mm) / math.factorial(k + mm)
        if x < 1.0 and mm % 2:
            ratio = -ratio
        return ratio * _P_int(k, mm, x)
    if m > k:
        return 0.0
    # seed P_m^m, then raise the degree
    if x < 1.0:
        base = math.sqrt(1.0 - x * x)
        pmm = (-base) ** m
    else:
        base = math.sqrt(x * x - 1.0)
        pmm = base ** m
    for i in range(1, 2 * m, 2):
        pmm *= i
    if k == m:
        return pmm
    prev, cur = pmm, (2.0 * m + 1.0) * x * pmm
    for deg in range(m + 1, k):
        prev, cur = cur, ((2.0 * deg + 1.0) * x * cur - (deg + m) * prev) / (deg - m + 1.0)
    return cur


def _as_int(z: complex) -> "int | None":
    if isinstance(z, int):
        return z
    z = complex(z)
    n = round(z.real)
    if abs(z.imag) <= 1e-14 and abs(z.real - n) <= 1e-14:
        return int(n)
    return None


def _P(nu: complex, mu: complex, x: float,
       policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """First-kind function of degree nu and order -mu at x, dispatching on
    the argument interval."""
    k = _as_int(nu)
    m = _as_int(mu)
    # negative order -m below -k is not a polynomial case: series path
    if k is not None and m is not None and 0 <= k and m <= k:
        return complex(_P_int(k, -m, x))
    arg = Argument(x)
    pt = ParameterPoint(nu, mu)
    if arg.domain is Domain.FERRERS:
        return ferrers_p(pt, arg, policy).value
    return legendre_p(pt, arg, policy).value
