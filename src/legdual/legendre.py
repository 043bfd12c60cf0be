"""First-kind Ferrers functions on (-1,1), associated Legendre functions of
the first and second kind on (1,infinity), complex degree and order.

All fractional powers have positive real bases on the supported windows and
are taken as principal values.  The reciprocal-gamma prefactor makes the
values entire in the order parameter; at order n = -mu >= 1, a pole of
the series, P comes from order -n (`_order_reflected`).

Integer degree, k >= 0 or its reflection -k - 1 (the same function, DLMF
14.9.5), with order -m, m <= k, takes one route from every first-kind entry
point (`ferrers_p`, `legendre_p` and `_P`, through `_first_kind`): the degree
recurrence `_P_int`, stable where the terminating hypergeometric sum
cancels, and run in decimal where a float step leaves the doubles.  All
other parameters sum a hypergeometric series: in (1 - x)/2 on (0, 1), else
in (x - 1)/(x + 1), which at x <= 0 must terminate.  The catalog's P at
shifted order (`_P_chain`, `_P_half_chain`) takes one direct value and the
rest from the order recurrence.  Each recurrence runs on `series.recurrence`.
"""

import cmath
import decimal
import functools
import itertools
import math
import sys
from collections import namedtuple
from collections.abc import Iterator

from .errors import DivergenceError, DomainError, MaxTermsError
from .hypergeom import (
    DEFAULT_POLICY,
    POLE_TOL,
    SeriesValue,
    TruncationPolicy,
    finite_exp,
    gamma,
    gauss_2f1,
    nearest_int,
    recip_gamma,
    terminating_index,
)
from .series import nth, recurrence

__all__ = [
    "ParameterPoint",
    "ferrers_p",
    "legendre_p",
    "legendre_q",
]

_TINY = sys.float_info.min


class ParameterPoint(namedtuple("ParameterPoint", "nu mu")):
    """Degree `nu` and order `mu`, both stored as complex and finite."""

    __slots__ = ()

    def __new__(cls, nu: complex, mu: complex) -> "ParameterPoint":
        nu, mu = complex(nu), complex(mu)
        if not (cmath.isfinite(nu) and cmath.isfinite(mu)):
            raise DomainError(f"degree and order must be finite, got nu = {nu}, mu = {mu}")
        return super().__new__(cls, nu, mu)

    @classmethod
    def _make(cls, iterable) -> "ParameterPoint":
        # `_replace` builds through here: convert its fields too
        return cls(*iterable)


def _scaled(prefactor: complex, sv: SeriesValue) -> SeriesValue:
    return SeriesValue(prefactor * sv.value, sv.terms_used,
                       sv.error_estimate * abs(prefactor))


def ferrers_p(p: ParameterPoint, x: float,
              policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Ferrers function of the first kind, order -mu, degree nu, on (-1,1)."""
    if not -1.0 < x < 1.0:
        raise DomainError(f"ferrers_p requires -1 < x < 1, got {x}")
    return _first_kind(p.nu, p.mu, x, policy)


def legendre_p(p: ParameterPoint, x: float,
               policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Associated Legendre function of the first kind, order -mu, on (1,inf).

    Off `_P_int` this sums a Gauss series in t = (x-1)/(x+1) = 1 - 2/(x+1),
    which takes O(x) terms: near x = 1e4 some parameters need more than the
    default 100,000 and raise MaxTermsError."""
    if not 1.0 < x < math.inf:
        raise DomainError(f"legendre_p requires 1 < x < inf, got {x}")
    return _first_kind(p.nu, p.mu, x, policy)


def _first_kind(nu: complex, mu: complex, x: float,
                policy: TruncationPolicy) -> SeriesValue:
    """The first-kind function at x in (-1, 1) or (1, inf): `_P_int` or
    `_order_reflected` where they apply, else the series in (1-x)/2 on (0, 1)
    and in t = (x-1)/(x+1) elsewhere.  At x <= 0, t <= -1, so that series must
    terminate: at degree nu or, through -nu or mu - nu, at -nu - 1 (DLMF 14.9.5)."""
    if (sv := _P_int(nu, mu, x, policy)) is not None:
        return sv
    nu, mu = complex(nu), complex(mu)
    if (n := terminating_index(1.0 + mu, tol=POLE_TOL)) is not None:
        return _order_reflected(nu, n + 1, x, policy)
    if 0.0 < x < 1.0:
        sv = _scaled(recip_gamma(1.0 + mu),
                     gauss_2f1(-nu, nu + 1.0, 1.0 + mu, (1.0 - x) / 2.0, policy))
        return _scaled(finite_exp(0.5 * mu * math.log((1.0 - x) / (1.0 + x)),
                                  "P's power ((1-x)/(1+x))^(mu/2) at mu = {}", mu), sv)
    if x <= 0.0 and terminating_index(-nu, mu - nu) is None:
        nu = -nu - 1.0
        if terminating_index(-nu, mu - nu) is None:
            raise DomainError("x <= 0 is supported only where the series in (x-1)/(x+1) ends")
    return _legendre_p_series(nu, mu, (x - 1.0) / (x + 1.0),
                              math.log(abs(x - 1.0)), math.log(x + 1.0), policy)


def _order_reflected(nu: complex, n: int, x: float, policy: TruncationPolicy) -> SeriesValue:
    """P of order n >= 1 (DLMF 14.9.3, 14.9.13): P of order -n times its 2n
    factors nu + j, each formed apart so that a small nu - 1 keeps its digits,
    and (-1)^n on (-1, 1).  On (0, 1) order -n is the Euler transform (DLMF
    15.8.1) of its series in (1-x)/2, whose terms keep one sign where nu < n.
    MaxTermsError past the cap; DomainError where order -n (or, on (0, 1), 1/n!)
    is below the normal doubles, DivergenceError where order n is above them."""
    if 2 * n > policy.max_terms:
        raise MaxTermsError(f"order {n:.6g} needs more than {policy.max_terms} factors")
    if 0.0 < x < 1.0:
        if n > 170:
            raise DomainError(f"P of order {-n} needs 1/{n}!, below the normal doubles")
        # 1/n! exact to rounding (1/Gamma(1 + n) errs by up to 3e-14 for n < 60),
        # then the power, so that no factor underflows first:
        # ((1-x)/(1+x))^(n/2) ((1+x)/2)^n
        sv = _scaled(1.0 / math.factorial(n),
                     gauss_2f1(n + 1.0 + nu, n - nu, 1.0 + n, (1.0 - x) / 2.0, policy))
        sv = _scaled(((1.0 - x) * (1.0 + x) / 4.0) ** (0.5 * n), sv)
    else:
        sv = _first_kind(nu, complex(n), x, policy)
    if not abs(value := sv.value) >= _TINY:
        raise DomainError(f"P of order {-n} is below the normal doubles at degree {nu}")
    for j in range(1 - n, n + 1):
        value *= nu + j
    if not cmath.isfinite(value):
        raise DivergenceError(f"P of order {n} is above the range of doubles at degree {nu}")
    # the 2n products round by up to one unit in the last place each
    return SeriesValue(-value if x < 1.0 and n % 2 else value, sv.terms_used,
                       (sv.error_estimate / abs(sv.value) + 2 * n * 2.0**-53) * abs(value))


def _legendre_p_series(nu: complex, mu: complex, t: float, log_xm1: float,
                       log_xp1: float, policy: TruncationPolicy) -> SeriesValue:
    """The first-kind function at the x given by t = (x-1)/(x+1), log|x-1|
    and log(x+1), so that a caller who knows x - 1 better than x passes it
    on: legendre_p at x > 1, ferrers_p at x < 1 (Pfaff's transformation of
    its series in (1-x)/2, DLMF 15.8.1)."""
    sv = _scaled(recip_gamma(1.0 + mu), gauss_2f1(-nu, mu - nu, 1.0 + mu, t, policy))
    log_pre = -nu * math.log(2.0) + 0.5 * mu * log_xm1 + (nu - 0.5 * mu) * log_xp1
    return _scaled(finite_exp(log_pre, "P's power prefactor at nu = {}, mu = {}", nu, mu), sv)


def legendre_q(p: ParameterPoint, x: float,
               policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Second-kind associated Legendre function on (1,inf), via the
    first-kind function at the reciprocal-like argument x/s, s = sqrt(x^2-1).

    x/s tends to 1 as x grows, so x/s - 1 is never formed: with x/s - 1 =
    1/(s (x + s)) and x/s + 1 = (x + s)/s, the series variable is
    1/(x + s)^2 and the logarithms are sums of log s and log(x + s)."""
    if not 1.0 < x < math.inf:
        raise DomainError(f"legendre_q requires 1 < x < inf, got {x}")
    nu, mu = p.nu, p.mu
    if terminating_index(nu + 1.5, tol=POLE_TOL) is not None:
        # at nu = -1/2 - n the inner P has order n; its reflection (DLMF 14.9.13)
        # turns Gamma(nu - mu + 1) into Gamma(-nu - mu): Q is Q at degree n - 1/2
        nu = -nu - 1.0
    # (x - 1)(x + 1) would overflow above about 1.34e154
    s = math.sqrt(x - 1.0) * math.sqrt(x + 1.0)
    rotation = finite_exp(-1j * math.pi * mu, "exp(-i pi mu) at mu = {}", mu)
    # gamma raises PoleError at its poles before the series is summed
    prefactor = math.sqrt(math.pi / 2.0) * rotation * gamma(nu - mu + 1.0) / math.sqrt(s)
    log_s, log_xs = math.log(s), math.log(x + s)
    return _scaled(prefactor, _legendre_p_series(mu - 0.5, nu + 0.5, (x + s) ** -2.0,
                                                 -log_s - log_xs, log_xs - log_s, policy))


def _P_int(nu: complex, mu: complex, x: float,
           policy: TruncationPolicy) -> "SeriesValue | None":
    """P of integer degree k >= 0, nu = k or nu = -k - 1 (the same function,
    DLMF 14.9.5), and order -m, m <= k, at x in the interval its caller
    checked, by `_degree_recurrence`: exact to rounding, counted as the
    k + 1 terms of the sum it replaces, and MaxTermsError where those pass
    the policy's cap.  Where a float step leaves the normal doubles, the
    steps run again in decimal: 0 (or a subnormal) below the doubles,
    DivergenceError above them.  None for any other parameters."""
    k, m = nearest_int(nu, POLE_TOL), nearest_int(mu, POLE_TOL)
    if k is None or m is None or m > (k := k if k >= 0 else -k - 1):
        return None
    if k + 1 > policy.max_terms:
        raise MaxTermsError(f"degree {k:.6g} needs more than {policy.max_terms} terms")
    return _int_degree(k, m, x)


@functools.lru_cache(maxsize=4096, typed=True)
def _int_degree(k: int, m: int, x: float) -> SeriesValue:
    """`_P_int`'s value at k >= 0, m <= k, cached: four seed 0-3 suites ask
    48,315 times for 1,734 values.  The key holds x's type (0 == 0.0)."""
    value = _degree_recurrence(k, m, x) if -m <= k else 0.0
    if value is None:
        with decimal.localcontext(_WIDE):
            value = float(_degree_recurrence(k, m, decimal.Decimal(x)))
        if math.isinf(value):
            raise DivergenceError(f"P of degree {k} and order {-m} at x = {x} "
                                  "is above the range of doubles")
    return SeriesValue(complex(value), k + 1, 0.0)


# 34 digits, and exponents that hold P at any degree the term cap admits
_WIDE = decimal.Context(prec=34, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _degree_recurrence(k: int, m: int, x):
    """P_k^(-m)(x), |m| <= k, in the number type of x (float or Decimal):
    P_n^n, n = |m|, raised to degree k by the degree recurrence (DLMF
    14.10.3), forward-stable where the terminating hypergeometric series
    cancels (large degree, moderate x), then for m > 0 times (k-m)!/(k+m)!
    (DLMF 14.9.3, 14.9.13).  For a float, None unless the power of
    +-(1 - x^2), the ratio and the value are normal doubles; the power and
    the ratio (by log gamma, a margin of e clear of rounding) are screened
    before any step, and the factorials formed only where the screen passes."""
    wide = isinstance(x, decimal.Decimal)
    n = abs(m)
    s = 1 - x * x if x < 1 else x * x - 1
    s = s.sqrt() if wide else math.sqrt(s)
    try:
        power = (-s if x < 1 else s) ** n
    except OverflowError:
        return None
    if not wide and (abs(power) < _TINY or m > 0 and math.lgamma(k - m + 1)
                     - math.lgamma(k + m + 1) < math.log(_TINY) - 1.0):
        return None
    pnn = math.prod(range(1, 2 * n, 2), start=power)
    # at degree d: a = (2d + 1) x, b = d + n, c = d - n + 1
    coefs = (((2 * d + 1) * x, d + n, d - n + 1) for d in range(n + 1, k))
    value = nth(recurrence(coefs, pnn, (2 * n + 1) * x * pnn), k - n)
    ratio = 1.0
    if m > 0:
        ratio = (1 / math.prod(map(decimal.Decimal, range(k - m + 1, k + m + 1))) if wide
                 else math.factorial(k - m) / math.factorial(k + m))
        value *= -ratio if x < 1 and m % 2 else ratio
    return value if wide or _TINY <= abs(value) < math.inf and _TINY <= ratio else None


# the catalog's P values: each series summed to the last bit, since every
# identity's left-hand side and every P chain's head carry its error
_LAST_BIT = TruncationPolicy(rel_tol=2.0**-52)


def _P(nu: complex, mu: complex, x: float) -> complex:
    """First-kind function of degree nu and order -mu at x: the value of
    `ferrers_p` below x = 1 and of `legendre_p` above it, from the evaluator
    they share, which tries `_P_int` once.  The series is summed until its
    terms fall below 2^-52 of the sum, where the public functions stop at
    DEFAULT_POLICY's 1e-13."""
    if not (-1.0 < x < 1.0 or 1.0 < x < math.inf):
        raise DomainError(f"argument x = {x} outside (-1,1) union (1,inf)")
    return _first_kind(nu, mu, x, _LAST_BIT).value


def _P_chain(nu: complex, mu: complex, y: float, diag: int) -> Iterator[complex]:
    """P(nu + k*diag, mu + k, y) for k = 0, 1, ... with diag 0 (fixed degree)
    or 1 (degree and order shifted together): one direct value f_0, and the
    minimal solution through it of the order recurrence f_{k-1} = a_k f_k -
    c_k f_{k+1} (DLMF 14.10.1/14.10.6; 14.10.1-14.10.3 for the diagonal) by
    `recurrence`'s elimination.  Its ratio to the dominant solution is
    q = |1-y|/(1+y) at fixed degree and |1 - y^2| on the diagonal (below 1
    there exactly for y < 2^1/2: the reciprocal arguments of the window
    (2^-1/2, 1)); where q >= 1, P is not minimal and the values are direct."""
    f = _P(nu, mu, y)
    nu, mu = complex(nu), complex(mu)
    s = math.sqrt(abs(1.0 - y * y))
    q = s * s if diag else abs(1.0 - y) / (1.0 + y)
    sign = 1.0 if y < 1.0 else -1.0
    # a_k is linear in k and c_k quadratic
    if diag:
        a0 = ((2.0 * nu + 3.0) * (1.0 - y * y) + 2.0 * (mu + 1.0)) / s
        a1 = 2.0 * (2.0 - y * y) / s
        e, c0, c1, c2 = sign, nu + mu + 3.0, nu + mu + 4.0, 2
    else:
        a0, a1 = 2.0 * (mu + 1.0) * y / s, 2.0 * y / s
        e, c0, c1, c2 = -sign, nu + mu + 2.0, mu - nu + 1.0, 1
    coefs = ((a0 + a1 * j, 1, e * (c0 + c2 * j) * (c1 + c2 * j)) for j in itertools.count())
    yield from recurrence(coefs, f, decay=q, direct=lambda k: _P(nu + k * diag, mu + k, y))


def _P_half_chain(nu: complex, mu: complex, y: float, diag: int) -> Iterator[complex]:
    """P(nu + n*diag/2, mu + n/2, y) for n = 0, 1, ...: the even and the odd
    n are two chains, interleaved."""
    even = _P_chain(nu, mu, y, diag)
    odd = _P_chain(complex(nu) + 0.5 * diag, complex(mu) + 0.5, y, diag)
    return itertools.chain.from_iterable(zip(even, odd))
