"""Complex-parameter scalar kernel.

Gamma and reciprocal gamma, Pochhammer products, the convergent Gauss 2F1
series, and terminating generalized hypergeometric sums.  Everything here is
a pure function of its inputs.
"""

import cmath
import math
from collections import namedtuple

from .errors import (
    DivergenceError,
    DomainError,
    MaxTermsError,
    NotTerminatingError,
    PoleError,
)

__all__ = [
    "TruncationPolicy",
    "SeriesValue",
    "DEFAULT_POLICY",
    "pochhammer",
    "gamma",
    "recip_gamma",
    "gauss_2f1",
    "pfq_terminating",
    "KahanSum",
    "finite_exp",
    "nearest_int",
    "terminating_index",
]

POLE_TOL = 1e-14
INT_TOL = 1e-12
# the direct tolerance test compares a term with |partial sum|, never below this
ABS_FLOOR = 1e-300
SMALL_RUN = 3


class TruncationPolicy(namedtuple("TruncationPolicy", "rel_tol max_terms",
                                  defaults=(1e-13, 100000))):
    """A nonterminating 2F1's stopping rule: `rel_tol` (float), finite and
    positive, and a term cap `max_terms` (int) of at least 1."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "TruncationPolicy":
        self = super().__new__(cls, *args, **kwargs)
        rel_tol, max_terms = self
        if not 0.0 < rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
        if not isinstance(max_terms, int):
            raise ValueError(f"max_terms must be an integer, got {max_terms}")
        if max_terms < 1:
            raise ValueError(f"max_terms must be at least 1, got {max_terms}")
        return self

    @classmethod
    def _make(cls, iterable) -> "TruncationPolicy":
        # `_replace` builds through here: check its fields too
        return cls(*iterable)


DEFAULT_POLICY = TruncationPolicy()


class SeriesValue(namedtuple("SeriesValue", "value terms_used error_estimate")):
    """`value` (complex), `terms_used` (int) and `error_estimate` (float)."""

    __slots__ = ()


class KahanSum:
    """Compensated (Kahan) accumulator for complex values."""

    __slots__ = ("total", "carry")

    def __init__(self) -> None:
        self.total = 0j
        self.carry = 0j

    def add(self, value: complex) -> None:
        y = value - self.carry
        t = self.total + y
        self.carry = (t - self.total) - y
        self.total = t

    def value(self) -> complex:
        return self.total


def terminating_index(*params: complex, tol: float = INT_TOL) -> int | None:
    """The least k >= 0 with one of params within tol of -k, else None: the
    index at which a Pochhammer product over those params first vanishes.
    A parameter with a non-finite real part raises DomainError."""
    least = None
    for a in params:
        try:
            k = round(-a.real)
        except (ValueError, OverflowError):
            raise DomainError(f"parameter {a} is not finite") from None
        if k >= 0 and abs(a + k) <= tol and (least is None or k < least):
            least = k
    return least


def nearest_int(z: complex, tol: float) -> int | None:
    """The integer within tol of both parts of z, else None."""
    if isinstance(z, int):
        return z
    z = complex(z)
    n = round(z.real)
    if abs(z.imag) <= tol and abs(z.real - n) <= tol:
        return int(n)
    return None


def pochhammer(a: complex, n: int) -> complex:
    """Rising factorial: product of (a+l) for l = 0..n-1.

    Exact product, never formed from gamma ratios, so nonpositive-integer a
    gives an exact zero instead of a pole.  A non-finite a raises
    DomainError, a product past the doubles DivergenceError.
    """
    if n < 0:
        raise ValueError("pochhammer index must be nonnegative")
    a = complex(a)
    if not cmath.isfinite(a):
        raise DomainError(f"pochhammer needs a finite argument, got a = {a}")
    value = complex(1.0)
    for l in range(n):
        value *= a + l
    if not cmath.isfinite(value):
        raise DivergenceError(f"pochhammer({a}, {n}) overflows the range of doubles")
    return value


# Lanczos coefficients, Godfrey's set for g = 607/128 (15 terms).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = [
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _loggamma_right(z: complex) -> complex:
    # valid for Re z >= 0.5
    zm1 = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (zm1 + 0.5) * cmath.log(t) - t + cmath.log(acc)


def _sin_pi(z: complex) -> complex:
    """sin(pi z), as (-1)^n sin(pi (z - n)) within 1e-2 of an integer n,
    where the rounding of pi z costs digits (2.8e-4 of gamma(-3 + 1e-12))."""
    n = round(z.real)
    if abs(z - n) >= 1e-2:
        return cmath.sin(math.pi * z)
    return cmath.sin(math.pi * (z - n)) * (1 - 2 * (n % 2))


def finite_exp(z: complex, what: str, *args) -> complex:
    """exp(z) where it is a finite double, else DivergenceError: `what`,
    formatted with args only then, overflows the range of doubles."""
    try:
        value = cmath.exp(z)
        if cmath.isfinite(value):
            return value
    except (OverflowError, ValueError):
        pass
    raise DivergenceError(what.format(*args) + " overflows the range of doubles")


def _gamma_from_log(z: complex, sign: int) -> complex:
    """gamma(z)^sign, sign = +/-1, from log gamma(z): 0 where it underflows,
    DivergenceError unless it is a finite double, real where z is.  Left of
    1/2 it reflects, with sin(u + iv) = (e^|v| / 2) i s e^(-i s u), s the
    sign of v, past |v| = 300; past 2^1000 there, gamma(z) is 0 in doubles."""
    if z.real >= 0.5:
        log_value = _loggamma_right(z)
    elif max(abs(z.real), abs(z.imag)) > 2.0**1000:
        log_value = complex(-math.inf)
    else:
        u, v = math.pi * z.real, math.pi * z.imag
        if abs(v) <= 300.0:
            log_sin = cmath.log(_sin_pi(z))
        else:
            log_sin = abs(v) - math.log(2.0) + 1j * math.copysign(1.0, v) * (math.pi / 2 - u)
        log_value = math.log(math.pi) - log_sin - _loggamma_right(1.0 - z)
    log_value = log_value if sign > 0 else -log_value
    if log_value.real < -746.0:
        return 0j
    value = finite_exp(log_value, "gamma at z = {}: gamma^{}", z, sign)
    # exp(i pi) is not exactly -1: a real z keeps a real value
    return value if z.imag else complex(value.real)


def gamma(z: complex) -> complex:
    """Complex gamma, Lanczos approximation with reflection for Re z < 0.5.
    Where a step overflows or the value is not finite, log space decides: 0
    below the doubles, DivergenceError above them.  A non-finite z raises
    DomainError."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"gamma needs a finite argument, got z = {z}")
    if terminating_index(z, tol=POLE_TOL) is not None:
        raise PoleError(f"gamma pole at z = {z}")
    try:
        if z.real < 0.5:
            # reflection keeps the Lanczos sum on its accurate half-plane
            value = math.pi / (_sin_pi(z) * gamma(1.0 - z))
        else:
            value = cmath.exp(_loggamma_right(z))
        if cmath.isfinite(value):
            return value
    except (ArithmeticError, ValueError, DivergenceError):
        pass
    return _gamma_from_log(z, 1)


def recip_gamma(z: complex) -> complex:
    """Entire reciprocal gamma: exact 0 at nonpositive integers, else
    1/gamma(z), from log space where gamma raises (within POLE_TOL of a pole
    too, where `_sin_pi` keeps the sine's digits).  A non-finite z raises
    DomainError."""
    z = complex(z)
    try:
        value = 1.0 / gamma(z)
        if cmath.isfinite(value):
            return value
    except (ZeroDivisionError, PoleError, DivergenceError):
        if terminating_index(z, tol=0.0) is not None:
            return 0j
    return _gamma_from_log(z, -1)


def gauss_2f1(
    a: complex,
    b: complex,
    c: complex,
    t: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesValue:
    """Gauss hypergeometric series by the term-ratio recurrence.

    Nonterminating use requires |t| < 1; a terminating numerator (within
    1e-12 of a nonpositive integer) is summed exactly regardless of t.  A
    denominator within 1e-14 of a pole that the sum reaches raises
    PoleError; there P reflects its order (`legendre._order_reflected`).

    A nonterminating sum stops after SMALL_RUN (3) terms in a row with
    |term| <= rel_tol * max(|total|, ABS_FLOOR).  That test is read only
    where a term can pass it.  `bound` runs as 2 (1 + sum of |term|), which
    is at least |total| and at least ABS_FLOOR; the factor 2 covers the
    rounding of both sums, whose relative error stays below 4 n eps over n
    terms.  So a term with |term| > rel_tol * bound fails the test and only
    resets the run, and the test decides every other term.

    Overflow raises DivergenceError: in a nonterminating sum at the first
    term where `bound` is no longer finite or abs overflows, in a
    terminating one where the total is not finite.  `bound` leaves the
    finite range only on a term that fails the first comparison, so it is
    checked there alone.  Non-finite parameters or t raise DomainError.
    """
    a, b, c = complex(a), complex(b), complex(c)
    t = float(t)
    if not all(map(cmath.isfinite, (a, b, c, t))):
        raise DomainError(f"2F1 needs finite parameters and argument, got {a}, {b}, {c}, {t}")
    n_stop = terminating_index(a, b)
    nc = terminating_index(c, tol=POLE_TOL)
    if nc is not None and (n_stop is None or nc < n_stop):
        raise PoleError(f"2F1 denominator parameter c = {c} hits a pole before termination")
    if n_stop is None and abs(t) >= 1.0:
        raise DivergenceError(f"nonterminating 2F1 at |t| = {abs(t)} >= 1")

    total = term = complex(1.0)
    if n_stop is not None:
        # the cap is read before each term is formed, so it is reached only
        # when at least one of the n_stop terms lies past it
        if n_stop > policy.max_terms:
            raise MaxTermsError(f"2F1 did not converge within {policy.max_terms} terms")
        for n in range(n_stop):
            term = term * (a + n) * (b + n) / ((c + n) * (n + 1)) * t
            total += term
        if not cmath.isfinite(total):
            raise DivergenceError(f"terminating 2F1 overflows to {total}")
        return SeriesValue(total, n_stop + 1, 0.0)
    rel_tol = policy.rel_tol
    bound = 2.0
    small_run = 0
    try:
        for n in range(policy.max_terms):
            term = term * (a + n) * (b + n) / ((c + n) * (n + 1)) * t
            total += term
            size = abs(term)
            bound += size + size
            if size > rel_tol * bound:
                small_run = 0
            elif not math.isfinite(bound):
                raise DivergenceError(f"2F1 terms overflow at term {n + 1}")
            elif size <= rel_tol * max(abs(total), ABS_FLOOR):
                small_run += 1
                if small_run >= SMALL_RUN:
                    return SeriesValue(total, n + 2, size / max(1.0 - abs(t), 1e-16))
            else:
                small_run = 0
    except OverflowError:
        raise DivergenceError(f"2F1 terms overflow at term {n + 1}") from None
    raise MaxTermsError(f"2F1 did not converge within {policy.max_terms} terms")


def pfq_terminating(
    numer: list[complex],
    denom: list[complex],
    t: complex,
    n_top: int,
) -> complex:
    """Terminating pFq: exact sum of n_top+1 terms via the term recurrence."""
    if n_top < 0:
        raise ValueError("n_top must be nonnegative")
    numer = [complex(p) for p in numer]
    denom = [complex(q) for q in denom]
    if not any(abs(p + n_top) <= INT_TOL for p in numer):
        raise NotTerminatingError(
            f"no numerator parameter equals -{n_top} within {INT_TOL}"
        )
    for q in denom:
        k = terminating_index(q)
        if k is not None and k < n_top:
            raise PoleError(
                f"denominator parameter {q} vanishes at index {k + 1} <= {n_top}"
            )
    t = complex(t)
    total = complex(1.0)
    term = complex(1.0)
    for k in range(n_top):
        ratio = t / (k + 1)
        for p in numer:
            ratio *= p + k
        for q in denom:
            ratio /= q + k
        term = term * ratio
        total += term
    return total
