"""Classical polynomial families with complex parameters.

Gegenbauer, Jacobi, associated Legendre, Mittag-Leffler, Bateman, and Gauss
hypergeometric polynomials.  Gegenbauer uses the explicit sum rather than the
three-term recurrence because its parameter depends on the degree in every
use downstream, which breaks fixed-parameter recurrences.

The Mittag-Leffler, Gauss hypergeometric and Bateman coefficients are
sequences in the degree (`<family>_seq`), whose degrees above
_RECURRENCE_DEGREE come from one pass of the contiguous recurrence; the
scalar `<family>(n, ...)` is the n-th element.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .errors import PoleError
from .hypergeom import (
    INT_TOL,
    KahanSum,
    pfq_terminating,
    pochhammer,
    terminating_index,
)

__all__ = [
    "gegenbauer",
    "jacobi",
    "assoc_legendre_poly",
    "mittag_leffler_g",
    "mittag_leffler_g_seq",
    "bateman_g",
    "bateman_g_seq",
    "gauss_hyper_poly",
    "gauss_hyper_poly_seq",
]


def _poch_vanishes_before(tau: complex, length: int) -> int | None:
    """If (tau)_p = 0 for some p <= length, return the nonneg integer -tau."""
    if tau.imag == 0.0 and tau.real == round(tau.real):
        m = int(-tau.real)
        if 0 <= m < length:
            return m
    return None


def _balanced_term(tau: complex, k: int, j: int, two_x: float) -> complex:
    """(tau)_{k-j} (2x)^{k-2j} / (j! (k-2j)!), factors interleaved to keep
    intermediates in range."""
    num = k - j
    pw = k - 2 * j
    steps = max(num, pw, j, k - 2 * j)
    term = complex(1.0)
    ni = di1 = di2 = pi = 0
    for _ in range(steps):
        if ni < num:
            term *= tau + ni
            ni += 1
        if pi < pw:
            term *= two_x
            pi += 1
        if di1 < j:
            term /= di1 + 1
            di1 += 1
        if di2 < k - 2 * j:
            term /= di2 + 1
            di2 += 1
    return term


def gegenbauer(k: int, tau: complex, x: float) -> complex:
    """Gegenbauer polynomial by its explicit alternating sum."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    tau = complex(tau)
    x = float(x)
    jmax = k // 2
    two_x = 2.0 * x

    j0 = 0
    m = _poch_vanishes_before(tau, k)
    if m is not None:
        # (tau)_{k-j} = 0 until k-j <= m
        j0 = k - m
        if j0 > jmax:
            return 0j

    if x == 0.0:
        if k % 2 == 1:
            return 0j
        if j0 > jmax:
            return 0j
        sign = -1.0 if jmax % 2 else 1.0
        return sign * _balanced_term(tau, k, jmax, 0.0)

    term = _balanced_term(tau, k, j0, two_x)
    if j0 % 2:
        term = -term
    if term == 0:
        # underflowed leading term: evaluate each term independently
        acc = KahanSum()
        for j in range(j0, jmax + 1):
            t = _balanced_term(tau, k, j, two_x)
            acc.add(-t if j % 2 else t)
        return acc.value()

    acc = KahanSum()
    acc.add(term)
    for j in range(j0, jmax):
        term *= -(k - 2 * j) * (k - 2 * j - 1) / ((j + 1) * (tau + k - j - 1) * two_x * two_x)
        acc.add(term)
    return acc.value()


def jacobi(n: int, a: complex, b: complex, x: float) -> complex:
    """Jacobi polynomial via its terminating hypergeometric form."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    a, b = complex(a), complex(b)
    pre = pochhammer(a + 1, n) / math.factorial(n)
    f = pfq_terminating([-n, n + a + b + 1], [a + 1], (1.0 - x) / 2.0, n)
    return pre * f


def assoc_legendre_poly(k: int, m: int, x: float) -> float:
    """Associated Legendre polynomial on (-1,1), any integer order m."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if m < 0:
        mm = -m
        if mm > k:
            return 0.0
        ratio = math.factorial(k - mm) / math.factorial(k + mm)
        sign = -1.0 if mm % 2 else 1.0
        return sign * ratio * assoc_legendre_poly(k, mm, x)
    if m > k:
        return 0.0
    pre = math.factorial(2 * m) / (2.0**m * math.factorial(m))
    if m % 2:
        pre = -pre
    val = gegenbauer(k - m, m + 0.5, x)
    return pre * abs(1.0 - x * x) ** (m / 2.0) * val.real


# Above this degree the explicit terminating sums cancel catastrophically
# (alternating terms grow like 3^n at argument 2); switch to the exact
# contiguous three-term recurrence in n, seeded by the n = 0, 1 values.
_RECURRENCE_DEGREE = 12


def _nth(seq: Iterator[complex], n: int) -> complex:
    """Element n of a coefficient sequence."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return next(itertools.islice(seq, n, None))


def mittag_leffler_g_seq(sigma: complex) -> Iterator[complex]:
    """Coefficients of z^0, z^1, ... in ((1+z)/(1-z))^sigma, the degrees
    above _RECURRENCE_DEGREE from one pass of the recurrence."""
    sigma = complex(sigma)
    yield complex(1.0)
    for n in range(1, _RECURRENCE_DEGREE + 1):
        yield 2.0 * sigma * pfq_terminating([1 - n, 1 - sigma], [2], 2.0, n - 1)
    # (m+1) g_{m+1} = 2 sigma g_m + (m-1) g_{m-1}
    gm1, gm = complex(1.0), 2.0 * sigma
    for m in itertools.count(1):
        gm1, gm = gm, (2.0 * sigma * gm + (m - 1) * gm1) / (m + 1)
        if m >= _RECURRENCE_DEGREE:
            yield gm


def mittag_leffler_g(n: int, sigma: complex) -> complex:
    """Coefficient of z^n in ((1+z)/(1-z))^sigma."""
    return _nth(mittag_leffler_g_seq(sigma), n)


def gauss_hyper_poly_seq(tau: complex, rho: complex, s: complex) -> Iterator[complex]:
    """Coefficients of z^0, z^1, ... in (1-z)^{tau-rho} (1-(1-s)z)^{-tau},
    the degrees above _RECURRENCE_DEGREE from one pass of the recurrence.
    A nonpositive integer rho = -k raises PoleError at degree k + 1."""
    tau, rho, s = complex(tau), complex(rho), complex(s)
    rho_is_zero = abs(rho) <= INT_TOL
    pole = None if rho_is_zero else terminating_index(rho)

    def check_pole(n: int) -> None:
        if pole is not None and pole < n:
            raise PoleError(f"gauss_hyper_poly pole: rho = {rho} with degree {n}")

    yield complex(1.0)
    for n in range(1, _RECURRENCE_DEGREE + 1):
        check_pole(n)
        if rho_is_zero:
            # limiting form at rho = 0
            yield -s * tau * pfq_terminating([1 - n, 1 + tau], [2], s, n - 1)
        else:
            pre = pochhammer(rho, n) / math.factorial(n)
            yield pre * pfq_terminating([-n, tau], [rho], s, n)
    # (m+1) g_{m+1} = ((2-s) m + rho - tau s) g_m - (1-s)(m-1+rho) g_{m-1}
    gm1, gm = complex(1.0), rho - tau * s
    for m in itertools.count(1):
        nxt = (((2.0 - s) * m + rho - tau * s) * gm
               - (1.0 - s) * (m - 1 + rho) * gm1) / (m + 1)
        gm1, gm = gm, nxt
        if m >= _RECURRENCE_DEGREE:
            check_pole(m + 1)
            yield gm


def gauss_hyper_poly(n: int, tau: complex, rho: complex, s: complex) -> complex:
    """Coefficient of z^n in (1-z)^{tau-rho} (1-(1-s)z)^{-tau}."""
    return _nth(gauss_hyper_poly_seq(tau, rho, s), n)


def bateman_g_seq(tau: complex, r: complex) -> Iterator[complex]:
    """Coefficients of u^0, u^1, ... in (1+u)^{tau+r} (1-u)^{-tau}."""
    for n, g in enumerate(gauss_hyper_poly_seq(tau, -complex(r), 2.0)):
        yield (-1.0 if n % 2 else 1.0) * g


def bateman_g(n: int, tau: complex, r: complex) -> complex:
    """Coefficient of u^n in (1+u)^{tau+r} (1-u)^{-tau}."""
    return _nth(bateman_g_seq(tau, r), n)
