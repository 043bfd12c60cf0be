"""Classical polynomial families with complex parameters.

Gegenbauer, Jacobi, Mittag-Leffler, Bateman, and Gauss hypergeometric
polynomials.  Associated Legendre functions of integer degree are
`legendre._P`'s.

The scalar `gegenbauer(n, lam, x)` is the explicit alternating sum, O(n) per
value.  The catalog's connection formulas read Gegenbauer polynomials along
a diagonal, where the degree rises as the parameter falls and their sum s
stays fixed; `gegenbauer_seq(s, x)` yields that diagonal C_n^(s-n)(x),
n = 0, 1, ..., by a three-term recurrence at O(1) per value.

The Mittag-Leffler, Gauss hypergeometric and Bateman coefficients are
sequences in the degree (`<family>_seq`), each a product of two binomial
factors from one `series.binomial_product` call (their contiguous
three-term recurrence).  The scalar `<family>(n, ...)` is the n-th element.
"""

import cmath
import itertools
import math
import sys
from collections.abc import Iterator

from .errors import DomainError
from .hypergeom import KahanSum, pfq_terminating, pochhammer, terminating_index
from .series import binomial_product, nth, recurrence

__all__ = [
    "gegenbauer",
    "gegenbauer_seq",
    "jacobi",
    "mittag_leffler_g",
    "mittag_leffler_g_seq",
    "bateman_g",
    "bateman_g_seq",
    "gauss_hyper_poly",
    "gauss_hyper_poly_seq",
]


def _balanced_term(tau: complex, k: int, j: int, two_x: float) -> complex:
    """(tau)_{k-j} (2x)^{k-2j} / (j! (k-2j)!) for j <= k/2: the others
    interleaved with the k - j rising factors, to keep intermediates in range."""
    pw = k - 2 * j
    term = complex(1.0)
    for i in range(k - j):
        term *= tau + i
        if i < pw:
            term *= two_x
        if i < j:
            term /= i + 1
        if i < pw:
            term /= i + 1
    return term


def gegenbauer(k: int, tau: complex, x: float) -> complex:
    """Gegenbauer polynomial by its explicit alternating sum.  A non-finite
    parameter or x raises DomainError."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    tau = complex(tau)
    x = float(x)
    if not (cmath.isfinite(tau) and math.isfinite(x)):
        raise DomainError(f"gegenbauer needs a finite parameter and x, got {tau}, {x}")
    jmax = k // 2
    two_x = 2.0 * x

    j0 = 0
    m = terminating_index(tau, tol=0.0)
    if m is not None and m < k:
        # (tau)_{k-j} = 0 until k-j <= m
        j0 = k - m
        if j0 > jmax:
            return 0j

    term = _balanced_term(tau, k, j0, two_x)
    if j0 % 2:
        term = -term
    if abs(term) < sys.float_info.min:
        # a leading term that underflows, or is 0 at x = 0, whose ratios to
        # the next terms would overflow: evaluate each term independently
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


def _diagonal_unstable(s: complex, x: float, n: int) -> bool:
    """Where `gegenbauer_seq` takes C_n^(s-n)(x) from the explicit sum: at
    and around the recurrence's zero divisor n = 2s, and above 1 in |x| past
    n = Re s, where the recurrence loses digits (at s = 4.2, x = 2.857 it
    errs by up to 1.1e-10)."""
    return abs(2.0 * s - n) < 0.5 or (abs(x) > 1.0 and n > s.real)


def gegenbauer_seq(s: complex, x: float) -> Iterator[complex]:
    """D_n = C_n^(s-n)(x) for n = 0, 1, ...: Gegenbauer polynomials whose
    degree plus parameter is s.

    D_0 = 1, D_1 = 2(s-1)x, and
    n(2s-n) D_n = 2(s-n)(2s-2n+1) x D_{n-1} - 4(s-n)(s-n+1)(1-x^2) D_{n-2},
    from the Gegenbauer differential equation and
    d/dx C_n^(lam) = 2 lam C_{n-1}^(lam+1) (DLMF 18.8-18.9).  For |x| < 1
    the diagonal grows like (2 + 2|x|)^n against (2 - 2|x|)^n for the other
    solution, so the forward recurrence (`series.recurrence`) is stable.
    The indices that `_diagonal_unstable` names come from the explicit sum
    instead."""
    s = complex(s)
    x = float(x)
    w = 1.0 - x * x
    coefs = (None if _diagonal_unstable(s, x, n)
             else (2.0 * a * (2.0 * a + 1.0) * x, 4.0 * a * (a + 1.0) * w, n * (2.0 * s - n))
             for n, a in zip(itertools.count(2), map(s.__sub__, itertools.count(2))))
    return recurrence(coefs, complex(1.0), (s - 1.0) * (2.0 * x),
                      direct=lambda n: gegenbauer(n, s - n, x))


def jacobi(n: int, a: complex, b: complex, x: float) -> complex:
    """Jacobi polynomial via its terminating hypergeometric form."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    a, b = complex(a), complex(b)
    pre = pochhammer(a + 1, n) / math.factorial(n)
    f = pfq_terminating([-n, n + a + b + 1], [a + 1], (1.0 - x) / 2.0, n)
    return pre * f


def mittag_leffler_g_seq(sigma: complex) -> Iterator[complex]:
    """Coefficients of z^0, z^1, ... in ((1+z)/(1-z))^sigma."""
    sigma = complex(sigma)
    return binomial_product(((-sigma, -1.0), (sigma, 1.0)))


def mittag_leffler_g(n: int, sigma: complex) -> complex:
    """Coefficient of z^n in ((1+z)/(1-z))^sigma."""
    return nth(mittag_leffler_g_seq(sigma), n)


def gauss_hyper_poly_seq(tau: complex, rho: complex, s: complex) -> Iterator[complex]:
    """Coefficients of z^0, z^1, ... in (1-z)^{tau-rho} (1-(1-s)z)^{-tau}."""
    tau, rho, s = complex(tau), complex(rho), complex(s)
    return binomial_product(((rho - tau, 1.0), (tau, 1.0 - s)))


def gauss_hyper_poly(n: int, tau: complex, rho: complex, s: complex) -> complex:
    """Coefficient of z^n in (1-z)^{tau-rho} (1-(1-s)z)^{-tau}."""
    return nth(gauss_hyper_poly_seq(tau, rho, s), n)


def bateman_g_seq(tau: complex, r: complex) -> Iterator[complex]:
    """Coefficients of u^0, u^1, ... in (1+u)^{tau+r} (1-u)^{-tau}."""
    tau, r = complex(tau), complex(r)
    return binomial_product(((-(tau + r), -1.0), (tau, 1.0)))


def bateman_g(n: int, tau: complex, r: complex) -> complex:
    """Coefficient of u^n in (1+u)^{tau+r} (1-u)^{-tau}."""
    return nth(bateman_g_seq(tau, r), n)
