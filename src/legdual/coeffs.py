"""Generating-coefficient families.

Maclaurin coefficients of products of binomial factors and of the
square-root generating functions, all computed by explicit finite sums or
terminating hypergeometric forms.  The generating functions themselves are
never differentiated here, so they stay available as independent oracles.

The families that are Cauchy products of other families (script_G and
script_G_hat over gauss_hyper_poly, frak_N over frak_D and omega_pm) are
sequences: `<family>_seq(params)` yields the coefficients of z^0, z^1, ...
and computes each inner element once, so its first N coefficients cost
O(N^2).  The scalar `<family>(n, params)` is the n-th element of that
sequence.  Callers that need many indices at one parameter point, such as
the registry's term streams, iterate the sequence instead.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import DuplicateNodeError, NodeMismatchError, PoleError
from .hypergeom import KahanSum, is_nonpos_int, pfq_terminating, pochhammer
from .polys import _nth, gauss_hyper_poly_seq, gegenbauer

__all__ = [
    "FactorList",
    "lauricella_G",
    "lauricella_G_additivity_check",
    "frak_C",
    "frak_C_scaled",
    "script_G",
    "script_G_seq",
    "script_G_hat",
    "script_G_hat_seq",
    "frak_p",
    "omega_pm",
    "omega_pm_direct",
    "frak_D",
    "frak_N",
    "frak_N_seq",
]

NODE_TOL = 1e-12


@dataclass(frozen=True)
class FactorList:
    """Exponents and nodes of a product of factors (1 - w_j z)^(-tau_j)."""

    taus: tuple
    ws: tuple

    def __post_init__(self) -> None:
        taus = tuple(complex(t) for t in self.taus)
        ws = tuple(complex(w) for w in self.ws)
        if len(taus) != len(ws):
            raise ValueError("taus and ws must have equal length")
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                if abs(ws[i] - ws[j]) <= NODE_TOL:
                    raise DuplicateNodeError(f"nodes {ws[i]} and {ws[j]} coincide")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "ws", ws)

    def __len__(self) -> int:
        return len(self.ws)


def _binomial_coeffs(tau: complex, w: complex, n: int) -> list:
    """Coefficients of (1 - w z)^(-tau) up to z^n: (tau)_k w^k / k!."""
    out = [complex(1.0)]
    c = complex(1.0)
    for k in range(n):
        c *= (tau + k) * w / (k + 1)
        out.append(c)
    return out


def _convolve_to(a: list, b: list, n: int) -> list:
    out = []
    for m in range(n + 1):
        acc = KahanSum()
        for k in range(m + 1):
            acc.add(a[k] * b[m - k])
        out.append(acc.value())
    return out


def lauricella_G(n: int, f: FactorList) -> complex:
    """Coefficient of z^n in the product of the factors of f."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    # descending |w_j| keeps the largest factors first in the convolution
    order = sorted(range(len(f)), key=lambda j: -abs(f.ws[j]))
    coeffs = [complex(1.0)] + [0j] * n
    for j in order:
        coeffs = _convolve_to(coeffs, _binomial_coeffs(f.taus[j], f.ws[j], n), n)
    return coeffs[n]


def lauricella_G_additivity_check(n: int, f0: FactorList, f1: FactorList) -> bool:
    """Convolution identity: the coefficient for summed exponents equals the
    Cauchy product of the two coefficient sequences."""
    if len(f0) != len(f1) or any(
        abs(a - b) > NODE_TOL for a, b in zip(f0.ws, f1.ws)
    ):
        raise NodeMismatchError("factor lists must share the same node list")
    merged = FactorList(
        tuple(a + b for a, b in zip(f0.taus, f1.taus)), f0.ws
    )
    lhs = lauricella_G(n, merged)
    acc = KahanSum()
    for m in range(n + 1):
        acc.add(lauricella_G(m, f0) * lauricella_G(n - m, f1))
    rhs = acc.value()
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) <= 1e-11 * scale


def frak_C(n: int, alpha: float, tau: complex) -> complex:
    """Coefficient of exp(-(n+tau)u) in (sinh u + sinh alpha)^(-tau)."""
    return frak_C_scaled(n, alpha, tau) * math.exp(alpha * n)


def frak_C_scaled(n: int, alpha: float, tau: complex) -> complex:
    """exp(-alpha n) times frak_C; safe for large n where the plain value
    overflows."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    tau = complex(tau)
    alpha = float(alpha)
    if pochhammer(tau + 0.5, n) == 0:
        raise PoleError(f"(1/2 + tau)_n vanishes for tau = {tau}, n = {n}")
    geg = gegenbauer(n, 0.5 - tau - n, math.tanh(alpha))
    # 2^(tau-n) (2tau)_n / (1/2+tau)_n cosh^n(alpha) e^(-alpha n), interleaved
    scale = 0.25 * (1.0 + math.exp(-2.0 * alpha))  # cosh(a) e^(-a) / 2
    pre = cmath.exp(tau * math.log(2.0))
    for l in range(n):
        pre *= (2.0 * tau + l) / (0.5 + tau + l) * scale
    return pre * geg


def _three_factor_seq(tau: complex, rho: complex, node: complex, s: complex,
                      alternate: bool) -> Iterator[complex]:
    """Sums over k of a_k g_{n-2k} node^(n-2k), n = 0, 1, ..., where g is
    gauss_hyper_poly(., tau, 0, s) and a_k = (rho)_k / k!, times (-1)^k when
    alternate."""
    hyper = gauss_hyper_poly_seq(tau, 0.0, s)
    g = []
    coef = complex(1.0)
    a = [coef]
    for n in itertools.count():
        g.append(next(hyper))
        k = n // 2
        if k == len(a):
            coef *= (rho + k - 1) / k
            a.append((-1.0 if k % 2 else 1.0) * coef if alternate else coef)
        acc = KahanSum()
        npow = node**n  # node^(n-2k)
        for k in range(n // 2 + 1):
            if k:
                npow /= node * node
            acc.add(a[k] * g[n - 2 * k] * npow)
        yield acc.value()


def script_G_seq(tau: complex, rho: complex, w: complex) -> Iterator[complex]:
    """Coefficients of z^0, z^1, ... in (1-wz)^tau (1+z/w)^(-tau) (1+z^2)^(-rho)."""
    tau, rho, w = complex(tau), complex(rho), complex(w)
    if w == 0:
        raise ValueError("w must be nonzero")
    return _three_factor_seq(tau, rho, w, (w * w + 1.0) / (w * w), True)


def script_G(n: int, tau: complex, rho: complex, w: complex) -> complex:
    """Coefficient of z^n in (1-wz)^tau (1+z/w)^(-tau) (1+z^2)^(-rho)."""
    return _nth(script_G_seq(tau, rho, w), n)


def script_G_hat_seq(tau: complex, rho: complex, eta: complex) -> Iterator[complex]:
    """Coefficients of z^0, z^1, ... in (1+eta z)^tau (1+z/eta)^(-tau) (1-z^2)^(-rho)."""
    tau, rho, eta = complex(tau), complex(rho), complex(eta)
    if eta == 0:
        raise ValueError("eta must be nonzero")
    vals = _three_factor_seq(tau, rho, eta, (eta * eta - 1.0) / (eta * eta), False)
    return (-v if n % 2 else v for n, v in enumerate(vals))


def script_G_hat(n: int, tau: complex, rho: complex, eta: complex) -> complex:
    """Coefficient of z^n in (1+eta z)^tau (1+z/eta)^(-tau) (1-z^2)^(-rho)."""
    return _nth(script_G_hat_seq(tau, rho, eta), n)


def _sqrt_factor_coeffs(tau: complex, n: int) -> list:
    """Coefficients of 2^tau (1+sqrt(1-z))^(-tau) up to z^n.

    Built by composing (1-y/2)^(-tau) with y = 1-sqrt(1-z); the y-powers are
    grown by convolution, so no parameter choice can hit a pole here.
    """
    # y_i = Catalan(i-1) / 2^(2i-1)
    y = [0j, complex(0.5)]
    for i in range(1, n):
        y.append(y[-1] * (2 * i - 1) / (2 * i + 2))
    out = [complex(1.0)] + [0j] * n
    ypow = [complex(1.0)] + [0j] * n
    coef = complex(1.0)  # (tau)_j / (j! 2^j)
    for j in range(1, n + 1):
        ypow = _convolve_to(ypow, y, n)
        coef *= (tau + j - 1) / (2.0 * j)
        for i in range(j, n + 1):
            out[i] += coef * ypow[i]
    return out


def frak_p(n: int, rho: complex, tau: complex, t: complex,
           form: str = "auto") -> complex:
    """Coefficient of z^n in 2^tau (1-zt)^(-rho) (1+sqrt(1-z))^(-tau)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return complex(1.0)
    if form not in ("auto", "first", "second"):
        raise ValueError("form must be 'auto', 'first' or 'second'")
    rho, tau, t = complex(rho), complex(tau), complex(t)

    def first_form() -> complex:
        if t == 0:
            raise PoleError("first form needs t != 0")
        f = pfq_terminating(
            [-n, 0.5 * tau, 0.5 * (tau + 1.0)], [tau + 1.0, 1.0 - rho - n], 1.0 / t, n
        )
        pre = complex(1.0)
        for l in range(n):
            pre *= (rho + l) * t / (l + 1)
        return f * pre

    def second_form() -> complex:
        f = pfq_terminating(
            [-n, -tau - n, rho], [1.0 - 0.5 * tau - n, 0.5 * (1.0 - tau) - n], t, n
        )
        # tau (tau+n+1)_{n-1} / (2^(2n) n!), interleaved
        pre = tau / (4.0 * n)
        for l in range(n - 1):
            pre *= (tau + n + 1.0 + l) / (4.0 * (l + 1))
        return f * pre

    def convolution_form() -> complex:
        q = _sqrt_factor_coeffs(tau, n)
        acc = KahanSum()
        coef = complex(1.0)  # (rho)_j t^j / j!
        acc.add(q[n])
        for j in range(1, n + 1):
            coef *= (rho + j - 1) * t / j
            acc.add(coef * q[n - j])
        return acc.value()

    if form == "first":
        chain = (first_form,)
    elif form == "second":
        chain = (second_form,)
    elif abs(t) >= 1.0:
        chain = (first_form, second_form)
    else:
        chain = (second_form, first_form)
    for attempt in chain:
        try:
            return attempt()
        except PoleError:
            continue
    # the terminating forms can hit removable 0*inf at integer parameters;
    # the composition never does
    return convolution_form()


def omega_pm(n: int, nu: complex, mu: complex, t: complex, sign: int) -> complex:
    """Coefficient of z^n in (1+tz)^(-nu) ((1+sqrt(1 +/- z^2))/2)^(-mu),
    terminating 4F3 form."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return complex(1.0)
    nu, mu, t = complex(nu), complex(mu), complex(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    arg = -sign / (t * t)
    try:
        f = pfq_terminating(
            [-0.5 * n, 0.5 * (1.0 - n), 0.5 * mu, 0.5 * (mu + 1.0)],
            [mu + 1.0, 0.5 * (1.0 - nu - n), 1.0 - 0.5 * (nu + n)],
            arg,
            n // 2,
        )
    except PoleError:
        # integer nu can void the 4F3 denominators while the coefficient
        # itself stays finite; the explicit double sum has no such poles
        if is_nonpos_int(mu + 1.0):
            raise
        return omega_pm_direct(n, nu, mu, t, sign)
    pre = complex(1.0)
    for l in range(n):
        pre *= (nu + l) * (-t) / (l + 1)
    return f * pre


def omega_pm_direct(n: int, nu: complex, mu: complex, t: complex, sign: int) -> complex:
    """Explicit double-sum form of omega_pm, used as a cross-check."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    nu, mu, t = complex(nu), complex(mu), complex(t)
    acc = KahanSum()
    for k in range(n // 2 + 1):
        num = (
            pochhammer(0.5 * mu, k)
            * pochhammer(0.5 * (mu + 1.0), k)
            * pochhammer(nu, n - 2 * k)
        )
        den = math.factorial(k) * pochhammer(mu + 1.0, k) * math.factorial(n - 2 * k)
        acc.add(num / den * (-sign) ** k * t ** (-2 * k))
    return (-t) ** n * acc.value()


def frak_D(n: int, tau: complex, xarg: float, inverted: bool) -> complex:
    """Square-root generating-function coefficients: coefficient of
    ((-/+)z)^n / 2^n in (1 + y sqrt(1 +/- z))^(-tau), y = xarg or 1/xarg."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if not (0.0 < xarg <= 1.0):
        raise ValueError("xarg must lie in (0, 1]")
    tau = complex(tau)
    y = 1.0 / xarg if inverted else float(xarg)
    if n == 0:
        return cmath.exp(-tau * math.log(y + 1.0))
    try:
        v = (1.0 + y) / (2.0 * y)
        f = pfq_terminating([1 - n, n], [1.0 - n - tau], v, n - 1)
        # (tau)_n y^n / (n! (y+1)^(n+tau)), interleaved
        pre = cmath.exp(-tau * math.log(y + 1.0))
        for l in range(n):
            pre *= (tau + l) * y / ((l + 1) * (y + 1.0))
        return pre * f
    except PoleError:
        # integer tau in [1-n, -1]: switch to the Jacobi-polynomial form
        from .polys import jacobi

        pj = jacobi(n - 1, n + tau, -n - tau, 1.0 / y)
        pre = tau / n * cmath.exp(-(n + tau) * math.log(y + 1.0)) * y**n
        return pre * pj


def frak_N_seq(nu: complex, mu: complex, x: float, sign: int) -> Iterator[complex]:
    """Cauchy-product coefficients tying the square-root families together:
    frak_N(n) = sum over k of (-sign)^k 2^-k frak_D(k) omega_pm(n - 2k), for
    n = 0, 1, ...  Each frak_D and omega_pm element is computed once."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not (0.0 < x < 1.0):
        raise ValueError("x must lie in (0, 1)")
    nu, mu = complex(nu), complex(mu)
    inverted = sign < 0
    ratio = abs(x ** (-2.0 if sign > 0 else 2.0) - 1.0)
    t = ratio**-0.5
    d = []
    om = []
    for n in itertools.count():
        om.append(omega_pm(n, nu, mu, t, sign))
        if n % 2 == 0:
            d.append(frak_D(n // 2, -nu, x, inverted))
        acc = KahanSum()
        for k in range(n // 2 + 1):
            acc.add((-sign) ** k * 2.0**-k * d[k] * om[n - 2 * k])
        yield acc.value()


def frak_N(n: int, nu: complex, mu: complex, x: float, sign: int) -> complex:
    """Cauchy-product coefficients tying the square-root families together."""
    return _nth(frak_N_seq(nu, mu, x, sign), n)
