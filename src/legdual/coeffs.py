"""Generating-coefficient families.

Maclaurin coefficients of products of powers of short series: binomial
factors (1 - w z)^(-tau), the square roots sqrt(1 -/+ z) and
sqrt(1 -/+ z^2), and affine shifts of them.  `lauricella_G`, `script_G` and
`script_G_hat` are products of binomials, each one `series.binomial_product`
call.  The others are expressions over the `series` primitives (Cauchy
products and the recurrence a g' = b g, one for frak_D and frak_N's even
factor) and, for the half-root powers ((1 + sqrt(1 -/+ u))/2)^(-a) of frak_p
and omega_pm, a Gauss-function stream at O(1) per coefficient
(`_half_root_power`).  A factor F(z^2) that is even in z is built in u = z^2
and joins the odd factors through `mul(odd, F, 2)`.  The generating
functions are never evaluated here, so their values stay independent
oracles.

`<family>_seq(params)` yields the coefficients of z^0, z^1, ... and computes
each once, so its first N coefficients cost at most O(N^2).  The scalar
`<family>(n, params)` is the n-th element of that sequence; callers that
need many indices at one parameter point iterate the sequence instead.
"""

import cmath
import itertools
import math
from collections.abc import Iterator

from .errors import DuplicateNodeError, PoleError
from .hypergeom import pochhammer
from .polys import gegenbauer
from .series import binomial, binomial_product, mul, nth, solve

__all__ = [
    "FactorList",
    "lauricella_G",
    "frak_C",
    "frak_C_scaled",
    "script_G",
    "script_G_seq",
    "script_G_hat",
    "script_G_hat_seq",
    "frak_p",
    "frak_p_seq",
    "omega_pm",
    "omega_pm_seq",
    "frak_D",
    "frak_D_seq",
    "frak_N",
    "frak_N_seq",
]

NODE_TOL = 1e-12


class FactorList(tuple):
    """Exponents and nodes of a product of factors (1 - w_j z)^(-tau_j),
    held as the pairs (tau_j, w_j)."""

    __slots__ = ()

    def __new__(cls, taus, ws) -> "FactorList":
        taus = tuple(complex(t) for t in taus)
        ws = tuple(complex(w) for w in ws)
        if len(taus) != len(ws):
            raise ValueError("taus and ws must have equal length")
        for wi, wj in itertools.combinations(ws, 2):
            if abs(wi - wj) <= NODE_TOL:
                raise DuplicateNodeError(f"nodes {wi} and {wj} coincide")
        return super().__new__(cls, zip(taus, ws))

    @property
    def taus(self) -> tuple:
        return tuple(t for t, _ in self)

    @property
    def ws(self) -> tuple:
        return tuple(w for _, w in self)


def lauricella_G(n: int, f: FactorList) -> complex:
    """Coefficient of z^n in the product of the factors of f."""
    return nth(binomial_product(f), n)


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
    pre = math.prod(((2.0 * tau + l) / (0.5 + tau + l) * scale for l in range(n)),
                    start=cmath.exp(tau * math.log(2.0)))
    return pre * geg


def script_G_seq(tau: complex, rho: complex, w: complex) -> Iterator[complex]:
    """Coefficients of z^0, z^1, ... in (1-wz)^tau (1+z/w)^(-tau) (1+z^2)^(-rho)."""
    tau, rho, w = complex(tau), complex(rho), complex(w)
    if w == 0:
        raise ValueError("w must be nonzero")
    return binomial_product(((-tau, w), (tau, -1.0 / w), (rho, 1j), (rho, -1j)))


def script_G(n: int, tau: complex, rho: complex, w: complex) -> complex:
    """Coefficient of z^n in (1-wz)^tau (1+z/w)^(-tau) (1+z^2)^(-rho)."""
    return nth(script_G_seq(tau, rho, w), n)


def script_G_hat_seq(tau: complex, rho: complex, eta: complex) -> Iterator[complex]:
    """Coefficients of z^0, z^1, ... in (1+eta z)^tau (1+z/eta)^(-tau) (1-z^2)^(-rho)."""
    tau, rho, eta = complex(tau), complex(rho), complex(eta)
    if eta == 0:
        raise ValueError("eta must be nonzero")
    return binomial_product(((-tau, -eta), (tau, -1.0 / eta), (rho, 1.0), (rho, -1.0)))


def script_G_hat(n: int, tau: complex, rho: complex, eta: complex) -> complex:
    """Coefficient of z^n in (1+eta z)^tau (1+z/eta)^(-tau) (1-z^2)^(-rho)."""
    return nth(script_G_hat_seq(tau, rho, eta), n)


def _half_root_power(sign: int, a: complex) -> Iterator[complex]:
    """((1 + sqrt(1 - sign u)) / 2)^(-a) = 2F1(a/2, (a+1)/2; a+1; sign u)
    (DLMF 15.4.18): h_0 = 1 and h_n = a (a+n+1)_(n-1) (sign/4)^n / n!,
    entire in a, each from the last by its term ratio
    sign (a+2n)(a+2n+1) / (4 (n+1)(a+n+1)).

    Every factor is formed as a + k with an integer k, so a divisor is the
    same rounded value as the numerator factor it cancels.  Where a+n+1 is
    exactly 0 (integer a <= -1), h_{n+1} is formed afresh from its product."""
    a = complex(a)
    q = sign / 4.0
    h = complex(1.0)
    for n in itertools.count():
        yield h
        if a + (n + 1) != 0:
            h *= (a + 2 * n) * (a + (2 * n + 1)) * q / ((n + 1) * (a + (n + 1)))
        else:
            h = a * q / (n + 1)
            for k in range(1, n + 1):
                h *= (a + (n + 1 + k)) * q / k


def frak_p_seq(rho: complex, tau: complex, t: complex) -> Iterator[complex]:
    """Coefficients of z^0, z^1, ... in 2^tau (1-zt)^(-rho) (1+sqrt(1-z))^(-tau)."""
    return mul(binomial(rho, t), _half_root_power(1, tau))


def frak_p(n: int, rho: complex, tau: complex, t: complex) -> complex:
    """Coefficient of z^n in 2^tau (1-zt)^(-rho) (1+sqrt(1-z))^(-tau)."""
    return nth(frak_p_seq(rho, tau, t), n)


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")


def omega_pm_seq(nu: complex, mu: complex, t: complex, sign: int) -> Iterator[complex]:
    """Coefficients of z^0, z^1, ... in (1+tz)^(-nu) ((1+sqrt(1 +/- z^2))/2)^(-mu)."""
    _check_sign(sign)
    # the even factor in u = z^2
    return mul(binomial(nu, -complex(t)), _half_root_power(-sign, mu), 2)


def omega_pm(n: int, nu: complex, mu: complex, t: complex, sign: int) -> complex:
    """Coefficient of z^n in (1+tz)^(-nu) ((1+sqrt(1 +/- z^2))/2)^(-mu)."""
    return nth(omega_pm_seq(nu, mu, t, sign), n)


def frak_D_seq(tau: complex, xarg: float, inverted: bool) -> Iterator[complex]:
    """Square-root generating-function coefficients: coefficients of
    ((-/+)z)^n / 2^n, n = 0, 1, ..., in (1 + y sqrt(1 +/- z))^(-tau), that is
    of u^n in (1 + y sqrt(1 - 2u))^(-tau), with y = xarg or 1/xarg."""
    if not (0.0 < xarg <= 1.0):
        raise ValueError("xarg must lie in (0, 1]")
    y = 1.0 / xarg if inverted else float(xarg)
    return _even_factor(-complex(tau), 0j, y, -2)


def frak_D(n: int, tau: complex, xarg: float, inverted: bool) -> complex:
    """Square-root generating-function coefficients: coefficient of
    ((-/+)z)^n / 2^n in (1 + y sqrt(1 +/- z))^(-tau), y = xarg or 1/xarg."""
    return nth(frak_D_seq(tau, xarg, inverted), n)


def _even_factor(nu: complex, mu: complex, y: float, s: int) -> Iterator[complex]:
    """Coefficients of u^0, u^1, ... in (1 + y r)^nu ((1 + r)/2)^(-mu),
    r = sqrt(1 + s u): one solve of a E' = b E, a = 2 r (1 + y r)(1 + r) and
    b = s (nu y (1 + r) - mu (1 + y r)), both linear in r since r^2 = 1 + s u,
    so no Cauchy product forms them."""
    r0, r1, r2 = itertools.tee(binomial(-0.5, -s), 3)
    # a = 2 ((1 + y)(1 + s u + r) + y s u r), b = c + d r
    a = (2.0 * ((1.0 + y) * (c + v) + y * s * w) for c, v, w in zip(
        itertools.chain((1.0, s), itertools.repeat(0.0)), r0, itertools.chain((0j,), r1)))
    c, d = s * (nu * y - mu), s * y * (nu - mu)
    b = itertools.chain((c + d * v for v in itertools.islice(r2, 1)), (d * v for v in r2))
    return solve(a, b, cmath.exp(nu * math.log(1.0 + y)))


def frak_N_seq(nu: complex, mu: complex, x: float, sign: int) -> Iterator[complex]:
    """Coefficients of z^0, z^1, ... in
    (1 + tz)^(-nu) (1 + y r)^nu ((1 + r)/2)^(-mu), r = sqrt(1 +/- z^2),
    with t = |x^(-/+2) - 1|^(-1/2) and y = x or 1/x: the Cauchy product
    tying frak_D and omega_pm together.  Both powers of r are even in z, so
    their product is built in u = z^2 (`_even_factor`) and enters through
    one strided product."""
    _check_sign(sign)
    if not (0.0 < x < 1.0):
        raise ValueError("x must lie in (0, 1)")
    nu, mu = complex(nu), complex(mu)
    t = abs(x ** (-2.0 if sign > 0 else 2.0) - 1.0) ** -0.5
    y = x if sign > 0 else 1.0 / x
    return mul(binomial(nu, -t), _even_factor(nu, mu, y, sign), 2)


def frak_N(n: int, nu: complex, mu: complex, x: float, sign: int) -> complex:
    """Cauchy-product coefficients tying the square-root families together."""
    return nth(frak_N_seq(nu, mu, x, sign), n)
