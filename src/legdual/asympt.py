"""Large-order asymptotic evaluators.

Leading and refined Darboux coefficients for products of binomial factors,
the uniform Gegenbauer estimate with its explicit remainder bound, and the
leading terms of the large-order/large-degree function asymptotics.
"""

import cmath
import math
from collections import namedtuple

from .coeffs import FactorList, lauricella_G
from .errors import BoundUnavailableError, DegenerateError
from .hypergeom import INT_TOL, nearest_int, pochhammer, recip_gamma
from .series import binomial, nth

__all__ = [
    "AsymptoticEstimate",
    "darboux_G_leading",
    "darboux_G_refined",
    "gegenbauer_uniform_asympt",
    "watson_mu_leading",
    "large_degree_leading",
    "frak_p_asymptotic_sum",
    "frak_N_leading",
]


class AsymptoticEstimate(namedtuple("AsymptoticEstimate", "leading remainder_bound")):
    """Leading-term value `leading` (complex) and an explicit remainder
    bound `remainder_bound` (float, or None where none is stated)."""

    __slots__ = ()


def _node_prefactor(f: FactorList, m: int) -> complex:
    """A_m: product over j != m of (1 - w_j/w_m)^(-tau_j)."""
    return math.prod((cmath.exp(-t * cmath.log(1.0 - w / f.ws[m]))
                      for j, (t, w) in enumerate(f) if j != m), start=complex(1.0))


def _reduced_factors(f: FactorList, m: int) -> FactorList:
    """Nodes w_j/(w_j - w_m) and unchanged exponents, index m removed."""
    rest = [(t, w) for j, (t, w) in enumerate(f) if j != m]
    return FactorList([t for t, _ in rest], [w / (w - f.ws[m]) for _, w in rest])


def darboux_G_leading(n: int, f: FactorList) -> AsymptoticEstimate:
    """Leading large-n term for the product-of-binomials coefficients:
    sum over dominant nodes of A_m w_m^n / (n^(1-tau_m) Gamma(tau_m))."""
    if n < 1:
        raise ValueError("index must be positive for an asymptotic estimate")
    eligible = [
        m for m in range(len(f))
        if not ((k := nearest_int(f.taus[m], INT_TOL)) is not None and k < 0)
    ]
    if not eligible:
        raise DegenerateError("all exponents are negative integers; no algebraic singularity")
    big_w = max(abs(f.ws[m]) for m in eligible)
    on_circle = [m for m in eligible if abs(abs(f.ws[m]) - big_w) <= 1e-12 * big_w]
    big_t = max(f.taus[m].real for m in on_circle)
    dominant = [m for m in on_circle if abs(f.taus[m].real - big_t) <= 1e-12]
    total = 0j
    for m in dominant:
        if (k := nearest_int(f.taus[m], INT_TOL)) is not None and k <= 0:
            raise DegenerateError(
                f"dominant exponent {f.taus[m]} is a nonpositive integer; leading term vanishes"
            )
        total += (
            _node_prefactor(f, m)
            * f.ws[m] ** n
            * cmath.exp((f.taus[m] - 1.0) * math.log(n))
            * recip_gamma(f.taus[m])
        )
    return AsymptoticEstimate(total, None)


def darboux_G_refined(n: int, f: FactorList, K: int) -> AsymptoticEstimate:
    """Refined large-n expansion including the correction coefficients of
    orders 0..K from the reduced factor lists and the exact finite
    contributions of positive-integer exponents."""
    if n < 1:
        raise ValueError("index must be positive for an asymptotic estimate")
    total = 0j
    live = False
    for m in range(len(f)):
        k_int = nearest_int(f.taus[m], INT_TOL)
        if k_int is not None and k_int <= 0:
            continue
        live = True
        a_m = _node_prefactor(f, m)
        reduced = _reduced_factors(f, m)
        wn = f.ws[m] ** n
        if k_int is None:
            for r in range(K + 1):
                c_r = lauricella_G(r, reduced) if len(reduced) else (1.0 if r == 0 else 0.0)
                # (tau_m - r)_n / n!
                total += a_m * c_r * nth(binomial(f.taus[m] - r, 1.0), n) * wn
        else:
            # tau_m is a positive integer: its full contribution is finite
            for r in range(k_int):
                c = lauricella_G(k_int - r - 1, reduced) if len(reduced) else (
                    1.0 if k_int - r - 1 == 0 else 0.0
                )
                total += a_m * wn * pochhammer(n + 1, r) * c / math.factorial(r)
    if not live:
        raise DegenerateError("all exponents are nonpositive integers")
    return AsymptoticEstimate(total, None)


def gegenbauer_uniform_asympt(n: int, tau: complex, alpha: float) -> AsymptoticEstimate:
    """Uniform large-n estimate for C_n^(1/2-tau-n)(tanh alpha) with an
    explicit, hard remainder bound."""
    if n < 2:
        raise ValueError("the estimate needs n >= 2")
    tau = complex(tau)
    alpha = float(alpha)
    lam = n + tau
    q = abs(tau * (1.0 - tau) / lam)
    if q >= 1.0:
        raise BoundUnavailableError(
            f"|tau(1-tau)/(n+tau)| = {q} >= 1; the stated bound is not finite"
        )
    half = n // 2
    omega = complex(1.0)
    # Gamma(1/2+tau+n)/Gamma(1/2+tau+[n/2]) / [n/2]!, interleaved
    ni = di = 0
    while ni < n - half or di < half:
        if ni < n - half:
            omega *= 0.5 + tau + half + ni
            ni += 1
        if di < half:
            omega /= di + 1
            di += 1
    if n % 2:
        omega = -omega
    sgn = 1.0 if n % 2 == 0 else -1.0
    d_plus = (1.0 + sgn) / 4.0 + (1.0 - sgn) / (2.0 * lam)
    d_minus = (1.0 + sgn) / 4.0 - (1.0 - sgn) / (2.0 * lam)
    base = omega * cmath.exp(lam * (alpha - math.log(math.cosh(alpha))))
    leading = base * (d_plus + d_minus * cmath.exp(-2.0 * lam * alpha))
    r_cap = 2.0 * math.tanh(alpha) / (1.0 - q)
    if n % 2:
        r_cap /= abs(lam)
    bound = abs(base) * q * r_cap
    return AsymptoticEstimate(leading, bound)


def watson_mu_leading(nu: complex, mu: complex, alpha: float) -> complex:
    """Leading large-order behavior of Gamma(mu-nu) P_nu^(-mu) at argument
    coth(alpha) or tanh(alpha): exp(-alpha mu)/mu^(nu+1)."""
    return cmath.exp(-alpha * mu - (nu + 1.0) * cmath.log(mu))


def large_degree_leading(sigma: complex, nu: complex, alpha: float,
                         domain: str = "coth") -> complex:
    """Leading large-degree behavior of P_nu^(-sigma-nu) at coth(alpha) or
    tanh(alpha)."""
    sh, ch = math.sinh(alpha), math.cosh(alpha)
    if domain == "coth":
        num = cmath.exp(-nu * math.log(sh) - sigma * math.log(ch))
    elif domain == "tanh":
        num = cmath.exp(-nu * math.log(ch) - sigma * math.log(sh))
    else:
        raise ValueError("domain must be 'coth' or 'tanh'")
    return num * cmath.exp(-(sigma + nu) * math.log(2.0)) * recip_gamma(sigma + nu + 1.0)


def frak_p_asymptotic_sum(n: int, rho: complex, tau: complex, K: int) -> complex:
    """K-term large-n approximation of the square-root family at t = 1:
    2^tau times the sum over k of (-1)^k (tau)_k (rho - k/2)_n / (k! n!).

    The prefactor comes from expanding (1 + sqrt(1-z))^(-tau) about z = 1,
    where the base tends to 2."""
    total = 0j
    for k in range(K + 1):
        term = pochhammer(tau, k) / math.factorial(k) * nth(binomial(rho - 0.5 * k, 1.0), n)
        total += -term if k % 2 else term
    return cmath.exp(tau * math.log(2.0)) * total


def frak_N_leading(n: int, nu: complex, mu: complex, x: float, sign: int) -> complex:
    """Leading large-n behavior of the Cauchy-product coefficients."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not (0.0 < x < 1.0):
        raise ValueError("x must lie in (0, 1)")
    par = -1.0 if n % 2 else 1.0
    if sign < 0:
        return (
            2.0 ** (nu + mu) * par * (1.0 + x) ** -mu * recip_gamma(nu)
            * (1.0 - x * x) ** (-0.5 * n) * cmath.exp((nu - 1.0) * math.log(n))
        )
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if abs(x - inv_sqrt2) <= 1e-12:
        first = (2.0 ** (nu + mu) * (1.0 + math.sqrt(2.0)) ** -mu * par
                 * recip_gamma(nu) * cmath.exp((nu - 1.0) * math.log(n)))
        second = ((math.sqrt(2.0) * mu - nu)
                  * cmath.cos(0.25 * math.pi * (2.0 * n + nu))
                  * 2.0 ** (mu - 0.5 * nu) / (math.sqrt(math.pi) * n ** 1.5))
        return first + second
    if x < inv_sqrt2:
        return (
            2.0 ** (mu + 0.5) * (mu - nu * x)
            * cmath.cos(0.5 * math.pi * n + nu * math.asin(x))
            * (1.0 - x * x) ** (0.5 * nu) / (math.sqrt(math.pi) * n ** 1.5)
        )
    return (
        par * 2.0 ** (nu + mu) * x ** (n + mu) * (1.0 + x) ** -mu
        * (1.0 - x * x) ** (-0.5 * n) * recip_gamma(nu)
        * cmath.exp((nu - 1.0) * math.log(n))
    )

