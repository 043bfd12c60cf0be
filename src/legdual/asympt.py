"""Large-order asymptotic evaluators.

The leading Darboux term for coefficients of products of binomial factors,
the uniform Gegenbauer estimate with its explicit remainder bound, and the
leading terms of the large-order/large-degree function asymptotics.
"""

import cmath
import math
from collections import namedtuple

from .coeffs import FactorList
from .errors import BoundUnavailableError, DegenerateError
from .hypergeom import INT_TOL, nearest_int, recip_gamma

__all__ = [
    "AsymptoticEstimate",
    "darboux_G_leading",
    "gegenbauer_uniform_asympt",
    "watson_mu_leading",
    "large_degree_leading",
]


class AsymptoticEstimate(namedtuple("AsymptoticEstimate", "leading remainder_bound")):
    """Leading-term value `leading` (complex) and an explicit remainder
    bound `remainder_bound` (float, or None where none is stated)."""

    __slots__ = ()


def _node_prefactor(f: FactorList, m: int) -> complex:
    """A_m: product over j != m of (1 - w_j/w_m)^(-tau_j)."""
    return math.prod((cmath.exp(-t * cmath.log(1.0 - w / f.ws[m]))
                      for j, (t, w) in enumerate(f) if j != m), start=complex(1.0))


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
    for i in range(n - half):
        omega *= 0.5 + tau + half + i
        if i < half:
            omega /= i + 1
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
