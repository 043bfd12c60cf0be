"""Generating-coefficient families: every family is checked against partial
sums of its own generating function at interior points."""

import cmath
import math

import mpmath as mp
import pytest

from legdual.coeffs import (
    FactorList,
    frak_C,
    frak_C_scaled,
    frak_D,
    frak_N,
    frak_p,
    lauricella_G,
    omega_pm,
    script_G,
    script_G_hat,
)
from legdual.errors import DuplicateNodeError

TAU = 0.7 + 0.2j
RHO = -0.4 + 0.1j


def _match(lhs, coef, z, n_terms=120, rel=1e-12):
    rhs = sum(coef(n) * z**n for n in range(n_terms))
    assert abs(lhs - rhs) <= rel * max(abs(lhs), 1e-300)


def _omega_pm_direct(n, nu, mu, t, sign):
    """Explicit double-sum form of omega_pm in 30-digit arithmetic."""
    with mp.workdps(30):
        nu, mu, t = mp.mpc(nu), mp.mpc(mu), mp.mpc(t)
        acc = mp.mpc(0)
        for k in range(n // 2 + 1):
            acc += (mp.rf(0.5 * mu, k) * mp.rf(0.5 * (mu + 1), k) * mp.rf(nu, n - 2 * k)
                    / (mp.factorial(k) * mp.rf(mu + 1, k) * mp.factorial(n - 2 * k))
                    * (-sign) ** k * t ** (-2 * k))
        return complex((-t) ** n * acc)


class TestFactorList:
    def test_rejects_duplicate_nodes(self):
        with pytest.raises(DuplicateNodeError):
            FactorList((0.5 + 0j, 0.7 + 0j), (0.3 + 0j, 0.3 + 0j))

    def test_length(self):
        f = FactorList((0.5 + 0j,), (0.3 + 0j,))
        assert len(f) == 1


class TestLauricella:
    F = FactorList((0.7 + 0j, 0.4 - 0.2j, -0.3 + 0j), (1.0 + 0j, -0.6 + 0j, 0.35 + 0.1j))

    @pytest.mark.parametrize("z", [0.3, -0.4, 0.2 + 0.25j])
    def test_generating_function(self, z):
        lhs = 1.0 + 0j
        for t, w in zip(self.F.taus, self.F.ws):
            lhs = lhs * (1 - w * z) ** (-t)
        _match(lhs, lambda n: lauricella_G(n, self.F), z)

    def test_zeroth_coefficient(self):
        assert lauricella_G(0, self.F) == 1.0

    def test_additivity(self):
        # summed exponents over one node list: the coefficients are the
        # Cauchy product of the two coefficient sequences
        ws = (0.8 + 0j, -0.4 + 0j)
        f0 = FactorList((0.5 + 0j, 0.2 + 0j), ws)
        f1 = FactorList((0.3 + 0j, -0.1 + 0j), ws)
        merged = FactorList(tuple(a + b for a, b in zip(f0.taus, f1.taus)), ws)
        n = 7
        lhs = lauricella_G(n, merged)
        rhs = sum(lauricella_G(m, f0) * lauricella_G(n - m, f1) for m in range(n + 1))
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs), 1.0)


class TestSinhFamily:
    def test_generating_function(self):
        alpha = 0.8
        for u in (1.3, 1.6, 2.1):
            lhs = (math.sinh(u) + math.sinh(alpha)) ** (-TAU)
            rhs = sum(frak_C(n, alpha, TAU) * cmath.exp(-(n + TAU) * u)
                      for n in range(140))
            assert abs(lhs - rhs) <= 1e-11 * abs(lhs)

    def test_scaled_variant(self):
        alpha, n = 0.8, 30
        scaled = frak_C_scaled(n, alpha, TAU)
        plain = frak_C(n, alpha, TAU)
        assert abs(scaled - plain * math.exp(-alpha * n)) <= 1e-9 * abs(scaled)


class TestScriptG:
    @pytest.mark.parametrize("z", [0.2, -0.15, 0.1 + 0.1j])
    def test_generating_function(self, z):
        w = 0.5
        lhs = (1 - w * z) ** TAU * (1 + z / w) ** (-TAU) * (1 + z * z) ** (-RHO)
        _match(lhs, lambda n: script_G(n, TAU, RHO, w), z)

    @pytest.mark.parametrize("z", [0.2, -0.15, 0.1 + 0.1j])
    def test_hatted_variant(self, z):
        eta = 0.55
        lhs = (1 + eta * z) ** TAU * (1 + z / eta) ** (-TAU) * (1 - z * z) ** (-RHO)
        _match(lhs, lambda n: script_G_hat(n, TAU, RHO, eta), z)

    def test_hat_is_rotated_plain(self):
        eta, n = 0.4, 9
        expect = 1j**n * script_G(n, TAU, RHO, 1j * eta)
        got = script_G_hat(n, TAU, RHO, eta)
        assert abs(got - expect) <= 1e-12 * abs(expect)


class TestSqrtFamilies:
    def test_rho_zero_special_case(self):
        # rho = 0 removes the binomial factor
        for z in (0.4, -0.5, 0.3):
            lhs = (1 + cmath.sqrt(1 - z)) ** (-TAU)
            _match(lhs, lambda n: 2.0**-TAU * frak_p(n, 0.0, TAU, 0.5), z, n_terms=80)

    @pytest.mark.parametrize("z", [0.4, -0.3, 0.25])
    def test_frak_p_generating_function(self, z):
        t = 0.6
        lhs = (1 - z * t) ** (-RHO) * (1 + cmath.sqrt(1 - z)) ** (-TAU)
        _match(lhs, lambda n: 2.0**-TAU * frak_p(n, RHO, TAU, t), z, n_terms=80)

    @pytest.mark.parametrize("z", [0.3, -0.25])
    def test_frak_D_both_branches(self, z):
        x = 0.65
        lhs = (1 + x * cmath.sqrt(1 + z)) ** (-TAU)
        _match(lhs, lambda n: frak_D(n, TAU, x, False) * (-1.0) ** n / 2.0**n, z)
        lhs = (1 + cmath.sqrt(1 - z) / x) ** (-TAU)
        _match(lhs, lambda n: frak_D(n, TAU, x, True) / 2.0**n, z)

    def test_frak_D_integer_exponent_fallback(self):
        # a negative integer tau cubes a square root: no special case, the
        # solve for (1 + y sqrt(1 + z))^(-tau) runs as at any other exponent
        v = frak_D(5, -3.0, 0.7, False)
        z = 0.2
        lhs = (1 + 0.7 * math.sqrt(1 + z)) ** 3.0
        rhs = sum(frak_D(n, -3.0, 0.7, False) * (-z) ** n / 2.0**n for n in range(80))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
        assert v == v  # finite

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("z", [0.3, -0.25])
    def test_omega_generating_function(self, sign, z):
        nu, mu, t = 0.6 + 0.1j, 0.9 - 0.2j, 0.7
        lhs = (1 + t * z) ** (-nu) * ((1 + cmath.sqrt(1 + sign * z * z)) / 2) ** (-mu)
        _match(lhs, lambda n: omega_pm(n, nu, mu, t, sign), z)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_omega_against_direct_double_sum(self, sign):
        nu, mu, t = 0.6 + 0.1j, 0.9 - 0.2j, 0.7
        for n in (1, 5, 10):
            a = omega_pm(n, nu, mu, t, sign)
            b = _omega_pm_direct(n, nu, mu, t, sign)
            assert abs(a - b) <= 1e-11 * max(abs(a), abs(b))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_cauchy_product_family(self, sign):
        nu, mu, x, z = 0.6 + 0.1j, 0.9 - 0.2j, 0.65, 0.25
        ratio = abs(x ** (-2.0 if sign > 0 else 2.0) - 1.0)
        y = x if sign > 0 else 1.0 / x
        root = cmath.sqrt(1 + sign * z * z)
        lhs = ((1 + y * root) ** nu * (1 + root) ** (-mu)
               / (2.0**-mu * (1 + z / math.sqrt(ratio)) ** nu))
        rhs = sum(frak_N(n, nu, mu, x, sign) * z**n for n in range(80))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
