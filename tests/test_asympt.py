"""Large-order estimates: hard bounds, residual decay, tail models."""

import itertools
import math

import pytest

from legdual.asympt import (
    darboux_G_leading,
    gegenbauer_uniform_asympt,
    large_degree_leading,
    watson_mu_leading,
)
from legdual.coeffs import FactorList, lauricella_G
from legdual.errors import (
    BoundUnavailableError,
    DegenerateError,
    UnknownIdentityError,
)
from legdual.harness import _large_degree_residual, _watson_residual
from legdual.polys import gegenbauer
from legdual.registry import _get_impl, tail_order_predict


class TestGegenbauerUniform:
    def test_bound_holds_on_sample(self):
        for n, tau, alpha in [(10, 0.3, 0.5), (50, 0.8, 1.0), (100, 1.0, 3.0)]:
            est = gegenbauer_uniform_asympt(n, tau, alpha)
            exact = gegenbauer(n, 0.5 - tau - n, math.tanh(alpha))
            slack = 1e-12 * (abs(exact) + abs(est.leading))
            assert abs(exact - est.leading) <= est.remainder_bound + slack

    def test_bound_shrinks_with_n(self):
        tau, alpha = 0.3, 0.8
        rel = []
        for n in (10, 40, 160):
            est = gegenbauer_uniform_asympt(n, tau, alpha)
            rel.append(est.remainder_bound / abs(est.leading))
        assert rel[2] < rel[1] < rel[0]

    def test_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            gegenbauer_uniform_asympt(1, 0.3, 0.5)

    def test_unavailable_bound(self):
        with pytest.raises(BoundUnavailableError):
            gegenbauer_uniform_asympt(2, 10.0, 0.5)


class TestDarboux:
    F = FactorList((0.7 + 0j, 0.4 - 0.2j), (1.0 + 0j, -0.6 + 0j))

    def test_leading_ratio_tends_to_one(self):
        errs = []
        for n in (50, 200):
            exact = lauricella_G(n, self.F)
            errs.append(abs(darboux_G_leading(n, self.F).leading / exact - 1.0))
        assert errs[1] < errs[0]
        assert errs[1] < 0.01

    def test_degenerate_exponents(self):
        f = FactorList((-1.0 + 0j, -2.0 + 0j), (0.8 + 0j, -0.4 + 0j))
        with pytest.raises(DegenerateError):
            darboux_G_leading(5, f)


class TestResidualDecay:
    @pytest.mark.parametrize("domain", ["coth", "tanh"])
    def test_watson_large_order(self, domain):
        r1 = _watson_residual(0.3, 24.0, 0.7, domain)
        r2 = _watson_residual(0.3, 48.0, 0.7, domain)
        assert r2 <= 0.7 * r1

    @pytest.mark.parametrize("domain", ["coth", "tanh"])
    def test_large_degree(self, domain):
        r1 = _large_degree_residual(0.4, 30.5, 0.9, domain)
        r2 = _large_degree_residual(0.4, 61.0, 0.9, domain)
        assert r2 <= 0.7 * r1

    def test_watson_leading_formula(self):
        v = watson_mu_leading(0.5, 10.0, 1.2)
        assert abs(v - math.exp(-1.2 * 10.0) / 10.0 ** 1.5) < 1e-15

    def test_large_degree_domain_validation(self):
        with pytest.raises(ValueError):
            large_degree_leading(0.4, 30.0, 0.9, "elsewhere")


class TestTailOrderPredict:
    def test_matches_measured_decay(self):
        p = {"nu": 0.3, "mu": 1.2}
        x = 0.65
        impl = _get_impl("thm4.inv")
        terms = list(itertools.islice(impl.terms(p, x), 33))
        for n in range(20, 32):
            meas = abs(terms[n + 1]) / abs(terms[n])
            pred = (tail_order_predict("thm4.inv", n + 1, p, x)
                    / tail_order_predict("thm4.inv", n, p, x))
            assert abs(meas / pred - 1.0) < 0.05

    def test_zero_past_termination(self):
        assert tail_order_predict("thm4.inv", 30, {"nu": -3.0, "mu": 0.4}, 0.7) == 0.0

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentityError):
            tail_order_predict("nope", 10, {"nu": 0.3}, 0.5)

    def test_finite_sum_has_no_tail(self):
        with pytest.raises(ValueError):
            tail_order_predict("cor6", 1, {"k": 3, "m": 2}, 0.5)

    def test_needs_positive_index(self):
        with pytest.raises(ValueError):
            tail_order_predict("thm4.inv", 0, {"nu": 0.3, "mu": 1.2}, 0.5)
