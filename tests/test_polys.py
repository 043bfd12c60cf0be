"""Polynomial-family tests: explicit sums, recurrences, generating functions."""

import itertools
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legdual.hypergeom import pfq_terminating, pochhammer
from legdual.polys import (
    assoc_legendre_poly,
    bateman_g,
    gauss_hyper_poly,
    gauss_hyper_poly_seq,
    gegenbauer,
    jacobi,
    mittag_leffler_g,
)

mp.mp.dps = 30


def _close(ours, theirs, rel=1e-12):
    theirs = complex(theirs)
    assert abs(complex(ours) - theirs) <= rel * max(abs(theirs), 1e-300)


def _gen_partial(coef, z, n_terms):
    return sum(coef(n) * z**n for n in range(n_terms))


class TestGegenbauer:
    def test_low_degrees(self):
        lam, x = 0.7 + 0.2j, 0.45
        _close(gegenbauer(0, lam, x), 1.0)
        _close(gegenbauer(1, lam, x), 2.0 * lam * x)
        _close(gegenbauer(2, lam, x), 2.0 * lam * (lam + 1) * x * x - lam)

    @pytest.mark.parametrize("n,lam,x", [
        (5, 0.75, 0.3), (8, 1.5, -0.6), (12, 0.25, 0.9), (7, 2.0, 0.05),
    ])
    def test_matches_mpmath(self, n, lam, x):
        # the explicit alternating sum cancels mildly at high degree
        _close(gegenbauer(n, lam, x), mp.gegenbauer(n, lam, x), rel=1e-9)

    def test_odd_degree_vanishes_at_origin(self):
        assert gegenbauer(7, 2.0, 0.0) == 0.0

    def test_negative_order_family(self):
        # lambda = 1/2 - tau - n, the shifted family of the uniform estimate
        n, tau, x = 9, 0.4, 0.7
        _close(gegenbauer(n, 0.5 - tau - n, x),
               mp.gegenbauer(n, mp.mpf("0.5") - mp.mpf("0.4") - n, mp.mpf("0.7")))

    def test_nonpositive_integer_parameter(self):
        # (tau)_{k-j} kills leading terms; compare against mpmath limit
        n, x = 6, 0.35
        _close(gegenbauer(n, -2.0, x), mp.gegenbauer(6, -2, mp.mpf("0.35")),
               rel=1e-11)

    @pytest.mark.parametrize("x", [2.5603538697554484e-157, 1.1971869230679415e-79,
                                   -1e-160, 1e-40])
    def test_tiny_argument(self, x):
        # a subnormal leading term used to overflow the term ratios to nan,
        # or to carry its lost digits into every later term;
        # the reference is the three-term recurrence in 30 digits
        lam, xm = mp.mpf(0.65), mp.mpf(x)
        prev, cur = mp.mpf(0), mp.mpf(1)
        for n in range(6):
            _close(gegenbauer(n, 0.65, x), cur, rel=1e-12)
            prev, cur = cur, (2 * (n + lam) * xm * cur - (n + 2 * lam - 1) * prev) / (n + 1)

    @given(st.integers(0, 10), st.floats(-0.95, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_three_term_recurrence(self, n, x):
        lam = 0.65
        a = gegenbauer(n, lam, x)
        b = gegenbauer(n + 1, lam, x)
        c = gegenbauer(n + 2, lam, x)
        lhs = (n + 2) * c
        rhs = 2.0 * (n + 1 + lam) * x * b - (n + 2 * lam) * a
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


class TestJacobi:
    @pytest.mark.parametrize("n,a,b,x", [
        (4, 0.5, -0.3, 0.6), (7, 1.2, 0.8, -0.4), (3, -0.25, 2.0, 0.95),
    ])
    def test_matches_mpmath(self, n, a, b, x):
        _close(jacobi(n, a, b, x), mp.jacobi(n, a, b, x), rel=1e-9)

    def test_value_at_one(self):
        n, a, b = 5, 0.7, -0.2
        _close(jacobi(n, a, b, 1.0),
               pochhammer(a + 1, n) / math.factorial(n))


class TestAssocLegendrePoly:
    @pytest.mark.parametrize("k,m,x", [
        (3, 2, 0.37), (5, 0, 0.6), (4, 4, -0.3), (6, 3, 0.85),
    ])
    def test_matches_mpmath(self, k, m, x):
        _close(assoc_legendre_poly(k, m, x), mp.legenp(k, m, x, type=2))

    def test_negative_order_factorial_ratio(self):
        k, m, x = 5, 3, 0.42
        expect = (-1) ** m * math.factorial(k - m) / math.factorial(k + m) \
            * assoc_legendre_poly(k, m, x)
        _close(assoc_legendre_poly(k, -m, x), expect)

    def test_order_above_degree_vanishes(self):
        assert assoc_legendre_poly(3, 4, 0.5) == 0.0

    @pytest.mark.parametrize("k,m,x", [(2, -3, 0.5), (3, -5, 0.3), (6, -8, 0.77)])
    def test_order_below_minus_degree(self, k, m, x):
        # not a polynomial and not zero: P_2^-3(0.5) = 0.0212497...
        _close(assoc_legendre_poly(k, m, x), mp.legenp(k, m, x, type=2), rel=1e-11)


class TestMittagLeffler:
    def test_generating_function(self):
        sigma = 0.8 - 0.4j
        for z in (0.3, -0.25):
            lhs = ((1 + z) / (1 - z)) ** sigma
            rhs = _gen_partial(lambda n: mittag_leffler_g(n, sigma), z, 90)
            _close(rhs, lhs, rel=1e-11)

    def test_recurrence_matches_terminating_form_on_overlap(self):
        # both forms are exact for n <= 12; the recurrence continues beyond
        sigma = 0.8 - 0.4j
        for n in range(1, 13):
            direct = 2.0 * sigma * pfq_terminating([1 - n, 1 - sigma], [2], 2.0, n - 1)
            _close(mittag_leffler_g(n, sigma), direct, rel=1e-11)


class TestGaussHyperPoly:
    def test_generating_function(self):
        tau, rho, s = 0.7 + 0.2j, -0.4 + 0.1j, 1.3
        for z in (0.2, -0.35, 0.3 + 0.2j):
            lhs = (1 - z) ** (tau - rho) * (1 - (1 - s) * z) ** (-tau)
            rhs = _gen_partial(lambda n: gauss_hyper_poly(n, tau, rho, s), z, 90)
            _close(rhs, lhs, rel=1e-11)

    def test_rho_zero_limit(self):
        # g_n(tau, 0, s) = -s tau F(1-n, 1+tau; 2; s)
        n, tau, s = 5, 0.6, 0.9
        expect = -s * tau * pfq_terminating([1 - n, 1 + tau], [2], s, n - 1)
        _close(gauss_hyper_poly(n, tau, 0.0, s), expect)

    def test_pole_guard(self):
        # rho = -3 was a pole of the terminating form, not of the coefficients
        tau, rho, s = 0.5, -3.0, 1.2
        ref = mp.taylor(lambda z: (1 - z) ** (tau - rho) * (1 - (1 - s) * z) ** (-tau), 0, 8)
        got = list(itertools.islice(gauss_hyper_poly_seq(tau, rho, s), 9))
        for n, (ours, theirs) in enumerate(zip(got, ref)):
            _close(ours, theirs, rel=1e-13)
            _close(gauss_hyper_poly(n, tau, rho, s), theirs, rel=1e-13)


class TestBateman:
    def test_generating_function(self):
        tau, r = 0.7 + 0.2j, 0.5 - 0.3j
        for u in (0.25, -0.4):
            lhs = (1 + u) ** (tau + r) * (1 - u) ** (-tau)
            rhs = _gen_partial(lambda n: bateman_g(n, tau, r), u, 90)
            _close(rhs, lhs, rel=1e-11)
