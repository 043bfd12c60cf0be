"""Polynomial-family tests: explicit sums, recurrences, generating functions."""

import itertools
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legdual.errors import DomainError
from legdual.hypergeom import pfq_terminating, pochhammer
from legdual.legendre import _P
from legdual.polys import (
    bateman_g,
    gauss_hyper_poly,
    gauss_hyper_poly_seq,
    gegenbauer,
    gegenbauer_seq,
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

    @pytest.mark.parametrize("lam", [0.65, -2.0, -1.5 + 0.4j, 2.3 - 1.1j, 0.0, -7.0])
    @pytest.mark.parametrize("x", [0.0, -0.0])
    def test_closed_form_at_origin(self, lam, x):
        # C_2j(0) = (-1)^j (lam)_j / j!, and C_odd(0) = 0 (DLMF 18.6.1 with 18.7.1)
        for k in range(40):
            want = 0 if k % 2 else (-1) ** (k // 2) * pochhammer(lam, k // 2) / math.factorial(k // 2)
            _close(gegenbauer(k, lam, x), want, rel=1e-14)

    # a NaN parameter raised a bare ValueError from round(); a NaN x gave NaN
    @pytest.mark.parametrize("lam,x", [
        (float("nan"), 0.5), (float("inf"), 0.5), (complex(0.5, float("nan")), 0.5),
        (0.5, float("nan")), (0.5, float("-inf")),
    ])
    def test_non_finite_input_is_a_domain_error(self, lam, x):
        with pytest.raises(DomainError, match="finite"):
            gegenbauer(3, lam, x)

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


def _diagonal(s, x, top):
    return list(itertools.islice(gegenbauer_seq(s, x), top + 1))


def _mp_diagonal(n, s, x):
    """C_n^(s-n)(x) from mpmath; a real s is passed as mpf, since mpmath's
    integer-parameter checks compare an mpc."""
    s = complex(s)
    sm = mp.mpf(s.real) if s.imag == 0.0 else mp.mpc(s)
    return mp.gegenbauer(n, sm - n, mp.mpf(x))


class TestGegenbauerSeq:
    K = 8
    LAM = 0.37 - 0.75j
    MU = -0.59 + 0.47j

    @pytest.mark.parametrize("s", [
        K + LAM,                # cor4, cor7.a/c
        2 * K + LAM,            # cor7.b/d
        LAM + 2 * K + 1,        # cor8, cor9
        0.5 - K - MU,           # cor11.a, first factor
        K + MU + 0.5,           # cor11.a, second factor (at (1+x^2)/(2x))
        0.5 + 2 * K + MU,       # cor11.b
        1.5 + 2 * K + MU,       # lambda3
    ])
    @pytest.mark.parametrize("x", [0.35, 0.6, 0.8])
    def test_catalog_diagonals(self, s, x):
        # as accurate as the explicit sum, which some values above 1 are
        # (it errs by up to 6e-12 here)
        for y in (x, 1.0 / x, (1.0 + x * x) / (2.0 * x)):
            for n, v in enumerate(_diagonal(s, y, 2 * self.K + 1)):
                ref = complex(_mp_diagonal(n, s, y))
                scalar = abs(gegenbauer(n, s - n, y) - ref) / abs(ref)
                _close(v, ref, rel=max(1e-13, 2.0 * scalar))

    @pytest.mark.parametrize("nu", [0.3 + 0.2j, 2.47 + 0.72j, -1.35 - 0.96j])
    @pytest.mark.parametrize("x", [0.35, 0.8])
    def test_thm9_diagonals_to_the_cap(self, nu, x):
        for s in (0.5 - nu, 0.5 + nu):
            got = _diagonal(s, x, 160)
            for n in (2, 17, 40, 99, 160):
                _close(got[n], _mp_diagonal(n, s, x), rel=1e-13)

    @pytest.mark.parametrize("s", [4.2, -3.7, 0.2, 7.3])
    @pytest.mark.parametrize("x", [0.35, 0.8, 1.25, 2.857])
    def test_real_s(self, s, x):
        for n, v in enumerate(_diagonal(s, x, 20)):
            _close(v, _mp_diagonal(n, s, x), rel=1e-12)

    @pytest.mark.parametrize("s", [1.5, 2.5, 4.5])
    @pytest.mark.parametrize("x", [0.6, 1.667])
    def test_exact_index_n_equals_2s(self, s, x):
        # the recurrence divides by n(2s - n): that index is the explicit sum,
        # and the recurrence picks up again after it
        top = int(2 * s)
        got = _diagonal(s, x, top + 6)
        assert got[top] == gegenbauer(top, s - top, x)
        for n, v in enumerate(got):
            _close(v, _mp_diagonal(n, s, x), rel=1e-12)

    @pytest.mark.parametrize("s", [1.5 + 1e-12, 1.5 + 0.24, 1.5 + 0.26, 1.5 - 0.26])
    def test_both_sides_of_the_zero_divisor_rule(self, s):
        # |2s - 3| < 1/2 takes n = 3 from the explicit sum; the plain
        # recurrence loses 3e-7 at s = 1.5 + 1e-12
        got = _diagonal(s, 0.6, 12)
        assert (got[3] == gegenbauer(3, s - 3, 0.6)) == (abs(2 * s - 3) < 0.5)
        for n, v in enumerate(got):
            _close(v, _mp_diagonal(n, s, 0.6), rel=1e-13)

    @pytest.mark.parametrize("s", [4.2, 4.2 + 0.3j, 3.0 + 0.3j])
    def test_both_sides_of_the_large_x_rule(self, s):
        # above 1, n > Re s comes from the explicit sum: the plain recurrence
        # loses 1.1e-10 at s = 4.2, x = 2.857
        x = 2.857
        got = _diagonal(s, x, 17)
        for n, v in enumerate(got):
            if n > complex(s).real:
                assert v == gegenbauer(n, complex(s) - n, x)
            _close(v, _mp_diagonal(n, s, x), rel=1e-13)

    def test_first_values_are_the_scalar_ones(self):
        s, x = 1.3 + 0.4j, 0.6
        got = _diagonal(s, x, 1)
        assert got == [gegenbauer(0, s, x), gegenbauer(1, s - 1, x)]


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
    # the Ferrers P of integer degree k and integer order m is _P(k, -m, x)
    @pytest.mark.parametrize("k,m,x", [
        (3, 2, 0.37), (5, 0, 0.6), (4, 4, -0.3), (6, 3, 0.85),
    ])
    def test_matches_mpmath(self, k, m, x):
        _close(_P(k, -m, x).real, mp.legenp(k, m, x, type=2))

    def test_negative_order_factorial_ratio(self):
        k, m, x = 5, 3, 0.42
        expect = (-1) ** m * math.factorial(k - m) / math.factorial(k + m) \
            * _P(k, -m, x).real
        _close(_P(k, m, x).real, expect)

    def test_order_above_degree_vanishes(self):
        assert _P(3, -4, 0.5).real == 0.0

    @pytest.mark.parametrize("k,m,x", [(2, -3, 0.5), (3, -5, 0.3), (6, -8, 0.77)])
    def test_order_below_minus_degree(self, k, m, x):
        # not a polynomial and not zero: P_2^-3(0.5) = 0.0212497...
        _close(_P(k, -m, x).real, mp.legenp(k, m, x, type=2), rel=1e-11)


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
