"""Power-series engine: each primitive and each generating-coefficient family
against the Maclaurin coefficients of its generating function, computed by
mpmath at 40 digits."""

import cmath
import decimal
import functools
import itertools
import math

import mpmath as mp
import pytest

from legdual import coeffs, polys, series
from legdual.coeffs import FactorList, lauricella_G

TAU = 0.7 + 0.2j
RHO = -0.4 + 0.1j
NU = 0.6 + 0.1j
MU = 0.9 - 0.2j
N = 48


def _taylor(f, radius, n=N):
    """The first n Maclaurin coefficients of f, analytic for |z| < radius:
    Cauchy's integral on |z| = radius/2 by the m-point trapezoid rule, whose
    aliasing error is 2^-m relative, in 40 digits plus the n*log10(2) that
    2^-k c_k loses.  (mpmath.taylor's differences agree, but take seconds
    per family at 48 terms and minutes at 144.)"""
    r = mp.mpf(radius) / 2
    m = max(2 * n, 64)
    with mp.workdps(50 + int(n * math.log10(2.0))):
        roots = [mp.expjpi(2 * mp.mpf(j) / m) for j in range(m)]
        vals = [f(r * w) for w in roots]
        return [complex(mp.fsum(v * roots[-j * k % m] for j, v in enumerate(vals))
                        / (m * r**k))
                for k in range(n)]


def _check(stream, ref, rel=1e-13):
    got = list(itertools.islice(stream, len(ref)))
    # coefficients that vanish exactly come out of mpmath at round-off level
    floor = 1e-30 * max(abs(c) for c in ref)
    for n, (ours, theirs) in enumerate(zip(got, ref)):
        assert abs(ours - theirs) <= rel * max(abs(theirs), floor), n


def _c(v):
    return mp.mpc(v)


def _half_root(z, sign):
    return (1 + mp.sqrt(1 - sign * z)) / 2


class TestPrimitives:
    def test_binomial(self):
        _check(series.binomial(TAU, 0.6),
               _taylor(lambda z: (1 - 0.6 * z) ** -_c(TAU), 1 / 0.6))

    def test_binomial_step(self):
        # (1 + z^2)^-rho: the constant 1 times the binomial in u = z^2
        _check(series.mul(series.binomial(0.0, 0.0), series.binomial(RHO, -1.0), 2),
               _taylor(lambda z: (1 + z * z) ** -_c(RHO), 1.0))

    def test_mul(self):
        _check(series.mul(series.binomial(RHO, 0.6), series.binomial(TAU, -1.0), 2),
               _taylor(lambda z: (1 - 0.6 * z) ** -_c(RHO) * (1 + z * z) ** -_c(TAU), 1.0))

    def test_mul_compensates_its_sums(self):
        # (1 + 1e-16 z/(1 - z)) / (1 - z): the coefficient of z^n is
        # 1 + n 1e-16, and each 1e-16 alone is under half an ulp of 1, so an
        # uncompensated sum stays at 1
        a = itertools.chain((1.0 + 0j,), itertools.repeat(1e-16 + 0j))
        got = list(itertools.islice(series.mul(a, itertools.repeat(1.0 + 0j)), 41))
        for n, c in enumerate(got):
            assert c.imag == 0.0 and abs(c.real - float(1 + n * mp.mpf(1e-16))) <= 2.3e-16, n

    @pytest.mark.parametrize("k", [2, 3])
    def test_strided_mul_is_dense_product_of_spread_stream(self, k):
        # b(z^k) spelled out with its zeros, multiplied densely
        def spread(stream):
            for v in stream:
                yield v
                yield from itertools.repeat(0j, k - 1)

        def factors():
            return (series.binomial(TAU, 0.6),
                    series.binomial_product(((-0.5, -1.0), (RHO, 0.3))))

        a, b = factors()
        got = list(itertools.islice(series.mul(a, b, k), N))
        a, b = factors()
        dense = list(itertools.islice(series.mul(a, spread(b)), N))
        for n, (ours, ref) in enumerate(zip(got, dense)):
            assert abs(ours - ref) <= 1e-15 * abs(ref), n

    def test_unit_stride_sums_in_the_old_order(self):
        def dense_mul(a, b):
            xs, ys = [], []
            for x, y in zip(a, b):
                xs.append(x)
                ys.append(y)
                total = carry = 0j
                for u, v in zip(xs, reversed(ys)):
                    d = u * v - carry
                    t = total + d
                    carry = (t - total) - d
                    total = t
                yield total

        def factors():
            return (series.binomial(TAU, 0.6),
                    series.solve(series.binomial(1.0, 0.4),
                                 ((0.3 - 0.4j) * v for v in series.binomial(3.0, 0.4)), 2.0))

        assert (list(itertools.islice(series.mul(*factors()), N))
                == list(itertools.islice(dense_mul(*factors()), N)))

    def test_solve_polynomial(self):
        # a = (1 - 0.2z)(1 - 0.3z), b = a g'/g for g = 2 (1-0.2z)^-tau (1-0.3z)^-rho
        a = [1.0, -0.5, 0.06]
        b = [0.2 * TAU + 0.3 * RHO, -0.06 * (TAU + RHO)]
        ref = _taylor(lambda z: 2 * (1 - 0.2 * z) ** -_c(TAU) * (1 - 0.3 * z) ** -_c(RHO),
                      1 / 0.3)
        _check(series.solve(a, b, 2.0), ref)

    def test_solve_stream(self):
        # a = 1/(1 - 0.4z), b = tau/(1 - 0.4z)^3: g = exp(tau z / (1 - 0.4z))
        b = (TAU * v for v in series.binomial(3.0, 0.4))
        _check(series.solve(series.binomial(1.0, 0.4), b, 1.0),
               _taylor(lambda z: mp.exp(_c(TAU) * z / (1 - 0.4 * z)), 2.5))

    def test_solve_needs_nonzero_lead(self):
        with pytest.raises(ValueError):
            next(series.solve([0.0, 1.0], [1.0], 1.0))


# name: (sequence, scalar accessor, parameters, generating function, radius
# [, coefficients checked, N if absent])
FAMILIES = {
    "gauss_hyper_poly": (
        polys.gauss_hyper_poly_seq, polys.gauss_hyper_poly, (TAU, RHO, 1.3),
        lambda z: (1 - z) ** (_c(TAU) - _c(RHO)) * (1 + 0.3 * z) ** -_c(TAU), 1.0),
    "gauss_hyper_poly_far_node": (
        polys.gauss_hyper_poly_seq, polys.gauss_hyper_poly, (TAU, RHO, 10.0),
        lambda z: (1 - z) ** (_c(TAU) - _c(RHO)) * (1 + 9 * z) ** -_c(TAU), 1 / 9),
    "mittag_leffler_g": (
        polys.mittag_leffler_g_seq, polys.mittag_leffler_g, (TAU,),
        lambda z: ((1 + z) / (1 - z)) ** _c(TAU), 1.0),
    "bateman_g": (
        polys.bateman_g_seq, polys.bateman_g, (TAU, RHO),
        lambda z: (1 + z) ** (_c(TAU) + _c(RHO)) * (1 - z) ** -_c(TAU), 1.0),
    "script_G": (
        coeffs.script_G_seq, coeffs.script_G, (TAU, RHO, 0.55),
        lambda z: ((1 - 0.55 * z) ** _c(TAU) * (1 + z / mp.mpf(0.55)) ** -_c(TAU)
                   * (1 + z * z) ** -_c(RHO)), 0.55),
    "script_G_hat": (
        coeffs.script_G_hat_seq, coeffs.script_G_hat, (TAU, RHO, 0.25),
        lambda z: ((1 + 0.25 * z) ** _c(TAU) * (1 + 4 * z) ** -_c(TAU)
                   * (1 - z * z) ** -_c(RHO)), 0.25),
    "frak_p": (
        coeffs.frak_p_seq, coeffs.frak_p, (RHO, TAU, 0.6),
        lambda z: (1 - 0.6 * z) ** -_c(RHO) * _half_root(z, 1) ** -_c(TAU), 1.0),
    # at t = 1 both factors are singular at z = 1; checked to index 400
    "frak_p_large_n": (
        coeffs.frak_p_seq, coeffs.frak_p, (0.6, 0.9, 1.0),
        lambda z: (1 - z) ** mp.mpf(-0.6) * _half_root(z, 1) ** mp.mpf(-0.9), 1.0, 401),
    "frak_p_unit_t": (
        coeffs.frak_p_seq, coeffs.frak_p, (-0.5 * NU, 2 * MU, 1.0),
        lambda z: (1 - z) ** (0.5 * _c(NU)) * _half_root(z, 1) ** (-2 * _c(MU)), 1.0),
    "omega_plus": (
        coeffs.omega_pm_seq, coeffs.omega_pm, (NU, MU, 0.7, 1),
        lambda z: (1 + 0.7 * z) ** -_c(NU) * _half_root(z * z, -1) ** -_c(MU), 1.0),
    "omega_minus": (
        coeffs.omega_pm_seq, coeffs.omega_pm, (NU, MU, 0.7, -1),
        lambda z: (1 + 0.7 * z) ** -_c(NU) * _half_root(z * z, 1) ** -_c(MU), 1.0),
    # frak_D to index 159, the series cap
    "frak_D": (
        coeffs.frak_D_seq, coeffs.frak_D, (TAU, 0.65, False),
        lambda u: (1 + 0.65 * mp.sqrt(1 - 2 * u)) ** -_c(TAU), 0.5, 160),
    "frak_D_inverted": (
        coeffs.frak_D_seq, coeffs.frak_D, (TAU, 0.65, True),
        lambda u: (1 + mp.sqrt(1 - 2 * u) / mp.mpf(0.65)) ** -_c(TAU), 0.5, 160),
    "frak_D_inverted_small_xarg": (
        coeffs.frak_D_seq, coeffs.frak_D, (TAU, 0.05, True),
        lambda u: (1 + mp.sqrt(1 - 2 * u) / mp.mpf(0.05)) ** -_c(TAU), 0.5, 160),
    "frak_D_tau-3": (
        coeffs.frak_D_seq, coeffs.frak_D, (-3.0, 0.65, False),
        lambda u: (1 + 0.65 * mp.sqrt(1 - 2 * u)) ** 3, 0.5, 160),
}
# the half-root power of sqrt(1 - z) (frak_p) and of sqrt(1 + z^2)
# (omega_plus) at integer exponents, where its term ratio meets 0/0, and next
# to one, where it nearly does
for _tau in (-1.0, -2.0, -4.0, -7.0, -3 + 1e-9j):
    FAMILIES[f"frak_p_tau{_tau}"] = (
        coeffs.frak_p_seq, coeffs.frak_p, (RHO, _tau, 0.6),
        lambda z, tau=_tau: (1 - 0.6 * z) ** -_c(RHO) * _half_root(z, 1) ** -_c(tau),
        1.0, 144)
    FAMILIES[f"omega_plus_mu{_tau}"] = (
        coeffs.omega_pm_seq, coeffs.omega_pm, (NU, _tau, 0.7, 1),
        lambda z, tau=_tau: (1 + 0.7 * z) ** -_c(NU) * _half_root(z * z, -1) ** -_c(tau),
        1.0, 144)


class TestFamilies:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_matches_mpmath(self, name):
        seq, _, args, gen, radius, *n = FAMILIES[name]
        _check(seq(*args), _taylor(gen, radius, *n))

    @pytest.mark.parametrize("name", FAMILIES)
    def test_element_is_scalar_accessor(self, name):
        seq, scalar, args, *_ = FAMILIES[name]
        elements = list(itertools.islice(seq(*args), 21))
        for n in (0, 1, 7, 20):
            assert scalar(n, *args) == elements[n]

    def test_lauricella_product(self):
        f = FactorList((0.7, 0.4 - 0.2j, -0.3), (1.0, -0.6, 0.35 + 0.1j))
        ref = _taylor(lambda z: ((1 - z) ** mp.mpf(-0.7) * (1 + 0.6 * z) ** -_c(0.4 - 0.2j)
                                 * (1 - _c(0.35 + 0.1j) * z) ** mp.mpf(0.3)), 1.0)
        _check((lauricella_G(n, f) for n in range(N)), ref)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("x", [0.55, 0.65, 0.8])
    def test_frak_N(self, x, sign):
        n = 161
        t = abs(x ** (-2.0 if sign > 0 else 2.0) - 1.0) ** -0.5
        y = x if sign > 0 else 1.0 / x

        def gen(z):
            root = mp.sqrt(1 + sign * z * z)
            return ((1 + mp.mpf(t) * z) ** -_c(NU) * (1 + mp.mpf(y) * root) ** _c(NU)
                    * ((1 + root) / 2) ** -_c(MU))

        seq = coeffs.frak_N_seq(NU, MU, x, sign)
        _check(seq, _taylor(gen, min(1.0, 1.0 / t), n))
        assert coeffs.frak_N(n - 1, NU, MU, x, sign) == next(
            itertools.islice(coeffs.frak_N_seq(NU, MU, x, sign), n - 1, None))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_frak_N_builds_its_even_factors_at_half_length(self, monkeypatch, sign):
        # the even factor runs in u = z^2: 144 coefficients of frak_N need it
        # only to u^71.  It is one solve, and the half-root power of frak_p
        # and omega_pm comes from its term ratio and draws none
        drawn = []

        def counted_solve(*args, _solve=series.solve):
            drawn.append(0)
            slot = len(drawn) - 1
            for v in _solve(*args):
                drawn[slot] += 1
                yield v

        monkeypatch.setattr(series, "solve", counted_solve)
        monkeypatch.setattr(coeffs, "solve", counted_solve)
        assert len(list(itertools.islice(coeffs.frak_N_seq(NU, MU, 0.55, sign), 144))) == 144
        assert len(drawn) == 1
        assert max(drawn) <= 73
        drawn.clear()
        assert len(list(itertools.islice(coeffs._half_root_power(-sign, MU), 72))) == 72
        assert drawn == []


class TestTwoFactorPolynomialFactor:
    # integer tau makes (1 + z/w)^(-tau) or (1 - w z)^tau a polynomial; the
    # forward recurrence would then compute a minimal solution
    @pytest.mark.parametrize("rho", [0.0, -15.0])
    @pytest.mark.parametrize("tau", [-1.0, -3.0])
    def test_script_G_integer_tau(self, tau, rho):
        w = 1.0 / 3.0

        def gen(z):
            return ((1 - mp.mpf(w) * z) ** tau * (1 + z / mp.mpf(w)) ** -tau
                    * (1 + z * z) ** -rho)

        # radius 1, not 1/w: on |z| = 1.5 the polynomial factors reach 1e10,
        # which the trapezoid rule's aliasing would carry into the reference
        _check(coeffs.script_G_seq(tau, rho, w), _taylor(gen, 1.0))

    @pytest.mark.parametrize("k,m", [(8, 7), (8, 8), (5, 2)])
    def test_script_G_hat_same_direction_nodes(self, k, m):
        # cor10.b at x = 0.35: nodes -eta and -1/eta point the same way, so
        # the binomial product would cancel by ((1 + eta^2) / (1 - eta^2))^(k+m)
        eta = math.sqrt(0.65 / 1.35)
        tau, rho = -k - m, m - k

        def gen(z):
            return ((1 + mp.mpf(eta) * z) ** tau * (1 + z / mp.mpf(eta)) ** -tau
                    * (1 - z * z) ** -rho)

        _check(coeffs.script_G_hat_seq(tau, rho, eta), _taylor(gen, eta, 2 * k + 1))


def test_cancelling_script_G_hat_point():
    # cor9.b at seed 0, k = 8, x = 0.35: exponent -2k - lambda - 1/2 on the
    # two linear factors, whose coefficients then cancel against the z^2
    # factor's
    k, lam, x = 8, 0.5888605847493189 + 0.670093651340349j, 0.35
    eta = math.sqrt((1.0 - x) / (1.0 + x))
    tau, rho = -2 * k - lam - 0.5, lam - 0.5
    ref = _taylor(lambda z: ((1 + mp.mpf(eta) * z) ** _c(tau)
                             * (1 + z / mp.mpf(eta)) ** -_c(tau)
                             * (1 - z * z) ** -_c(rho)), eta, 2 * k + 2)
    _check(coeffs.script_G_hat_seq(tau, rho, eta), ref)


def _binomial_product_ref(pairs, n):
    """The first n coefficients of prod (1 - w z)^(-tau), as mpmath numbers:
    Cauchy products of the binomial series in 50 digits."""
    with mp.workdps(50):
        g = [mp.mpc(1)] + [mp.mpc(0)] * (n - 1)
        for tau, w in pairs:
            tau, w = _c(tau), _c(w)
            b = [mp.mpc(1)]
            for k in range(n - 1):
                b.append(b[-1] * (tau + k) * w / (k + 1))
            g = [mp.fsum(g[i] * b[j - i] for i in range(j + 1)) for j in range(n)]
        return g


class TestBinomialProduct:
    # (tau, w) pairs; each product is checked to n = 159
    CASES = {
        "three": ((0.7 + 0.2j, 0.6), (-0.4 + 0.1j, -0.5 + 0.3j), (1.3, 0.2j)),
        "four": ((0.7 + 0.2j, 0.6), (-0.4 + 0.1j, -0.5 + 0.3j), (1.3, 0.2j),
                 (0.25 - 0.5j, -0.8)),
        # a polynomial factor outside the others: away from the outermost
        # node, the same way as an inner one, or across the outermost
        "polynomial_away": ((-3.0, -1.5), (0.7 + 0.2j, 0.6), (0.4, -0.3)),
        "polynomial_across": ((-3.0, -1.5), (0.7 + 0.2j, 0.6), (0.4, 0.3j)),
        # within 1e-9 of an integer: the singular part weighs 1e-9
        "near_integer_outside": ((-3.0 + 1e-9, -1.5), (0.7 + 0.2j, 0.6), (0.4, -0.3)),
        "near_integer_complex": ((-3.0 + 1e-9j, -1.5), (0.7 + 0.2j, 0.6), (0.4, -0.3)),
        "near_integer_inside": ((-3.0 + 1e-9, 0.4), (0.7 + 0.2j, 0.9), (0.4, -0.3)),
        # mirrored pairs (tau, +/-w): polynomial, and not
        "mirrored_polynomial": ((-2.0, 1.5), (0.7 + 0.2j, -0.6), (-4.0, 1j), (-4.0, -1j)),
        "mirrored": ((0.3 + 0.1j, 0.5), (-0.7, -2.0), (0.45 - 0.2j, 1.0), (0.45 - 0.2j, -1.0)),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_mpmath(self, name):
        pairs = self.CASES[name]
        _check(series.binomial_product(pairs),
               [complex(v) for v in _binomial_product_ref(pairs, 160)])

    # the route guard: a factor whose tau lies within 1e-3 of an integer
    # -M <= 0, with its node w outside the free nodes v, takes the binomials'
    # Cauchy product where Re(w conj(v)) <= 0 against the outermost v, and
    # the recurrence where the nodes point the same way
    @staticmethod
    def _routes(pairs, n=160):
        got = list(itertools.islice(series.binomial_product(pairs), n))
        cauchy = functools.reduce(series.mul, (series.binomial(t, w) for t, w in pairs))
        return got, list(itertools.islice(cauchy, n))

    def test_perpendicular_nodes_take_the_cauchy_product(self):
        # Re(w conj(v)) = 0 exactly: "across", where the recurrence would
        # err by 2.7e-9 at n = 159
        pairs = ((0.7 + 0.2j, 1.0), (-3.0 + 1e-6, 2j))
        got, cauchy = self._routes(pairs)
        assert got == cauchy
        _check(got, [complex(v) for v in _binomial_product_ref(pairs, 160)])

    def test_direction_read_against_the_conjugate(self):
        # Re(w conj(v)) > 0 but Re(w v) < 0: the same way, so the recurrence,
        # which is round-off to n = 2M
        v, w = cmath.exp(0.25j * math.pi), 2.0 * cmath.exp(1j * (0.5 * math.pi + 0.1))
        assert (w * v.conjugate()).real > 0 > (w * v).real
        pairs = ((0.7 + 0.2j, v), (-3.0 + 1e-4, w))
        got, cauchy = self._routes(pairs, 7)
        assert got != cauchy
        _check(got, [complex(c) for c in _binomial_product_ref(pairs, 7)])

    def test_unit_factors_dropped(self):
        pairs = ((0.7 + 0.2j, 0.6), (0.0, 3.0), (1.5, 0.0), (-0.4, -0.5))
        assert (list(itertools.islice(series.binomial_product(pairs), N))
                == list(itertools.islice(series.binomial_product((pairs[0], pairs[3])), N)))

    def test_same_direction_polynomial_error_curve(self):
        # (3, -eta), (-3, -1/eta): script_G_hat at tau = -3, rho = 0.  The
        # polynomial's node -1/eta lies outside -eta and points the same way,
        # so the recurrence is kept and its minimal-solution loss grows past
        # n = 2M = 6.  Its worst rel err up to n = 12, 24, 36, 48 is 1.1e-14,
        # 1.08e-13, 3.09e-11 and 2.62e-8; the bounds keep it from growing
        eta = 0.694
        got = list(itertools.islice(coeffs.script_G_hat_seq(-3.0, 0.0, eta), 48))
        with mp.workdps(50):
            ref = _binomial_product_ref(((3, -eta), (-3, -1 / mp.mpf(eta))), 48)
            errs = [abs(mp.mpc(a) - r) / abs(r) for a, r in zip(got, ref)]
        for top, bound in ((12, 1.2e-14), (24, 1.1e-13), (36, 3.2e-11), (48, 2.7e-8)):
            assert max(errs[:top]) <= bound, top


class TestRecurrence:
    """The three-term driver c_k y_{k+1} = a_k y_k - b_k y_{k-1}, one mode
    each, on a recurrence with a known solution."""

    @staticmethod
    def _bonnet(x):
        # (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1} (DLMF 18.9.1)
        return (((2 * k + 1) * x, k, k + 1) for k in itertools.count(1))

    @pytest.mark.parametrize("x", [0.3, -0.85, 1.5])
    def test_forward_is_bonnet(self, x):
        # the Legendre polynomials from P_0 = 1 and P_1 = x: on (-1, 1) the
        # two solutions are of one size, above 1 P_n dominates
        got = list(itertools.islice(series.recurrence(self._bonnet(x), 1.0, x), 80))
        for n, v in enumerate(got):
            ref = mp.legendre(n, x)
            assert abs(v - ref) <= 1e-13 * max(abs(ref), 1.0), n

    def test_forward_takes_direct_values_where_a_triple_is_none(self):
        # y_{k+1} = direct(k + 1) where triple k is None, and the recurrence
        # goes on from it
        x, asked = 0.3, []

        def direct(k):
            asked.append(k)
            return float(mp.legendre(k, x))

        coefs = (None if k % 3 == 0 else abc
                 for k, abc in enumerate(self._bonnet(x), 1))
        got = list(itertools.islice(series.recurrence(coefs, 1.0, x, direct=direct), 20))
        assert asked == [4, 7, 10, 13, 16, 19]
        for n, v in enumerate(got):
            assert abs(v - mp.legendre(n, x)) <= 1e-14, n

    def test_forward_in_the_number_type_of_its_values(self):
        # Decimal values and coefficients: each step is decimal arithmetic
        with decimal.localcontext(decimal.Context(prec=40)):
            x = decimal.Decimal("0.3")
            got = list(itertools.islice(series.recurrence(self._bonnet(x), 1, x), 60))
        assert all(isinstance(v, decimal.Decimal) for v in got[1:])
        with mp.workdps(50):
            for n, v in enumerate(got):
                assert abs(mp.mpf(str(v)) - mp.legendre(n, mp.mpf("0.3"))) <= 1e-35, n

    @staticmethod
    def _bessel():
        # J_{k+1}(1) = 2k J_k(1) - J_{k-1}(1) (DLMF 10.6.1)
        return ((2.0 * k, 1, 1) for k in itertools.count(1))

    def test_minimal_is_bessel_j(self):
        # J_n(1) is the minimal solution: from J_0(1) alone, the elimination
        # gives every J_n(1) to rounding, down to J_79(1) = 1.8e-141
        j0 = float(mp.besselj(0, 1))
        got = list(itertools.islice(series.recurrence(self._bessel(), j0, decay=0.5), 80))
        for n, v in enumerate(got):
            ref = mp.besselj(n, 1)
            assert abs(v - ref) <= 1e-14 * abs(ref), n

    def test_forward_loses_the_minimal_solution(self):
        # the same recurrence run forward from J_0(1), J_1(1): the dominant
        # Y_n(1) swamps J_n(1) within 20 steps
        j0, j1 = float(mp.besselj(0, 1)), float(mp.besselj(1, 1))
        got = list(itertools.islice(series.recurrence(self._bessel(), j0, j1), 21))
        assert abs(got[20] / mp.besselj(20, 1) - 1) > 1.0

    @pytest.mark.parametrize("y0,decay", [(0.0, 0.5), (0.7, 1.0)])
    def test_minimal_falls_back_to_direct_values(self, y0, decay):
        # y_0 = 0 or a decay of 1: no sweep, every later value is direct(k)
        got = list(itertools.islice(
            series.recurrence(self._bessel(), y0, decay=decay, direct=lambda k: -k), 6))
        assert got == [y0, -1, -2, -3, -4, -5]
