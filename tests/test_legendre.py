"""Function-level tests for the first- and second-kind evaluators."""

import cmath
import decimal
import random
import sys
import time

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import legdual.legendre
from legdual.errors import DivergenceError, DomainError, LegdualError, MaxTermsError, PoleError
from legdual.hypergeom import TruncationPolicy
from legdual.legendre import (
    ParameterPoint,
    _P,
    ferrers_p,
    legendre_p,
    legendre_q,
)

mp.mp.dps = 30


def _mp(z):
    # mpmath's legendre path calls int() on a real degree or order, which
    # fails for an mpc with zero imaginary part
    z = complex(z)
    return mp.mpf(z.real) if z.imag == 0.0 else mp.mpc(z)


# multiples of 2^-40 in [-3, 3]
_ON_2M40 = st.integers(-3 * 2**40, 3 * 2**40).map(lambda k: k * 2.0**-40)


def _close(ours, theirs, rel=1e-13):
    theirs = complex(theirs)
    assert abs(complex(ours) - theirs) <= rel * max(abs(theirs), 1e-300)


class TestArgument:
    @pytest.mark.parametrize("x", [1.0, -1.0, -2.0, float("inf"), float("nan")])
    def test_rejects_bad_points(self, x):
        # every entry point, and _P at integer and non-integer parameters
        for fn in (ferrers_p, legendre_p, legendre_q):
            with pytest.raises(DomainError):
                fn(ParameterPoint(0.5 + 0.2j, 0.3), x)
        for nu, mu in [(0.5 + 0.2j, 0.3), (3, 1), (3, -1), (4.0, 0.0)]:
            with pytest.raises(DomainError):
                _P(nu, mu, x)

    @pytest.mark.parametrize("nu,mu", [
        (float("nan"), 0.2), (0.3, float("inf")), (complex(0.3, float("-inf")), 0.2),
    ])
    def test_rejects_non_finite_parameters(self, nu, mu):
        # where they enter, not as a ValueError from round() deep inside
        with pytest.raises(DomainError, match="finite"):
            ferrers_p(ParameterPoint(nu, mu), 0.5)
        with pytest.raises(DomainError, match="finite"):
            ParameterPoint(0.3, 0.2)._replace(nu=nu, mu=mu)

    @pytest.mark.parametrize("mu", [200.5, -200.5])
    def test_gamma_overflow_is_a_divergence(self, mu):
        # 1/Gamma(1 + mu) at |mu| ~ 200 leaves the range of doubles, and P
        # with it: about 1.2e421 at mu = -200.5, a divergence, and 1.3e-424
        # at 200.5, the double 0
        theirs = mp.legenp(0.3, -mu, 0.5, type=2)
        if abs(theirs) > 1e308:
            with pytest.raises(DivergenceError, match="gamma at z = "):
                ferrers_p(ParameterPoint(0.3, mu), 0.5)
        else:
            assert abs(theirs) < 1e-323
            assert ferrers_p(ParameterPoint(0.3, mu), 0.5).value == 0


class TestIntegerDegree:
    @pytest.mark.parametrize("k,m,x", [
        (16, 1, 0.3), (25, 0, 0.3), (40, 2, 0.3), (60, 3, 0.5), (40, -2, 0.3),
        (25, 0, 1.5), (40, -2, 1.2), (16, 1, 3.0),
    ])
    def test_every_entry_point_takes_the_recurrence(self, k, m, x):
        # the terminating sum at t = (1 - x)/2 cancels at these points;
        # the degree recurrence does not
        fn, kind = (ferrers_p, 2) if x < 1.0 else (legendre_p, 3)
        sv = fn(ParameterPoint(k, m), x)
        _close(sv.value, mp.legenp(k, -m, mp.mpf(x), type=kind))
        assert sv.value == _P(k, m, x)
        assert sv.error_estimate == 0.0

    @pytest.mark.parametrize("k,m,x", [
        (40, 2, 0.3), (60, 3, 0.5), (25, 0, 0.3), (16, 1, 0.3), (40, -2, 1.2),
    ])
    def test_reflected_degree_takes_the_recurrence(self, k, m, x):
        # degree -k - 1 is degree k (DLMF 14.9.5); its terminating sum
        # cancels as much as degree k's
        fn, kind = (ferrers_p, 2) if x < 1.0 else (legendre_p, 3)
        sv = fn(ParameterPoint(-k - 1, m), x)
        _close(sv.value, mp.legenp(-k - 1, -m, mp.mpf(x), type=kind))
        assert sv.value == _P(-k - 1, m, x) == _P(k, m, x)
        assert sv.error_estimate == 0.0
        assert sv.terms_used == k + 1

    @pytest.mark.parametrize("fn,x", [(ferrers_p, 0.5), (legendre_p, 1.5)])
    def test_term_cap(self, fn, x):
        # degree k counts k + 1 terms: at most the policy's max_terms, like
        # the terminating sum it replaces; reflected degree -k - 1 alike
        cap = TruncationPolicy(max_terms=41)
        for nu in (40, -41):
            assert fn(ParameterPoint(nu, 2), x, cap).terms_used == 41
        for nu in (41, -42):
            with pytest.raises(MaxTermsError, match="degree 41 needs more than 41 terms"):
                fn(ParameterPoint(nu, 2), x, cap)

    @pytest.mark.parametrize("nu", [1e6, 1e300, -1e300])
    def test_huge_degree_refused_before_the_recurrence(self, nu):
        # the default cap is 100,000 terms: raised at once, not after a
        # recurrence of nu steps
        t0 = time.perf_counter()
        with pytest.raises(MaxTermsError, match="needs more than 100000 terms"):
            ferrers_p(ParameterPoint(nu, 0), 0.5)
        assert time.perf_counter() - t0 < 0.1

    def test_underflow_screened_before_the_float_steps(self):
        # 0.96^30000 underflows, and so does 39999!/159999!: the float route
        # gives up before its 40,000 steps and the two factorials, and the
        # decimal steps answer 0
        t0 = time.perf_counter()
        assert ferrers_p(ParameterPoint(99999, 60000), 0.2).value == 0
        assert time.perf_counter() - t0 < 0.15
        assert legdual.legendre._degree_recurrence(99999, 60000, 0.2) is None

    # where a float step of the recurrence leaves the normal doubles, the
    # decimal steps decide: DivergenceError above the doubles, 0 below them,
    # and the value where only (k-m)!/(k+m)! = 20!/220! underflows
    @pytest.mark.parametrize("fn,k,m,x", [
        (legendre_p, 160, 2, 1e3),      # 2.5e522: the recurrence overflows
        (legendre_p, 3, 2, 1e200),      # 1.2e599: x^2 - 1 overflows
        (ferrers_p, 160, 160, 0.5),     # 1.5e-343: the seed overflows
        (ferrers_p, 120, 100, 0.9),     # 7.1e-226: the ratio underflows
        (legendre_p, 1, 1, 1e200),      # 5.0e199, though x^2 - 1 overflows
        (legendre_p, 160, 150, 3.0),    # 4.4e-236 from a seed of 2.0e374
    ])
    def test_out_of_the_doubles(self, fn, k, m, x):
        kind = 2 if x < 1.0 else 3
        with mp.workdps(40):
            ref = mp.legenp(k, -m, mp.mpf(x), type=kind)
        if abs(ref) > sys.float_info.max:
            with pytest.raises(DivergenceError, match=f"P of degree {k} and order {-m}"):
                fn(ParameterPoint(k, m), x)
        elif abs(ref) < 2.0**-1075:
            assert fn(ParameterPoint(k, m), x).value == 0
        else:
            _close(fn(ParameterPoint(k, m), x).value, ref, rel=1e-14)

    @pytest.mark.parametrize("k,m,x", [
        (16, 3, 0.35), (16, -5, 0.8), (9, 4, 1.7), (12, 0, 2.857), (40, 2, -0.3)])
    def test_decimal_steps_agree_with_the_float_steps(self, k, m, x):
        # the same recurrence in both number types, where floats suffice
        with decimal.localcontext(legdual.legendre._WIDE):
            wide = float(legdual.legendre._degree_recurrence(k, m, decimal.Decimal(x)))
        _close(legdual.legendre._degree_recurrence(k, m, x), wide, rel=1e-14)

    @pytest.mark.parametrize("nu,mu,x", [
        (0.3 + 0.2j, 0.4, 0.5), (0.3 + 0.2j, 0.4, 1.5), (3, 1, 0.5), (3, 1, 1.5)])
    def test_one_recurrence_attempt_per_call(self, monkeypatch, nu, mu, x):
        # _P tries _P_int once, whatever the parameters, before any series
        calls = [0]

        def counted(*args, _f=legdual.legendre._P_int):
            calls[0] += 1
            return _f(*args)

        monkeypatch.setattr(legdual.legendre, "_P_int", counted)
        _P(nu, mu, x)
        assert calls[0] == 1


class TestFerrersP:
    def test_degree_zero_is_one(self):
        _close(ferrers_p(ParameterPoint(0.0, 0.0), 0.3).value, 1.0, rel=1e-14)

    def test_degree_one_is_x(self):
        _close(ferrers_p(ParameterPoint(1.0, 0.0), 0.6).value, 0.6, rel=1e-14)

    @pytest.mark.parametrize("nu,mu,x", [
        (0.5 + 0.2j, 1.3, 0.55),
        (1.0 + 0.5j, -0.7 + 0.1j, 0.35),
        (2.5, 0.5, 0.8),
        (-0.25, 0.9, 0.1),
        (0.5 + 0.2j, 1.3, 0.8),
        (1.1, -0.4, 0.75),
        (2.0, 0.6, 0.95),
    ])
    def test_matches_independent_oracle(self, nu, mu, x):
        ref = mp.legenp(_mp(nu), -_mp(mu), mp.mpf(x), type=2)
        _close(ferrers_p(ParameterPoint(nu, mu), x).value, ref)

    def test_matches_mpmath_convention(self):
        # order -mu in our notation is mpmath's legenp order -mu (type 2)
        nu, mu, x = 0.7, 0.4, 0.45
        ref = mp.legenp(nu, -mu, x, type=2)
        _close(ferrers_p(ParameterPoint(nu, mu), x).value, ref)

    def test_integer_closed_form(self):
        # Ferrers P_3^2(x) = 15 x (1 - x^2); our order parameter is -mu
        x = 0.37
        _close(ferrers_p(ParameterPoint(3.0, -2.0), x).value,
               15.0 * x * (1.0 - x * x), rel=1e-13)

    def test_nonpositive_x_requires_termination(self):
        with pytest.raises(DomainError):
            ferrers_p(ParameterPoint(0.7 + 0.1j, 0.3), -0.2)
        v = ferrers_p(ParameterPoint(3.0, 0.0), -0.2).value
        x = -0.2
        _close(v, 0.5 * (5 * x**3 - 3 * x), rel=1e-13)

    @pytest.mark.parametrize("k", range(13))
    def test_terminating_at_nonpositive_x(self, k):
        # order -mu with mu = -m > k is no polynomial: the series at
        # t = (1 - x)/2 >= 1/2 alternates; checked for degree k and its
        # reflection -k - 1, which terminates through the other parameter
        for m in range(-k - 6, -k):
            for i in range(1, 20):
                x = -0.05 * i
                ref = mp.legenp(k, m, x, type=2)
                for nu in (k, -k - 1):
                    _close(ferrers_p(ParameterPoint(nu, -m), x).value, ref, rel=1e-12)

    @pytest.mark.parametrize("k", range(13))
    def test_degree_minus_order_in_n0_at_nonpositive_x(self, k):
        # nu - mu = k ends the series in (x - 1)/(x + 1) at any degree, and
        # mu + nu + 1 = -k ends it at the reflected degree -nu - 1.  x = 0 is
        # left out: at odd k it is a zero of P (DLMF 14.5.1)
        for nu in (0.3 + 0.2j, -1.45 - 0.7j, 2.6):
            for mu in (nu - k, -nu - 1 - k):
                for i in range(1, 20):
                    x = -0.05 * i
                    ref = mp.legenp(_mp(nu), -_mp(mu), mp.mpf(x), type=2)
                    _close(ferrers_p(ParameterPoint(nu, mu), x).value, ref, rel=1e-12)

    def test_entire_limit_error(self):
        # 1 + mu in -N0: the limit of 2F1/Gamma(1 + mu), where the series
        # terminates and where it does not, with no error raised
        for nu, mu, x in [(0.7 + 0.1j, -2.0, 0.5), (1j, -1.0, 0.5),
                          (0.3 + 0.2j, -2.0, 0.3), (4.0, -2.0, -0.4), (3.0, -5.0, 0.4)]:
            ref = mp.legenp(_mp(nu), -_mp(mu), mp.mpf(x), type=2)
            _close(ferrers_p(ParameterPoint(nu, mu), x).value, ref)

    def test_rejects_large_x(self):
        with pytest.raises(DomainError):
            ferrers_p(ParameterPoint(0.5, 0.5), 1.5)

    @given(
        st.builds(complex, _ON_2M40, _ON_2M40),
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        st.floats(0.05, 0.95),
    )
    @example(1j, -1, 0.5)
    # 1e-5 snapped to the grid: for the double 1e-5, -1 - nu rounds so
    # that nu + 1 is off by 6.6e-12 relative, which the test would read as
    # an error of ferrers_p
    @example(10995116 * 2.0**-40, -1, 0.5)
    @settings(max_examples=60, deadline=None)
    def test_degree_symmetry(self, nu, mu, x):
        # the series depends on nu only through nu(nu+1); nu's parts are
        # multiples of 2^-40 in [-3, 3], so -1 - nu is exact
        a = ferrers_p(ParameterPoint(nu, mu), x).value
        b = ferrers_p(ParameterPoint(-1.0 - nu, mu), x).value
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-30)


class TestLegendreP:
    def test_degree_zero_is_one(self):
        _close(legendre_p(ParameterPoint(0.0, 0.0), 1.7).value, 1.0, rel=1e-14)

    @pytest.mark.parametrize("nu,mu,x", [
        (0.5 + 0.2j, 1.3, 1.25),
        (0.3, 1.2, 2.0),
        (-0.4 + 0.3j, 0.8 - 0.2j, 1.6),
        # 1 + mu in -N0, series not terminating
        (0.3 + 0.2j, -2.0, 1.7),
        (2.5j, -3.0, 3.0),
    ])
    def test_matches_independent_oracle(self, nu, mu, x):
        ref = mp.legenp(_mp(nu), -_mp(mu), mp.mpf(x), type=3)
        _close(legendre_p(ParameterPoint(nu, mu), x).value, ref)

    def test_rejects_ferrers_window(self):
        with pytest.raises(DomainError):
            legendre_p(ParameterPoint(0.5, 0.5), 0.5)


class TestOrderNearPole:
    @pytest.mark.parametrize("eps", [5e-15, 5e-13, 2e-12])
    @pytest.mark.parametrize("fn,x,kind", [(ferrers_p, 0.5, 2), (legendre_p, 1.5, 3)])
    def test_order_near_the_pole(self, fn, x, kind, eps):
        # 1 + mu within 1e-14 of 0 takes the limit; just outside it the
        # series must still be summed, not refused as a pole
        nu, mu = 0.3 + 0.1j, -1.0 + eps
        ref = mp.legenp(mp.mpc(nu), -mp.mpf(mu), mp.mpf(x), type=kind)
        _close(fn(ParameterPoint(nu, mu), x).value, ref, rel=1e-12)


def _box_or_real(rng, i):
    """A draw from the registry's default box, or on the real line there."""
    re = rng.uniform(-1.5, 2.5)
    return complex(re, rng.uniform(-1.0, 1.0)) if i % 2 else complex(re, 0.0)


class TestPositiveIntegerOrder:
    """Order n >= 1 (mu = -n), where the Gauss series' c = 1 + mu is a pole:
    the first kind by the order reflection from order -n, legendre_q at
    degree -1/2 - n by its degree reflection, against 30-digit mpmath."""

    @pytest.mark.parametrize("fn,kind,lo,hi", [
        (ferrers_p, 2, 0.02, 0.97), (legendre_p, 3, 1.0, 10.0)])
    def test_first_kind_matches_mpmath(self, fn, kind, lo, hi):
        rng = random.Random(f"order-{fn.__name__}")
        for i in range(30):
            n, nu, x = rng.randint(1, 40), _box_or_real(rng, i), rng.uniform(lo, hi)
            if x == 1.0:
                continue
            ours = fn(ParameterPoint(nu, -n), x)
            _close(ours.value, mp.legenp(_mp(nu), n, mp.mpf(x), type=kind), rel=1e-12)
            assert 0.0 <= ours.error_estimate <= 1e-12 * abs(ours.value)
            # the estimate holds the 2n products' rounding and, above 1, where
            # order -n sums the same series, scales order -n's with the value
            rel = ours.error_estimate / abs(ours.value)
            assert rel >= 2 * n * 2.0**-53
            if x > 1.0:
                seed = fn(ParameterPoint(nu, n), x)
                assert rel >= seed.error_estimate / abs(seed.value) * (1.0 - 1e-9)

    @pytest.mark.parametrize("nu,n,x", [(40.3, 40, 0.5), (51.16, 51, 0.025)])
    def test_large_degree_keeps_its_digits(self, nu, n, x):
        # the series in (1-x)/2 at order -n cancels here (1.5e-8 and 1.3e7
        # relative, each with an estimate near 1e-18); its Euler transform does not
        ours = ferrers_p(ParameterPoint(nu, -n), x)
        _close(ours.value, mp.legenp(mp.mpf(nu), n, mp.mpf(x), type=2), rel=1e-12)
        assert ours.error_estimate <= 1e-12 * abs(ours.value)

    def test_registry_P_takes_the_same_route(self):
        for nu, n, x in [(0.3 + 0.2j, 3, 0.4), (-1.2, 7, 2.5), (2.0 + 5e-13, 1, -0.3)]:
            assert _P(nu, -n, x) == (ferrers_p if x < 1 else legendre_p)(
                ParameterPoint(nu, -n), x, legdual.legendre._LAST_BIT).value

    def test_legendre_q_matches_mpmath(self):
        rng = random.Random("order-legendre_q")
        for i in range(20):
            n, mu, x = rng.randint(1, 40), _box_or_real(rng, i), rng.uniform(1.0, 10.0)
            if x == 1.0:
                continue
            nu = -0.5 - n
            ours = legendre_q(ParameterPoint(nu, mu), x).value
            _close(ours, mp.legenq(mp.mpf(nu), -_mp(mu), mp.mpf(x), type=3), rel=1e-12)

    def test_legendre_q_near_its_gamma_pole(self):
        # Gamma(nu - mu + 1) is near its pole -8 here: the route at degree
        # n - 1/2 keeps the digits that rounding nu - mu + 1 would lose
        nu, mu, x = -9.5, -0.4968336867868328, 4.57452329868998
        ref = mp.legenq(mp.mpf(nu), -mp.mpf(mu), mp.mpf(x), type=3)
        _close(legendre_q(ParameterPoint(nu, mu), x).value, ref, rel=1e-14)
        assert legendre_q(ParameterPoint(nu, mu), x) == legendre_q(ParameterPoint(8.5, mu), x)

    @pytest.mark.parametrize("fn,x", [(ferrers_p, 0.5), (legendre_p, 2.0)])
    def test_order_past_the_term_cap_refused_at_once(self, fn, x):
        # 2e300 factors: a MaxTermsError before any of them (this hung)
        t0 = time.perf_counter()
        with pytest.raises(MaxTermsError, match="order 1e\\+300 needs more than 100000"):
            fn(ParameterPoint(0.3, -1e300), x)
        assert time.perf_counter() - t0 < 1.0
        with pytest.raises(MaxTermsError):
            fn(ParameterPoint(0.3, -3), x, TruncationPolicy(max_terms=5))

    @pytest.mark.parametrize("fn,x,kind,sign", [(ferrers_p, 0.5, 2, -1), (legendre_p, 2.0, 3, 1)])
    def test_large_orders_answered_or_refused(self, fn, x, kind, sign):
        # these were NaN from n = 99 on; mpmath gives -3.36e131 at n = 100.
        # mpmath's legenp takes about 1 s a value at these orders, so past
        # n = 100 the reference is its order -n value and DLMF 14.9.3/14.9.13
        # in 30 digits
        nu = mp.mpf(0.3)
        _close(fn(ParameterPoint(0.3, -100), x).value, mp.legenp(nu, 100, x, type=kind),
               rel=1e-12)
        answered = []
        for n in range(99, 171):
            try:
                value = fn(ParameterPoint(0.3, -n), x).value
            except LegdualError as exc:
                # P of order -n below the normal doubles holds no digit
                assert isinstance(exc, DomainError) and "below the normal doubles" in str(exc)
                continue
            assert cmath.isfinite(value)
            ref = (sign**n * mp.gamma(nu + n + 1) / mp.gamma(nu - n + 1)
                   * mp.legenp(nu, -n, x, type=kind))
            _close(value, ref, rel=1e-12)
            answered.append(n)
        assert answered == list(range(99, 154))

    def test_order_past_170_refused_at_once_on_the_unit_interval(self):
        # 1/n! is below the normal doubles there: refused before the series,
        # whose terms overflow first at large n (at term 109 for n = 49999)
        for n in (171, 3000, 49999):
            with pytest.raises(DomainError, match=f"needs 1/{n}!, below the normal doubles"):
                ferrers_p(ParameterPoint(0.3 + 0.5j, -n), 0.02)

    def test_order_above_the_doubles_refused(self):
        # P of order 150 at degree 150.3 and x = 2 is about 1.73e343
        with pytest.raises(DivergenceError, match="P of order 150 is above the range of doubles"):
            legendre_p(ParameterPoint(150.3, -150), 2.0)

    def test_small_factor_keeps_its_digits(self):
        # nu - 1 = 5e-13 is one of the reflection's factors: the limit form
        # answered an exact 0 here
        nu = 1 + 5e-13
        ours = ferrers_p(ParameterPoint(nu, -3), 0.3).value
        _close(ours, mp.legenp(mp.mpf(nu), 3, mp.mpf(0.3), type=2), rel=1e-10)
        assert abs(ours) > 6e-13


class TestLegendreQ:
    @pytest.mark.parametrize("nu,mu,x", [
        (0.8, 0.3, 1.5),
        (1.2, 0.0, 2.0),
        (0.5 + 0.2j, 0.4, 1.3),
    ])
    def test_matches_mpmath(self, nu, mu, x):
        ours = legendre_q(ParameterPoint(nu, mu), x).value
        ref = mp.legenq(mp.mpc(nu), mp.mpc(-mu), mp.mpf(x), type=3)
        _close(ours, ref)

    @pytest.mark.parametrize("x", [50.0, 300.0, 700.0, 1000.0])
    @pytest.mark.parametrize("nu,mu", [(0.8, 0.3), (1.2, 0.0), (0.5 + 0.2j, 0.4)])
    def test_large_x(self, nu, mu, x):
        # x/sqrt(x^2 - 1) - 1 would cost about eps x^2 relative
        ours = legendre_q(ParameterPoint(nu, mu), x).value
        ref = mp.legenq(mp.mpc(nu), mp.mpc(-mu), mp.mpf(x), type=3)
        _close(ours, ref)

    @pytest.mark.parametrize("x", [1.4e154, 1e200, 1e300])
    def test_beyond_the_square_root_of_the_double_range(self, x):
        # x^2 overflows above about 1.34e154; at 1e300 the value, 7e-391,
        # underflows to 0
        nu, mu = 0.3 + 0.2j, 0.2
        ours = legendre_q(ParameterPoint(nu, mu), x).value
        ref = mp.legenq(mp.mpc(nu), mp.mpc(-mu), mp.mpf(x), type=3)
        _close(ours, ref)

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            legendre_q(ParameterPoint(0.0, 2.0), 1.5)

    def test_rejects_ferrers_window(self):
        with pytest.raises(DomainError):
            legendre_q(ParameterPoint(0.5, 0.5), 0.5)


class TestPinnedValues:
    """Every bit of a few values from each entry point, up to x = 9e3: a
    change to the 2F1 summation that moves any of them is not a pure
    speed-up."""

    POINT = ParameterPoint(0.37 + 0.21j, -0.45 + 0.13j)

    @pytest.mark.parametrize("fn,x,re,im,terms", [
        (legendre_p, 1.5, "0x1.17d8bfe5cd664p+0", "0x1.cfd612c5e5c4ep-3", 16),
        (legendre_p, 50.0, "0x1.c51df5d738a78p+0", "0x1.76455669d38bcp+1", 292),
        (legendre_p, 2e3, "-0x1.8785343ad5b66p+1", "0x1.a0df50539d77fp+3", 4182),
        (legendre_p, 9e3, "-0x1.8438c6223cb2ap+3", "0x1.3f1f29399ab95p+4", 9149),
        (ferrers_p, 0.3, "0x1.c529220ac419fp-2", "-0x1.47395ac482aa8p-5", 30),
        (ferrers_p, 1 - 1e-8, "0x1.8acb887781f7bp+4", "-0x1.424ce6cae7c31p+5", 5),
        (legendre_q, 1.2, "0x1.d868062e8432ep-2", "0x1.3dc038607cb48p+0", 27),
        (legendre_q, 500.0, "0x1.af5a902c63e0cp-13", "-0x1.22ba7261dfb7ap-16", 6),
    ])
    def test_bits(self, fn, x, re, im, terms):
        sv = fn(self.POINT, x)
        assert (sv.value.real.hex(), sv.value.imag.hex(), sv.terms_used) == (re, im, terms)

    def test_term_cap_near_1e4(self):
        # the series in t = (x-1)/(x+1) takes O(x) terms; here more than
        # the 100,000 of the default policy
        with pytest.raises(MaxTermsError):
            legendre_p(ParameterPoint(-1.2 + 0.6j, 1.7 - 0.4j), 9e3)
