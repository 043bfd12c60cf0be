"""Kernel tests: gamma, Pochhammer, 2F1, terminating pFq, accumulators."""

import cmath
import math
import sys

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legdual.errors import (
    DivergenceError,
    DomainError,
    LegdualError,
    MaxTermsError,
    NotTerminatingError,
    PoleError,
)
from legdual.hypergeom import (
    ABS_FLOOR,
    DEFAULT_POLICY,
    POLE_TOL,
    KahanSum,
    SeriesValue,
    TruncationPolicy,
    gamma,
    gauss_2f1,
    nearest_int,
    pfq_terminating,
    pochhammer,
    recip_gamma,
    terminating_index,
)

mp.mp.dps = 30


def _mp_close(ours, theirs, rel=1e-13):
    theirs = complex(theirs)
    assert abs(ours - theirs) <= rel * max(abs(theirs), 1e-300)


finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=20.0, allow_nan=False, allow_infinity=False
)

# any double in either part, NaN and +/-inf included, and the real line
any_complex = st.builds(complex, st.floats(), st.floats()) | st.floats().map(complex)

NON_FINITE = [float("nan"), float("inf"), float("-inf"), complex(0.5, float("inf")),
              complex(float("nan"), 1.0)]


def _answers_or_refuses(f, ref, z):
    """f(z) is a finite double within 1e-10 of ref, relative to
    max(|ref|, 2.2e-308), or a LegdualError."""
    try:
        value = f(z)
    except LegdualError:
        return
    assert cmath.isfinite(value), (z, value)
    theirs = ref(mp.mpc(z))
    assert abs(mp.mpc(value) - theirs) <= 1e-10 * max(abs(theirs), mp.mpf(2.2e-308)), (z, value)


def _divergence_exactly_where_out_of_range(f, ref, z):
    """f(z) raises DivergenceError where |ref(z)| lies above the range of
    doubles, is 0 where it lies below, and is ref(z) to 1e-12 in between."""
    theirs = ref(mp.mpc(z))
    if abs(theirs) > sys.float_info.max:
        with pytest.raises(DivergenceError, match="gamma at z = .* overflows"):
            f(z)
    elif abs(theirs) < 2.0**-1075:
        assert f(z) == 0
    else:
        _mp_close(f(z), theirs, rel=1e-12)


class TestPochhammer:
    def test_known_value(self):
        assert pochhammer(0.5, 2) == 0.75

    def test_empty_product(self):
        assert pochhammer(3.7 + 2j, 0) == 1.0

    def test_exact_zero_at_nonpositive_integer(self):
        assert pochhammer(-3, 5) == 0.0
        assert pochhammer(0.0, 4) == 0.0

    @given(finite_complex, st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_recurrence(self, a, n):
        assert cmath.isclose(
            pochhammer(a, n + 1), pochhammer(a, n) * (a + n),
            rel_tol=1e-12, abs_tol=1e-290,
        )

    @given(finite_complex, st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_matches_mpmath(self, a, n):
        _mp_close(pochhammer(a, n), mp.rf(mp.mpc(a), n), rel=1e-11)

    @pytest.mark.parametrize("a", NON_FINITE)
    def test_non_finite_argument_is_a_domain_error(self, a):
        with pytest.raises(DomainError, match="finite"):
            pochhammer(a, 3)

    # (1e300)_3 = 1e900, and complex products past the doubles that were
    # inf + nan j; (0.5)_2000 is about 1e5733
    @pytest.mark.parametrize("a,n", [(1e300, 3), (-1e200 + 1e200j, 2), (0.5, 2000)])
    def test_product_past_the_doubles_diverges(self, a, n):
        with pytest.raises(DivergenceError, match="overflows the range of doubles"):
            pochhammer(a, n)

    @given(any_complex, st.integers(0, 2000))
    @example(float("nan"), 3)
    @example(1e300, 3)
    @example(-1e200 + 1e200j, 2)
    @example(complex(0.5, float("-inf")), 0)
    @settings(max_examples=200, deadline=None)
    def test_answers_or_refuses_everywhere(self, a, n):
        # any double, NaN and +/-inf included: a finite value or a typed error
        try:
            value = pochhammer(a, n)
        except LegdualError:
            return
        assert cmath.isfinite(value), (a, n, value)

    @given(st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
           st.integers(0, 2000))
    @example(-7.5 + 1e-9j, 12)
    @example(-0.5, 171)
    @settings(max_examples=100, deadline=None)
    def test_matches_mpmath_where_a_double(self, a, n):
        # within 1e-10 where (a)_n is a normal double, DivergenceError where
        # it lies above the doubles
        theirs = mp.rf(mp.mpc(a), n)
        if abs(theirs) > sys.float_info.max:
            with pytest.raises(DivergenceError):
                pochhammer(a, n)
        elif abs(theirs) >= sys.float_info.min:
            _mp_close(pochhammer(a, n), theirs, rel=1e-10)


class TestGamma:
    @pytest.mark.parametrize("z", [
        1.0, 0.5, 4.2, -0.7, -3.3, 12.0,
        0.5 + 0.2j, -1.4 + 2.7j, 3.0 - 4.0j, 0.001 + 0.001j, 25.0 + 10.0j,
    ])
    def test_matches_mpmath(self, z):
        _mp_close(gamma(z), mp.gamma(mp.mpc(z)), rel=1e-13)

    def test_half_integer(self):
        assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-15

    def test_factorials(self):
        for n in range(1, 15):
            assert abs(gamma(n + 1) / math.factorial(n) - 1.0) < 1e-13

    @given(st.complex_numbers(min_magnitude=0.1, max_magnitude=20.0,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=80, deadline=None)
    def test_recurrence(self, z):
        if terminating_index(z, z + 1, tol=0.05) is not None:
            return
        lhs = gamma(z + 1)
        rhs = z * gamma(z)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs), 1e-290)

    def test_reflection(self):
        for z in (0.3 + 0.4j, -0.7 + 1.1j, 0.25):
            lhs = gamma(z) * gamma(1.0 - z)
            rhs = cmath.pi / cmath.sin(cmath.pi * z)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


    # where a step overflows, log space decides: Gamma overflows at 200,
    # 171.7 and 1e308; it is about -2.8e-376 at -200.5 and 1e-(6.8e307) at
    # 1 + 1e308i, and a double at the others, where the reflection's sin
    # (0.3 + 250j, -0.5 + 300j), gamma(1 - z) (-170.9) or their product
    # (-85.08 - 179.40i) overflows
    @pytest.mark.parametrize("z", [
        200.0, 171.7, -200.5, 0.3 + 250j, 1e308, 1 + 1e308j, -1e305 + 1e-3j,
        -0.5 + 300j, -170.9, -85.0760961508376 - 179.39633271325965j,
    ])
    def test_overflow_is_a_divergence(self, z):
        _divergence_exactly_where_out_of_range(gamma, mp.gamma, z)

    # the plain sin(pi z) would cost up to 2.8e-4 here; -3.01 lies just
    # outside the band where the reflection reduces it
    @pytest.mark.parametrize("z", [-3 + 1e-12, -1 + 1e-9 * (1 + 1j),
                                   -30 + 1e-12 * (1 + 1j), -100 + 1e-8, -3.01])
    def test_near_negative_integers(self, z):
        _mp_close(gamma(z), mp.gamma(mp.mpc(z)), rel=1e-13)
        _mp_close(recip_gamma(z), mp.rgamma(mp.mpc(z)), rel=1e-13)

    @pytest.mark.parametrize("z", NON_FINITE)
    def test_non_finite_argument_is_a_domain_error(self, z):
        with pytest.raises(DomainError, match="finite"):
            gamma(z)
        with pytest.raises(DomainError, match="finite"):
            recip_gamma(z)

    @given(any_complex)
    @example(-0.5 + 300j)
    @example(-170.9)
    @example(1 + 1e308j)
    @example(1e308)
    @example(complex(0.5, float("inf")))
    @example(-200.5)
    @settings(max_examples=200, deadline=None)
    def test_answers_or_refuses_everywhere(self, z):
        _answers_or_refuses(gamma, mp.gamma, z)


class TestRecipGamma:
    # 1/Gamma overflows at -200.5, -171.5 and -151.6 - 40i, and is a double
    # where Gamma overflows (171.7, 171.9) or underflows to 0
    # (-151.6 - 32.2i); it underflows at 200, 1e6 and 1e308
    @pytest.mark.parametrize("z", [
        1e6, 171.7, -151.6 - 32.2j, -200.5, -171.5, -151.6 - 40j, 171.9, 200.0, 1e308,
    ])
    def test_out_of_range_is_a_divergence(self, z):
        _divergence_exactly_where_out_of_range(recip_gamma, mp.rgamma, z)

    def test_exact_zero_at_poles(self):
        for k in range(0, 8):
            assert recip_gamma(-k) == 0.0

    # within POLE_TOL of a pole, where gamma raises PoleError
    @pytest.mark.parametrize("z", [3.5e-34, -3.0000000000000004, -7 + 1e-15j, -40 - 2.0**-47])
    def test_next_to_a_pole(self, z):
        assert terminating_index(complex(z), tol=POLE_TOL) is not None
        _mp_close(recip_gamma(z), mp.rgamma(mp.mpc(z)), rel=1e-12)

    # exp(i pi) is not exactly -1: log space must still answer a real
    # argument with a real value
    @pytest.mark.parametrize("f,ref,z", [
        (recip_gamma, mp.rgamma, -3.0000000000000004), (gamma, mp.gamma, -170.9),
        (recip_gamma, mp.rgamma, 171.9), (gamma, mp.gamma, -171.5),
    ])
    def test_real_argument_answers_real_in_log_space(self, f, ref, z):
        value, expect = f(z), float(ref(mp.mpf(z)))
        assert value.imag == 0.0
        assert abs(value.real - expect) <= 1e-10 * abs(expect)

    def test_entire_elsewhere(self):
        for z in (0.5, 2.0 + 1.0j, -2.5):
            assert abs(recip_gamma(z) * gamma(z) - 1.0) < 1e-12

    @given(any_complex)
    @example(171.9)
    @example(200.0)
    @example(1e6)
    @example(-200.5)
    @example(-3.0000000000000004)
    @example(float("nan"))
    @settings(max_examples=200, deadline=None)
    def test_answers_or_refuses_everywhere(self, z):
        _answers_or_refuses(recip_gamma, mp.rgamma, z)


class TestIntegerPredicates:
    @given(st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
           st.sampled_from([0.0, 1e-14, 1e-12, 0.05, 0.49]))
    @example(-3.0, 0.0)
    @example(-3.0 + 1e-13j, 1e-12)
    @example(-3.0 + 1e-13j, 1e-14)
    @example(-2.5, 0.49)
    @example(-0.5, 0.49)
    @example(0.3, 0.49)
    @settings(max_examples=100, deadline=None)
    def test_is_nonpos_int_is_distance_to_nonpositive_integers(self, z, tol):
        nearest = min(round(z.real), 0)
        assert (terminating_index(z, tol=tol) is not None) == (abs(z - nearest) <= tol)

    def test_is_nonpos_int(self):
        assert terminating_index(0.0, tol=POLE_TOL) == 0
        assert terminating_index(-5.0 + 0j, tol=POLE_TOL) == 5
        assert terminating_index(2.0, tol=POLE_TOL) is None
        assert terminating_index(-1.5, tol=POLE_TOL) is None

    def test_terminating_index(self):
        assert terminating_index(-4.0) == 4
        assert terminating_index(0.0) == 0
        assert terminating_index(2.3) is None
        assert terminating_index(-3.0 + 1e-6j) is None

    def test_terminating_index_is_the_least(self):
        assert terminating_index(-4.0, -2.0 + 1e-13, 3.0) == 2
        assert terminating_index(0.5, 2.3) is None
        assert terminating_index() is None
        assert terminating_index(-2.0 + 1e-13, -5.0, tol=1e-14) == 5
        assert terminating_index(-2.0 + 1e-15j, tol=0.0) is None

    @pytest.mark.parametrize("z", [float("nan"), float("inf"), complex(float("-inf"), 1.0)])
    def test_non_finite_parameter_is_a_domain_error(self, z):
        with pytest.raises(DomainError, match="not finite"):
            terminating_index(0.5, z)

    def test_nearest_int(self):
        assert nearest_int(3, 0.0) == 3
        assert nearest_int(3.0 + 1e-15j, 1e-14) == 3
        assert nearest_int(-2.0 + 5e-13, 1e-14) is None
        assert nearest_int(-2.0 + 5e-13, 1e-12) == -2
        assert nearest_int(2.0 + 5e-13j, 1e-14) is None


class TestGauss2F1:
    def test_geometric_special_case(self):
        # 2F1(1, b; b; t) = 1/(1-t)
        sv = gauss_2f1(1.0, 0.7, 0.7, 0.5)
        assert abs(sv.value - 2.0) < 1e-12
        # the tail past the last term is that term again; the estimate doubles it
        assert abs(sv.value - 2.0) <= sv.error_estimate

    @pytest.mark.parametrize("a,b,c,t", [
        (0.3, 0.7, 1.2, 0.4),
        (0.5 + 0.2j, -0.3, 1.1, 0.25),
        (-1.2 + 0.5j, 2.0 - 1.0j, 3.5 + 0.1j, -0.6),
        (2.5, 1.5, 0.8, 0.3),
    ])
    def test_matches_mpmath(self, a, b, c, t):
        sv = gauss_2f1(a, b, c, t)
        _mp_close(sv.value, mp.hyp2f1(*(mp.mpc(v) for v in (a, b, c)), mp.mpf(t)))

    def test_terminating_polynomial(self):
        # 2F1(-2, b; c; t) is a quadratic; exact finite sum
        a, b, c, t = -2.0, 1.3, 0.9, 0.7
        sv = gauss_2f1(a, b, c, t)
        expect = 1.0 + a * b / c * t + a * (a + 1) * b * (b + 1) / (c * (c + 1) * 2) * t * t
        assert abs(sv.value - expect) < 1e-13

    def test_max_terms_enforced(self):
        policy = TruncationPolicy(rel_tol=1e-13, max_terms=5)
        with pytest.raises(MaxTermsError):
            gauss_2f1(0.3, 0.7, 1.2, 0.9, policy)

    @pytest.mark.parametrize("t", [1.0, -1.5])
    def test_nonterminating_outside_the_unit_disc_diverges(self, t):
        with pytest.raises(DivergenceError, match=">= 1"):
            gauss_2f1(0.3, 0.7, 1.2, t)

    @pytest.mark.parametrize("a,b,c,t", [
        (float("nan"), 1, 1, 0.5), (float("inf"), 1, 1, 0.5), (0.3, complex(1, float("nan")), 1, 0.5),
        (0.3, 1, float("-inf"), 0.5), (0.3, 1, 1, float("nan")), (-2, 1, 1, float("inf")),
    ])
    def test_non_finite_input_is_a_domain_error(self, a, b, c, t):
        # round() in terminating_index raised a bare ValueError (NaN) or
        # OverflowError (inf); a NaN imaginary part or t gave a NaN sum
        with pytest.raises(DomainError, match="finite"):
            gauss_2f1(a, b, c, t)

    # a cap of 2,000 terms keeps each example short; past it, MaxTermsError
    @given(any_complex, any_complex, any_complex, st.floats())
    @example(float("nan"), 1.0, 1.0, 0.5)
    @example(float("inf"), 1.0, 1.0, 0.5)
    @example(complex(-1.7e308, 1.7e308), 1.0, 1.0, 0.5)
    @example(1e300, 1e300, 1.0, 0.5)
    @example(-3.0, 1e300, 1e-300, 0.5)
    @settings(max_examples=200, deadline=None)
    def test_answers_or_refuses_everywhere(self, a, b, c, t):
        # any double, NaN and +/-inf included: a finite value or a typed error
        try:
            sv = gauss_2f1(a, b, c, t, TruncationPolicy(max_terms=2000))
        except LegdualError:
            return
        assert cmath.isfinite(sv.value) and math.isfinite(sv.error_estimate), (a, b, c, t, sv)

    @given(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
           st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
           st.builds(complex, st.floats(0.5, 4.0), st.floats(-2.0, 2.0)),
           st.floats(-0.7, 0.7))
    @settings(max_examples=100, deadline=None)
    def test_matches_mpmath_on_a_box(self, a, b, c, t):
        # within 1e-10 where the value is a normal double
        theirs = mp.hyp2f1(mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpf(t))
        if abs(theirs) >= sys.float_info.min:
            _mp_close(gauss_2f1(a, b, c, t).value, theirs, rel=1e-10)


def _reference_2f1(a, b, c, t, policy=DEFAULT_POLICY):
    """`gauss_2f1` with one loop for both kinds of sum and the truncation
    test read at every term: the outcome `gauss_2f1` must match bit for
    bit.  Overflow raises DivergenceError at the first term where abs
    overflows or 2 (1 + sum of |term|) is not finite, and at the end of a
    terminating sum whose total is not finite."""
    a, b, c = complex(a), complex(b), complex(c)
    t = float(t)
    n_stop = terminating_index(a, b)
    nc = terminating_index(c, tol=POLE_TOL)
    if nc is not None and (n_stop is None or nc < n_stop):
        raise PoleError(f"2F1 denominator parameter c = {c} hits a pole before termination")
    if n_stop is None and abs(t) >= 1.0:
        raise DivergenceError(f"nonterminating 2F1 at |t| = {abs(t)} >= 1")

    total = complex(1.0)
    term = complex(1.0)
    bound = 2.0
    small_run = 0
    n = 0
    while True:
        if n_stop is not None and n >= n_stop:
            if not cmath.isfinite(total):
                raise DivergenceError(f"terminating 2F1 overflows to {total}")
            return SeriesValue(total, n + 1, 0.0)
        if n >= policy.max_terms:
            raise MaxTermsError(f"2F1 did not converge within {policy.max_terms} terms")
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1)) * t
        total += term
        n += 1
        if n_stop is None:
            try:
                size = abs(term)
            except OverflowError:
                raise DivergenceError(f"2F1 terms overflow at term {n}") from None
            bound += size + size
            if not math.isfinite(bound):
                raise DivergenceError(f"2F1 terms overflow at term {n}")
            if size <= policy.rel_tol * max(abs(total), ABS_FLOOR):
                small_run += 1
                if small_run >= 3:
                    err = size / max(1.0 - abs(t), 1e-16)
                    return SeriesValue(total, n + 1, err)
            else:
                small_run = 0


def _outcome(fn, *args):
    """Every bit of a SeriesValue (signed zeros and NaNs included), or the
    type and message of what was raised."""
    try:
        sv = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return (sv.value.real.hex(), sv.value.imag.hex(), sv.terms_used,
            sv.error_estimate.hex())


_part = st.floats(-30.0, 30.0)
# integers make terminating numerators and poles in c
_param = st.one_of(st.builds(complex, _part, _part),
                   st.integers(-30, 30).map(complex))


class TestGauss2F1MatchesEveryTermTest:
    """`gauss_2f1` reads the truncation test only where a term can pass it;
    every outcome must be that of reading it at every term."""

    @given(a=_param, b=_param, c=_param,
           t=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
           rel_tol=st.sampled_from([1e-13, 2.0 ** -52, 1e-8]),
           max_terms=st.sampled_from([5, 50, 100000]))
    # a numerator 1e-9 off -5 makes term 6 dip below the test mid-sum, and a
    # denominator 1e-3 off -6 lifts term 7 far above it: the run must reset
    # although term 7 is never tested
    @example(a=-5 + 1e-9, b=2.5, c=-6 + 1e-3, t=0.1, rel_tol=1e-13,
             max_terms=100000)
    @example(a=0.3 + 0.2j, b=-1.7, c=2.5, t=0.0, rel_tol=1e-13,
             max_terms=100000)
    # the first partial sum is exactly 0, so the test compares with ABS_FLOOR
    @example(a=2.0, b=1.0, c=1.0, t=-0.5, rel_tol=1e-13,
             max_terms=100000)
    # the first term is inf, every later one nan
    @example(a=1e200, b=1e200, c=1.0, t=0.5, rel_tol=1e-13,
             max_terms=50)
    # finite parts whose modulus overflows: abs raises OverflowError
    @example(a=1.3e154 + 1.3e154j, b=1.3e154, c=1.0, t=0.95, rel_tol=1e-13,
             max_terms=50)
    # both again at the default cap, where the first must not form every term
    @example(a=1e200, b=1e200, c=1.0, t=0.5, rel_tol=1e-13,
             max_terms=100000)
    @example(a=1.3e154 + 1.3e154j, b=1.3e154, c=1.0, t=0.95, rel_tol=1e-13,
             max_terms=100000)
    # a terminating sum whose terms overflow
    @example(a=-20.0, b=1e200, c=1.0, t=0.5, rel_tol=1e-13,
             max_terms=100000)
    # terminating at n_stop == max_terms returns; one past it raises
    @example(a=-5.0, b=0.7 + 0.1j, c=1.3, t=0.6, rel_tol=1e-13,
             max_terms=5)
    @example(a=-6.0, b=0.7 + 0.1j, c=1.3, t=0.6, rel_tol=1e-13,
             max_terms=5)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, a, b, c, t, rel_tol, max_terms):
        policy = TruncationPolicy(rel_tol, max_terms)
        args = (a, b, c, t, policy)
        assert _outcome(gauss_2f1, *args) == _outcome(_reference_2f1, *args)

    def test_examples_reach_their_branches(self):
        assert gauss_2f1(-5 + 1e-9, 2.5, -6 + 1e-3, 0.1).terms_used == 11
        policy = TruncationPolicy(1e-13, 5)
        assert gauss_2f1(-5.0, 0.7 + 0.1j, 1.3, 0.6, policy).terms_used == 6
        with pytest.raises(MaxTermsError):
            gauss_2f1(-6.0, 0.7 + 0.1j, 1.3, 0.6, policy)
        assert gauss_2f1(0.3 + 0.2j, -1.7, 2.5, 0.0).terms_used == 4

    @pytest.mark.parametrize("a,b,c,t,message", [
        # the first term is inf
        (1e200, 1e200, 1.0, 0.5, "overflow at term 1$"),
        # the first term's modulus overflows in abs
        (1.3e154 + 1.3e154j, 1.3e154, 1.0, 0.95, "overflow at term 1$"),
        (-20.0, 1e200, 1.0, 0.5, "^terminating 2F1 overflows"),
    ])
    def test_overflow_raises_divergence_where_it_happens(self, a, b, c, t, message):
        with pytest.raises(DivergenceError, match=message):
            gauss_2f1(a, b, c, t)


class TestPfqTerminating:
    def test_reduces_to_2f1(self):
        v = pfq_terminating([-3.0, 1.2], [0.7], 0.45, 3)
        sv = gauss_2f1(-3.0, 1.2, 0.7, 0.45)
        assert abs(v - sv.value) < 1e-13

    def test_3f2_against_mpmath(self):
        v = pfq_terminating([-4.0, 0.5, 1.1], [0.9, 2.2], 0.8, 4)
        ref = mp.hyper([-4, '0.5', '1.1'], ['0.9', '2.2'], '0.8')
        _mp_close(v, ref)


class TestKahanSum:
    def test_compensation_beats_naive(self):
        ks = KahanSum()
        naive = 0.0
        for _ in range(10**4):
            ks.add(0.1)
            naive += 0.1
        assert abs(ks.value().real - 1000.0) < 1e-12
        assert abs(naive - 1000.0) > 1e-11
