"""The O(1)-per-term forms of the finite sums' coefficients, `pochhammer`'s
plain loop, the strided product's columns and the cached integer-degree P,
each checked bit for bit against a frozen copy of the form it replaced:
every value by `float.hex`, every error by type and message, at draws that
reach past the doubles (|mu| up to 1e308, k and l up to the gate's 160)."""

import cmath
import decimal
import itertools
import math
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from legdual import legendre, series
from legdual.errors import DivergenceError, DomainError, MaxTermsError
from legdual.hypergeom import POLE_TOL, SeriesValue, nearest_int, pochhammer
from legdual.polys import gegenbauer, gegenbauer_seq
from legdual.registry import _fact, get_descriptor

# ---- frozen copies of the replaced forms ------------------------------------


def old_pochhammer(a, n):
    if n < 0:
        raise ValueError("pochhammer index must be nonnegative")
    a = complex(a)
    if not cmath.isfinite(a):
        raise DomainError(f"pochhammer needs a finite argument, got a = {a}")
    value = math.prod((a + l for l in range(n)), start=complex(1.0))
    if not cmath.isfinite(value):
        raise DivergenceError(f"pochhammer({a}, {n}) overflows the range of doubles")
    return value


def old_mul(a, b, k=1):
    xs, ys = [], []
    b_more = iter(b)
    for n, x in enumerate(a):
        xs.append(x)
        if n % k == 0:
            ys.append(next(b_more))
        total = carry = 0j
        for u, v in zip(xs[n % k::k], reversed(ys)):
            d = u * v - carry
            t = total + d
            carry = (t - total) - d
            total = t
        yield total


def old_poch_signed(a, n):
    if n >= 0:
        return old_pochhammer(a, n)
    return 1.0 / old_pochhammer(complex(a) + n, -n)


def old_x2arg(x):
    return (1.0 + x * x) / (2.0 * x)


def old_cor2_terms(p, x, at_recip):
    k, mu = p["k"], p["mu"]
    y = 1.0 / x if at_recip else x
    base = (1.0 / (x * x) - 1.0) if at_recip else (x * x - 1.0)
    for r in range(k + 1):
        yield (
            old_pochhammer(-2.0 * k - mu, k - r) * old_pochhammer(mu + 0.5, k - r) / _fact(k - r)
            * _fact(2 * r) * gegenbauer(2 * r, mu + k - r + 0.5, y)
            / (2.0 ** (2 * r) * _fact(r) * base ** r)
        )


def old_lam1(k, m, mu):
    return (
        (-1.0) ** (k + m) * 2.0 ** (2 * m)
        * old_pochhammer(2 * k + 2.0 * mu, k - 2 * m) * old_pochhammer(mu + 0.5, k - m)
        / (old_pochhammer(0.5 + mu + k, k - 2 * m) * old_pochhammer(2.0 * mu + k + 1.0, k - m))
    )


def old_lam2(l, n, mu):
    return (
        (-1.0) ** (n + l) * old_pochhammer(-4 * l - 2.0 * mu, n)
        * old_poch_signed(mu + l + 0.5, n - l)
        * old_pochhammer(2.0 * mu + 2 * l + 1.0, l)
        / (2.0 ** (2 * l) * old_pochhammer(0.5 - 2 * l - mu, n)
           * old_pochhammer(2.0 * mu + 2 * l + 1.0, n))
    )


def old_cor11a_terms(p, x):
    k, mu = p["k"], p["mu"]
    low = list(itertools.islice(gegenbauer_seq(0.5 - k - mu, x), k + 1))
    high = gegenbauer_seq(k + mu + 0.5, old_x2arg(x))
    for m, c in zip(range(k // 2 + 1), high):
        yield old_lam1(k, m, mu) * x ** m * low[k - 2 * m] * c


def old_cor11b_terms(p, x):
    l, mu = p["l"], p["mu"]
    top = 2 * l
    diag = list(itertools.islice(gegenbauer_seq(0.5 + 2 * l + mu, x), top + 1))
    coeffs = (old_lam2(l, n, mu) for n in itertools.count())
    for n, c in zip(range(top + 1), coeffs):
        yield c * diag[n] * diag[top - n]


def old_degree_recurrence(k, m, x):
    wide = isinstance(x, decimal.Decimal)
    n = abs(m)
    s = 1 - x * x if x < 1 else x * x - 1
    s = s.sqrt() if wide else math.sqrt(s)
    try:
        power = (-s if x < 1 else s) ** n
    except OverflowError:
        return None
    pnn = math.prod(range(1, 2 * n, 2), start=power)
    coefs = (((2 * d + 1) * x, d + n, d - n + 1) for d in range(n + 1, k))
    value = series.nth(series.recurrence(coefs, pnn, (2 * n + 1) * x * pnn), k - n)
    ratio = 1.0
    if m > 0:
        ratio = (1 / math.prod(map(decimal.Decimal, range(k - m + 1, k + m + 1))) if wide
                 else math.factorial(k - m) / math.factorial(k + m))
        value *= -ratio if x < 1 and m % 2 else ratio
    tiny = sys.float_info.min
    normal = tiny <= abs(value) < math.inf and tiny <= abs(power) and tiny <= ratio
    return value if wide or normal else None


def old_P_int(nu, mu, x, max_terms):
    k, m = nearest_int(nu, POLE_TOL), nearest_int(mu, POLE_TOL)
    if k is None or m is None or m > (k := max(k, -k - 1)):
        return None
    if k + 1 > max_terms:
        raise MaxTermsError(f"degree {k:.6g} needs more than {max_terms} terms")
    value = old_degree_recurrence(k, m, x) if -m <= k else 0.0
    if value is None:
        with decimal.localcontext(legendre._WIDE):
            value = float(old_degree_recurrence(k, m, decimal.Decimal(x)))
        if math.isinf(value):
            raise DivergenceError(f"P of degree {k} and order {-m} at x = {x} "
                                  "is above the range of doubles")
    return SeriesValue(complex(value), k + 1, 0.0)


# ---- comparison -------------------------------------------------------------


def _bits(v):
    """A value as its type and the hex of both parts."""
    return type(v).__name__, complex(v).real.hex(), complex(v).imag.hex()


def _sv_bits(sv):
    return _bits(sv.value), sv.terms_used, sv.error_estimate.hex()


def _outcome(fn, *args, key=_bits):
    """key of fn's value, or the type and message of the error it raises."""
    try:
        return key(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _stream(stream, count):
    """The first `count` values' bits, ended by the error that stops them."""
    out = []
    try:
        for v in itertools.islice(stream, count):
            out.append(_bits(v))
    except Exception as exc:
        out.append((type(exc), str(exc)))
    return out


small = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
huge = st.complex_numbers(max_magnitude=1e308, allow_nan=False, allow_infinity=False)
orders = small | huge | st.floats(-1e308, 1e308)
counts = st.integers(0, 12) | st.integers(0, 160)


class TestPochhammer:
    @given(st.complex_numbers() | huge | small, st.integers(0, 12) | st.integers(0, 400))
    @example(complex(float("inf"), 0.0), 0)
    @example(-1e308, 3)
    @example(0.5, 2000)
    @settings(max_examples=300, deadline=None)
    def test_loop_is_the_product(self, a, n):
        assert _outcome(pochhammer, a, n) == _outcome(old_pochhammer, a, n)


class TestMulColumns:
    @given(st.lists(small | huge, max_size=40), st.lists(small | huge, max_size=40),
           st.sampled_from([1, 2, 3]))
    @settings(max_examples=200, deadline=None)
    def test_columns_are_the_slices(self, a, b, k):
        assert _stream(series.mul(a, b, k), 40) == _stream(old_mul(a, b, k), 40)


class TestFiniteSumCoefficients:
    @given(counts, orders, st.floats(0.01, 0.99), st.booleans())
    @example(3, 1e308, 0.5, True)
    @example(160, 0.3 + 0.2j, 0.5, True)
    @settings(max_examples=120, deadline=None)
    def test_cor2(self, k, mu, x, at_recip):
        p = {"k": k, "mu": mu}
        new = get_descriptor("cor2.a" if at_recip else "cor2.b").terms(p, x)
        assert _stream(new, k + 1) == _stream(old_cor2_terms(p, x, at_recip), k + 1)

    @given(counts, orders, st.floats(0.01, 0.99))
    @example(160, 0.3 + 0.4j, 0.5)
    @example(8, 1e308, 0.5)
    @settings(max_examples=120, deadline=None)
    def test_cor11a(self, k, mu, x):
        p = {"k": k, "mu": mu}
        new = get_descriptor("cor11.a").terms(p, x)
        assert _stream(new, k // 2 + 1) == _stream(old_cor11a_terms(p, x), k // 2 + 1)

    @given(counts, orders, st.floats(0.01, 0.99))
    @example(160, 0.3 + 0.4j, 0.5)
    @example(8, 0.3 + 0.4j, 0.35)
    @example(2, -1e308, 0.5)
    @settings(max_examples=120, deadline=None)
    def test_cor11b(self, l, mu, x):
        p = {"l": l, "mu": mu}
        new = get_descriptor("cor11.b").terms(p, x)
        assert _stream(new, 2 * l + 1) == _stream(old_cor11b_terms(p, x), 2 * l + 1)


class TestIntegerDegreeP:
    @given(counts, st.data(), st.booleans(), st.booleans(),
           st.floats(-0.999, 0.999) | st.floats(1.001, 1e6) | st.sampled_from([1e200, 1e300]))
    @settings(max_examples=150, deadline=None)
    def test_cached_route_is_the_dispatch(self, k, data, reflect, as_float, x):
        m = data.draw(st.integers(-k - 3, k))
        nu = -k - 1 if reflect else k
        if as_float:
            nu, m = float(nu), float(m)
        policy = legendre._LAST_BIT
        old = _outcome(old_P_int, nu, m, x, policy.max_terms, key=_sv_bits)
        # `_P` answers the value alone, or raises the same error
        old_value = old[0] if isinstance(old[0], tuple) else old
        for _ in range(2):  # formed, then from the cache
            assert _outcome(legendre._P_int, nu, m, x, policy, key=_sv_bits) == old
            assert _outcome(legendre._P, nu, m, x) == old_value
