"""Truncated power series as lazy coefficient streams.

A stream is an iterator over the Maclaurin coefficients of z^0, z^1, ... of
one function; each coefficient is computed once, when it is first asked for.
The generating-coefficient families of `coeffs` and `polys` are expressions
in four primitives (and, for the half-root powers, `coeffs`'s own
term-ratio stream of a Gauss function):

- `binomial(tau, w)`: (1 - w z)^(-tau), by its two-term recurrence;
- `mul(a, b, k)`: the strided Cauchy product a(z) b(z^k), compensated.  A
  factor that is even in z, say f(z^2), is built as the stream of f in
  u = z^2, at half the length and with none of the structural zeros, and
  enters the product with k = 2;
- `solve(a, b, g0)`: the g with a g' = b g and g(0) = g0, for a(0) != 0;
  each coefficient costs O(deg) when a and b are polynomials.  `power`
  (a = f, b = alpha f') is J.C.P. Miller's recurrence for f^alpha (Knuth,
  TAOCP vol. 2, 4.7), and `two_factor` (a = (1 - w1 z)(1 - w2 z)) is the
  contiguous three-term recurrence of a product of two binomial factors;
- `affine(c, d, f)`: c + d f.

So the first N coefficients of a family cost O(N^2), or O(N) for the
two-factor products, and no parameter value is a special case: there are
no poles to guard other than a(0) = 0.
"""

from __future__ import annotations

import cmath
import itertools
from collections.abc import Iterable, Iterator

from .hypergeom import terminating_index

__all__ = ["binomial", "mul", "solve", "affine", "power", "two_factor", "nth"]


def nth(stream: Iterator[complex], n: int) -> complex:
    """Element n of a coefficient stream."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return next(itertools.islice(stream, n, None))


def binomial(tau: complex, w: complex) -> Iterator[complex]:
    """(1 - w z)^(-tau): (tau)_k w^k / k!."""
    tau, w = complex(tau), complex(w)
    c = complex(1.0)
    for k in itertools.count():
        yield c
        c *= (tau + k) * w / (k + 1)


def mul(a: Iterable[complex], b: Iterable[complex], k: int = 1) -> Iterator[complex]:
    """a(z) b(z^k): the coefficient of z^n is the sum of a_i b_j over
    i + k j = n, in ascending i, Kahan-compensated.  The zeros between the
    powers of z^k are never formed, and b is read only to index n // k;
    k = 1 is the plain Cauchy product."""
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


def solve(a: Iterable[complex], b: Iterable[complex], g0: complex) -> Iterator[complex]:
    """Coefficients of the g with a g' = b g, g(0) = g0, where a(0) != 0.

    Matching z^n gives (n+1) a_0 g_{n+1} = sum over i <= n of
    (b_i - (n-i) a_{i+1}) g_{n-i}.  a and b are both streams, or both
    polynomials given as lists, in which case i stops at their degree."""
    if isinstance(a, list) and isinstance(b, list):
        width = max(len(b), len(a) - 1)
        av = [complex(v) for v in a] + [0j] * (width + 1 - len(a))
        bv = [complex(v) for v in b] + [0j] * (width - len(b))
    else:
        width = None
        a_more, b_more = iter(a), iter(b)
        av, bv = [complex(next(a_more))], []
    a0 = av[0]
    if a0 == 0:
        raise ValueError("solve needs a(0) != 0")
    g = [complex(g0)]
    yield g[0]
    for n in itertools.count():
        if width is None:
            av.append(next(a_more))
            bv.append(next(b_more))
            top = n
        else:
            top = min(n, width - 1)
        acc = 0j
        for i in range(top + 1):
            acc += (bv[i] - (n - i) * av[i + 1]) * g[n - i]
        g.append(acc / ((n + 1) * a0))
        yield g[-1]


def affine(c: complex, d: complex, f: Iterable[complex]) -> Iterator[complex]:
    """c + d f."""
    it = iter(f)
    yield complex(c) + complex(d) * next(it)
    for v in it:
        yield complex(d) * v


def power(f: Iterable[complex], alpha: complex) -> Iterator[complex]:
    """f^alpha, principal branch at f(0) != 0, by Miller's recurrence:
    solve(f, alpha f', f(0)^alpha)."""
    alpha = complex(alpha)
    a, rest = itertools.tee(f)
    f0 = complex(next(rest))
    deriv = (alpha * k * v for k, v in enumerate(rest, 1))
    return solve(a, deriv, cmath.exp(alpha * cmath.log(f0)))


def two_factor(t1: complex, w1: complex, t2: complex, w2: complex) -> Iterator[complex]:
    """(1 - w1 z)^(-t1) (1 - w2 z)^(-t2) by one solve: a = (1 - w1 z)(1 - w2 z),
    b = t1 w1 (1 - w2 z) + t2 w2 (1 - w1 z).

    Where an exponent t_p is a nonpositive integer, its factor is a
    polynomial; if also |w_p| > |w_o| (o the other factor), the coefficients
    are the minimal solution of that recurrence, and a forward run loses
    digits like |w_p / w_o|^n.  Where the nodes also point apart,
    Re(w_p conj(w_o)) < 0, the Cauchy product of the two binomials cancels
    little (not at all for real nodes and real t_o > 0), so it is used
    there.  Where they point the same way the product cancels too, by up to
    ((|w_o| + |w_p|) / |w_o - w_p|)^M for degree M, and the recurrence is
    kept: its loss is damped by n^-(M+1), which holds it at round-off for
    the n <= 2M the finite sums use."""
    t1, w1, t2, w2 = complex(t1), complex(w1), complex(t2), complex(w2)
    for tp, wp, wo in ((t1, w1, w2), (t2, w2, w1)):
        if (terminating_index(tp) is not None and abs(wp) > abs(wo)
                and (wp * wo.conjugate()).real < 0):
            return mul(binomial(t1, w1), binomial(t2, w2))
    return solve([1.0, -(w1 + w2), w1 * w2],
                 [t1 * w1 + t2 * w2, -(t1 + t2) * w1 * w2], 1.0)
