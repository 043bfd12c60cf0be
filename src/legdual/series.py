"""Truncated power series as lazy coefficient streams.

A stream is an iterator over the Maclaurin coefficients of z^0, z^1, ... of
one function; each coefficient is computed once, when it is first asked for.
Every generating-coefficient family of `coeffs` and `polys` is one
expression in four primitives:

- `binomial(tau, w, step)`: (1 - w z^step)^(-tau), by its two-term
  recurrence;
- `mul(a, b)`: the Cauchy product, compensated;
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

__all__ = ["binomial", "mul", "solve", "affine", "power", "two_factor", "nth"]


def nth(stream: Iterator[complex], n: int) -> complex:
    """Element n of a coefficient stream."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return next(itertools.islice(stream, n, None))


def binomial(tau: complex, w: complex, step: int = 1) -> Iterator[complex]:
    """(1 - w z^step)^(-tau): (tau)_k w^k / k! at z^(k step), zero between."""
    tau, w = complex(tau), complex(w)
    c = complex(1.0)
    for k in itertools.count():
        yield c
        for _ in range(step - 1):
            yield 0j
        c *= (tau + k) * w / (k + 1)


def mul(a: Iterable[complex], b: Iterable[complex]) -> Iterator[complex]:
    """Cauchy product of two streams, each sum Kahan-compensated."""
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
    b = t1 w1 (1 - w2 z) + t2 w2 (1 - w1 z)."""
    t1, w1, t2, w2 = complex(t1), complex(w1), complex(t2), complex(w2)
    return solve([1.0, -(w1 + w2), w1 * w2],
                 [t1 * w1 + t2 * w2, -(t1 + t2) * w1 * w2], 1.0)
