"""Truncated power series as lazy coefficient streams.

A stream is an iterator over the Maclaurin coefficients of z^0, z^1, ... of
one function; each coefficient is computed once, when it is first asked for.
The generating-coefficient families of `coeffs` and `polys` are expressions
in these primitives (and, for the half-root powers, `coeffs`'s own
term-ratio stream of a Gauss function):

- `binomial(tau, w)`: (1 - w z)^(-tau), by its two-term recurrence;
- `mul(a, b, k)`: the strided Cauchy product a(z) b(z^k), compensated.  A
  factor f(z^2) that is even in z is built in u = z^2, at half the length,
  and enters with k = 2;
- `solve(a, b, g0)`: the g with a g' = b g and g(0) = g0, for a(0) != 0,
  at O(deg) per coefficient when a and b are polynomials;
- `binomial_product(pairs)`: prod_j (1 - w_j z)^(-tau_j) by one `solve` of
  degree k, guarded where a polynomial factor dominates;
- `nth(stream, n)`: element n of a stream;
- `recurrence(coefs, y0, y1)`: a three-term recurrence's solution, forward
  or by Olver's elimination, behind every P recurrence in `legendre` and
  the Gegenbauer diagonals in `polys`.

So the first N coefficients of a family cost O(N^2), or O(kN) for a
product of k binomials, and the only pole to guard is a(0) = 0.
"""

import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator

from .hypergeom import terminating_index

__all__ = ["binomial", "mul", "solve", "binomial_product", "nth", "recurrence"]

_EPS = 2.0**-52
# the elimination yields its values in blocks, the first of _BLOCK, and
# sweeps no deeper than _MAX_DEPTH
_BLOCK = 16
_MAX_DEPTH = 4096


def nth(stream: Iterator[complex], n: int) -> complex:
    """Element n of a coefficient stream."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return next(itertools.islice(stream, n, None))


def binomial(tau: complex, w: complex) -> Iterator[complex]:
    """(1 - w z)^(-tau): (tau)_k w^k / k!."""
    tau, w = complex(tau), complex(w)
    return itertools.accumulate(((tau + k) * w / (k + 1) for k in itertools.count()),
                                operator.mul, initial=complex(1.0))


def mul(a: Iterable[complex], b: Iterable[complex], k: int = 1) -> Iterator[complex]:
    """a(z) b(z^k): the coefficient of z^n is the sum of a_i b_j over
    i + k j = n, in ascending i, Kahan-compensated, the a_i from the column
    of i = n mod k.  The zeros between the powers of z^k are never formed,
    and b is read only to index n // k; k = 1 is the plain Cauchy product."""
    columns, ys = [[] for _ in range(k)], []
    b_more = iter(b)
    for n, x in enumerate(a):
        column = columns[n % k]
        column.append(x)
        if n % k == 0:
            ys.append(next(b_more))
        total = carry = 0j
        for u, v in zip(column, reversed(ys)):
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


def binomial_product(pairs: Iterable[tuple[complex, complex]]) -> Iterator[complex]:
    """prod_j (1 - w_j z)^(-tau_j) over the pairs (tau_j, w_j), less unit ones.

    A mirrored pair (tau, +/-w) is the binomial (1 - w^2 u)^(-tau) in u = z^2,
    joined by the strided product: in the recurrence its nodes would feed a
    transient that the dominant solution amplifies (2.0e-12, not 5.5e-14, on
    script_G_hat's catalog reads).  The other k factors are one solve, O(k)
    per coefficient: a = prod_j (1 - w_j z), b = sum_j tau_j w_j a/(1 - w_j z).

    A tau_p within 1e-3 of an integer -M <= 0 makes a polynomial factor, or
    nearly.  Where its node lies outside the others', the coefficients are
    (nearly) a minimal solution, and the recurrence loses digits like
    |w_p / w_j|^n, or eps / |tau_p + M| (1.5e-7 at 1e-9 off -3, n < 160).
    Pointing away from or across the outermost of them, Re(w_p conj(w_j))
    <= 0, the binomials' Cauchy product cancels little and is used.
    Pointing the same way it cancels by up to ((|w_j| + |w_p|)/|w_j - w_p|)^M,
    and the recurrence's loss is damped by n^-(M+1): round-off for the
    n <= 2M of the finite sums, not far past (at eta = 0.694, (3, -eta),
    (-3, -1/eta) errs by 1.1e-13 to n = 24 and 2.6e-8 to n = 48)."""
    rest, halves = [], []
    for t, w in pairs:
        t, w = complex(t), complex(w)
        if (t, -w) in rest:  # the mirror of an earlier factor
            halves.append(rest.pop(rest.index((t, -w))))
        elif t != 0 and w != 0:
            rest.append((t, w))
    near = [terminating_index(t, tol=1e-3) is not None for t, _ in rest]
    if any(near):
        free = [w for (_, w), n in zip(rest, near) if not n]
        reach = max(map(abs, free), default=0.0)
        near = [n and abs(w) > reach and all((w * v.conjugate()).real <= 0
                                             for v in free if abs(v) == reach)
                for (_, w), n in zip(rest, near)]
    if len(rest) > 1 and any(near):
        product = functools.reduce(mul, (binomial(t, w) for t, w in rest))
    else:
        # a_s, b_(s-1): signed sums over the s-subsets S of prod_S w and of
        # (sum_S tau) prod_S w, so exponents that cancel give exact zeros
        a, b = [1.0 + 0j], [0j]
        for t, w in rest:
            a, b = a + [0j], b + [0j]
            for s in range(len(a) - 1, 0, -1):
                b[s] -= w * (b[s - 1] - t * a[s - 1])
                a[s] -= w * a[s - 1]
        product = solve(a, b[1:], 1.0)
    for t, w in halves:
        product = mul(product, binomial(t, w * w), 2)
    return product


def recurrence(coefs: Iterable, y0, y1=None, *, decay: float = 1.0,
               direct: "Callable | None" = None) -> Iterator:
    """y_0, y_1, ... of c_k y_{k+1} = a_k y_k - b_k y_{k-1}, k >= 1, with
    (a_k, b_k, c_k) the k-th triple of `coefs`, each read once, in order.

    Given y1, the solution through y0 and y1, forward (stable where it is
    dominant), each step (a_k y_k - b_k y_{k-1}) / c_k in the number type of
    the values; where a triple is None, y_{k+1} = direct(k + 1) instead.

    Without y1, the minimal solution through y0 by Olver's forward
    elimination (J. Res. NBS 71B, 1967) of y_{k-1} = a_k y_k - c_k y_{k+1}:
    the recurrence divided through by b_k, so every b_k must be 1 and is
    not read.  One sweep keeps sigma_i = p_i/p_{i+1} of the solution with
    p_0 = 0, p_1 = 1, and t_i = e_i/(p_i p_{i+1}), e_i = y_0/(c_1 ... c_i);
    then y_k = p_k z_k, z_k = sum_{i>=k} t_i, where t decays like decay^i
    (decay < 1: the ratio of minimal to dominant solution).  The values
    below `need` are yielded once the tail bound |t_N|/(1 - decay) at the
    sweep's depth N is at most eps |z_k| at each; its shortfall sets how
    much deeper the sweep goes, and `need` doubles each time the consumer
    passes it.  Where the sweep cannot go on (y_0 = 0, decay >= 1, a zero
    pivot, a depth past _MAX_DEPTH) every later value is direct(k)."""
    yield y0
    if y1 is not None:
        yield y1
        for k, abc in enumerate(coefs, 2):
            if abc is None:
                y0, y1 = y1, direct(k)
            else:
                a, b, c = abc
                y0, y1 = y1, (a * y1 - b * y0) / c
            yield y1
    coefs, f, k = iter(coefs), y0, 1
    if f != 0 and decay < 1.0:
        # sig[i] = sigma_i and t[i] = t_i up to scale: t_i = sigma_{i-1}
        # t_{i-1}/w_{i-1} restarts as 1/w_{i-1} at i = 1, before it underflows
        # and where c_{i-1} = 0 (a terminating solution) makes sigma_{i-1} = 0.
        # There z_{i-1} = t_{i-1} + links[i] z_i, links[i] = sigma_{i-1}
        # t_{i-1} (0: the values below i are finite sums); elsewhere it is 1.
        sig, t, links, sg, tj = [0j], [0j], {}, 0j, 0j
        tol = (1.0 - decay) * _EPS
        need = depth = _BLOCK
        while True:
            for j in range(len(t) - 1, min(depth, _MAX_DEPTH)):
                a, _, c = abc = next(coefs)
                w = a - sg
                if w == 0:
                    coefs = itertools.chain([abc], coefs)  # the next sweep stops here too
                    break
                u = sg * tj
                if abs(u) < 1e-150:
                    links[j + 1], u = u, 1.0
                sg = c / w
                tj = u / w
                sig.append(sg)
                t.append(tj)
            n = len(t) - 1
            if n < need:
                break
            # z_n, z_{n-1}, ..., z_k: running sums of t from n backwards,
            # carried across each restart by its link, and beside each the
            # last term t_n at the scale of its index
            zs, tails, carry, tail, hi = [], [], 0j, t[n], n + 1
            for lo in sorted((i for i in links if k < i <= n), reverse=True) + [k]:
                zs.extend(itertools.islice(
                    itertools.accumulate(reversed(t[lo:hi]), initial=carry), 1, None))
                tails += [tail] * (hi - lo)
                link = links.get(lo, 0j)
                carry, tail, hi = link * zs[-1], link * tail, lo
            block = zs[:n - need:-1]
            short = max(abs(tl) / abs(z) if z else math.inf
                        for z, tl in zip(block, tails[:n - need:-1])) / tol
            if short > 1.0:
                if short == math.inf or n < depth:
                    break
                depth = n + math.ceil(math.log(short) / -math.log(decay))
                if depth > _MAX_DEPTH:
                    break
                continue
            # y_i = y_{i-1} z_i/(sigma_{i-1} z_{i-1}), the ratio formed first:
            # y_{i-1} z_i alone can leave the range of doubles
            for i, z in zip(range(k, need), block):
                d = 1.0 + sig[i - 1] * z if i in links else sig[i - 1] * (t[i - 1] + z)
                f = f * (z / d)
                yield f
            # the next block starts as far past its end as this one needed
            k = need
            need *= 2
            depth = n + k
    for k in itertools.count(k):
        yield direct(k)
