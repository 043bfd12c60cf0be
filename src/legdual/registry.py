"""Catalog of argument-inversion identities.

Each entry is one `IdentityDescriptor` record holding all the catalog knows
of an identity: its kind, both sides, termination index, sampler, x grid,
domain gates and tail law.  It pairs a closed-form left-hand side with a
right-hand-side term stream: `terms(p, x)` is created once per identity
point and yields the terms n = 0, 1, ... in order.  A stream holds the
point's coefficient sequences (the generating-coefficient families of
`coeffs` and `polys`), so every coefficient is built once per point.  Terms
past an entry's termination index are never requested.

The inverse series of thm4-thm9 share one form (`_product`): the n-th term
is c r^n times the n-th value of each of a few factor streams.  The constant
c holds the power factors with complex exponents, formed once per point; the
real r folds every power base^(b n) and every sign (-1)^n.  The streams are
the coefficient sequence, (mu - nu)_n (`_rising`) or, in the half-order
series, (mu - nu)_n/Gamma((mu - nu + n + 1)/2) (`_rising_half`), the
reciprocals of a divisor such as (nu + 1/2)_n, and P at shifted order, some
also at shifted degree: a P chain of `legendre` (`_P_half_chain` for
half-step orders; thm4.fwd, thm6.p1a and thm8.r2 take the diagonal at
y = 1/x).

The finite sums write their terms out, but most factors that move with the
term still advance term to term: Pochhammer symbols as running products
(`_rising`, read backwards from a list where the index falls, and with
`pochhammer`'s errors through `_poch_reader`), gamma quotients as
one quotient times their rational ratio, and Gegenbauer
polynomials C_n^(s-n) whose degree plus parameter s is fixed along the sum
from one `gegenbauer_seq` per diagonal (again read backwards from a list
where the degree falls).  The corollaries come in twins, stated at x and at
1/x (cor5 and cor10 also at both signs of the order); each family registers
them from one table whose rows hold the id, the term generator's flags
(`at_recip`: the terms' P or C at 1/x) and the closed-form side, which
cor2, cor7 and cor10 build from the same flags.

`_sum_terms` is the one summation loop, with one stopping rule: Wynn's
epsilon algorithm in progressive form.  Each partial sum adds one ascending
antidiagonal to the epsilon table, whose top even-column entry is the sum's
current estimate.  An infinite series stops once successive estimates agree,
so the term streams (and the coefficients and P chains behind them) are
drawn only that far.  Each sum reports how it stopped.  Every P value, on
either side, is summed to the last bit (`_P`).  All identities are stated
for x in a subinterval of (0,1); reciprocal arguments are formed inside the
streams.

Most inverse series carry the factor (mu - nu)_n and terminate where
nu - mu is in N0, at the index `_poch_top` gives.  Their domain gates read
the same index: a terminating series is admitted on all of (0, 1)
(`_inv_sqrt2_window`) and whatever Re nu is.

Each infinite series also states its tail law, which `tail_order_predict`
evaluates.

Entries are stored as written, `lhs` and `terms` taking exactly (p, x);
`_get_impl` returns a copy whose `lhs` and `terms` also take a trailing
DEFAULT_POLICY.
"""

import cmath
import functools
import itertools
import math
import operator
import random
from collections import namedtuple
from collections.abc import Iterator
from enum import Enum
from types import MappingProxyType

from .coeffs import frak_N_seq, frak_p_seq, script_G_hat_seq, script_G_seq
from .errors import (ConvergenceError, DivergenceError, DomainError, LegdualError, PoleError,
                     UnknownIdentityError)
from .hypergeom import (
    DEFAULT_POLICY,
    KahanSum,
    TruncationPolicy,
    finite_exp,
    gamma,
    nearest_int,
    pochhammer,
    recip_gamma,
    terminating_index,
)
from .legendre import _P, _P_chain, _P_half_chain
from .polys import bateman_g_seq, gegenbauer, gegenbauer_seq, mittag_leffler_g_seq

__all__ = [
    "Kind",
    "IdentityDescriptor",
    "IdentityReport",
    "list_identities",
    "get_descriptor",
    "evaluate_identity",
    "sweep_identity",
    "tail_order_predict",
    "TOL_FINITE",
    "TOL_SERIES",
    "TOL_BOUNDARY",
]

INV_SQRT2 = 2.0**-0.5
SQRT_PI = math.sqrt(math.pi)

TOL_FINITE = 1e-11
TOL_SERIES = 1e-9
TOL_BOUNDARY = 1e-6

_SERIES_CAP = 160
_TINY = 1e-300
_EPS = 2.0**-52

# Wynn stop: estimates W_n, W_{n-2}, W_{n-4} agree to _WYNN_TOL relative,
# tested from _WYNN_MIN_TERMS terms on
_WYNN_TOL = 1e-14
_WYNN_MIN_TERMS = 12


class Kind(Enum):
    INFINITE_SERIES = "infinite_series"
    FINITE_SUM = "finite_sum"
    VANISHING_SUM = "vanishing_sum"


class IdentityDescriptor(namedtuple(
        "IdentityDescriptor",
        "id kind lhs terms n_top sampler x_grid x_window boundary_ok param_check tail",
        defaults=(None, (0.35, 0.6, 0.8), None, None, None, None))):
    """One catalog entry: `id` (str), `kind` (Kind), `x_grid` (tuple), and
    callables, of which `sampler`, `x_window`, `boundary_ok`, `param_check`
    and `tail` may be None.

    `lhs(p, x)` is the closed-form side and `terms(p, x)` the
    right-hand side's term stream; an infinite series' stream is
    `_product(c, r, *streams)`, c r^n times its factor streams.  The stream
    yields at least n_top(p) + 1 terms, where `n_top(p)` is the index of the
    last term the sum takes, or None where the series does not terminate.
    `sampler(rng)` draws the sweeps' parameters and `x_grid` their
    arguments.  The argument window is (0, 1) unless `x_window(p)` gives
    one.  x within 1e-12 of its positive lower end is a boundary point
    exactly where the entry's `boundary_ok(p)` holds.  `param_check(p)` raises
    DomainError outside the stated parameter condition.  An infinite series
    states its tail law `tail(p, x) -> (rate, exponent)`: the n-th term
    decays (or grows) like rate^n n^exponent."""

    __slots__ = ()

    def check_domain(self, p, x: float) -> bool:
        """Raise DomainError outside the entry's domain; otherwise say
        whether x is a boundary point (within 1e-12 of the window's positive
        lower end, where `boundary_ok(p)` holds) rather than inside it."""
        if self.param_check is not None:
            self.param_check(p)
        lo, hi = (0.0, 1.0) if self.x_window is None else self.x_window(p)
        at_lo = (lo > 0.0 and abs(x - lo) <= 1e-12
                 and self.boundary_ok is not None and self.boundary_ok(p))
        if not (at_lo or lo < x < hi):
            raise DomainError(f"{self.id}: x = {x} outside ({lo}, {hi})")
        return at_lo


class IdentityReport(namedtuple(
        "IdentityReport",
        "id params x lhs rhs abs_err rel_err terms_used passed tolerance_used "
        "error stop_reason extrap_err",
        defaults=(None, None, None))):
    """One checked point: `id` (str), `params` (dict), `x` (float), `lhs` and
    `rhs` (complex), `abs_err` and `rel_err` (float), `terms_used` (int),
    `passed` (bool), `tolerance_used` (float), and, None where not set,
    `error` (str), `stop_reason` (str: how the right-hand side stopped,
    "terminated" or "wynn") and `extrap_err` (float)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """The fields in order, `tolerance_used` as "tolerance", complex values
        as [re, im], and `error` last, only where it is set."""
        pair = lambda v: [v.real, v.imag] if isinstance(v, complex) else v
        out = {("tolerance" if k == "tolerance_used" else k):
               {n: pair(u) for n, u in v.items()} if k == "params" else pair(v)
               for k, v in self._asdict().items() if k != "error"}
        if self.error is not None:
            out["error"] = self.error
        return out


def _cpow(base: float, expo: complex) -> complex:
    """Principal power of a positive real base."""
    base = float(base)
    if base <= 0.0:
        raise DomainError(f"power base {base} must be positive")
    return finite_exp(complex(expo) * math.log(base), "the power {}^{}", base, expo)


def _rising(a: complex) -> Iterator[complex]:
    """(a)_0, (a)_1, ...: each the one before times (a + n - 1), the product
    `pochhammer` forms, so each value is bit-identical to it."""
    a = complex(a)
    return itertools.accumulate((a + n for n in itertools.count()), operator.mul,
                                initial=complex(1.0))


def _poch_reader(a: complex, top: int):
    """n -> (a)_n, n <= top, from one list of `_rising(a)`: `pochhammer(a, n)`
    bit for bit, which raises its own error where a or (a)_n is not finite."""
    values = list(itertools.islice(_rising(a), top + 1))
    finite = cmath.isfinite(a)
    return lambda n: values[n] if finite and cmath.isfinite(values[n]) else pochhammer(a, n)


def _rising_half(a: complex) -> Iterator[complex]:
    """(a)_n / Gamma((a + n + 1)/2) for n = 0, 1, ...: the even and the odd n
    are two running products, from 1/Gamma((a + 1)/2) and a/Gamma(a/2 + 1),
    each step times 2(a + n) (Gamma(w + 1) = w Gamma(w), DLMF 5.5.1)."""
    a = complex(a)
    even = itertools.accumulate((2.0 * (a + n) for n in itertools.count(0, 2)), operator.mul,
                                initial=recip_gamma(0.5 * (a + 1.0)))
    odd = itertools.accumulate((2.0 * (a + n) for n in itertools.count(1, 2)), operator.mul,
                               initial=a * recip_gamma(0.5 * a + 1.0))
    return itertools.chain.from_iterable(zip(even, odd))


def _product(c: complex, r: float, *streams: Iterator[complex]) -> Iterator[complex]:
    """c r^n times the n-th value of every stream, for n = 0, 1, ...: the
    term of an inverse series.  `c` holds the power factors with complex
    exponents, formed once; the real `r` folds every power base^(b n) and
    sign (-1)^n, raised afresh at each n so that no rounding accumulates."""
    for n, fs in enumerate(zip(*streams)):
        yield math.prod(fs, start=c * r ** n)


def _poch_top(p: dict) -> "int | None":
    """The last n with (mu - nu)_n != 0, where nu - mu is in N0; None
    otherwise."""
    return terminating_index(p["mu"] - p["nu"])


def _inv_sqrt2_window(n_top):
    """x window (2^-1/2, 1) of a series that holds on all of (0, 1) where it
    terminates."""
    return lambda p: (0.0 if n_top(p) is not None else INV_SQRT2, 1.0)


def _wynn_diagonal(prev: list, s: complex) -> list:
    """The next ascending antidiagonal of Wynn's epsilon table: eps_0 = s,
    then eps_{k+1} = prev[k-1] + 1/(eps_k - prev[k]) from the antidiagonal
    `prev` before it (prev[-1] read as 0).  It ends where two adjacent
    entries are equal and before an entry that is not finite."""
    isfinite = cmath.isfinite
    new = [s]
    if not isfinite(s):
        return new
    last, before = s, 0.0  # new[k] and prev[k-1]
    try:
        for e in prev:
            last = before + 1.0 / (last - e)
            if not isfinite(last):
                break
            new.append(last)
            before = e
    except ZeroDivisionError:  # two adjacent entries are equal
        pass
    return new


def _terms_grow(mags: list) -> bool:
    """The last 6 term magnitudes sum to more than 1.5 times the 6 before."""
    return sum(mags[-6:]) > 1.5 * sum(mags[-12:-6])


_REGISTRY: "dict[str, IdentityDescriptor]" = {}


def _default_only(policy: TruncationPolicy) -> None:
    """The catalog sums to fixed settings: refuse, not drop, any other policy."""
    if policy != DEFAULT_POLICY:
        raise ValueError(f"the catalog sums to fixed settings, not {policy}")


def _register(entry: IdentityDescriptor) -> None:
    if entry.id in _REGISTRY:
        raise ValueError(f"duplicate identity id {entry.id}")
    _REGISTRY[entry.id] = entry


def get_descriptor(identity_id: str) -> IdentityDescriptor:
    try:
        return _REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentityError(f"unknown identity id '{identity_id}'") from None


@functools.cache
def _schema(identity_id: str) -> MappingProxyType:
    """The parameters an entry takes, each name with its kind (int or
    complex), read only: the types of its sampler's draw, drawn once per id."""
    draw = _REGISTRY[identity_id].sampler(random.Random(0))
    return MappingProxyType({k: type(v) for k, v in draw.items()})


def _point(entry: IdentityDescriptor, params: dict, x: float) -> tuple:
    """(p, x, at_boundary), the one check of a catalog point: DomainError
    unless the names are exactly the entry's, each value is finite, each
    integer one (made an int) in [0, _SERIES_CAP], and the point is in
    `check_domain`.  The bound keeps a finite sum within a few hundred terms."""
    kinds, p = _schema(entry.id), dict(params)
    if p.keys() != kinds.keys():
        raise DomainError(f"{entry.id} takes {', '.join(kinds)}; got {', '.join(p) or 'none'}")
    if not all(map(cmath.isfinite, p.values())):
        raise DomainError(f"{entry.id}: parameters must be finite, got {p}")
    for name, kind in kinds.items():
        if kind is int:
            v = p[name]
            if not v == (k := int(v.real)) >= 0:
                raise DomainError(f"{entry.id}: {name} must be a nonnegative integer, got {v}")
            if k > _SERIES_CAP:
                raise DomainError(f"{entry.id}: {name} must be at most {_SERIES_CAP}, got {v}")
            p[name] = k
    x = float(x)
    return p, x, entry.check_domain(p, x)


def _get_impl(identity_id: str) -> IdentityDescriptor:
    """The entry, with `lhs` and `terms` also taking a trailing
    DEFAULT_POLICY: the form the acceptance tests call."""
    entry = get_descriptor(identity_id)
    fixed = lambda fn: lambda p, x, policy=DEFAULT_POLICY: _default_only(policy) or fn(p, x)
    return entry._replace(lhs=fixed(entry.lhs), terms=fixed(entry.terms))


class _SeriesSum(namedtuple("_SeriesSum", "value terms_used max_mag stop_reason extrap_err")):
    """`value` (complex), `terms_used` (int), `max_mag` (float),
    `stop_reason` (str) and `extrap_err` (float)."""

    __slots__ = ()


def _running_sums(entry: IdentityDescriptor, p, x: float) -> Iterator[tuple]:
    """(term, compensated partial sum) for n = 0, 1, ...: the entry's term
    stream, followed by exact zeros past its termination index."""
    stream = entry.terms(p, x)
    n_top = entry.n_top(p)
    if n_top is not None:
        stream = itertools.chain(itertools.islice(stream, n_top + 1),
                                 itertools.repeat(0j))
    acc = KahanSum()
    for t in stream:
        acc.add(t)
        yield t, acc.value()


def _sum_terms(entry: IdentityDescriptor, p, x: float,
               policy: TruncationPolicy = DEFAULT_POLICY) -> _SeriesSum:
    """Sum the right-hand side and say how the sum stopped: "terminated" at
    the termination index, or "wynn" from the epsilon table (with its error
    estimate as extrap_err).

    Each partial sum extends the table by one antidiagonal (`_wynn_diagonal`)
    and its top even-column entry is the estimate W_n.  The agreement at n is
    max(|W_n - W_{n-2}|, |W_{n-2} - W_{n-4}|).  The sum stops at the first
    n >= _WYNN_MIN_TERMS whose agreement is at most _WYNN_TOL |W_n| while the
    terms do not grow (a growing series has an antilimit that the table can
    settle on), reporting that agreement, never below one rounding unit of
    W_n.  At the term cap, growing terms raise ConvergenceError; otherwise
    the estimate with the smallest agreement is returned.  Estimates that are
    not finite neither stop the sum nor are returned."""
    _default_only(policy)
    n_top = entry.n_top(p)
    sums = _running_sums(entry, p, x)
    max_mag = 0.0
    if n_top is not None:
        value = 0j
        for t, value in itertools.islice(sums, n_top + 1):
            max_mag = max(max_mag, abs(t))
        return _SeriesSum(value, n_top + 1, max_mag, "terminated", 0.0)
    mags = []
    diag = []
    estimates = []
    best = None
    for n, (t, partial) in enumerate(sums, 1):
        m = abs(t)
        max_mag = max(max_mag, m)
        mags.append(m)
        diag = _wynn_diagonal(diag, partial)
        w = diag[(len(diag) - 1) & ~1]
        estimates.append(w)
        if n >= 5:
            agree = max(abs(w - estimates[-3]), abs(estimates[-3] - estimates[-5]))
            if math.isfinite(agree):
                err = max(agree, _EPS * abs(w))
                if (n >= _WYNN_MIN_TERMS and agree <= _WYNN_TOL * abs(w)
                        and not _terms_grow(mags)):
                    return _SeriesSum(w, n, max_mag, "wynn", err)
                if best is None or err < best[1]:
                    best = (w, err)
        if n >= _SERIES_CAP:
            break
    if _terms_grow(mags):
        raise ConvergenceError(f"{entry.id}: series terms do not decay at x = {x}")
    if best is None:
        raise ConvergenceError(f"{entry.id}: no finite Wynn estimate at x = {x}")
    return _SeriesSum(best[0], n, max_mag, "wynn", best[1])


def evaluate_identity(identity_id: str, params: dict, x: float) -> IdentityReport:
    """Both sides at one point, judged by one rule: |lhs - rhs| within the
    tolerance (TOL_FINITE for a finite or vanishing sum; for a series
    TOL_BOUNDARY at a boundary point, else TOL_SERIES) relative to
    max(|lhs|, |rhs|) or, for a finite or vanishing sum, to the largest
    term.  rel_err is on the scale the kind is judged by: the largest term
    for a vanishing sum (lhs = 0), the value otherwise.  A point `_point`
    refuses raises DomainError, and a side that is not finite DivergenceError.
    A finite sum whose largest term times 2^-52 exceeds |lhs| raises
    DomainError too: no sum of those terms in doubles holds a digit of the
    value, so the term scale would pass it vacuously."""
    entry = get_descriptor(identity_id)
    p, x, at_boundary = _point(entry, params, x)
    lhs = complex(entry.lhs(p, x))
    rhs_sum = _sum_terms(entry, p, x)
    rhs = rhs_sum.value
    if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
        raise DivergenceError(f"{identity_id}: lhs = {lhs}, rhs = {rhs} at {p}, x = {x}")
    if entry.kind is Kind.FINITE_SUM and rhs_sum.max_mag * _EPS > abs(lhs):
        raise DomainError(f"{identity_id}: the largest term, {rhs_sum.max_mag:.3g}, leaves no "
                          f"digit of |lhs| = {abs(lhs):.3g} in doubles at {p}, x = {x}")
    abs_err = abs(lhs - rhs)
    series = entry.kind is Kind.INFINITE_SERIES
    tol = TOL_FINITE if not series else TOL_BOUNDARY if at_boundary else TOL_SERIES
    value_scale = max(abs(lhs), abs(rhs), _TINY)
    # alternating sums whose terms dwarf their value cannot beat the
    # tolerance relative to the value in double precision; the max-term
    # scale measures the identity itself
    term_scale = max(rhs_sum.max_mag, _TINY)
    passed = abs_err / value_scale <= tol or (not series and abs_err <= tol * term_scale)
    rel_err = abs_err / (term_scale if entry.kind is Kind.VANISHING_SUM else value_scale)
    return IdentityReport(
        id=identity_id, params=p, x=x, lhs=lhs, rhs=rhs,
        abs_err=abs_err, rel_err=rel_err, terms_used=rhs_sum.terms_used,
        passed=passed, tolerance_used=tol,
        stop_reason=rhs_sum.stop_reason, extrap_err=rhs_sum.extrap_err,
    )


def sweep_identity(identity_id: str, param_sampler=None, x_grid=None,
                   n_samples: int = 30, seed: int = 0) -> list:
    """Evaluate an identity over sampled parameters and an x grid.

    `param_sampler` may be an explicit list of parameter dicts or a callable
    taking a random.Random; by default the identity's own sampler is used.
    Library errors and floating-point faults at a point are collected into
    failed reports; any other exception is a bug and propagates.  A count
    below 1, or an empty parameter list or x grid, raises ValueError: a
    sweep of no points checks nothing.
    """
    entry = get_descriptor(identity_id)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = random.Random(seed)
    if param_sampler is None:
        param_sampler = entry.sampler
    if callable(param_sampler):
        samples = [param_sampler(rng) for _ in range(n_samples)]
    else:
        samples = [dict(s) for s in param_sampler]
    grid = tuple(x_grid) if x_grid is not None else entry.x_grid
    if not samples or not grid:
        raise ValueError(f"{identity_id}: a sweep of no points checks nothing")
    reports = []
    for p in samples:
        for x in grid:
            try:
                reports.append(evaluate_identity(identity_id, p, x))
            except (LegdualError, ArithmeticError) as exc:
                reports.append(IdentityReport(
                    id=identity_id, params=dict(p), x=float(x),
                    lhs=0j, rhs=0j, abs_err=None, rel_err=None,
                    terms_used=0, passed=False, tolerance_used=0.0,
                    error=f"{type(exc).__name__}: {exc}",
                ))
    return reports


def tail_order_predict(identity_id: str, n: int, params: dict, x: float) -> float:
    """Predicted magnitude scale of the n-th right-hand-side term.

    Only the decay (or growth) law matters: the value is rate^n * n^p with
    no attempt at the constant.  Terminating parameter choices predict an
    exact zero past the termination index.
    """
    entry = get_descriptor(identity_id)
    if entry.tail is None:
        raise ValueError(f"{identity_id} is not an infinite series")
    if n < 1:
        raise ValueError("prediction needs n >= 1")
    top = entry.n_top(params)
    if top is not None and n > top:
        return 0.0
    rate, p = entry.tail(params, x)
    return rate ** n * float(n) ** p


def list_identities() -> list:
    return list(_REGISTRY.values())


# --------------------------------------------------------------------------
# samplers

def _draw_box(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.5, 2.5), rng.uniform(-1.0, 1.0))


def _guarded_pair(*, guards, re_nu=None):
    """Sampler for (nu, mu) in the default box, redrawing near pole sets."""

    def sample(rng: random.Random) -> dict:
        while True:
            nu = _draw_box(rng)
            if re_nu is not None:
                nu = complex(rng.uniform(*re_nu), nu.imag)
            mu = _draw_box(rng)
            p = {"nu": nu, "mu": mu}
            if all(nearest_int(g(nu, mu), 0.15) is None for g in guards):
                return p

    return sample


def _offaxis(rng: random.Random) -> complex:
    """Complex parameter bounded away from the real axis, so shifted gamma
    and Pochhammer factors in corollary coefficients cannot degenerate."""
    im = rng.uniform(0.2, 1.0) * (1.0 if rng.random() < 0.5 else -1.0)
    return complex(rng.uniform(-1.2, 1.8), im)


# --------------------------------------------------------------------------
# catalog construction


def _u(x: float) -> float:
    return (1.0 - x) / (1.0 + x)


def _script_G_at(hatted: bool, tau: complex, rho: complex, x: float) -> Iterator[complex]:
    """script_G_hat if `hatted`, else script_G, at w = sqrt(u(x))."""
    return (script_G_hat_seq if hatted else script_G_seq)(tau, rho, math.sqrt(_u(x)))


def _fact(n: int) -> float:
    if n > 170:
        return math.inf
    return float(math.factorial(n))


def _build_catalog() -> None:
    # samplers shared within a family
    mu_sampler = lambda rng: {"mu": _offaxis(rng)}
    k_mu_sampler = lambda rng: {"k": rng.randint(0, 8), "mu": _offaxis(rng)}
    k_lam_sampler = lambda rng: {"k": rng.randint(0, 8), "lam": _offaxis(rng)}
    l_mu_sampler = lambda rng: {"l": rng.randint(0, 8), "mu": _offaxis(rng)}

    def k_m_sampler(rng):
        k = rng.randint(0, 8)
        return {"k": k, "m": rng.randint(0, k)}

    # ---- direct argument-transform relations (single-term) ------------
    _register(IdentityDescriptor(
        "intro.1", Kind.FINITE_SUM,
        lhs=lambda p, x: _P(p["nu"], 2.0 * p["nu"] + 1.0, (1.0 + x) / (1.0 - x)),
        terms=lambda p, x: iter([
            math.sqrt(1.0 - x) * _P(p["nu"], 2.0 * p["nu"] + 1.0, 1.0 - 2.0 * x)
        ]),
        n_top=lambda p: 0,
        sampler=lambda rng: {"nu": _offaxis(rng)},
        x_grid=(0.15, 0.3, 0.45),
        x_window=lambda p: (0.0, 0.5),
    ))
    # degree and normalization follow from the stated substitutions; the
    # typeset displays disagree with them numerically
    _register(IdentityDescriptor(
        "intro.2", Kind.FINITE_SUM,
        lhs=lambda p, x: _P(2.0 * p["mu"] - 0.5, p["mu"], (1.0 + x) / (2.0 * math.sqrt(x))),
        terms=lambda p, x: iter([
            gamma(p["mu"] + 0.5) / SQRT_PI * x ** 0.25
            * _P(p["mu"] - 0.5, 2.0 * p["mu"], 2.0 * x - 1.0)
        ]),
        n_top=lambda p: 0,
        sampler=mu_sampler,
        x_grid=(0.55, 0.7, 0.9),
        x_window=lambda p: (0.5, 1.0),
    ))
    _register(IdentityDescriptor(
        "intro.3", Kind.FINITE_SUM,
        lhs=lambda p, x: _P(p["mu"] - 0.5, p["mu"], 1.0 / math.sqrt(1.0 - x)),
        terms=lambda p, x: iter([
            _cpow(2.0, -p["mu"]) * (1.0 - x) ** 0.25
            * _P(-0.25, p["mu"], 1.0 - 2.0 * x)
        ]),
        n_top=lambda p: 0,
        sampler=mu_sampler,
        x_grid=(0.15, 0.3, 0.45),
        x_window=lambda p: (0.0, 0.5),
    ))

    # ---- first inversion family ---------------------------------------
    def t4_ntop(p):
        return terminating_index(p["nu"] + 1.0, 0.5 * (p["mu"] + p["nu"] + 1.0))

    def t4_coeffs(p):
        """(1/2 (mu+nu+1))_n (nu+1)_n / n! for n = 0, 1, ..."""
        for n, a, b in zip(itertools.count(), _rising(0.5 * (p["mu"] + p["nu"] + 1.0)),
                           _rising(p["nu"] + 1.0)):
            yield a * b / _fact(n)

    t4_sampler = _guarded_pair(guards=[lambda nu, mu: nu, lambda nu, mu: mu])

    def t4_expo(p):
        return 0.5 * (3.0 * p["nu"].real - p["mu"].real - 1.0)

    _register(IdentityDescriptor(
        "thm4.fwd", Kind.INFINITE_SERIES,
        lhs=lambda p, x: _P(p["nu"], p["mu"], x),
        terms=lambda p, x: _product(
            1.0 / _cpow(x, p["nu"] + 1.0), -2.0 * math.sqrt(1.0 - x * x) / x,
            t4_coeffs(p), _P_chain(p["nu"], p["mu"], 1.0 / x, 1)),
        n_top=t4_ntop, sampler=t4_sampler,
        x_grid=(0.75, 0.8, 0.9),
        x_window=_inv_sqrt2_window(t4_ntop),
        boundary_ok=lambda p: (3.0 * p["nu"] - p["mu"]).real < -1.0,
        tail=lambda p, x: ((1.0 - x * x) / (x * x), t4_expo(p)),
    ))
    _register(IdentityDescriptor(
        "thm4.inv", Kind.INFINITE_SERIES,
        lhs=lambda p, x: _P(p["nu"], p["mu"], 1.0 / x) / _cpow(x, p["nu"] + 1.0),
        terms=lambda p, x: _product(
            1.0, 2.0 * math.sqrt(1.0 - x * x),
            t4_coeffs(p), _P_chain(p["nu"], p["mu"], x, 1)),
        n_top=t4_ntop, sampler=t4_sampler,
        # below x ~ 0.6 the tail outlives the accurate-term window in doubles
        x_grid=(0.6, 0.7, 0.8),
        tail=lambda p, x: (1.0 - x * x, t4_expo(p)),
    ))

    def cor2_terms(p, x, at_recip):
        k, mu = p["k"], p["mu"]
        y = 1.0 / x if at_recip else x
        base = (1.0 / (x * x) - 1.0) if at_recip else (x * x - 1.0)
        a, b = _poch_reader(-2.0 * k - mu, k), _poch_reader(mu + 0.5, k)
        for r in range(k + 1):
            yield (
                a(k - r) * b(k - r) / _fact(k - r)
                * _fact(2 * r) * gegenbauer(2 * r, mu + k - r + 0.5, y)
                / (2.0 ** (2 * r) * _fact(r) * base ** r)
            )

    def cor2_lhs(p, x, at_recip):
        k = p["k"]
        y, y2 = (x, x * x) if at_recip else (1.0 / x, 1.0 / (x * x))
        return (_fact(2 * k) * gegenbauer(2 * k, p["mu"] + 0.5, y)
                / (2.0 ** (2 * k) * _fact(k) * (1.0 - y2) ** k))

    for ident, at_recip in (("cor2.a", True), ("cor2.b", False)):
        _register(IdentityDescriptor(
            ident, Kind.FINITE_SUM, lhs=functools.partial(cor2_lhs, at_recip=at_recip),
            terms=functools.partial(cor2_terms, at_recip=at_recip),
            n_top=lambda p: p["k"],
            sampler=k_mu_sampler,
        ))

    def cor3_terms(p, x, at_recip):
        k, m = p["k"], p["m"]
        for n in range(m + 1):
            c = (_fact(m) * _fact(k) / (_fact(m - n) * _fact(k - n) * _fact(n))
                 * (-2.0 if at_recip else 2.0) ** n * (1.0 - x * x) ** (0.5 * n))
            if at_recip:
                yield c * x ** (k - n) * _P(k - n, k + n - 2 * m, 1.0 / x)
            else:
                yield c * _P(k - n, k + n - 2 * m, x)

    def cor3_check(p):
        if not p["m"] <= p["k"]:
            raise DomainError("requires m <= k")

    for ident, at_recip, lhs in (
            ("cor3.a", True, lambda p, x: _P(p["k"], p["k"] - 2 * p["m"], x)),
            ("cor3.b", False, lambda p, x:
                x ** p["k"] * _P(p["k"], p["k"] - 2 * p["m"], 1.0 / x))):
        _register(IdentityDescriptor(
            ident, Kind.FINITE_SUM, lhs=lhs,
            terms=functools.partial(cor3_terms, at_recip=at_recip),
            n_top=lambda p: p["m"],
            sampler=k_m_sampler, param_check=cor3_check,
        ))

    # ---- Mittag-Leffler family ----------------------------------------
    t5_sampler = _guarded_pair(guards=[lambda nu, mu: mu])
    t5_tail = lambda p, x: (_u(x), abs(p["nu"].real) - p["nu"].real - 2.0)
    _register(IdentityDescriptor(
        "thm5.fwd", Kind.INFINITE_SERIES,
        lhs=lambda p, x: _P(p["nu"], p["mu"], x) / _cpow(x, p["nu"]),
        terms=lambda p, x: _product(
            1.0, math.sqrt(_u(x)), _rising(p["mu"] - p["nu"]),
            mittag_leffler_g_seq(p["nu"]), _P_chain(p["nu"], p["mu"], 1.0 / x, 0)),
        n_top=_poch_top, sampler=t5_sampler, tail=t5_tail,
    ))
    _register(IdentityDescriptor(
        "thm5.inv", Kind.INFINITE_SERIES,
        lhs=lambda p, x: _P(p["nu"], p["mu"], 1.0 / x),
        terms=lambda p, x: _product(
            1.0 / _cpow(x, p["nu"]), math.sqrt(_u(x)), _rising(p["mu"] - p["nu"]),
            mittag_leffler_g_seq(-p["nu"]), _P_chain(p["nu"], p["mu"], x, 0)),
        n_top=_poch_top, sampler=t5_sampler, tail=t5_tail,
    ))

    def cor4_terms(p, x, at_recip):
        k, lam = p["k"], p["lam"]
        y = 1.0 / x if at_recip else x
        base = (1.0 - 1.0 / x) if at_recip else (x - 1.0)
        sig = k + lam - 0.5 if at_recip else 0.5 - k - lam
        g = list(itertools.islice(mittag_leffler_g_seq(sig), k + 1))
        num = list(itertools.islice(_rising(lam), k + 1))
        den = list(itertools.islice(_rising(k + 2.0 * lam), k + 1))
        for m, c in zip(range(k + 1), gegenbauer_seq(k + lam, y)):
            yield (
                g[k - m] * num[k - m] / den[k - m]
                * c / (2.0 ** m * base ** m)
            )

    for ident, at_recip, lhs in (
            ("cor4.a", True, lambda p, x:
                gegenbauer(p["k"], p["lam"], x) / (2.0 ** p["k"] * (x - 1.0) ** p["k"])),
            ("cor4.b", False, lambda p, x:
                gegenbauer(p["k"], p["lam"], 1.0 / x)
                / (2.0 ** p["k"] * (1.0 - 1.0 / x) ** p["k"]))):
        _register(IdentityDescriptor(
            ident, Kind.FINITE_SUM, lhs=lhs,
            terms=functools.partial(cor4_terms, at_recip=at_recip),
            n_top=lambda p: p["k"],
            sampler=k_lam_sampler,
        ))

    # ---- square-root generating-function family -----------------------
    t6_guards = [lambda nu, mu: nu, lambda nu, mu: mu, lambda nu, mu: nu - mu]
    t6_sampler = _guarded_pair(guards=t6_guards)
    t6_expo = lambda p: -1.5 * p["nu"].real - 2.0
    t6_tail_b = lambda p, x: (_u(x), -2.0)

    _register(IdentityDescriptor(
        "thm6.p1a", Kind.INFINITE_SERIES,
        lhs=lambda p, x: _P(p["nu"], p["mu"], x) / _cpow(1.0 + x, p["mu"]),
        # P of degree nu - mu - n is P of degree mu - nu - 1 + n
        terms=lambda p, x: _product(
            _cpow(2.0, -p["mu"]) * _cpow(x, p["nu"] - p["mu"]),
            -2.0 * math.sqrt(1.0 - x * x) / x, _rising(p["mu"] - p["nu"]),
            frak_p_seq(-0.5 * p["nu"], 2.0 * p["mu"], 1.0),
            _P_chain(p["mu"] - p["nu"] - 1.0, p["mu"], 1.0 / x, 1)),
        n_top=_poch_top,
        sampler=_guarded_pair(guards=t6_guards, re_nu=(-0.55, 2.5)),
        x_grid=(0.75, 0.8, 0.9),
        x_window=_inv_sqrt2_window(_poch_top),
        boundary_ok=lambda p: p["nu"].real > -2.0 / 3.0,
        tail=lambda p, x: ((1.0 - x * x) / (x * x), t6_expo(p)),
    ))
    _register(IdentityDescriptor(
        "thm6.p1b", Kind.INFINITE_SERIES,
        lhs=lambda p, x: (
            _P(p["nu"] - p["mu"], p["mu"], 1.0 / x)
            / (_cpow(2.0, p["mu"]) * _cpow(x, p["mu"] - p["nu"]))
        ),
        terms=lambda p, x: _product(
            1.0 / _cpow(1.0 + x, p["mu"]), -math.sqrt(_u(x)), _rising(p["mu"] - p["nu"]),
            bateman_g_seq(p["nu"], -2.0 * p["mu"]), _P_chain(p["nu"], p["mu"], x, 0)),
        n_top=_poch_top, sampler=t6_sampler, tail=t6_tail_b,
    ))
    _register(IdentityDescriptor(
        "thm6.p2a", Kind.INFINITE_SERIES,
        lhs=lambda p, x: (
            _cpow(x, p["nu"]) * _P(p["nu"], p["mu"], 1.0 / x)
            / _cpow(1.0 + x, p["mu"])
        ),
        # P of degree nu - mu - n is P of degree mu - nu - 1 + n
        terms=lambda p, x: _product(
            _cpow(2.0, -p["mu"]), 2.0 * math.sqrt(1.0 - x * x), _rising(p["mu"] - p["nu"]),
            frak_p_seq(-0.5 * p["nu"], 2.0 * p["mu"], 1.0),
            _P_chain(p["mu"] - p["nu"] - 1.0, p["mu"], x, 1)),
        n_top=_poch_top, sampler=t6_sampler,
        x_grid=(0.5, 0.65, 0.8),
        tail=lambda p, x: (1.0 - x * x, t6_expo(p)),
    ))
    _register(IdentityDescriptor(
        "thm6.p2b", Kind.INFINITE_SERIES,
        lhs=lambda p, x: (
            _P(p["nu"] - p["mu"], p["mu"], x)
            / (_cpow(2.0, p["mu"]) * _cpow(x, p["nu"]))
        ),
        terms=lambda p, x: _product(
            1.0 / _cpow(1.0 + x, p["mu"]), math.sqrt(_u(x)), _rising(p["mu"] - p["nu"]),
            bateman_g_seq(p["nu"], -2.0 * p["mu"]), _P_chain(p["nu"], p["mu"], 1.0 / x, 0)),
        n_top=_poch_top, sampler=t6_sampler, tail=t6_tail_b,
    ))

    def cor5_terms(p, x, upper, at_recip):
        k, m = p["k"], p["m"]
        tau = k + m if upper else k - m
        r = -2.0 * m if upper else 2.0 * m
        y = 1.0 / x if at_recip else x
        for n, b in zip(range(k + 1), bateman_g_seq(tau, r)):
            morder = (n + m) if upper else (n - m)
            sgn = (-1.0) ** n if at_recip else 1.0
            yield (
                sgn * b / _fact(k - n)
                * (1.0 - x) ** (0.5 * n) * _P(tau, morder, y)
                / _cpow(1.0 + x, 0.5 * n + (m if upper else -m))
            )

    # upper: cor5.a/b, at order +m; cor5.c/d are at -m
    for ident, upper, at_recip, lhs in (
            ("cor5.a", True, True, lambda p, x:
                _P(p["k"], p["m"], x)
                / (2.0 ** p["m"] * _fact(p["k"]) * x ** (p["k"] + p["m"]))),
            ("cor5.b", True, False, lambda p, x:
                _P(p["k"], p["m"], 1.0 / x) * x ** p["k"] / (2.0 ** p["m"] * _fact(p["k"]))),
            ("cor5.c", False, True, lambda p, x:
                _P(p["k"], -p["m"], x) * 2.0 ** p["m"]
                / (_fact(p["k"]) * x ** (p["k"] - p["m"]))),
            ("cor5.d", False, False, lambda p, x:
                _P(p["k"], -p["m"], 1.0 / x) * 2.0 ** p["m"] * x ** p["k"] / _fact(p["k"]))):
        _register(IdentityDescriptor(
            ident, Kind.FINITE_SUM, lhs=lhs,
            terms=functools.partial(cor5_terms, upper=upper, at_recip=at_recip),
            n_top=lambda p: p["k"],
            sampler=k_m_sampler,
        ))

    def cor6_sampler(rng):
        k = rng.randint(1, 8)
        return {"k": k, "m": rng.randint(k // 2 + 1, k)}

    def cor6_check(p):
        if not p["k"] < 2 * p["m"] <= 2 * p["k"]:
            raise DomainError("requires k/2 < m <= k")

    _register(IdentityDescriptor(
        "cor6", Kind.VANISHING_SUM,
        lhs=lambda p, x: 0j,
        terms=lambda p, x: (
            2.0 ** n * c
            / _fact(p["k"] - n) * (x - 1.0) ** n
            * abs((1.0 + x) / (1.0 - x)) ** (0.5 * n)
            * _P(p["k"] - n, n - p["m"], x)
            for n, c in enumerate(frak_p_seq(0.5 * (p["m"] - p["k"]), -2.0 * p["m"], 1.0))
        ),
        n_top=lambda p: p["k"],
        sampler=cor6_sampler, param_check=cor6_check,
    ))

    # ---- half-order family --------------------------------------------
    t7_guards = [lambda nu, mu: nu, lambda nu, mu: mu,
                 lambda nu, mu: 0.5 * (mu + nu), lambda nu, mu: 0.5 * (mu - nu + 1.0)]
    t7_sampler = _guarded_pair(guards=t7_guards)
    t7_sampler_cond = _guarded_pair(guards=t7_guards, re_nu=(-0.85, 2.5))
    t7_tail_fixed = lambda p, x: (1.0, -1.5)
    t7_tail_nu = lambda p, x: (1.0, -2.0 * p["nu"].real - 2.0)

    def q_cond_check(p):
        if not p["nu"].real > -1.0 and _poch_top(p) is None:
            raise DomainError("requires Re nu > -1 or nu - mu a nonnegative integer")

    _register(IdentityDescriptor(
        "thm7.q1", Kind.INFINITE_SERIES,
        lhs=lambda p, x: (
            _P(p["nu"], p["mu"], 1.0 / x) * _cpow(x, p["nu"])
            / (SQRT_PI * _cpow(2.0, p["nu"] - p["mu"]))
        ),
        terms=lambda p, x: _product(
            _cpow(_u(x), 0.25 * (p["mu"] - p["nu"])), 0.5 * _u(x) ** 0.25,
            _rising_half(p["mu"] - p["nu"]), script_G_seq(p["nu"], p["nu"], math.sqrt(_u(x))),
            _P_half_chain(p["nu"], 0.5 * (p["mu"] + p["nu"]), x, 0)),
        n_top=_poch_top, sampler=t7_sampler, tail=t7_tail_fixed,
    ))
    _register(IdentityDescriptor(
        "thm7.q2", Kind.INFINITE_SERIES,
        lhs=lambda p, x: (
            _cpow(_u(x), 0.25 * (p["mu"] - p["nu"]))
            * _P(p["nu"], 0.5 * (p["mu"] + p["nu"]), x)
            * recip_gamma(0.5 * (p["mu"] - p["nu"] + 1.0))
        ),
        terms=lambda p, x: _product(
            _cpow(x, p["nu"]) / (SQRT_PI * _cpow(2.0, p["nu"] - p["mu"])), 1.0,
            _rising(p["mu"] - p["nu"]), script_G_seq(-p["nu"], -p["nu"], math.sqrt(_u(x))),
            _P_chain(p["nu"], p["mu"], 1.0 / x, 0)),
        n_top=_poch_top, sampler=t7_sampler_cond, param_check=q_cond_check,
        tail=t7_tail_nu,
    ))
    _register(IdentityDescriptor(
        "thm7.q3", Kind.INFINITE_SERIES,
        lhs=lambda p, x: (
            _P(p["nu"], p["mu"], x)
            / (SQRT_PI * _cpow(2.0, p["nu"] - p["mu"]) * _cpow(x, p["nu"]))
        ),
        terms=lambda p, x: _product(
            _cpow(_u(x), 0.25 * (p["mu"] - p["nu"])), 0.5 * _u(x) ** 0.25,
            _rising_half(p["mu"] - p["nu"]), script_G_hat_seq(p["nu"], p["nu"], math.sqrt(_u(x))),
            _P_half_chain(p["nu"], 0.5 * (p["mu"] + p["nu"]), 1.0 / x, 0)),
        n_top=_poch_top, sampler=t7_sampler, tail=t7_tail_fixed,
    ))
    _register(IdentityDescriptor(
        "thm7.q4", Kind.INFINITE_SERIES,
        lhs=lambda p, x: (
            _cpow(_u(x), 0.25 * (p["mu"] - p["nu"]))
            * _P(p["nu"], 0.5 * (p["mu"] + p["nu"]), 1.0 / x)
            * recip_gamma(0.5 * (p["mu"] - p["nu"] + 1.0))
        ),
        terms=lambda p, x: _product(
            1.0 / (SQRT_PI * _cpow(2.0, p["nu"] - p["mu"]) * _cpow(x, p["nu"])), 1.0,
            _rising(p["mu"] - p["nu"]), script_G_hat_seq(-p["nu"], -p["nu"], math.sqrt(_u(x))),
            _P_chain(p["nu"], p["mu"], x, 0)),
        n_top=_poch_top, sampler=t7_sampler_cond, param_check=q_cond_check,
        tail=t7_tail_nu,
    ))

    def cor7_Y(lam, k):
        """Y(r) = Gamma(lam+k) Gamma(2lam+4k-r)
        / (Gamma(lam+2k-r) Gamma(2lam+3k)) for r = 0, 1, ...:
        Y(0) = (2lam+3k)_k / (lam+k)_k, and each step multiplies by
        (lam+2k-r-1) / (2lam+4k-r-1)."""
        return itertools.accumulate(
            ((lam + 2 * k - r - 1) / (2.0 * lam + 4 * k - r - 1) for r in itertools.count()),
            operator.mul, initial=pochhammer(2.0 * lam + 3 * k, k) / pochhammer(lam + k, k))

    def cor7_wide_check(p):
        """cor7_Y divides by zero at a pole of Gamma(lam + 2k - r), r <= 2k
        (integer lam in [1 - 2k, 0]), and at 2 lam + 4k - r - 1 = 0, r < 2k."""
        k, lam = p["k"], p["lam"]
        for j in (terminating_index(lam), terminating_index(2.0 * lam + 2 * k)):
            if j is not None and j < 2 * k:
                raise PoleError(f"cor7: a term has a pole at k = {k}, lam = {lam}")

    def cor7_narrow(p, x, hatted):
        k, lam = p["k"], p["lam"]
        gs = list(itertools.islice(_script_G_at(hatted, k + lam - 0.5, k + lam - 0.5, x), k + 1))
        num = list(itertools.islice(_rising(lam), k + 1))
        den = list(itertools.islice(_rising(2.0 * lam + k), k + 1))
        diag = gegenbauer_seq(k + lam, 1.0 / x if hatted else x)
        for r, c in zip(range(k // 2 + 1), diag):
            val = (
                num[k - r] * gs[k - 2 * r]
                / ((-2.0) ** (r - k) * den[k - r] * (1.0 - x) ** r)
            )
            if hatted:
                val *= x ** r
            yield val * c

    def cor7_wide(p, x, hatted):
        k, lam = p["k"], p["lam"]
        gs = list(itertools.islice(_script_G_at(hatted, 0.5 - 2 * k - lam, 0.5 - 2 * k - lam, x),
                                   2 * k + 1))
        diag = gegenbauer_seq(2 * k + lam, x if hatted else 1.0 / x)
        for r, y, c in zip(range(2 * k + 1), cor7_Y(lam, k), diag):
            val = gs[2 * k - r] / ((-2.0) ** (r - k) * y
                                   * (1.0 - x * x) ** (0.5 * r))
            if hatted:
                yield val * c
            else:
                yield val * x ** r * c

    def cor7_lhs(p, x, wide, hatted):
        # cor7.a and cor7.d take C at 1/x, times x^k
        k, at_recip = p["k"], wide == hatted
        c = gegenbauer(k, k + p["lam"] if wide else p["lam"], 1.0 / x if at_recip else x)
        if at_recip:
            c *= x ** k
        return c / ((1.0 - x) ** k if wide else (1.0 - x * x) ** (0.5 * k))

    # wide: the 2k + 1 terms of cor7.b/d, or the k // 2 + 1 of cor7.a/c
    for ident, wide, hatted in (("cor7.a", False, False), ("cor7.b", True, False),
                                ("cor7.c", False, True), ("cor7.d", True, True)):
        _register(IdentityDescriptor(
            ident, Kind.FINITE_SUM, lhs=functools.partial(cor7_lhs, wide=wide, hatted=hatted),
            terms=functools.partial(cor7_wide if wide else cor7_narrow, hatted=hatted),
            n_top=(lambda p: 2 * p["k"]) if wide else (lambda p: p["k"] // 2),
            sampler=k_lam_sampler, param_check=cor7_wide_check if wide else None,
        ))

    def cor89_terms(p, x, hatted, inner_tau2):
        k, lam = p["k"], p["lam"]
        gs = _script_G_at(hatted, -2 * k - lam - 0.5, inner_tau2(k, lam), x)
        # C_{2k+1-n}^(lam+n), read backwards along the diagonal s = lam+2k+1
        diag = list(itertools.islice(
            gegenbauer_seq(lam + 2 * k + 1, x if hatted else 1.0 / x), 2 * k + 2))
        for n, g, num, den in zip(range(2 * k + 2), gs, _rising(lam),
                                  _rising(2.0 * lam + 2 * k + 1.0)):
            val = num * g * (-2.0) ** n * (1.0 - x * x) ** (0.5 * n) / den
            if hatted:
                yield val * diag[2 * k + 1 - n]
            else:
                yield val * x ** -n * diag[2 * k + 1 - n]

    for ident, hatted, inner_tau2 in (
            ("cor8.a", False, lambda k, lam: -2 * k - lam - 0.5),
            ("cor8.b", True, lambda k, lam: -2 * k - lam - 0.5),
            ("cor9.a", False, lambda k, lam: lam - 0.5),
            ("cor9.b", True, lambda k, lam: lam - 0.5)):
        _register(IdentityDescriptor(
            ident, Kind.VANISHING_SUM,
            lhs=lambda p, x: 0j,
            terms=functools.partial(cor89_terms, hatted=hatted, inner_tau2=inner_tau2),
            n_top=lambda p: 2 * p["k"] + 1,
            sampler=k_lam_sampler,
        ))

    # ---- mixed half-order family --------------------------------------
    t8_tail_r = lambda p, x: (1.0, p["nu"].real - 1.5)

    def g_cond_check(p):
        if not p["nu"].real > -1.0:
            raise DomainError("requires Re nu > -1")

    _register(IdentityDescriptor(
        "thm8.g1", Kind.INFINITE_SERIES,
        lhs=lambda p, x: (
            _cpow(1.0 - x * x, 0.25 * (p["mu"] + p["nu"]))
            * _P(0.5 * (p["mu"] - p["nu"] - 2.0), 0.5 * (p["mu"] + p["nu"]), x)
            * recip_gamma(0.5 * (p["mu"] - p["nu"] + 1.0))
            / (_cpow(2.0, 0.5 * (3.0 * p["mu"] - p["nu"])) * _cpow(x, p["nu"]))
        ),
        terms=lambda p, x: _product(
            _cpow(_u(x), 0.5 * p["nu"]) / SQRT_PI, 1.0,
            _rising(p["mu"] - p["nu"]), script_G_seq(-p["nu"], p["mu"], math.sqrt(_u(x))),
            _P_chain(p["nu"], p["mu"], 1.0 / x, 0)),
        n_top=_poch_top, sampler=t7_sampler_cond, param_check=q_cond_check,
        tail=t7_tail_nu,
    ))
    _register(IdentityDescriptor(
        "thm8.r1", Kind.INFINITE_SERIES,
        lhs=lambda p, x: _P(p["nu"], p["mu"], 1.0 / x) / SQRT_PI,
        terms=lambda p, x: _product(
            _cpow(1.0 - x * x, 0.25 * (p["mu"] - p["nu"]))
            / _cpow(2.0, 0.5 * (3.0 * p["mu"] - p["nu"])),
            (1.0 - x * x) ** 0.25 / math.sqrt(2.0),
            _rising_half(p["mu"] - p["nu"]), frak_N_seq(p["nu"], p["mu"], x, -1),
            _P_half_chain(0.5 * (p["mu"] - p["nu"] - 2.0), 0.5 * (p["mu"] + p["nu"]),
                          x, 1)),
        n_top=_poch_top, sampler=t7_sampler,
        x_grid=(0.55, 0.7, 0.85), tail=t8_tail_r,
    ))
    _register(IdentityDescriptor(
        "thm8.r2", Kind.INFINITE_SERIES,
        lhs=lambda p, x: _P(p["nu"], p["mu"], x) / SQRT_PI,
        terms=lambda p, x: _product(
            _cpow(1.0 - x * x, 0.25 * (p["mu"] - p["nu"]))
            / (_cpow(2.0, 0.5 * (3.0 * p["mu"] - p["nu"]))
               * _cpow(x, 0.5 * (p["mu"] - p["nu"]))),
            (1.0 - x * x) ** 0.25 / math.sqrt(2.0 * x),
            _rising_half(p["mu"] - p["nu"]), frak_N_seq(p["nu"], p["mu"], x, 1),
            _P_half_chain(0.5 * (p["mu"] - p["nu"] - 2.0), 0.5 * (p["mu"] + p["nu"]),
                          1.0 / x, 1)),
        n_top=_poch_top, sampler=t7_sampler,
        x_grid=(0.75, 0.8, 0.9),
        x_window=_inv_sqrt2_window(_poch_top),
        boundary_ok=lambda p: p["nu"].real < 2.0,
        tail=t8_tail_r,
    ))
    _register(IdentityDescriptor(
        "thm8.g2", Kind.INFINITE_SERIES,
        lhs=lambda p, x: (
            _cpow(1.0 - x * x, 0.25 * (p["mu"] + p["nu"]))
            * _P(0.5 * (p["mu"] - p["nu"] - 2.0), 0.5 * (p["mu"] + p["nu"]), 1.0 / x)
            * recip_gamma(0.5 * (p["mu"] - p["nu"] + 1.0))
            / (_cpow(2.0, 0.5 * (3.0 * p["mu"] - p["nu"]))
               * _cpow(x, 0.5 * (p["mu"] - p["nu"])))
        ),
        terms=lambda p, x: _product(
            _cpow(_u(x), 0.5 * p["nu"]) / SQRT_PI, 1.0,
            _rising(p["mu"] - p["nu"]), script_G_hat_seq(-p["nu"], p["mu"], math.sqrt(_u(x))),
            _P_chain(p["nu"], p["mu"], x, 0)),
        n_top=_poch_top, sampler=t7_sampler_cond, param_check=g_cond_check,
        tail=t7_tail_nu,
    ))

    def cor10_terms(p, x, hatted, upper):
        k, m = p["k"], p["m"]
        tau1 = (-k - m) if upper else (-k + m)
        tau2 = (-k + m) if upper else (-k - m)
        pre = _fact(k) * (1.0 - x) ** (0.5 * k) \
            / _cpow(1.0 + x, 0.5 * k + (m if upper else -m))
        deg = (k + m) if upper else (k - m)
        for n, g in zip(range(2 * k + 1), _script_G_at(hatted, tau1, tau2, x)):
            morder = (n + m - k) if upper else (n - k - m)
            val = pre * g / ((-1.0) ** (n + k) * _fact(2 * k - n))
            if hatted:
                yield val * _P(deg, morder, x)
            else:
                yield val * x ** deg * _P(deg, morder, 1.0 / x)

    def cor10_lhs(p, x, hatted, upper):
        k, m = p["k"], p["m"]
        v = _P(k, m if upper else -m, 1.0 / x if hatted else x)
        if not upper:
            v *= 2.0 ** m
        if hatted:
            v *= x ** k
        return v / 2.0 ** m if upper else v

    for ident, hatted, upper in (("cor10.a", False, True), ("cor10.b", True, True),
                                 ("cor10.c", False, False), ("cor10.d", True, False)):
        _register(IdentityDescriptor(
            ident, Kind.FINITE_SUM, lhs=functools.partial(cor10_lhs, hatted=hatted, upper=upper),
            terms=functools.partial(cor10_terms, hatted=hatted, upper=upper),
            n_top=lambda p: 2 * p["k"],
            sampler=k_m_sampler,
        ))

    # ---- quadratic argument family ------------------------------------
    t9_ntop = lambda p: terminating_index(2.0 * p["nu"], p["mu"] - p["nu"])
    t9_guards = [lambda nu, mu: nu, lambda nu, mu: mu, lambda nu, mu: nu + 0.5,
                 lambda nu, mu: 0.5 * (mu + nu), lambda nu, mu: 0.5 * (mu - nu + 1.0)]
    t9_sampler = _guarded_pair(guards=t9_guards)
    t9_tail = lambda p, x: (1.0, -2.0)

    def x2arg(x: float) -> float:
        return (1.0 + x * x) / (2.0 * x)

    _register(IdentityDescriptor(
        "thm9.fwd", Kind.INFINITE_SERIES,
        lhs=lambda p, x: _P(p["nu"], p["mu"], x),
        terms=lambda p, x: _product(
            SQRT_PI * _cpow(2.0, 2.0 * p["nu"] - p["mu"]) * _cpow(x, p["nu"])
            / _cpow(1.0 - x * x, 0.5 * p["nu"]),
            0.25 / math.sqrt(1.0 - x * x),
            _rising(2.0 * p["nu"]), _rising_half(p["mu"] - p["nu"]),
            (1.0 / d for d in _rising(p["nu"] + 0.5)), gegenbauer_seq(0.5 - p["nu"], x),
            _P_half_chain(p["nu"], 0.5 * (p["mu"] + p["nu"]), x2arg(x), 0)),
        n_top=t9_ntop, sampler=t9_sampler, tail=t9_tail,
    ))
    _register(IdentityDescriptor(
        "thm9.inv", Kind.INFINITE_SERIES,
        lhs=lambda p, x: (
            SQRT_PI * _P(p["nu"], 0.5 * (p["mu"] + p["nu"]), x2arg(x))
            * _cpow(x, p["nu"]) * recip_gamma(0.5 * (p["mu"] - p["nu"] + 1.0))
            / _cpow(2.0, p["mu"] - 2.0 * p["nu"])
        ),
        terms=lambda p, x: _product(
            _cpow(1.0 - x * x, 0.5 * p["nu"]), 0.5 / math.sqrt(1.0 - x * x),
            _rising(-2.0 * p["nu"]), _rising(p["mu"] - p["nu"]),
            (1.0 / d for d in _rising(0.5 - p["nu"])), gegenbauer_seq(0.5 + p["nu"], x),
            _P_chain(p["nu"], p["mu"], x, 0)),
        n_top=lambda p: terminating_index(-2.0 * p["nu"], p["mu"] - p["nu"]),
        sampler=t9_sampler, tail=t9_tail,
    ))

    # both coefficient displays are reproduced from the terminating series
    # they specialize, with the indices under which cor11.b and lambda3 hold
    # at every point of seeds 0-3 (the tests pin each value by digest)
    def lam2(l, mu):
        """lambda_2 for n = 0..2l.  Below n = l, (mu + l + 1/2)_(n-l) is
        1/(mu + n + 1/2)_(l-n), formed afresh: no running product shares it."""
        b = mu + l + 0.5
        a, pb = _poch_reader(-4 * l - 2.0 * mu, 2 * l), _poch_reader(b, l)
        c, d = _poch_reader(0.5 - 2 * l - mu, 2 * l), _poch_reader(2.0 * mu + 2 * l + 1.0, 2 * l)
        for n in range(2 * l + 1):
            yield (
                (-1.0) ** (n + l) * a(n)
                * (pb(n - l) if n >= l else 1.0 / pochhammer(complex(b) + (n - l), l - n))
                * d(l) / (2.0 ** (2 * l) * c(n) * d(n))
            )

    def lam3(l, mu):
        """(-1)^n Gamma(n-4l-2mu-2) Gamma(n+mu+1/2)
        / (Gamma(n-1/2-2l-mu) Gamma(n+2mu+2l+2)) for n = 0, 1, ...: one
        gamma quotient at n = 0, then its rational ratio from n to n + 1."""
        a, b = -4 * l - 2.0 * mu - 2.0, mu + 0.5
        c, d = -0.5 - 2 * l - mu, 2.0 * mu + 2 * l + 2.0
        return itertools.accumulate(
            (-(a + n) * (b + n) / ((c + n) * (d + n)) for n in itertools.count()),
            operator.mul, initial=gamma(a) * gamma(b) / (gamma(c) * gamma(d)))

    def cor11a_terms(p, x):
        k, mu = p["k"], p["mu"]
        # C_{k-2m}^(1/2-2k+2m-mu): every other value of the diagonal
        # s = 1/2-k-mu, read backwards, as are lambda_1's Pochhammer products
        low = list(itertools.islice(gegenbauer_seq(0.5 - k - mu, x), k + 1))
        high = gegenbauer_seq(k + mu + 0.5, x2arg(x))
        a, b = _poch_reader(2 * k + 2.0 * mu, k), _poch_reader(mu + 0.5, k)
        c, d = _poch_reader(0.5 + mu + k, k), _poch_reader(2.0 * mu + k + 1.0, k)
        for m, g in zip(range(k // 2 + 1), high):
            yield ((-1.0) ** (k + m) * 2.0 ** (2 * m) * a(k - 2 * m) * b(k - m)
                   / (c(k - 2 * m) * d(k - m)) * x ** m * low[k - 2 * m] * g)

    def pair_terms(x, s, top, coeffs):
        """c_n D_n D_{top-n} for n = 0..top and a coefficient sequence c,
        with D_n = C_n^(s-n)(x) read forwards and backwards from one list."""
        diag = list(itertools.islice(gegenbauer_seq(s, x), top + 1))
        for n, c in zip(range(top + 1), coeffs):
            yield c * diag[n] * diag[top - n]

    _register(IdentityDescriptor(
        "cor11.a", Kind.FINITE_SUM,
        lhs=lambda p, x: gegenbauer(p["k"], p["mu"] + 0.5, x),
        terms=cor11a_terms,
        n_top=lambda p: p["k"] // 2,
        sampler=k_mu_sampler,
    ))
    _register(IdentityDescriptor(
        "cor11.b", Kind.FINITE_SUM,
        lhs=lambda p, x: x ** p["l"] * gegenbauer(p["l"], p["mu"] + p["l"] + 0.5, x2arg(x)),
        terms=lambda p, x: pair_terms(
            x, 0.5 + 2 * p["l"] + p["mu"], 2 * p["l"], lam2(p["l"], p["mu"])),
        n_top=lambda p: 2 * p["l"],
        sampler=l_mu_sampler,
    ))
    _register(IdentityDescriptor(
        "lambda3", Kind.VANISHING_SUM,
        lhs=lambda p, x: 0j,
        terms=lambda p, x: pair_terms(
            x, 1.5 + 2 * p["l"] + p["mu"], 2 * p["l"] + 1, lam3(p["l"], p["mu"])),
        n_top=lambda p: 2 * p["l"] + 1,
        sampler=l_mu_sampler,
    ))


_build_catalog()
