"""Identity catalog behavior: descriptors, evaluation, sweeps, domain gates."""

import itertools
import json
import math
import random
import re
import time

import mpmath as mp
import pytest

import legdual.coeffs
import legdual.hypergeom
import legdual.legendre
import legdual.polys
import legdual.registry
from legdual.errors import (ConvergenceError, DivergenceError, DomainError, PoleError,
                            UnknownIdentityError)
from legdual.harness import HarnessConfig, convergence_table
from legdual.hypergeom import DEFAULT_POLICY, TruncationPolicy, terminating_index
from legdual.legendre import _P_chain, _P_half_chain
from legdual.registry import (
    INV_SQRT2,
    Kind,
    TOL_BOUNDARY,
    TOL_FINITE,
    TOL_SERIES,
    _SERIES_CAP,
    _P,
    _get_impl,
    _point,
    _rising_half,
    _running_sums,
    _sum_terms,
    IdentityDescriptor,
    evaluate_identity,
    get_descriptor,
    list_identities,
    sweep_identity,
)

ALL = list_identities()


def _count_calls(monkeypatch, name, modules):
    """Count the calls of `name` made through any of `modules`."""
    calls = [0]
    for mod in modules:
        def counted(*args, _f=getattr(mod, name), **kwargs):
            calls[0] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    return calls


def _series(term):
    """A synthetic infinite series whose n-th term is term(n)."""
    return IdentityDescriptor(
        "synthetic", Kind.INFINITE_SERIES, lhs=None,
        terms=lambda p, x: (complex(term(n)) for n in itertools.count()),
        n_top=lambda p: None)


class TestCatalog:
    def test_count(self):
        assert len(ALL) == 47

    def test_kind_census(self):
        by_kind = {}
        for d in ALL:
            by_kind[d.kind] = by_kind.get(d.kind, 0) + 1
        assert by_kind[Kind.INFINITE_SERIES] == 18
        assert by_kind[Kind.FINITE_SUM] == 23
        assert by_kind[Kind.VANISHING_SUM] == 6

    def test_ids_unique(self):
        ids = [d.id for d in ALL]
        assert len(set(ids)) == len(ids)

    def test_catalog_order(self):
        # the order `legdual list` prints and the suite sweeps in; the draws
        # hash cannot see two twins swapped, as twins share a sampler
        assert [d.id for d in ALL] == [
            "intro.1", "intro.2", "intro.3", "thm4.fwd", "thm4.inv",
            "cor2.a", "cor2.b", "cor3.a", "cor3.b", "thm5.fwd", "thm5.inv",
            "cor4.a", "cor4.b", "thm6.p1a", "thm6.p1b", "thm6.p2a", "thm6.p2b",
            "cor5.a", "cor5.b", "cor5.c", "cor5.d", "cor6",
            "thm7.q1", "thm7.q2", "thm7.q3", "thm7.q4",
            "cor7.a", "cor7.b", "cor7.c", "cor7.d",
            "cor8.a", "cor8.b", "cor9.a", "cor9.b",
            "thm8.g1", "thm8.r1", "thm8.r2", "thm8.g2",
            "cor10.a", "cor10.b", "cor10.c", "cor10.d",
            "thm9.fwd", "thm9.inv", "cor11.a", "cor11.b", "lambda3",
        ]

    def test_descriptor_fields(self):
        d = get_descriptor("thm4.fwd")
        assert d.kind is Kind.INFINITE_SERIES
        assert callable(d.lhs) and callable(d.terms)

    def test_unknown_id(self):
        with pytest.raises(UnknownIdentityError):
            get_descriptor("thm99.zzz")


class TestFixedSettings:
    """The catalog sums to fixed settings; the trailing-policy call form is
    kept, by `_get_impl`, for DEFAULT_POLICY alone."""

    @pytest.mark.parametrize("ident", [d.id for d in ALL])
    def test_default_policy_form_is_bit_identical(self, ident):
        entry = _get_impl(ident)
        p = entry.sampler(random.Random(0))
        x = entry.x_grid[0]
        top = entry.n_top(p)
        n = 24 if top is None else top + 1
        assert repr(entry.lhs(p, x)) == repr(entry.lhs(p, x, DEFAULT_POLICY))
        assert repr(list(itertools.islice(entry.terms(p, x), n))) == repr(
            list(itertools.islice(entry.terms(p, x, DEFAULT_POLICY), n)))

    def test_other_policy_refused(self):
        entry = _get_impl("thm4.inv")
        p, x = {"nu": 0.3 + 0j, "mu": 1.2 + 0j}, 0.65
        loose = TruncationPolicy(rel_tol=1e-6)
        for call in (entry.lhs, entry.terms, lambda p, x, pol: _sum_terms(entry, p, x, pol)):
            with pytest.raises(ValueError, match="fixed settings"):
                call(p, x, loose)
        with pytest.raises(UnknownIdentityError):
            evaluate_identity("thm99.zzz", {"nu": 0.3}, 0.5)

    def test_entries_stored_as_written(self):
        # get_descriptor and list_identities hand out the catalog's own
        # callables, which take exactly (p, x)
        assert all(d is get_descriptor(d.id) for d in ALL)
        entry = get_descriptor("thm4.inv")
        for call in (entry.lhs, entry.terms):
            with pytest.raises(TypeError):
                call({"nu": 0.3 + 0j, "mu": 1.2 + 0j}, 0.65, DEFAULT_POLICY)

    def test_every_series_P_summed_to_the_last_bit(self, monkeypatch):
        # one precision: every nonterminating 2F1 behind a catalog P value,
        # left-hand side, chain head or fallback, stops at 2^-52
        tols = {}

        def recorded(a, b, c, t, policy=DEFAULT_POLICY, _f=legdual.legendre.gauss_2f1):
            if terminating_index(complex(a), complex(b)) is None:
                tols[ident].add(policy.rel_tol)
            return _f(a, b, c, t, policy)

        monkeypatch.setattr(legdual.legendre, "gauss_2f1", recorded)
        for entry in ALL:
            ident = entry.id
            tols[ident] = set()
            evaluate_identity(ident, entry.sampler(random.Random(0)), entry.x_grid[0])
        assert set().union(*tols.values()) == {2.0**-52}
        assert all(tols[d.id] for d in ALL if d.kind is Kind.INFINITE_SERIES)
        with pytest.raises(TypeError):
            _P(0.3, 1.2, 0.65, DEFAULT_POLICY)


class TestEvaluate:
    def test_terminating_series_case(self):
        r = evaluate_identity("thm4.fwd", {"nu": -2.0, "mu": 0.7}, 0.4)
        assert r.passed and r.rel_err <= 1e-11

    def test_interior_series_case(self):
        r = evaluate_identity("thm5.fwd", {"nu": 0.3 + 0.2j, "mu": 1.1}, 0.6)
        assert r.passed and r.rel_err <= 1e-9
        assert r.tolerance_used == TOL_SERIES

    def test_finite_sum_tolerance(self):
        r = evaluate_identity("cor6", {"k": 3, "m": 2}, 0.9)
        assert r.passed
        assert r.tolerance_used == TOL_FINITE

    def test_vanishing_sum_scaled_by_max_term(self):
        r = evaluate_identity("cor8.a", {"k": 2, "lam": 0.6 + 0.2j}, 0.5)
        assert r.passed
        assert abs(r.lhs) == 0.0

    def test_boundary_tolerance_with_condition(self):
        r = evaluate_identity("thm4.fwd", {"nu": -0.8 + 0.3j, "mu": 0.5 - 0.2j},
                              INV_SQRT2)
        assert r.passed
        assert r.tolerance_used == TOL_BOUNDARY

    def test_check_domain_flags_the_window_lower_end(self):
        p = {"nu": -0.8 + 0.3j, "mu": 0.5 - 0.2j}
        entry = get_descriptor("thm4.fwd")
        assert entry.check_domain(p, INV_SQRT2) is True
        assert entry.check_domain(p, INV_SQRT2 + 5e-13) is True
        assert entry.check_domain(p, 0.8) is False
        # a window starting at 0 has no boundary point
        assert get_descriptor("cor6").check_domain({"k": 3, "m": 2}, 0.9) is False

    def test_boundary_rejected_without_condition(self):
        with pytest.raises(DomainError):
            evaluate_identity("thm4.fwd", {"nu": 0.9 + 0.3j, "mu": 0.5j}, INV_SQRT2)

    def test_band_is_a_boundary_only_where_the_condition_holds(self):
        # boundary_ok fails here: just above the window's end the point is
        # inside and judged as a series, just below it is outside
        p = {"nu": 0.9 + 0.3j, "mu": 0.5j}
        assert get_descriptor("thm4.fwd").check_domain(p, INV_SQRT2 + 5e-13) is False
        r = evaluate_identity("thm4.fwd", p, INV_SQRT2 + 5e-13)
        assert r.tolerance_used == TOL_SERIES
        with pytest.raises(DomainError, match="outside"):
            evaluate_identity("thm4.fwd", p, INV_SQRT2 - 5e-13)

    @pytest.mark.parametrize("nu", [math.nan, -math.inf, complex(0.3, math.nan)])
    def test_non_finite_parameter_refused(self, nu):
        with pytest.raises(DomainError, match="finite"):
            evaluate_identity("thm5.fwd", {"nu": nu, "mu": 0.2 + 0.3j}, 0.5)

    def test_window_is_sharp_below_boundary(self):
        with pytest.raises(DomainError):
            evaluate_identity("thm4.fwd", {"nu": -0.8 + 0.3j, "mu": 0.5 - 0.2j}, 0.6)

    def test_window_end_without_stated_boundary_is_outside(self):
        # intro.2 states no boundary condition: its window (0.5, 1) is open
        with pytest.raises(DomainError, match=r"x = 0.5 outside \(0.5, 1.0\)"):
            evaluate_identity("intro.2", {"mu": 0.3 + 0.4j}, 0.5)
        assert get_descriptor("intro.2").check_domain({"mu": 0.3 + 0.4j}, 0.5 + 5e-13) is False

    # nu - mu = 2: the series terminate, and hold on all of (0, 1)
    TERMINATING = {"nu": 2.3 + 0.2j, "mu": 0.3 + 0.2j}

    @pytest.mark.parametrize("ident", ["thm6.p1a", "thm8.r2"])
    def test_terminating_series_hold_below_the_window(self, ident):
        r = evaluate_identity(ident, self.TERMINATING, 0.3)
        assert r.passed and r.stop_reason == "terminated"
        assert r.tolerance_used == TOL_SERIES

    @pytest.mark.parametrize("ident", ["thm6.p1a", "thm8.r2"])
    def test_swapped_point_keeps_the_window(self, ident):
        # mu - nu = 2 does not terminate (mu - nu)_n
        swapped = {"nu": self.TERMINATING["mu"], "mu": self.TERMINATING["nu"]}
        with pytest.raises(DomainError):
            evaluate_identity(ident, swapped, 0.3)

    # cor7_Y divides by zero: Gamma(lam + 2k - r) has a pole (integer lam in
    # [1 - 2k, 0]), or 2 lam + 4k - r - 1 = 0 for some r < 2k
    @pytest.mark.parametrize("ident", ["cor7.b", "cor7.d"])
    @pytest.mark.parametrize("k,lam", [(7, -1.0), (1, 0.0), (8, -15.0), (1, -1.5), (2, -3.5)])
    def test_cor7_poles_refused(self, ident, k, lam):
        with pytest.raises(PoleError):
            evaluate_identity(ident, {"k": k, "lam": complex(lam)}, 0.35)

    @pytest.mark.parametrize("ident", ["cor7.b", "cor7.d"])
    @pytest.mark.parametrize("k,lam", [(0, 0.0), (2, -4.0), (2, -4.5), (7, -1.0 + 0.2j)])
    def test_cor7_next_to_the_poles(self, ident, k, lam):
        assert evaluate_identity(ident, {"k": k, "lam": complex(lam)}, 0.35).passed

    # the largest term is 5.5e15, 6.7e23, 2.7e50 and 1.3e81 times |lhs|: no
    # sum of those terms in doubles holds a digit of the value
    @pytest.mark.parametrize("ident,params", [
        ("cor2.a", {"k": 20, "mu": 0.3 + 0.2j}),
        ("cor2.a", {"k": 30, "mu": 0.3 + 0.2j}),
        ("cor7.b", {"k": 40, "lam": 0.3 + 0.4j}),
        ("cor10.a", {"k": 90, "m": 3}),
    ])
    def test_finite_sum_that_holds_no_digit_refused(self, ident, params):
        with pytest.raises(DomainError, match="no digit"):
            evaluate_identity(ident, params, 0.5)

    # at k = 16 the largest term is 1.7e13 |lhs|, inside the doubles: the
    # term scale still judges it
    @pytest.mark.parametrize("k", [8, 16])
    def test_finite_sum_inside_the_doubles_judged_as_before(self, k):
        r = evaluate_identity("cor2.a", {"k": k, "mu": 0.3 + 0.2j}, 0.5)
        assert r.passed and r.tolerance_used == TOL_FINITE

    def test_thm8_g2_needs_re_nu_above_minus_one(self):
        with pytest.raises(DomainError, match="Re nu > -1"):
            evaluate_identity("thm8.g2", {"nu": -1.2 + 0.3j, "mu": 0.4 - 0.2j}, 0.5)

    @pytest.mark.parametrize("ident", ["thm7.q2", "thm7.q4", "thm8.g1"])
    @pytest.mark.parametrize("x", [0.2, 0.35, 0.5, 0.65])
    def test_terminating_series_lift_the_degree_condition(self, ident, x):
        # Re nu <= -1, but nu - mu = 2
        r = evaluate_identity(ident, {"nu": -1.7 + 0.2j, "mu": -3.7 + 0.2j}, x)
        assert r.passed and r.stop_reason == "terminated"

    def test_report_round_trips_through_json(self):
        r = evaluate_identity("thm5.fwd", {"nu": 0.3 + 0.2j, "mu": 1.1}, 0.6)
        doc = json.loads(json.dumps(r.to_dict()))
        assert doc["id"] == "thm5.fwd"
        assert doc["passed"] is True
        assert doc["params"]["nu"] == [0.3, 0.2]
        assert len(doc["lhs"]) == 2 and len(doc["rhs"]) == 2
        for key in ("abs_err", "rel_err", "terms_used", "tolerance", "x"):
            assert key in doc

    @pytest.mark.parametrize("ident,params,x,reason", [
        ("thm4.fwd", {"nu": -2.0, "mu": 0.7}, 0.4, "terminated"),
        # small nu: the Wynn estimates agree at 21 terms
        ("thm5.fwd", {"nu": 0.001, "mu": 0.5 + 0.3j}, 0.6, "wynn"),
        ("thm8.r1", {"nu": -0.3726486224011847 + 0.5116084083144479j,
                     "mu": 0.9734759867013265 - 0.4989873172751189j}, 0.55, "wynn"),
    ])
    def test_stop_reason_reported(self, ident, params, x, reason):
        r = evaluate_identity(ident, params, x)
        assert r.passed and r.stop_reason == reason
        if reason == "wynn":
            assert r.terms_used < 144 and 0.0 < r.extrap_err < 1e-9
        else:
            assert r.extrap_err == 0.0
        doc = json.loads(json.dumps(r.to_dict()))
        assert doc["stop_reason"] == reason and doc["extrap_err"] == r.extrap_err


    def test_wynn_error_is_positive(self):
        # the Wynn estimates agree here to a few rounding units; the
        # reported error must still be positive
        r = evaluate_identity("thm4.inv", {"nu": 0.3, "mu": 1.2}, 0.65)
        assert r.passed and r.stop_reason == "wynn"
        assert r.extrap_err > 0.0

    def test_wynn_error_positive_on_stagnant_sums(self):
        # partial sums 1, 1.5, 1.75, 1.75, ...: the table ends where two
        # entries are equal and the estimates agree exactly
        s = _sum_terms(_series(lambda n: 0.5 ** n if n < 3 else 0.0), {}, 0.5)
        assert s.stop_reason == "wynn" and s.value == 1.75 and s.extrap_err > 0.0


class TestWynnStop:
    def test_alternating_log2_stops_early(self):
        s = _sum_terms(_series(lambda n: (-1.0) ** n / (n + 1)), {}, 0.5)
        assert s.stop_reason == "wynn" and s.terms_used <= 40
        assert abs(s.value - math.log(2.0)) <= 1e-13

    def test_growing_terms_raise(self):
        # the table settles on the antilimit -1 of sum 2^n; that must not
        # be returned as a sum
        with pytest.raises(ConvergenceError):
            _sum_terms(_series(lambda n: 2.0 ** n), {}, 0.5)

    def test_unsettled_sum_returns_at_the_cap(self):
        # sum 1/(n+1)^2 converges too slowly for the table to settle to 1e-14
        s = _sum_terms(_series(lambda n: 1.0 / (n + 1) ** 2), {}, 0.5)
        assert s.stop_reason == "wynn" and s.terms_used == _SERIES_CAP
        assert math.isfinite(abs(s.value)) and s.extrap_err > 0.0
        # no farther from the limit than the partial sum at the cap
        assert abs(s.value - math.pi ** 2 / 6) < 1.0 / _SERIES_CAP

    def test_cap_read_from_series_cap(self, monkeypatch):
        monkeypatch.setattr(legdual.registry, "_SERIES_CAP", 30)
        s = _sum_terms(_series(lambda n: 1.0 / (n + 1) ** 2), {}, 0.5)
        assert s.terms_used == 30

    def test_non_finite_entries_are_never_returned(self):
        # partial sums n * 1e-320 differ by a subnormal, so 1/d overflows:
        # the antidiagonal ends there and the estimate stays finite
        s = _sum_terms(_series(lambda n: 1e-320), {}, 0.5)
        assert s.stop_reason == "wynn" and s.terms_used == _SERIES_CAP
        assert math.isfinite(abs(s.value)) and s.extrap_err > 0.0
        # no estimate is finite: an error, not a value
        with pytest.raises(ConvergenceError):
            _sum_terms(_series(lambda n: math.nan), {}, 0.5)

    def test_thm8_r1_sweep_cost(self):
        # each point stops once its estimates agree (51.7 terms on average);
        # sums run to the 160-term cap would fail this
        reps = sweep_identity("thm8.r1", n_samples=30, seed=0)
        assert all(r.passed for r in reps)
        assert sum(r.terms_used for r in reps) / len(reps) <= 64


class TestIntegerP:
    @pytest.mark.parametrize("k,m,x", [
        (2, 3, 0.5), (2, 3, 1.7), (0, 1, 0.3), (3, 5, 2.5), (1, 4, 0.8),
    ])
    def test_negative_order_below_degree(self, k, m, x):
        # P^{-m}_k with m > k is not a polynomial case and is nonzero
        ref = mp.legenp(k, -m, x, type=2 if x < 1.0 else 3)
        v = _P(k, m, x)
        assert ref != 0 and abs(v - complex(ref)) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("x", [0.5, 1.7])
    def test_positive_order_above_degree_vanishes(self, x):
        assert _P(2, -3, x) == 0


class TestPointGate:
    # every entry point reads a catalog point through one gate, `_point`
    REFUSED = [
        ({"k": 3}, "cor6 takes k, m; got k"),
        ({"k": 3, "m": 2, "nu": 1}, "cor6 takes k, m; got k, m, nu"),
        ({"k": 2.5, "m": 1}, "k must be a nonnegative integer, got 2.5"),
        ({"k": 3, "m": 2 + 1j}, "m must be a nonnegative integer"),
        ({"k": -1, "m": 0}, "k must be a nonnegative integer, got -1"),
        ({"k": math.inf, "m": 0}, "parameters must be finite"),
        ({"k": 161, "m": 161}, "k must be at most 160, got 161"),
        ({"k": 3, "m": 1e300}, "m must be at most 160, got 1e+300"),
    ]

    @pytest.mark.parametrize("params,message", REFUSED)
    def test_evaluate_refuses(self, params, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            evaluate_identity("cor6", params, 0.5)

    @pytest.mark.parametrize("params,message", REFUSED)
    def test_convergence_table_refuses(self, params, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            convergence_table("cor6", params, 0.5, 3)

    def test_convergence_table_refuses_non_finite(self):
        with pytest.raises(DomainError, match="parameters must be finite"):
            convergence_table("thm5.fwd", {"nu": math.nan, "mu": 0.2}, 0.5, 3)

    def test_integral_value_becomes_int(self):
        r = evaluate_identity("cor6", {"k": 3.0, "m": 2 + 0j}, 0.5)
        assert r.passed and r.params == {"k": 3, "m": 2}
        assert all(type(v) is int for v in r.params.values())
        assert convergence_table("cor6", {"k": 3.0, "m": 2}, 0.5, 3)[-1][1] == 0.0

    @pytest.mark.parametrize("ident", ["cor3.a", "cor3.b"])
    @pytest.mark.parametrize("k,m", [(2, 5), (0, 1)])
    def test_cor3_needs_m_at_most_k(self, ident, k, m):
        with pytest.raises(DomainError, match="requires m <= k"):
            evaluate_identity(ident, {"k": k, "m": m}, 0.5)

    # cor6 holds for k/2 < m <= k; below, it fails at x = 0.5 with rel err
    # 0.86 (5, 1), 0.12 (5, 2), 1.1e-2 (6, 3) and 1 (0, 0), and above its
    # right-hand side is exactly 0
    @pytest.mark.parametrize("k,m", [(5, 1), (5, 2), (6, 3), (0, 0), (3, 4)])
    def test_cor6_condition(self, k, m):
        with pytest.raises(DomainError, match=re.escape("requires k/2 < m <= k")):
            evaluate_identity("cor6", {"k": k, "m": m}, 0.5)

    @pytest.mark.parametrize("k,m", [(5, 3), (6, 4), (1, 1)])
    def test_cor6_inside_its_condition(self, k, m):
        assert evaluate_identity("cor6", {"k": k, "m": m}, 0.5).passed

    def test_side_that_is_not_finite_refused(self):
        # (-2k - mu)_r overflows: pochhammer refuses it before inf * 0 makes
        # both sides NaN
        with pytest.raises(DivergenceError, match=r"pochhammer\(\(-1e\+308\+0j\), 3\) overflows"):
            evaluate_identity("cor2.a", {"k": 3, "mu": 1e308}, 0.5)

    # an integer parameter is a term count: past the series cap a finite sum
    # would run for as many terms (10^300 at k = 1e300) before it failed
    @pytest.mark.parametrize("k", [161, 10**300, 1e300])
    def test_integer_parameter_bounded(self, k):
        params = {"k": k, "mu": 0.3 + 0.2j}
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="cor2.a: k must be at most 160, got "):
            evaluate_identity("cor2.a", params, 0.5)
        with pytest.raises(DomainError, match="k must be at most 160"):
            convergence_table("cor2.a", params, 0.5, 3)
        [r] = sweep_identity("cor2.a", param_sampler=[params], x_grid=[0.5])
        assert not r.passed and r.error.startswith("DomainError: cor2.a: k must be at most 160")
        assert time.perf_counter() - t0 < 0.5

    def test_integer_parameter_at_the_bound(self):
        # the gate takes k = 160; there the terms' Pochhammer products
        # overflow, a typed error
        with pytest.raises(DivergenceError, match=r"pochhammer\(.*, 160\) overflows"):
            evaluate_identity("cor2.a", {"k": 160, "mu": 0.3 + 0.2j}, 0.5)

    @pytest.mark.parametrize("entry", ALL, ids=lambda d: d.id)
    def test_sampler_draws_pass_unchanged(self, entry):
        rng = random.Random(5)
        for _ in range(20):
            p = entry.sampler(rng)
            got = _point(entry, p, entry.x_grid[0])[0]
            assert got == p and [type(v) for v in got.values()] == [type(v) for v in p.values()]


class TestSweep:
    def test_reports_shape(self):
        reps = sweep_identity("thm9.fwd", n_samples=2, seed=1)
        assert len(reps) == 2 * 3

    def test_seed_changes_points_not_status(self):
        a = sweep_identity("thm5.inv", n_samples=3, seed=1)
        b = sweep_identity("thm5.inv", n_samples=3, seed=2)
        assert [r.params for r in a] != [r.params for r in b]
        assert all(r.passed for r in a) and all(r.passed for r in b)

    def test_errors_collected_not_raised(self):
        # parameters violating the stated condition must surface as a failed
        # report with an error string, not an exception
        bad = [{"nu": -1.5 + 0.2j, "mu": 0.3 + 0j}]
        reps = sweep_identity("thm7.q2", param_sampler=bad, n_samples=1)
        assert reps and all(not r.passed for r in reps)
        assert all(r.error is not None for r in reps)

    def test_non_finite_parameter_is_a_failed_point(self):
        reps = sweep_identity("thm5.fwd", param_sampler=[{"nu": math.nan, "mu": 0.2 + 0.3j}],
                              n_samples=1)
        assert reps and all(not r.passed and "finite" in r.error for r in reps)

    def test_refused_points_are_failed_points(self):
        bad = [{"k": 3}, {"k": 2.5, "m": 1}, {"k": 3, "m": 2, "nu": 1}, {"k": -1, "m": 0},
               {"k": 5, "m": 1}]
        reps = sweep_identity("cor6", param_sampler=bad, x_grid=(0.5,))
        assert [r.params for r in reps] == bad
        assert all(not r.passed and r.error.startswith("DomainError: ") for r in reps)

    def test_failed_point_errors_are_null(self):
        # a failed point has no error to report: JSON null, not NaN
        (r,) = sweep_identity("cor2.a", param_sampler=[{"k": 3, "mu": 1e308}], x_grid=(0.5,))
        assert r.error.startswith("DivergenceError: ")
        assert r.abs_err is None and r.rel_err is None
        doc = json.dumps(r.to_dict(), allow_nan=False)
        assert '"abs_err": null' in doc and '"rel_err": null' in doc

    def test_programming_error_propagates(self, monkeypatch):
        # only library errors become failed points; a bug in a term stream
        # must surface
        def broken(p, x):
            yield 1.0 + 0j
            raise TypeError("bug in a term stream")

        monkeypatch.setitem(legdual.registry._REGISTRY, "cor6",
                            _get_impl("cor6")._replace(terms=broken))
        with pytest.raises(TypeError, match="bug in a term stream"):
            sweep_identity("cor6", param_sampler=[{"k": 3, "m": 2}])

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_samples_refused(self, n):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            sweep_identity("cor6", n_samples=n)

    @pytest.mark.parametrize("kwargs", [{"param_sampler": []}, {"x_grid": ()}])
    def test_empty_list_or_grid_refused(self, kwargs):
        with pytest.raises(ValueError, match="checks nothing"):
            sweep_identity("cor6", **kwargs)

    def test_explicit_grid(self):
        reps = sweep_identity("cor6", param_sampler=[{"k": 3, "m": 2}],
                              x_grid=(0.4, 0.8))
        assert [r.x for r in reps] == [0.4, 0.8]
        assert all(r.passed for r in reps)

    @pytest.mark.parametrize("ident", [d.id for d in ALL])
    def test_every_identity_smoke(self, ident):
        reps = sweep_identity(ident, n_samples=2, seed=11)
        bad = [r for r in reps if not r.passed]
        assert not bad, f"{ident}: {[(r.x, r.rel_err, r.error) for r in bad]}"


class TestTermStreams:
    # a non-terminating point where thm8.r1 ends in a Wynn stop
    R1 = {"nu": -0.3726486224011847 + 0.5116084083144479j,
          "mu": 0.9734759867013265 - 0.4989873172751189j}
    # nu - mu = 2: every series with the factor (mu - nu)_n ends at n = 2
    NU_MU_2 = {"nu": 2.3 + 0.2j, "mu": 0.3 + 0.2j}

    @pytest.mark.parametrize(
        "ident", [d.id for d in ALL if d.kind is Kind.INFINITE_SERIES])
    def test_power_factors_formed_once_per_point(self, monkeypatch, ident):
        # a series term is c r^n times its factor streams: the complex powers
        # are in c, formed once, so a point takes at most 4 with its
        # left-hand side's, however many terms it sums
        entry = get_descriptor(ident)
        p = entry.sampler(random.Random(0))
        calls = _count_calls(monkeypatch, "_cpow", (legdual.registry,))
        evaluate_identity(ident, p, entry.x_grid[0])
        assert 0 < calls[0] <= 4

    def test_streams_reach_the_termination_index(self):
        # the terms zip their factor streams, so one that ended early would
        # cut the sum short, and _running_sums would pad it with zeros
        cfg = HarnessConfig()
        checked = set()
        for entry in ALL:
            rng = random.Random(0)
            samples = [entry.sampler(rng) for _ in range(cfg.count_for(entry.kind))]
            if entry.kind is Kind.INFINITE_SERIES:
                samples.append(self.NU_MU_2)
            for p in samples:
                top = entry.n_top(p)
                if top is None:
                    continue
                for x in entry.x_grid:
                    entry.check_domain(p, x)
                    terms = entry.terms(p, x)
                    assert len(list(itertools.islice(terms, top + 1))) == top + 1, (
                        entry.id, p, x)
                    checked.add(entry.id)
        # every entry but thm4's, whose terms carry no (mu - nu)_n
        assert checked == {d.id for d in ALL} - {"thm4.fwd", "thm4.inv"}

    def test_coefficients_built_once_per_point(self, monkeypatch):
        # frak_N is one expression of series streams, built once per point,
        # so the number of streams made does not grow with the terms summed
        calls = [0]
        for name in ("binomial", "mul", "binomial_product"):
            def counted(*args, _f=getattr(legdual.coeffs, name), **kwargs):
                calls[0] += 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(legdual.coeffs, name, counted)
        r = evaluate_identity("thm8.r1", self.R1, 0.55)
        assert r.passed and r.terms_used < 144
        full, calls[0] = calls[0], 0
        terms = _get_impl("thm8.r1").terms(self.R1, 0.55)
        assert len(list(itertools.islice(terms, 8))) == 8
        assert 0 < calls[0] == full

    @pytest.mark.parametrize("ident,params,x", [
        ("thm4.inv", {"nu": -3.0, "mu": 0.4}, 0.7),
        ("thm5.fwd", {"nu": 0.3 + 0.2j, "mu": 1.1}, 0.6),
        ("thm8.r1", R1, 0.55),
        ("cor7.b", {"k": 4, "lam": 0.3 - 0.6j}, 0.6),
    ])
    def test_convergence_table_sums_the_summed_stream(self, ident, params, x):
        impl = _get_impl(ident)
        n_max = 50
        reference = complex(impl.lhs(params, x))
        sums = list(itertools.islice(_running_sums(impl, params, x), n_max + 1))
        rows = convergence_table(ident, params, x, n_max)
        assert [(t, e) for _, t, e in rows] == [
            (abs(t), abs(partial - reference)) for t, partial in sums]
        total = _sum_terms(impl, params, x)
        if total.stop_reason != "wynn":
            assert total.value == sums[total.terms_used - 1][1]

    def test_one_direct_2f1_per_chain(self, monkeypatch):
        # thm8.r1's order advances by 1/2: two P chains, one direct 2F1 each,
        # and one more for the left-hand side
        calls = _count_calls(monkeypatch, "gauss_2f1", (legdual.legendre,))
        r = evaluate_identity("thm8.r1", self.R1, 0.55)
        assert r.passed and r.terms_used < 144
        assert 0 < calls[0] <= 4

    @pytest.mark.parametrize("ident,most", [
        ("thm4.fwd", 2), ("thm6.p1a", 2), ("thm8.r2", 3)])
    def test_diagonal_above_one_chains(self, monkeypatch, ident, most):
        # P at 1/x with degree and order shifted together: one direct 2F1
        # per chain (two for thm8.r2's half steps) and one for the left-hand
        # side, however many terms the sum takes
        calls = _count_calls(monkeypatch, "gauss_2f1", (legdual.legendre,))
        r = evaluate_identity(ident, self.R1, 0.8)
        assert r.passed and r.stop_reason != "terminated" and r.terms_used > 12
        assert 0 < calls[0] <= most

    @pytest.mark.parametrize("a", [
        0.7 - 1.3j,
        # 1e-9 from -1 and -2: the even and the odd run start 5e-10 from
        # the pole of Gamma at 0
        -1.0 + 1e-9, -2.0 + 1e-9,
        # mu - nu = -3 and -2: the even and the odd run start on a pole, and
        # every later value of that run is an exact zero too
        -3.0, -2.0])
    def test_rising_half(self, a):
        # (a)_n / Gamma((a + n + 1)/2) as two running products, through the
        # 160-term cap
        vals = list(itertools.islice(_rising_half(a), _SERIES_CAP))
        with mp.workdps(30):
            for n, v in enumerate(vals):
                ref = complex(mp.rf(a, n) * mp.rgamma((mp.mpc(a) + n + 1) / 2))
                assert abs(v - ref) <= 1e-14 * abs(ref), n
        if a in (-3.0, -2.0):
            parity = int(-a) % 2
            assert all(v == 0 for v in vals[1 - parity::2])
            assert all(v != 0 for v in vals[parity:int(-a) + 1:2])


class TestDiagonalStreams:
    """Finite sums and thm9 read C_n^(s-n) from one gegenbauer_seq per
    diagonal and advance their Pochhammer and gamma factors term to term,
    so no term costs a scalar Gegenbauer sum or a gamma call."""

    def test_cor7_b_scalar_calls(self, monkeypatch):
        geg = _count_calls(monkeypatch, "gegenbauer", (legdual.registry, legdual.polys))
        gam = _count_calls(monkeypatch, "gamma", (legdual.registry, legdual.hypergeom))
        r = evaluate_identity("cor7.b", {"k": 8, "lam": 0.3 - 0.6j}, 0.6)
        assert r.terms_used == 17 and r.passed
        assert geg[0] == 1  # the left-hand side
        assert gam[0] <= 1

    def test_thm9_fwd_makes_no_scalar_gegenbauer_call(self, monkeypatch):
        geg = _count_calls(monkeypatch, "gegenbauer", (legdual.registry, legdual.polys))
        r = evaluate_identity("thm9.fwd", {"nu": 0.3 + 0.2j, "mu": 1.1 - 0.4j}, 0.6)
        assert r.passed and r.terms_used > 12
        assert geg[0] == 0


def _mp_P(nu, mu, y):
    return mp.legenp(nu, -mu, y, type=2 if y < 1.0 else 3)


class TestPChains:
    """Chains of P at shifted order (and degree) against mpmath, k <= 144."""

    NU, MU = 0.3 + 0.2j, 1.1 - 0.4j
    K = 145

    @staticmethod
    def _check(values, refs):
        for k, (v, ref) in enumerate(zip(values, refs)):
            if abs(ref) > 1e-290:
                assert abs(v - complex(ref)) <= 1e-12 * abs(ref), k
            else:
                # below the normal range of doubles: absolute agreement
                assert abs(v - complex(ref)) <= 1e-300, k

    @pytest.mark.parametrize("x,nu,mu", [
        pytest.param(0.55, NU, MU, id="0.55"),
        pytest.param(0.7, NU, MU, id="0.7"),
        pytest.param(0.85, NU, MU, id="0.85"),
        # nu - mu = 2: b_1 = 0 ties f_1 to f_2 alone, and the elimination
        # restarts past it
        pytest.param(0.6, 2.5 + 0.1j, 0.5 + 0.1j, id="terminating"),
    ])
    def test_fixed_degree_below_one(self, x, nu, mu):
        vals = list(itertools.islice(_P_chain(nu, mu, x, 0), self.K))
        self._check(vals, [_mp_P(nu, mu + k, x) for k in range(self.K)])

    @pytest.mark.parametrize("x", [0.55, 0.7, 0.85])
    @pytest.mark.parametrize("arg", ["recip", "quadratic"])
    def test_fixed_degree_above_one(self, x, arg):
        y = 1.0 / x if arg == "recip" else (1.0 + x * x) / (2.0 * x)
        vals = list(itertools.islice(_P_chain(self.NU, self.MU, y, 0), self.K))
        self._check(vals, [_mp_P(self.NU, self.MU + k, y) for k in range(self.K)])

    @pytest.mark.parametrize("x", [0.55, 0.7, 0.85])
    def test_diagonal_below_one(self, x):
        vals = list(itertools.islice(_P_chain(self.NU, self.MU, x, 1), self.K))
        self._check(vals, [_mp_P(self.NU + k, self.MU + k, x) for k in range(self.K)])

    @pytest.mark.parametrize("x", [0.55, 0.7, 0.85])
    def test_parity_interleaved(self, x):
        vals = list(itertools.islice(_P_half_chain(self.NU, self.MU, x, 1), self.K))
        self._check(vals, [_mp_P(self.NU + 0.5 * n, self.MU + 0.5 * n, x)
                           for n in range(self.K)])

    def test_zero_head_falls_back_to_direct(self):
        # P^3_2 = 0 heads the chain P^{3-k}_2; every value is then direct
        vals = list(itertools.islice(_P_chain(2, -3, 0.5, 0), 8))
        assert vals == [_P(2, -3 + k, 0.5) for k in range(8)]
        assert vals[0] == 0 and all(v != 0 for v in vals[1:])

    def test_zero_pivot_falls_back_to_direct(self):
        # mu = -1 makes a_0 = 0, the first pivot of the elimination
        vals = list(itertools.islice(_P_chain(self.NU, -1.0, 0.6, 0), 8))
        assert vals[1:] == [_P(self.NU, -1.0 + k, 0.6) for k in range(1, 8)]

    @pytest.mark.parametrize("x,nu,mu", [
        pytest.param(0.75, NU, MU, id="0.75"),
        pytest.param(0.8, NU, MU, id="0.8"),
        pytest.param(0.9, NU, MU, id="0.9"),
        # thm4.fwd's seed-1 and seed-2 points, where f_0 = a_0 f_1 + b_0 f_2
        # cancels: Gautschi's two-start test never passed there
        pytest.param(0.75, 2.4701736487042605 + 0.7198930575905798j,
                     -1.0164401607767743 - 0.3346096292797418j, id="seed1"),
        pytest.param(0.75, 2.4600061848112045 - 0.6971597824868969j,
                     -1.354924023026344 - 0.31159798892641066j, id="seed2"),
    ])
    def test_diagonal_above_one(self, x, nu, mu):
        # y = 1/x in (1, 2^1/2): the ratio |1 - y^2| of minimal to dominant
        # solution is below 1
        y = 1.0 / x
        vals = list(itertools.islice(_P_chain(nu, mu, y, 1), self.K))
        self._check(vals, [_mp_P(nu + k, mu + k, y) for k in range(self.K)])
        vals = list(itertools.islice(_P_half_chain(nu, mu, y, 1), self.K))
        self._check(vals, [_mp_P(nu + 0.5 * n, mu + 0.5 * n, y)
                           for n in range(self.K)])

    def test_no_chain_falls_back(self, monkeypatch):
        # each chain makes one direct P, its head, over the sweeps that held
        # every fallback of the two-start test (thm4.fwd at seeds 1-2).  The
        # registry calls the chains, and the half-order chains call them in
        # `legendre`; within `legendre` only the chains, their heads and
        # their fallbacks, call _P, so every call of legendre._P is a chain's
        chains = _count_calls(monkeypatch, "_P_chain", (legdual.registry, legdual.legendre))
        direct = _count_calls(monkeypatch, "_P", (legdual.legendre,))
        for ident in ("thm4.fwd", "thm6.p1a"):
            for seed in range(4):
                assert all(r.passed for r in sweep_identity(ident, seed=seed))
        # and a chain drawn deep enough at small q (0.05) for t to underflow
        # unless the sweep renormalizes it
        assert len(list(itertools.islice(
            legdual.legendre._P_chain(self.NU, self.MU, 0.9, 0), self.K))) == self.K
        assert direct[0] == chains[0] > 0

    @pytest.mark.parametrize("y", [1.0 / 0.7, 2.0])
    def test_diagonal_from_sqrt2_uses_direct_values(self, y):
        # |1 - y^2| >= 1: P is not the minimal solution there, so every
        # value past the head is a direct evaluation
        vals = list(itertools.islice(_P_chain(self.NU, self.MU, y, 1), 6))
        assert vals[1:] == [_P(self.NU + k, self.MU + k, y) for k in range(1, 6)]
