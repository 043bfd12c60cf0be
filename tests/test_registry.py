"""Identity catalog behavior: descriptors, evaluation, sweeps, domain gates."""

import itertools
import json
import math

import pytest

import legdual.coeffs
from legdual.errors import DomainError, UnknownIdentityError
from legdual.harness import convergence_table
from legdual.hypergeom import DEFAULT_POLICY
from legdual.registry import (
    INV_SQRT2,
    Kind,
    TOL_BOUNDARY,
    TOL_FINITE,
    TOL_SERIES,
    _get_impl,
    _running_sums,
    _sum_terms,
    evaluate_identity,
    get_descriptor,
    list_identities,
    sweep_identity,
)

ALL = list_identities()


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

    def test_descriptor_fields(self):
        d = get_descriptor("thm4.fwd")
        assert d.kind is Kind.INFINITE_SERIES
        assert callable(d.lhs) and callable(d.rhs_terms)
        assert d.x_domain
        assert d.param_domain

    def test_unknown_id(self):
        with pytest.raises(UnknownIdentityError):
            get_descriptor("thm99.zzz")
        with pytest.raises(UnknownIdentityError):
            evaluate_identity("thm99.zzz", {"nu": 0.3}, 0.5)


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

    def test_boundary_rejected_without_condition(self):
        with pytest.raises(DomainError):
            evaluate_identity("thm4.fwd", {"nu": 0.9 + 0.3j, "mu": 0.5j}, INV_SQRT2)

    def test_window_is_sharp_below_boundary(self):
        with pytest.raises(DomainError):
            evaluate_identity("thm4.fwd", {"nu": -0.8 + 0.3j, "mu": 0.5 - 0.2j}, 0.6)

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
        ("thm5.fwd", {"nu": 0.3 + 0.2j, "mu": 1.1}, 0.6, "direct"),
        ("thm8.r1", {"nu": -0.3726486224011847 + 0.5116084083144479j,
                     "mu": 0.9734759867013265 - 0.4989873172751189j}, 0.55, "wynn"),
    ])
    def test_stop_reason_reported(self, ident, params, x, reason):
        r = evaluate_identity(ident, params, x)
        assert r.passed and r.stop_reason == reason
        if reason == "wynn":
            assert r.terms_used == 144 and 0.0 < r.extrap_err < 1e-9
        else:
            assert r.extrap_err == 0.0
        doc = json.loads(json.dumps(r.to_dict()))
        assert doc["stop_reason"] == reason and doc["extrap_err"] == r.extrap_err


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

    def test_programming_error_propagates(self, monkeypatch):
        # only library errors become failed points; a bug in a term stream
        # must surface
        def broken(p, x, pol):
            yield 1.0 + 0j
            raise TypeError("bug in a term stream")

        monkeypatch.setattr(_get_impl("cor6"), "terms", broken)
        with pytest.raises(TypeError):
            sweep_identity("cor6", param_sampler=[{"k": 3, "m": 2}])

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
    # a non-terminating point where thm8.r1 runs to its 144-term cap
    R1 = {"nu": -0.3726486224011847 + 0.5116084083144479j,
          "mu": 0.9734759867013265 - 0.4989873172751189j}

    def test_coefficients_built_once_per_point(self, monkeypatch):
        # frak_N(n) is a Cauchy product of frak_D and omega_pm elements; built
        # once per point they cost one terminating pFq each, O(cap) in all,
        # where rebuilding them for every term costs O(cap^2)
        calls = [0]
        pfq = legdual.coeffs.pfq_terminating

        def counted(*args, **kwargs):
            calls[0] += 1
            return pfq(*args, **kwargs)

        monkeypatch.setattr(legdual.coeffs, "pfq_terminating", counted)
        r = evaluate_identity("thm8.r1", self.R1, 0.55)
        assert r.passed and r.terms_used == 144
        assert 0 < calls[0] <= 3 * 144

    @pytest.mark.parametrize("ident,params,x", [
        ("thm4.inv", {"nu": -3.0, "mu": 0.4}, 0.7),
        ("thm5.fwd", {"nu": 0.3 + 0.2j, "mu": 1.1}, 0.6),
        ("thm8.r1", R1, 0.55),
        ("cor7.b", {"k": 4, "lam": 0.3 - 0.6j}, 0.6),
    ])
    def test_convergence_table_sums_the_summed_stream(self, ident, params, x):
        impl = _get_impl(ident)
        n_max = 50
        reference = complex(impl.lhs(params, x, DEFAULT_POLICY))
        sums = list(itertools.islice(
            _running_sums(impl, params, x, DEFAULT_POLICY), n_max + 1))
        rows = convergence_table(ident, params, x, n_max)
        assert [(t, e) for _, t, e in rows] == [
            (abs(t), abs(partial - reference)) for t, partial in sums]
        total = _sum_terms(impl, params, x, DEFAULT_POLICY)
        if total.stop_reason != "wynn":
            assert total.value == sums[total.terms_used - 1][1]
