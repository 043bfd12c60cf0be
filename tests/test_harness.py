"""Suite driver: determinism, point accounting, convergence diagnostics."""

import hashlib
import math
import random

import pytest

from legdual.errors import DomainError
from legdual.harness import (
    REPORT_VERSION,
    HarnessConfig,
    asymptotic_checks,
    convergence_table,
    run_suite,
)
from legdual import registry
from legdual.registry import INV_SQRT2, Kind, _get_impl, list_identities, tail_order_predict


class TestRunSuite:
    CFG = HarnessConfig(seed=3, sample_counts={
        Kind.INFINITE_SERIES: 3, Kind.FINITE_SUM: 4, Kind.VANISHING_SUM: 4,
    })

    def test_deterministic_serialization(self):
        a = run_suite(self.CFG).serialize()
        b = run_suite(self.CFG).serialize()
        assert a == b

    def test_zero_failures_on_catalog(self):
        r = run_suite(self.CFG)
        assert r.ok and not r.failures
        assert len(r.pass_counts) == 47
        assert r.wall_time > 0.0

    def test_seed_change_keeps_status(self):
        r = run_suite(HarnessConfig(seed=9, sample_counts=self.CFG.sample_counts))
        assert r.ok

    def test_empty_config_empty_result(self):
        r = run_suite(HarnessConfig(sample_counts={}))
        assert r.pass_counts == {} and r.failures == [] and r.asymptotic == {}

    def test_invalid_sample_count_rejected(self):
        with pytest.raises(ValueError):
            HarnessConfig(sample_counts={Kind.FINITE_SUM: 0})

    @pytest.mark.parametrize("seed", range(4))
    def test_default_report_hash(self, seed):
        # the report at the default counts is pinned per report version: a
        # change that moves it bumps REPORT_VERSION and the pin.  With every
        # point passing it records no seed, so seeds 0-3 share one hash
        assert REPORT_VERSION == 1
        doc = run_suite(HarnessConfig(seed=seed)).serialize()
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "ec79c7ef78a54e4879277b9500e1c005c18ea61f99875b37ed351dedfd3bd616")

    def test_sweep_draws_hash(self):
        # the report hash covers only pass counts; this pins the parameters
        # themselves, drawn as sweep_identity draws them at the default
        # counts: a fresh generator per entry and seed
        cfg = HarnessConfig()
        draws = ""
        for seed in range(4):
            for d in list_identities():
                rng = random.Random(seed)
                draws += repr([d.sampler(rng) for _ in range(cfg.count_for(d.kind))])
        assert hashlib.sha256(draws.encode()).hexdigest() == (
            "40a85b398807f6905e1e54c65038c283711b7ec271305fe75a04ea6b4249c7c3")

    def test_every_point_counted(self, monkeypatch):
        # a 12-term cap fails most series points; passing or failing, each
        # swept point is counted once
        capped = HarnessConfig(seed=3, sample_counts={Kind.INFINITE_SERIES: 2})
        for cfg in (self.CFG, capped):
            if cfg is capped:
                monkeypatch.setattr(registry, "_SERIES_CAP", 12)
            r = run_suite(cfg)
            swept = sum(cfg.count_for(d.kind) * len(_get_impl(d.id).x_grid)
                        for d in list_identities() if cfg.count_for(d.kind))
            assert sum(r.pass_counts.values()) + len(r.failures) == swept
            assert r.ok == (not r.failures)
        assert r.failures


class TestAsymptoticChecks:
    def test_all_pass(self):
        outcomes = asymptotic_checks()
        assert outcomes and all(outcomes.values())


class TestConvergenceTable:
    def test_error_monotone_beyond_five(self):
        rows = convergence_table("thm4.inv", {"nu": 0.3, "mu": 1.2}, 0.5, 40)
        errs = [e for _, _, e in rows]
        assert all(errs[i + 1] <= errs[i] for i in range(5, len(errs) - 1))

    def test_terminating_terms_vanish(self):
        rows = convergence_table("thm4.inv", {"nu": -3.0, "mu": 0.4}, 0.7, 12)
        top = 3  # termination index for nu = -3
        assert all(t == 0.0 for n, t, _ in rows if n > top)
        assert rows[-1][2] <= 1e-11 * max(t for _, t, _ in rows)

    def test_term_column_matches_tail_model(self):
        p = {"nu": 0.3, "mu": 1.2}
        rows = convergence_table("thm4.inv", p, 0.65, 34)
        for n in range(20, 33):
            meas = rows[n + 1][1] / rows[n][1]
            pred = (tail_order_predict("thm4.inv", n + 1, p, 0.65)
                    / tail_order_predict("thm4.inv", n, p, 0.65))
            assert abs(meas / pred - 1.0) < 0.05

    def test_boundary_algebraic_decay(self):
        # at the window edge the tail decays algebraically: negative log-slope
        p = {"nu": -0.8 + 0.3j, "mu": 0.5 - 0.2j}
        rows = convergence_table("thm4.fwd", p, INV_SQRT2, 48)
        n1, n2 = 20, 48
        slope = ((math.log(rows[n2][1]) - math.log(rows[n1][1]))
                 / (math.log(n2) - math.log(n1)))
        assert slope < 0.0

    def test_domain_gate(self):
        with pytest.raises(DomainError):
            convergence_table("thm4.fwd", {"nu": 0.3 + 0.2j, "mu": 1.1}, 0.5, 10)
