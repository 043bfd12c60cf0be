"""Suite driver: determinism, point accounting, convergence diagnostics."""

import hashlib
import math
import random

import pytest

import legdual.harness
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


def _point_digest(reports) -> str:
    """sha256 over each point's params, x, values, errors, terms, stop and
    outcome, in sweep order; `repr` keeps every bit of a float."""
    h = hashlib.sha256()
    for r in reports:
        h.update(repr((sorted(r.params.items()), r.x, r.lhs, r.rhs, r.rel_err,
                       r.terms_used, r.stop_reason, r.extrap_err, r.passed,
                       r.error)).encode())
    return h.hexdigest()


# _point_digest of each identity's default-count sweep at seeds 0, 1, 2, 3
# (the first 16 hex digits).  A change that moves a point re-pins its
# identity here on purpose and says in CHANGES.md what moved.
_POINT_DIGESTS = {
    "intro.1": ("de9383001db2ac71", "3d531b66979f0714", "faf5f711c7c0b74a", "c6a9c890b3ab7d1f"),
    "intro.2": ("677c655a56692a71", "6e2567f100026c03", "c0e234bf75ae477d", "17f2b26ce8c47daa"),
    "intro.3": ("0a1014cfb1018ed1", "07686f88b7f4ad1f", "7a2cd60f911a1522", "f72fe8fb4bc89c4f"),
    "thm4.fwd": ("f04a7d7d44f525a9", "a319d2df44e2d511", "64ba21a5b4aa0ac3", "b9414ae82d7270bf"),
    "thm4.inv": ("93e62d7bad812994", "2d1fdfc5236fbb02", "bb88aa575e07446f", "5bd110b5f6b5bdd6"),
    "cor2.a": ("db2d0863576caf39", "dd24a95e40eff4ec", "59e96e5eb1d4870f", "d65a137d9946caa8"),
    "cor2.b": ("4ff4054bff68cf90", "505cce68177e8dde", "ebba8372375b35ca", "709915a1ccbbd98c"),
    "cor3.a": ("5091d5d9be9afb15", "6dc8fb48ab7ed112", "8b1cda5d86d9ff1b", "f7faa6988f130acc"),
    "cor3.b": ("2654f2e7892a84f5", "ddb298d7467e38ec", "4e1aafa90fc7f3eb", "512191a27d428918"),
    "thm5.fwd": ("3cc9734a84429184", "bc5cac4ba7d78551", "13976a03fea261bc", "051a914fa11be5c4"),
    "thm5.inv": ("93ba75ae460483e2", "ca086d88cfe21d24", "14f31f8a4829b769", "110bee6991bca624"),
    "cor4.a": ("bf3fdf82a3a33f3b", "cb343e88e10aeddb", "ac53705a1bae763e", "0235bc2bdcdf2389"),
    "cor4.b": ("80ec4403c62e344f", "5a421f9e35ac2c3d", "d3410bd1e52d3222", "1bc9c3cc4304ad0e"),
    "thm6.p1a": ("ac5410ae3a78953a", "8c8b36656bbd4f05", "99685dc62ad0b7a1", "f091de5382e582ca"),
    "thm6.p1b": ("014d6e9c00ffc92f", "4006b1e62b083c5c", "66b4273d480cbed8", "8fe29b830dd25eb4"),
    "thm6.p2a": ("f3ad91caf77fc127", "143028fc05afdd13", "27781c3c1df5d7e4", "b3aea7b9ef677171"),
    "thm6.p2b": ("6064bf705e7a4a37", "391f98b4ef67394f", "07a1ba80a6946f91", "c7d10540977a8574"),
    "cor5.a": ("db50c0d59312d229", "da2e1fbb2617f893", "4d7d6d6326928064", "96abd931c66ed9d3"),
    "cor5.b": ("6106adf68c475fd2", "03fdb66c00eb299c", "e5c2c9d96c72edba", "a353b3e71c6a66b2"),
    "cor5.c": ("198f7620d5041bcd", "600cd2044a8f5cb3", "f7bf28c9486e6d7a", "352c342f54ab4500"),
    "cor5.d": ("3283163e1fd01e8a", "4ffdab01495a2d09", "9ae7161bb48659a6", "352199cb7368a9d8"),
    "cor6": ("6f377aa8050ba153", "3dfe7e0f4f6f7af6", "ecec8bb557a17aab", "c51a230a266546b2"),
    "thm7.q1": ("71b710e19469a525", "716584025a8c8949", "3120291df685e720", "fdb5c047f885ac56"),
    "thm7.q2": ("ab9363de389de3b9", "e13496ad537ee643", "ef6cc1f1ff463e13", "b698c48e8e5d5a55"),
    "thm7.q3": ("295e962b20b87550", "0cd1c078816f9dde", "93d2a91642f1963a", "71cc56d586cd8c4a"),
    "thm7.q4": ("c335f439a386ce83", "eb47273c1c5dbc01", "94d9ab5c90d43e61", "3492a9bc4d59a18f"),
    "cor7.a": ("fe1d65482bc63894", "9ac1ea99ae2aa8b5", "7dd84e42166eab92", "526eb71911a13854"),
    "cor7.b": ("06c7bb678ffa09d2", "a02d116012063a32", "ec2137e5bb3e2213", "1ea5e875e7ae245f"),
    "cor7.c": ("486cdde1ea92e271", "934af18e6e128f95", "7c94691ec2a26b0a", "3d9382897ec37ef8"),
    "cor7.d": ("c73a6f897954ea14", "780e9dbf8b46464c", "da58b86f844db1d5", "73c7c9adb45faca9"),
    "cor8.a": ("b8bd15aedcda0db4", "3461096da32b63a3", "5375d270d10e26fc", "9eb272acb0ba7b89"),
    "cor8.b": ("0a00c6252ce00fdf", "77e503855eac90ef", "7720c35d78dde134", "f15320c83a6ac12d"),
    "cor9.a": ("9ed7e9c29048f38e", "a3a62cb40cfcbaa8", "d85dba1636dbff64", "0c466e49a33988df"),
    "cor9.b": ("e74b26c34b0223f3", "19f3e39131312e56", "a481efe9edef2e20", "e596b23bb54bd793"),
    "thm8.g1": ("34ecb02313a73848", "1b70c739ed3e9097", "125baf08a905a0bd", "9c944c2acae7ba24"),
    "thm8.r1": ("c12b1d7b4d6b288c", "c6ef4909d80c9a47", "d1360ca613e4458f", "6cb3ef37c78c7c11"),
    "thm8.r2": ("b5b003a61592bc84", "05252fbc2102fa2a", "753f850e8eb0c2fa", "bd340821acf41aca"),
    "thm8.g2": ("fad7c8a758b6dfb6", "09ecd50783423e08", "89efabe1e5c7b516", "728ba7ca4307ac52"),
    "cor10.a": ("5f347615dac1b9e2", "498cf1c534fec85a", "541d13a14f5a1bce", "1f41ebfafd26dfac"),
    "cor10.b": ("b28f2371e3ce90f7", "574da17cd4bd6876", "6181da68cee2940e", "5cf6076e0a41efe8"),
    "cor10.c": ("1beb861f27e18a1d", "79aeee25e6cc51ac", "0db30bed8a2aef88", "fff27485cda572f7"),
    "cor10.d": ("7ca0d76774f271e1", "f33b0c9de7cd73e0", "693fa59156fa54f3", "4f427c84ce0f1fa6"),
    "thm9.fwd": ("06d2f70da839c170", "3f51f5b3df955cad", "871429de942a6ccf", "c43f3ad197dbc652"),
    "thm9.inv": ("1766094c9f5cfc95", "bb94262fa1a62a8f", "d7baeb77bb36e294", "020dc82b42f93166"),
    "cor11.a": ("498a54ec189a4c56", "c2f11cc527816269", "9a358bbddd283d8d", "d9547aa1bc9416a1"),
    "cor11.b": ("ad3cf824cd82a9fe", "feac3cbe9834c5df", "44d772794e955884", "fa31ccca5b5e19b0"),
    "lambda3": ("95968448e9da18f5", "c78ef8123df9c759", "7872c9c5419ab5b5", "bc6375ef7c341d2b"),
}


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

    def test_empty_config_refused(self):
        # a suite of no identities checks nothing
        with pytest.raises(ValueError, match="checks nothing"):
            HarnessConfig(sample_counts={})

    @pytest.mark.parametrize("counts", [{"finite_sum": 4}, {Kind.FINITE_SUM: 4, None: 1}])
    def test_key_not_a_kind_refused(self, counts):
        # a key that is not a Kind matches no identity: it would sweep nothing
        with pytest.raises(ValueError, match="is not a Kind"):
            HarnessConfig(sample_counts=counts)

    def test_invalid_sample_count_rejected(self):
        with pytest.raises(ValueError):
            HarnessConfig(sample_counts={Kind.FINITE_SUM: 0})

    @pytest.mark.parametrize("n", [2.5, float("inf"), float("nan")])
    def test_non_integral_sample_count_rejected(self, n):
        # a fractional count would be cut silently, an infinite one overflow
        with pytest.raises(ValueError, match="must be an integer"):
            HarnessConfig(sample_counts={Kind.FINITE_SUM: n})
        with pytest.raises(ValueError, match="must be an integer"):
            HarnessConfig()._replace(sample_counts={Kind.FINITE_SUM: n})

    @pytest.mark.parametrize("seed", range(4))
    def test_default_report_hash(self, seed, monkeypatch):
        # the report at the default counts is pinned per report version: a
        # change that moves it bumps REPORT_VERSION and the pin, and the
        # sha256 of `legdual suite --seed 0` (the report plus a newline) that
        # the CI workflow checks.  With every point passing it records no
        # seed, so seeds 0-3 share one hash
        swept, sweep = {}, legdual.harness.sweep_identity

        def recorded(identity_id, *args, **kwargs):
            reports = swept[identity_id] = sweep(identity_id, *args, **kwargs)
            return reports

        monkeypatch.setattr(legdual.harness, "sweep_identity", recorded)
        assert REPORT_VERSION == 1
        doc = run_suite(HarnessConfig(seed=seed)).serialize()
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "ec79c7ef78a54e4879277b9500e1c005c18ea61f99875b37ed351dedfd3bd616")
        # the points behind it, bit for bit, per identity
        assert swept.keys() == _POINT_DIGESTS.keys()
        moved = [i for i, reports in swept.items()
                 if _point_digest(reports)[:16] != _POINT_DIGESTS[i][seed]]
        assert not moved, f"points moved at seed {seed} in {moved}"
        # an infinite series stops at its termination index or by Wynn's
        # test, before the term cap
        for i, reports in swept.items():
            assert all(r.stop_reason in ("terminated", "wynn") for r in reports), i
            if registry.get_descriptor(i).kind is Kind.INFINITE_SERIES:
                assert max(r.terms_used for r in reports) < registry._SERIES_CAP, i

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

    def test_negative_n_max_refused(self):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            convergence_table("thm4.inv", {"nu": 0.3, "mu": 1.2}, 0.5, -1)
        assert len(convergence_table("thm4.inv", {"nu": 0.3, "mu": 1.2}, 0.5, 0)) == 1
