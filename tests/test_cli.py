"""Command-line behavior: parsing, serialization, exit codes."""

import argparse
import csv
import io
import json

import pytest

from legdual import cli
from legdual.cli import format_complex, main, parse_complex
from legdual.errors import ConvergenceError
from legdual.harness import SuiteResult
from legdual.registry import IdentityReport, _schema, evaluate_identity, list_identities


class TestComplexLiterals:
    @pytest.mark.parametrize("text,expect", [
        ("1", 1 + 0j),
        ("-1.5", -1.5 + 0j),
        ("0.3+0.2i", 0.3 + 0.2j),
        ("0.3-0.2i", 0.3 - 0.2j),
        ("1e-2-3.5e1i", 0.01 - 35j),
        ("+2.5+0.5i", 2.5 + 0.5j),
    ])
    def test_parses(self, text, expect):
        assert parse_complex(text) == expect

    @pytest.mark.parametrize("text", ["", "i", "1+i", "1 + 2i", "abc", "1+2j", "nan"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)

    def test_format_round_trip(self):
        z = 0.1234567890123456 - 9.87654321e-5j
        assert parse_complex(format_complex(z)) == z


class TestEval:
    def test_trivial_value(self, capsys):
        rc = main(["eval", "ferrers", "--nu", "1", "--mu", "0", "--x", "0.6"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["value"][0] - 0.6) < 1e-13
        assert doc["value"][1] == 0.0

    def test_domain_error_exit_one(self, capsys):
        rc = main(["eval", "ferrers", "--nu", "1", "--mu", "0", "--x", "1.5"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    # P is about 1.2e421
    @pytest.mark.parametrize("mu", ["-200.5"])
    def test_gamma_overflow_exit_one(self, capsys, mu):
        assert main(["eval", "ferrers", "--nu", "0.3", f"--mu={mu}", "--x", "0.5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: gamma at z = ")
        assert err.count("\n") == 1

    def test_gamma_underflow_answers_zero(self, capsys):
        # P is about 1.3e-424: the double is 0
        assert main(["eval", "ferrers", "--nu", "0.3", "--mu=200.5", "--x", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == [0.0, 0.0]

    # integer degree: P^-2_160(1e3) is about 2.5e522, P^-2_3(1e200) about
    # 1.2e599
    @pytest.mark.parametrize("argv", [
        ["eval", "legendre", "--nu", "160", "--mu", "2", "--x", "1e3"],
        ["eval", "legendre", "--nu", "3", "--mu", "2", "--x", "1e200"],
    ])
    def test_integer_degree_overflow_exit_one(self, capsys, argv):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: P of degree ")
        assert "above the range of doubles" in err and err.count("\n") == 1

    def test_integer_degree_underflow_answers_zero(self, capsys):
        # P^-160_160(0.5) is about 1.5e-343: finite JSON with the double 0
        assert main(["eval", "ferrers", "--nu", "160", "--mu", "160", "--x", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert doc["value"] == [0.0, 0.0]

    # ferrers_p(0.3, 0.2, 0.6) sums 19 terms
    POINT = ["eval", "ferrers", "--nu", "0.3", "--mu", "0.2", "--x", "0.6"]

    def test_max_terms_honoured(self, capsys):
        assert main(self.POINT + ["--max-terms", "5"]) == 1
        assert "did not converge within 5 terms" in capsys.readouterr().err
        assert main(self.POINT + ["--max-terms", "19"]) == 0

    @pytest.mark.parametrize("flag,value,message", [
        ("--rel-tol", "-1", "--rel-tol must be finite and positive"),
        ("--rel-tol", "nan", "--rel-tol must be finite and positive"),
        ("--rel-tol", "0", "--rel-tol must be finite and positive"),
        ("--rel-tol", "inf", "--rel-tol must be finite and positive"),
        ("--max-terms", "-5", "--max-terms must be at least 1"),
        ("--max-terms", "0", "--max-terms must be at least 1"),
    ])
    def test_bad_policy_flag_named(self, capsys, flag, value, message):
        assert main(self.POINT + [flag, value]) == 1
        err = capsys.readouterr().err
        assert message in err and "converge" not in err


    def test_csv_has_the_json_fields(self, capsys):
        argv = ["eval", "legendre", "--nu", "0.3+0.2i", "--mu=-0.4", "--x", "1.5"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(argv + ["--format", "csv"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert list(row) == ["function", "nu_re", "nu_im", "mu_re", "mu_im", "x",
                             "value_re", "value_im", "terms_used", "error_estimate"]
        assert row["function"] == doc["function"]
        assert [float(row["nu_re"]), float(row["nu_im"])] == doc["nu"]
        assert [float(row["mu_re"]), float(row["mu_im"])] == doc["mu"]
        assert [float(row["value_re"]), float(row["value_im"])] == doc["value"]
        assert int(row["terms_used"]) == doc["terms_used"]
        assert float(row["error_estimate"]) == doc["error_estimate"]


class TestVerify:
    def test_passing_point(self, capsys):
        rc = main(["verify", "thm5.fwd", "--nu", "0.3+0.2i", "--mu", "1.1",
                   "--x", "0.6"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["params"]["nu"] == [0.3, 0.2]

    def test_band_above_a_failed_boundary_is_a_series_point(self, capsys):
        # thm4.fwd's boundary condition fails at this point: x just above
        # 2^-1/2 is judged at the series tolerance, not the boundary one
        assert main(["verify", "thm4.fwd", "--nu=0.9+0.3i", "--mu=0+0.5i",
                     "--x", "0.7071067811865481"]) == 0
        assert '"tolerance": 1e-09' in capsys.readouterr().out

    def test_integer_parameters(self, capsys):
        assert main(["verify", "cor6", "--k", "3", "--m", "2", "--x", "0.9"]) == 0
        capsys.readouterr()

    def test_out_of_domain_exit_one(self, capsys):
        rc = main(["verify", "cor6", "--k", "3", "--m", "2", "--x", "1.5"])
        assert rc == 1
        capsys.readouterr()

    @pytest.mark.parametrize("ident", ["cor7.b", "cor7.d"])
    def test_pole_exit_one(self, capsys, ident):
        # lam = -1, k = 7: Gamma(lam + 2k - r) has its pole at r = 13
        assert main(["verify", ident, "--k", "7", "--lam", "-1", "--x", "0.35"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unknown_id_rejected_before_computation(self, capsys):
        rc = main(["verify", "thm99.zzz", "--nu", "1", "--x", "0.5"])
        assert rc == 1
        assert "unknown identity" in capsys.readouterr().err

    def test_missing_parameters_named(self, capsys):
        # thm4.fwd takes nu and mu: --k alone is refused by the registry,
        # whose message names them
        assert main(["verify", "thm4.fwd", "--x", "0.8", "--k", "3"]) == 1
        assert capsys.readouterr().err == "error: thm4.fwd takes nu, mu; got k\n"

    def test_unused_parameter_refused(self, capsys):
        rc = main(["verify", "thm5.fwd", "--nu", "0.3+0.2i", "--mu", "1.1",
                   "--k", "2", "--x", "0.6"])
        assert rc == 1
        assert capsys.readouterr().err == "error: thm5.fwd takes nu, mu; got nu, mu, k\n"

    def test_integer_parameter_must_be_integral(self, capsys):
        assert main(["verify", "cor6", "--k", "2.5", "--m", "2", "--x", "0.9"]) == 1
        assert capsys.readouterr().err == (
            "error: cor6: k must be a nonnegative integer, got (2.5+0j)\n")

    def test_flags_are_the_catalog_parameters(self):
        # one flag per name in the registry's schema, typed alike everywhere
        types = {}
        for d in list_identities():
            for name, kind in _schema(d.id).items():
                assert types.setdefault(name, kind) is kind
        assert set(types) == {"nu", "mu", "k", "m", "lam", "l"}
        assert cli._catalog_params() == types

    @pytest.mark.parametrize("argv,message", [
        (["verify", "cor6", "--k", "3"], "error: cor6 takes k, m; got k\n"),
        (["verify", "cor6", "--k", "-1", "--m", "0"],
         "error: cor6: k must be a nonnegative integer, got (-1+0j)\n"),
        (["verify", "cor6", "--k", "5", "--m", "2"], "error: requires k/2 < m <= k\n"),
        (["verify", "cor3.a", "--k", "2", "--m", "5"], "error: requires m <= k\n"),
        (["convergence", "cor6", "--k", "3", "--m", "2", "--nu", "1"],
         "error: cor6 takes k, m; got nu, k, m\n"),
    ])
    def test_registry_refuses_the_point(self, capsys, argv, message):
        # the CLI parses the flags it was given; the registry checks them
        assert main(argv + ["--x", "0.5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == message

    @pytest.mark.parametrize("argv", [
        ["verify", "thm5.fwd", "--nu", "1e999", "--mu", "1.1"],
        ["eval", "ferrers", "--nu", "1e999", "--mu", "1.1"],
    ])
    def test_literal_that_overflows_exit_one(self, capsys, argv):
        # the literal parses to inf; the library refuses it
        assert main(argv + ["--x", "0.6"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "must be finite" in err

    def test_side_that_is_not_finite_exit_one(self, capsys):
        # (-2k - mu)_r overflows: pochhammer refuses it, and no NaN is printed
        assert main(["verify", "cor2.a", "--k", "3", "--mu", "1e308", "--x", "0.5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: pochhammer(")
        assert "overflows the range of doubles" in err and "nan" not in err.lower()
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_finite_sum_that_holds_no_digit_exit_one(self, capsys):
        # the largest term is 6.7e23 |lhs|: a refused point, not a pass
        assert main(["verify", "cor2.a", "--k", "30", "--mu", "0.3+0.2i", "--x", "0.5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cor2.a: the largest term")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_failing_point_exit_two(self, capsys):
        # a slowly converging point the summation cannot resolve in doubles
        # values starting with a minus need the = form so argparse keeps them
        rc = main(["verify", "thm4.inv", "--nu=1.0-0.87i",
                   "--mu=-1.45+0.67i", "--x", "0.2"])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["passed"] is False


class TestSweepCommand:
    def test_sweep_passes(self, capsys):
        rc = main(["sweep", "thm9.fwd", "--samples", "2", "--format", "text"])
        assert rc == 0
        assert "points pass" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["sweep", "cor6", "--samples", "0"],
        ["sweep", "cor6", "--samples", "-3"],
        ["convergence", "thm4.inv", "--nu", "0.3", "--mu", "1.2", "--x", "0.5",
         "--n-max", "-1"],
    ])
    def test_empty_check_exit_one(self, capsys, argv):
        # a run that would check no point fails instead of passing
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


class TestReportCsv:
    def test_header_covers_every_report_field(self, capsys):
        assert main(["verify", "thm5.fwd", "--nu", "0.3+0.2i", "--mu", "1.1",
                     "--x", "0.6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(["verify", "thm5.fwd", "--nu", "0.3+0.2i", "--mu", "1.1",
                     "--x", "0.6", "--format", "csv"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        for key in doc:
            assert any(col == key or col.startswith(key + "_") for col in row), key
        assert float(row["params_nu_im"]) == 0.2
        assert float(row["rel_err"]) == doc["rel_err"]
        assert float(row["extrap_err"]) == doc["extrap_err"]
        assert row["stop_reason"] == doc["stop_reason"]

    def test_sweep_rows_carry_their_parameters(self, capsys):
        rc = main(["sweep", "cor6", "--samples", "3", "--seed", "1", "--format", "csv"])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 9
        draws = {(r["params_k"], r["params_m"]) for r in rows}
        assert len(draws) > 1

    def test_error_column_round_trips(self, capsys):
        # an error message can hold a comma; the CSV quotes it
        bad = IdentityReport(
            id="thm4.inv", params={"nu": 0.5 + 0j}, x=0.2, lhs=0j, rhs=0j,
            abs_err=float("nan"), rel_err=float("nan"), terms_used=0,
            passed=False, tolerance_used=0.0,
            error="DomainError: x = 0.2 outside (0.5, 1)")
        ok = evaluate_identity("thm4.inv", {"nu": 0.3 + 0j, "mu": 1.2 + 0j}, 0.65)
        args = argparse.Namespace(format="csv", out=None)
        cli._emit(args, None, cli._csv_rows([ok.to_dict(), bad.to_dict()]), [])
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows[0]["error"] == "" and rows[0]["passed"] == "true"
        assert rows[1]["error"] == bad.error
        assert rows[1]["params_mu_re"] == ""


class TestSuiteCommand:
    # run_suite is stubbed: the command's contract is the report on stdout,
    # the time on stderr and the exit code
    @pytest.mark.parametrize("asymptotic,code", [({"a": True}, 0), ({"a": False}, 2)])
    def test_prints_the_report(self, capsys, monkeypatch, asymptotic, code):
        seen = []

        def stub(cfg):
            seen.append(cfg.seed)
            return SuiteResult({"thm5.fwd": 30}, [], asymptotic, wall_time=1.25)

        monkeypatch.setattr(cli, "run_suite", stub)
        expect = stub(cli.HarnessConfig(seed=0)).serialize() + "\n"
        for _ in range(2):
            assert main(["suite", "--seed", "0"]) == code
            out, err = capsys.readouterr()
            assert out == expect
            assert err == "wall_time=1.250 s\n"
        assert seen == [0, 0, 0]


class TestConvergenceCommand:
    def test_csv_digits_round_trip(self, capsys):
        rc = main(["convergence", "thm4.inv", "--nu", "0.3", "--mu", "1.2",
                   "--x", "0.5", "--n-max", "6", "--format", "csv"])
        assert rc == 0
        reader = csv.DictReader(io.StringIO(capsys.readouterr().out))
        rows = list(reader)
        assert len(rows) == 7
        for row in rows:
            # 17 significant digits reparse to the same double
            v = float(row["term_mag"])
            assert f"{v:.17g}" == row["term_mag"]


    def test_reports_how_the_sum_stopped(self, capsys):
        argv = ["convergence", "thm4.inv", "--nu", "0.3", "--mu", "1.2",
                "--x", "0.65", "--n-max", "4"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        stop = evaluate_identity("thm4.inv", {"nu": 0.3, "mu": 1.2}, 0.65)
        assert doc["stop_reason"] == "wynn" and doc["terms_used"] == stop.terms_used
        assert doc["extrap_err"] == stop.extrap_err > 0.0
        assert main(argv + ["--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 5
        assert all(r["stop_reason"] == "wynn" for r in rows)
        assert float(rows[0]["extrap_err"]) == doc["extrap_err"]
        assert main(argv + ["--format", "text"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.startswith("stop_reason=wynn extrap_err=")

    def test_csv_carries_terms_used_and_failure(self, capsys, monkeypatch):
        argv = ["convergence", "thm4.inv", "--nu", "0.3", "--mu", "1.2",
                "--x", "0.65", "--n-max", "2", "--format", "csv"]
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        stop = evaluate_identity("thm4.inv", {"nu": 0.3, "mu": 1.2}, 0.65)
        assert [int(r["terms_used"]) for r in rows] == [stop.terms_used] * 3
        assert all(r["failure"] == "" and float(r["error"]) > 0 for r in rows)

        def fail(*args):
            raise ConvergenceError("no estimate is finite, at 160 terms")

        monkeypatch.setattr(cli, "evaluate_identity", fail)
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 3
        for r in rows:
            assert r["failure"] == "ConvergenceError: no estimate is finite, at 160 terms"
            assert r["terms_used"] == r["stop_reason"] == r["extrap_err"] == ""
            assert float(r["error"]) > 0

    def test_finite_sum_that_holds_no_digit_is_a_failure(self, capsys):
        # the rows still print; the refusal takes the stop's place
        argv = ["convergence", "cor2.a", "--k", "30", "--mu", "0.3+0.2i", "--x", "0.5",
                "--n-max", "30"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 31
        assert doc["stop_reason"] is None and doc["terms_used"] is None
        assert doc["error"].startswith("DomainError: cor2.a: the largest term")
        assert main(argv + ["--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert all(r["failure"] == doc["error"] for r in rows)

    def test_terminated_sum(self, capsys):
        rc = main(["convergence", "thm4.fwd", "--nu=-2", "--mu", "0.7",
                   "--x", "0.4", "--n-max", "3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stop_reason"] == "terminated" and doc["extrap_err"] == 0.0


class TestListCommand:
    def test_enumerates_catalog(self, capsys):
        rc = main(["list"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(d["id"] for d in doc) == sorted(
            d.id for d in list_identities()
        )

    def test_rejects_series_options(self, capsys):
        # only eval takes policy flags: the catalog sums to fixed settings,
        # and list and asympt sum no series
        for argv in (["list"], ["asympt"], ["sweep", "cor6", "--samples", "1"],
                     ["verify", "cor6", "--k", "3", "--m", "2", "--x", "0.9"],
                     ["convergence", "cor6", "--k", "3", "--m", "2", "--x", "0.9"]):
            for flag in (["--rel-tol", "1e-10"], ["--max-terms", "5"]):
                assert main(argv + flag) == 1
                assert "unrecognized arguments" in capsys.readouterr().err


class TestAsymptCommand:
    def test_all_checks_pass(self, capsys):
        rc = main(["asympt", "--format", "text"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out


class TestOutputFile:
    def test_out_flag(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        rc = main(["verify", "cor6", "--k", "3", "--m", "2", "--x", "0.9",
                   "--out", str(path)])
        assert rc == 0
        assert json.loads(path.read_text())["passed"] is True
        capsys.readouterr()
