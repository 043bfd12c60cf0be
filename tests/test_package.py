"""The installed package: importing it needs nothing but the standard library,
and its value types are immutable `collections.namedtuple`s."""

import ast
import os
import pickle
import subprocess
import sys

import pytest

import legdual
from legdual import (
    HarnessConfig,
    IdentityDescriptor,
    IdentityReport,
    ParameterPoint,
    SeriesValue,
    SuiteResult,
    TruncationPolicy,
    get_descriptor,
)
from legdual.asympt import AsymptoticEstimate
from legdual.coeffs import FactorList
from legdual.registry import Kind, _SeriesSum

SRC = os.path.dirname(os.path.dirname(os.path.abspath(legdual.__file__)))


def _loaded_after_import(flags: tuple, modules: tuple) -> str:
    """Which of `modules` a child interpreter started with `flags` has loaded
    once `import legdual; legdual.list_identities()` has run."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import legdual; "
            f"legdual.list_identities(); "
            f"print(sorted(m for m in {modules!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, *flags, "-c", code],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_does_not_load_mpmath():
    assert _loaded_after_import((), ("mpmath",)) == "[]"
    # without site nothing but the package can have loaded these; `typing`
    # (which imports `re`) and `__future__` would slow a cold start
    heavy = ("mpmath", "dataclasses", "inspect", "json", "typing", "re", "__future__")
    assert _loaded_after_import(("-E", "-S"), heavy) == "[]"


def test_no_module_imports_mpmath():
    pkg = os.path.dirname(os.path.abspath(legdual.__file__))
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] in ("mpmath", "dataclasses")
                           for m in mods), name


_VALUES = {
    "TruncationPolicy": (TruncationPolicy(), "rel_tol"),
    "SeriesValue": (SeriesValue(1j, 2, 0.0), "value"),
    "AsymptoticEstimate": (AsymptoticEstimate(1j, None), "leading"),
    "FactorList": (FactorList((0.5,), (0.3,)), "taus"),
    "ParameterPoint": (ParameterPoint(1, 2), "nu"),
    "HarnessConfig": (HarnessConfig(), "sample_counts"),
    "IdentityDescriptor": (get_descriptor("cor6"), "terms"),
    "IdentityReport": (IdentityReport("cor6", {}, 0.5, 1j, 1j, 0.0, 0.0, 3,
                                      True, 1e-11), "passed"),
    "_SeriesSum": (_SeriesSum(1j, 3, 1.0, "wynn", 0.0), "value"),
}


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_fields_are_read_only(name):
    value, field = _VALUES[name]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


def test_parameter_point_holds_complex():
    p = ParameterPoint(1, 2)
    assert type(p.nu) is complex and type(p.mu) is complex
    assert type(p._replace(mu=3).mu) is complex


def test_harness_configs_do_not_share_counts():
    a, b = HarnessConfig(), HarnessConfig()
    assert a.sample_counts == b.sample_counts
    assert a.sample_counts is not b.sample_counts
    with pytest.raises(ValueError):
        a._replace(sample_counts={Kind.FINITE_SUM: 0})


def test_replace_keeps_the_other_fields():
    policy = TruncationPolicy()._replace(rel_tol=1e-15)
    assert policy == TruncationPolicy(1e-15, 100000)


@pytest.mark.parametrize("fields", [
    {"rel_tol": -1.0}, {"rel_tol": 0.0}, {"rel_tol": float("nan")},
    {"rel_tol": float("inf")}, {"max_terms": 0}, {"max_terms": -5},
    {"max_terms": 2.5}, {"max_terms": float("nan")},
])
def test_truncation_policy_checks_its_fields(fields):
    # a bad tolerance or cap is refused when the policy is built, on
    # `_replace` as well, not after a sum has run to its cap
    with pytest.raises(ValueError):
        TruncationPolicy(**fields)
    with pytest.raises(ValueError):
        TruncationPolicy()._replace(**fields)


_TYPES = {
    TruncationPolicy: (("rel_tol", "max_terms"), {"rel_tol": 1e-13, "max_terms": 100000}),
    SeriesValue: (("value", "terms_used", "error_estimate"), {}),
    ParameterPoint: (("nu", "mu"), {}),
    IdentityDescriptor: (("id", "kind", "lhs", "terms", "n_top", "sampler", "x_grid",
                          "x_window", "boundary_ok", "param_check", "tail"),
                         {"sampler": None, "x_grid": (0.35, 0.6, 0.8), "x_window": None,
                          "boundary_ok": None, "param_check": None, "tail": None}),
    IdentityReport: (("id", "params", "x", "lhs", "rhs", "abs_err", "rel_err", "terms_used",
                      "passed", "tolerance_used", "error", "stop_reason", "extrap_err"),
                     {"error": None, "stop_reason": None, "extrap_err": None}),
    _SeriesSum: (("value", "terms_used", "max_mag", "stop_reason", "extrap_err"), {}),
    HarnessConfig: (("seed", "sample_counts"), {"seed": 0, "sample_counts": None}),
    SuiteResult: (("pass_counts", "failures", "asymptotic", "wall_time"), {}),
    AsymptoticEstimate: (("leading", "remainder_bound"), {}),
}


@pytest.mark.parametrize("cls", list(_TYPES), ids=lambda cls: cls.__name__)
def test_value_type_fields(cls):
    fields, defaults = _TYPES[cls]
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert cls.__slots__ == ()


@pytest.mark.parametrize("value", [
    TruncationPolicy(1e-15, 50),
    SeriesValue(1j, 2, 0.0),
    ParameterPoint(0.3 + 0.2j, 1.1),
    IdentityReport("cor6", {"nu": 0.5j}, 0.5, 1j, 1j, 0.0, 0.0, 3, True, 1e-11,
                   stop_reason="terminated", extrap_err=0.0),
    _SeriesSum(1j, 3, 1.0, "wynn", 1e-16),
    HarnessConfig(seed=4, sample_counts={Kind.FINITE_SUM: 3}),
    SuiteResult({"cor6": 3}, [], {"gegenbauer_bound": True}, 0.25),
    AsymptoticEstimate(1j, None),
], ids=lambda value: type(value).__name__)
def test_value_types_pickle(value):
    # every value type but IdentityDescriptor, which holds callables
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back == value
