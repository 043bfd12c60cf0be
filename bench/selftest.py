"""Self-test of the benchmark: every workload at tiny size reports every
metric that BENCHMARK.json names, with its unit, and a wrong output is
caught.  Run from the repository root:

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEED = 12345
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"catalog": 1, "finite_sweep": 1, "point_eval": 2}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_reported_with_its_unit(workload, trace):
    record = run.bench(workload, SEED, 0, bool(trace), size=TINY[workload])
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert record["correct"], record["checks"]
    assert record["attempted"] >= 1
    assert record["missing_metrics"] == []
    assert {k: v["unit"] for k, v in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    line = json.loads(run.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("seconds", [0, 0.5])
def test_perturbed_oracle_is_a_failure(seconds):
    """The failed op counts once, however many passes the time allows."""
    def perturb(inputs):
        first = next(i for i, op in enumerate(inputs["ops"]) if op[0] == "ferrers_p")
        inputs["oracle"][first] *= 1.0 + 1e-6

    record = run.bench("point_eval", SEED, seconds, False, size=TINY["point_eval"],
                       mutate=perturb)
    assert (record["notes"]["passes"] > 1) == (seconds > 0)
    assert not record["correct"]
    assert record["attempted"] == 3 * TINY["point_eval"]
    assert record["mismatched"] == 1
    assert record["failed"] >= 1
    assert record["raw"]["failed_frac"]["value"] > 0


def test_missing_probe_is_reported_not_raised():
    run.import_library()
    from tracer import Tracer

    tracer = Tracer(probes=(("registry.P", ("_no_such_function",), False),
                            ("hypergeom.gamma", ("gamma",), False)))
    tracer.install()
    try:
        sys.modules["legdual"].gamma(2.5)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["registry.P (_no_such_function)"]
    agg = tracer.by_prefix()
    assert "registry.P" not in agg
    assert agg["hypergeom.gamma"]["calls"] == 1
    assert sys.modules["legdual"].gamma.__module__ == "legdual.hypergeom"
