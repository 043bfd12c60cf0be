"""The benchmark's tracer resolves every library function it probes.

`bench/tracer.py` names the functions it times by string, and reports a name
it cannot find as missing instead of failing, so a rename or deletion in the
package would drop a per-layer metric without a test noticing."""

import importlib.util
import sys
from pathlib import Path

import legdual  # noqa: F401  -- find_function searches the imported modules

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_probe_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("legdual_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses look the module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert len(tracer.PROBES) == 26
    missing = [prefix for prefix, names, _ in tracer.PROBES
               if tracer.find_function(names) is None]
    assert missing == []
