"""The benchmark's workloads still run against the package.

Each workload calls relaymarket's entry points with fixed signatures, and
the traced pass patches the functions named in benchmark/run.py's
SPAN_METRICS onto their modules. A renamed function or a changed
signature there breaks the benchmark without breaking any other test, so
this runs two trials of every workload, plain and traced, and checks them
against the digests the benchmark recorded. It reads benchmark/ and
writes nothing there.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
SEED = 0
TRIALS = 2


@pytest.fixture(scope="module", name="bench")
def bench_fixture():
    """(run, workloads, Tracer) imported from benchmark/ without writing
    bytecode there."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(BENCHMARK))
        spec = importlib.util.spec_from_file_location("benchmark_run", BENCHMARK / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        workloads = importlib.import_module("workloads")
        tracing = importlib.import_module("tracing")
    return run, workloads, tracing.Tracer


@pytest.mark.parametrize("name", ["mix-2x6", "run-100x200", "verify-25x50", "oracle-2x2"])
def test_plain_and_traced_trials_match_the_recorded_digests(bench, name):
    run, workloads, Tracer = bench
    assert name in run.WORKLOAD_NAMES
    wl = workloads.WORKLOADS[name]
    params = wl.params(SEED)
    expected = run.recorded_digests(name, SEED)[:TRIALS]
    assert len(expected) == TRIALS
    tracer = Tracer([span for span in run.SPAN_METRICS if span != "trial"],
                    keep=workloads.COUNTED_RETURNS)
    for i in range(TRIALS):
        plain = wl.run(params, i)
        tracer.begin(i)
        with tracer.patched():
            traced = wl.run(params, i)
        for result in (plain, traced):
            assert wl.check(result) is None
            assert run.digest(wl.key(params, i, result)) == expected[i]
        assert workloads.layer_counts(params, tracer.returns)
    assert tracer.spans
