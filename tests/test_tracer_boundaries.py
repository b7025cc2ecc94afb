"""The benchmark's traced run wraps functions of sring by name, and each run
clears the module-level caches of sring it finds: both must be there."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("sring_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [
        (layer, fname)
        for table in (tracer.SPANS, tracer.COUNTERS)
        for layer, fnames in table.items()
        for fname in fnames
    ]


@pytest.mark.parametrize("layer, fname", _boundaries())
def test_trace_boundary_exists(layer, fname):
    # import_module, since the package attribute sring.similarities is the
    # function of that name, not the module
    module = importlib.import_module(f"sring.{layer}")
    assert callable(getattr(module, fname, None))


def test_benchmark_clears_the_shared_restrictions():
    import sring.core

    spec = importlib.util.spec_from_file_location("sring_bench_workload", BENCH / "workload.py")
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    caches = workload.sring_caches()
    assert caches["sring.core._restricted_ring"] is sring.core._restricted_ring
