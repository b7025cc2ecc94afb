"""The benchmark's traced run wraps functions of sring by name; they must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
