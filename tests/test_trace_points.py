"""The benchmark (``advbench/run.py``) installs its tracer on every run and
exits 2 when a function it wraps is missing from advsel. This guard loads the
tracer by path, so a refactor that moves or renames one of those functions
fails here rather than in the benchmark."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "advbench" / "tracer.py"


def test_every_trace_point_exists():
    spec = importlib.util.spec_from_file_location("advbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer._missing_points() == []
