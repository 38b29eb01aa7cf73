"""The benchmark (``advbench/run.py``) installs its tracer on every run and
exits 2 when a function it wraps is missing from advsel. This guard loads the
tracer by path, so a refactor that moves or renames one of those functions
fails here rather than in the benchmark."""

import importlib.util
from pathlib import Path

import pytest

from advsel import harness, scheffe
from advsel.core import RngSeed

TRACER = Path(__file__).resolve().parents[1] / "advbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("advbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_exists(tracer):
    assert tracer._missing_points() == []


def test_tracer_counts_every_scheffe_test(tracer):
    # the tracer counts tests by wrapping scheffe.scheffe_test; a selector
    # that stopped calling it by that name would set the count to 0
    rng = RngSeed(71).generator()
    p0, cands = scheffe.planted_suite(10, 8, 0.1, rng)
    smp = scheffe.sample(p0, 500, rng)
    with tracer.Tracer() as t:
        tests = (scheffe.scheffe_tournament(cands, smp, RngSeed(1).generator()).tests
                 + scheffe.scheffe_quickselect(cands, smp, RngSeed(2).generator()).tests)
    assert tests > 45
    assert t.counts["scheffe.tests"] == tests


def test_tracer_counts_every_adversary_build(tracer, monkeypatch):
    # the construction's own graph is built through adversary_from_spec
    # too; a harness that built it elsewhere would hide it from the count.
    # lemma2's graph carries a permutation drawn per trial, so it is built
    # once per trial
    monkeypatch.delenv("ADVSEL_THREADS", raising=False)
    config = harness.TrialConfig(algorithm="seq", instance="lemma2:15",
                                 adversary="construction", trials=5, seed=3)
    with tracer.Tracer() as t:
        harness.run_trials(config)
    assert t.counts["adversary.calls"] == 5
