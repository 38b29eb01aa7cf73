"""Self-tests of the benchmark's own code, at one trial per cell.

    python3 -m pytest advbench/test_advbench.py -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

workloads = run._import_workloads()
from tracer import MissingTracePoint, Tracer  # noqa: E402

SEED = 3


def _tiny(name: str):
    return workloads.Workload(name, SEED, trials=1)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_span_self_times_sum_to_at_most_wall(name):
    checker = workloads.Checker({})
    tracer = Tracer()
    wall, _ = run.run_pass(_tiny(name), 0, checker, tracer)
    assert 0 < sum(tracer.self_s.values()) <= wall
    ids = {span[0] for span in tracer.spans}
    roots = [span for span in tracer.spans if span[1] is None]
    assert [span[2] for span in roots] == ["pass"]
    assert all(span[1] in ids for span in tracer.spans if span[1] is not None)
    assert checker.attempted > 0 and checker.failed == 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_seed_gives_identical_digests_and_counts(name):
    runs = []
    for _ in range(2):
        workload = _tiny(name)
        checker = workloads.Checker({})
        counts = run.count_pass(workload, checker)
        digests, _, _ = workload.outcome([call() for call in workload.prepare(1)])
        runs.append((counts, digests))
    assert runs[0] == runs[1]


def test_wrong_golden_digest_raises_fail_ratio():
    workload = _tiny("small-n-many-trials")
    digests, verdicts, _ = workload.outcome([call() for call in workload.prepare(0)])
    golden = [list(digests) for _ in range(workloads.VARIANTS)]
    right = workloads.Checker({SEED: golden})
    right.check_pass(workload, 0, digests, verdicts)
    assert right.attempted > 0 and right.fail_ratio == 0
    golden[0][1] = "0" * 16
    checker = workloads.Checker({SEED: golden})
    checker.check_pass(workload, 0, digests, verdicts)
    assert checker.failed == 1 and checker.fail_ratio > 0


def test_repeated_variant_must_reproduce_its_digest():
    workload = _tiny("small-n-many-trials")
    digests, verdicts, _ = workload.outcome([call() for call in workload.prepare(0)])
    checker = workloads.Checker({})
    checker.check_pass(workload, 0, digests, verdicts)
    checker.check_pass(workload, 0, ["0" * 16] + digests[1:], verdicts)
    assert checker.failed == 1


def test_golden_table_covers_the_default_and_held_out_seeds():
    for name, cells in workloads.WORKLOADS.items():
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            table = workloads.load_golden(name, seed)
            assert len(table) == workloads.VARIANTS
            assert all(len(row) == len(cells) for row in table)


def test_default_seed_pass_matches_golden():
    # the extra pass every run checks, whatever its --seed
    seed = workloads.DEFAULT_SEED
    workload = workloads.Workload("session-path", seed)
    checker = workloads.Checker(
        {seed: workloads.load_golden("session-path", seed)})
    run.run_pass(workload, 0, checker)
    assert checker.attempted >= len(workload.cells) and checker.failed == 0


def test_tracer_refuses_a_missing_trace_point(monkeypatch):
    from advsel import engine, harness
    original = harness.run_trials
    monkeypatch.delattr(engine, "quick_select_fast")
    with pytest.raises(MissingTracePoint, match="quick_select_fast"):
        Tracer().install()
    assert harness.run_trials is original


def test_tracer_puts_every_function_back():
    from advsel import harness
    modules = [sys.modules[name] for name in
               ("advsel.harness", "advsel.engine", "advsel.scheffe")
               if name in sys.modules]
    before = {(m, a): getattr(m, a) for m in modules
              for a in dir(m) if not a.startswith("__")}
    with Tracer():
        assert harness.run_trials is not before[(harness, "run_trials")]
    after = {(m, a): getattr(m, a) for (m, a) in before}
    assert all(after[k] is before[k] for k in before)


def test_exits_2_without_printing_when_advsel_is_missing(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
         "small-n-many-trials", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
