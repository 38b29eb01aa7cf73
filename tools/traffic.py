"""What the gated traffic runs of ``src/advsel``: its lane forms, how its
round-robins are answered, and the lines of each function it never runs.

The gated traffic is everything whose numbers are checked: one pass of each
workload of ``advbench/workloads.py`` (imported, never changed) on each of
its golden seeds, ``bound_report(seed=20250810)``, and
``tests/test_acceptance.py`` run through ``pytest.main``. A fast path whose
lines this prints runs in none of them.

Lines are traced with ``sys.settrace``, only in frames of ``src/advsel``.
Lane forms are counted by wrapping ``harness._lane_trials`` and
``harness.LaneBlock``: each ``LaneBlock`` the harness builds is kept (with or
without order keys), a run (a q-select or q-sort block on keys that run
monotone over its items), stacked (with or without keys) or shared (lemma1's
graph); a lane algorithm's block of trials that runs one session per trial
counts as per trial.

Round-robins are counted by how they were answered, by wrapping the
``wins_within`` of ``adversary``'s graphs and ``_round_robin_wins``: ranked
(a policy graph whose items' values make them an order), policy grid (a
policy graph's items that are no order, ``random``'s always), grid (any
other graph's blocked ``beats`` grids), counted (a construction's counted
wins) or per pair (every pair asked alone, in order: a logged round-robin,
the memo's or Scheffe's).

Run from anywhere, with no arguments; it writes no file:

    python tools/traffic.py

The acceptance tests take one to a few minutes under the trace, and a
timing gate among them (c10's wall-clock ratio) may fail there, as the
trace slows every line of ``src/advsel``; the lines and forms are counted
all the same. The exit status is the acceptance run's.
"""

from __future__ import annotations

import os
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "advsel"
REPORT_SEED = 20250810
FORMS = ("kept keyed", "kept keyless", "run", "stacked keyed", "stacked keyless",
         "shared", "per trial")
ANSWERS = ("ranked", "policy grid", "grid", "counted", "per pair")


def _functions(code: types.CodeType):
    """Every function code object inside ``code``, nested ones included."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from _functions(const)


def _ranges(lines: list[int]) -> str:
    """Sorted line numbers as ``a-b`` runs."""
    runs, start = [], lines[0]
    for prev, line in zip(lines, lines[1:] + [None]):
        if line != prev + 1:
            runs.append(f"{start}" if start == prev else f"{start}-{prev}")
            start = line
    return ", ".join(runs)


class LineTrace:
    """The (file, line) pairs run in frames of ``src/advsel``."""

    def __init__(self):
        self.ran: set[tuple[str, int]] = set()
        self.prefix = str(PACKAGE) + os.sep

    def _local(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)

    def unrun(self) -> list[str]:
        """Per function of each module, the lines it has that never ran."""
        out = []
        for path in sorted(PACKAGE.glob("*.py")):
            module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
            for code in _functions(module):
                lines = {line for _, _, line in code.co_lines() if line is not None}
                missed = sorted(line for line in lines
                                if (str(path), line) not in self.ran)
                if missed:
                    out.append(f"{path.name}:{code.co_firstlineno} "
                               f"{code.co_qualname}: {_ranges(missed)}")
        return out


class Tally:
    """Counts by kind, per traffic source, printed as a table of ``kinds``
    by source."""

    kinds: tuple[str, ...] = ()

    def __init__(self):
        self.counts: dict[str, Counter] = {}
        self.source: Counter = Counter()

    def start(self, name: str) -> None:
        self.source = self.counts.setdefault(name, Counter())

    def table(self, label: str) -> list[str]:
        names = list(self.counts)
        width = max(len(n) for n in names + [label])
        head = " | ".join([label.ljust(15)] + [n.rjust(width) for n in names])
        rows = [head, "-" * len(head)]
        for kind in self.kinds:
            rows.append(" | ".join([kind.ljust(15)] + [
                str(self.counts[n][kind]).rjust(width) for n in names]))
        return rows


class RoundRobins(Tally):
    """Counts of round-robins by how they were answered, per traffic source."""

    kinds = ANSWERS

    def __init__(self, adversary, scheffe):
        super().__init__()
        policy_wins = adversary.PolicyTournament.wins_within

        def counted(kind, answer):
            def spy(*args, **kwargs):
                self.source[kind] += 1
                return answer(*args, **kwargs)
            return spy

        def ranked(graph, items):
            grids = self.source["grid"]
            wins = policy_wins(graph, items)
            fell = self.source["grid"] - grids      # 1 when it fell to the grid
            self.source["grid"] -= fell
            self.source["policy grid" if fell else "ranked"] += 1
            return wins

        adversary.TournamentGraph.wins_within = counted(
            "grid", adversary.TournamentGraph.wins_within)
        adversary.PolicyTournament.wins_within = ranked
        adversary.ConstructionTournament.wins_within = counted(
            "counted", adversary.ConstructionTournament.wins_within)
        adversary._round_robin_wins = scheffe._round_robin_wins = counted(
            "per pair", adversary._round_robin_wins)


class LaneForms(Tally):
    """Counts of the harness's lane blocks by form, per traffic source."""

    kinds = FORMS

    def __init__(self, harness, algorithms):
        super().__init__()
        self.run_sign = algorithms.run_sign
        self._form = None   # the form of the ``_lane_trials`` call running
        self._config = None
        lane_trials, lane_block = harness._lane_trials, harness.LaneBlock
        trial_block = harness._trial_block

        def spy_lane_trials(config, root, instance, graph, lo, hi):
            outer = self._form, self._config
            self._form = ("stacked" if graph is None
                          else "shared" if instance is None else "kept")
            self._config = config
            try:
                return lane_trials(config, root, instance, graph, lo, hi)
            finally:
                self._form, self._config = outer

        def spy_lane_block(graph, n_items, rng, stride=0):
            block = lane_block(graph, n_items, rng, stride)
            if self._form is not None:
                self.source[self._classify(block)] += 1
            return block

        def spy_trial_block(config, lo, hi):
            calls = sum(self.source.values())
            data = trial_block(config, lo, hi)
            if config.algorithm in harness.LANE_ALGORITHMS \
                    and sum(self.source.values()) == calls:
                self.source["per trial"] += 1
            return data

        harness._lane_trials = spy_lane_trials
        harness.LaneBlock = spy_lane_block
        harness._trial_block = spy_trial_block

    def _classify(self, block) -> str:
        if self._form == "shared":
            return "shared"
        keyed = "keyed" if block.key is not None else "keyless"
        if self._form == "stacked":
            return f"stacked {keyed}"
        if self._config.algorithm in ("q-select", "q-sort") and \
                self.run_sign(block.key, np.arange(block.n_items), block.stride):
            return "run"
        return f"kept {keyed}"


def main() -> int:
    os.environ["ADVSEL_THREADS"] = "1"    # one process, so the trace sees it all
    for path in (str(SRC), str(ROOT / "advbench")):
        sys.path.insert(0, path)
    trace = LineTrace()
    with trace:
        from advsel import adversary, algorithms, harness, report, scheffe
        import workloads
        forms = LaneForms(harness, algorithms)
        answers = RoundRobins(adversary, scheffe)

        def start(name):
            forms.start(name)
            answers.start(name)

        for seed in workloads.GOLDEN_SEEDS:
            for name in workloads.WORKLOADS:
                start(f"{name} {seed}")
                for call in workloads.Workload(name, seed).prepare(0):
                    call()
        start("report")
        report.bound_report(seed=REPORT_SEED)
        start("acceptance")
        import pytest
        status = pytest.main(["-q", "-p", "no:cacheprovider", "-o", "addopts=",
                              str(ROOT / "tests" / "test_acceptance.py")])
    print("LaneBlock constructions by form (per trial: blocks of trials run "
          "one session each)")
    print("\n".join(forms.table("form")))
    print("\nRound-robins by how they were answered")
    print("\n".join(answers.table("answer")))
    print("\nLines of src/advsel no gated traffic ran, per function:")
    print("\n".join(trace.unrun()))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
