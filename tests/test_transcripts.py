"""Golden transcripts: every algorithm, against every kind of adversary, must
reproduce the recorded winner or order, query count, rounds, violations,
comb's round sizes and the sha256 of its full query log.

The data file was recorded before the algorithms were rewritten over index
arrays, so it pins the draw order and the query order of the original
query-at-a-time implementations. To record it again (only for an intended
change of transcripts), run ``python tests/test_transcripts.py --record``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from advsel import scheffe
from advsel.adversary import (ComparatorSession, MemoizedStrategy, PivotKiller,
                              TournamentGraph, adversary_from_spec,
                              build_nonadaptive, komod_hard_instance,
                              lemma_one_construction, lemma_two_construction)
from advsel.algorithms import (combined_select, complete_tournament,
                               modified_knockout, quick_select,
                               sequential_select)
from advsel.core import Instance, RngSeed, validate_log
from advsel.sorting import complete_sort, quick_sort

DATA = Path(__file__).with_name("data") / "transcripts.json"
SEEDS = (0, 1, 2)


def _selector(fn, *args):
    def run(session, rng):
        return fn(session, *args, rng=rng)
    return run


ALGORITHMS = {
    "compl": _selector(complete_tournament),
    "seq": _selector(sequential_select),
    "ko-mod-0.5": _selector(modified_knockout, 0.5),
    "ko-mod-0.9": _selector(modified_knockout, 0.9),
    "q-select": _selector(quick_select),
    "comb-0.5": _selector(combined_select, 0.5),
    "comb-0.9": _selector(combined_select, 0.9),
    # 4 re-pairings in round 1, so a field item can win exactly 3/4 of them
    "comb-0.91": _selector(combined_select, 0.91),
    "compl-sort": _selector(complete_sort),
    "q-sort": _selector(quick_sort),
}


class LogReader:
    """An adaptive strategy that reads the log and the pivot hint: the pivot
    loses free queries, and otherwise the last winner keeps winning when it
    is in the pair, else the parity of the log length decides."""

    def decide(self, instance, i, j, log, pivot):
        if pivot == i:
            return j
        if pivot == j:
            return i
        last = log.winner[-1] if log.winner else None
        if last in (i, j):
            return last
        return i if len(log) % 2 else j


def _values(seed, n, high=4):
    rng = np.random.default_rng(1000 + seed)
    return Instance(tuple(float(v) for v in rng.integers(0, high, size=n)))


def _explicit(inst, seed):
    """A valid orientation drawn from a seed, as an explicit edge list."""
    rng = np.random.default_rng(2000 + seed)
    edges = []
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            gap = inst.values[i] - inst.values[j]
            if abs(gap) > inst.delta:
                w = i if gap > 0 else j
            else:
                w = i if rng.random() < 0.5 else j
            edges.append([i, j, w])
    return adversary_from_spec({"kind": "explicit", "edges": edges}, inst)


def _misoriented(inst):
    """A complete tournament in which the lower index always wins, whatever
    the values: every forced pair whose larger value has the higher index is
    a violation."""
    n = inst.n
    return TournamentGraph(np.triu(np.ones((n, n), dtype=bool), 1))


def adversary_cases():
    """(name, instance, adversary factory): a fresh adversary per run, so
    memoizing strategies start empty."""
    cases = []
    for n in (1, 2, 5, 9, 14):
        inst = _values(n, n)
        for policy in ("larger-wins", "smaller-wins", "lower-index-wins"):
            cases.append((f"{policy}:{n}", inst,
                          lambda inst=inst, p=policy: build_nonadaptive(inst, p)))
            cases.append((f"{policy}-dense:{n}", inst,
                          lambda inst=inst, p=policy:
                          build_nonadaptive(inst, p).dense()))
        cases.append((f"random:{n}", inst, lambda inst=inst: build_nonadaptive(
            inst, "random", RngSeed(n).generator())))
        cases.append((f"pivot-killer:{n}", inst, PivotKiller))
        cases.append((f"memo-pivot-killer:{n}", inst,
                      lambda: MemoizedStrategy(PivotKiller())))
        cases.append((f"log-reader:{n}", inst, LogReader))
        cases.append((f"misoriented:{n}", inst,
                      lambda inst=inst: _misoriented(inst)))
        cases.append((f"misoriented-rule:{n}", inst, lambda n=n: build_nonadaptive(
            Instance((0.0,) * n), "lower-index-wins")))
        cases.append((f"explicit:{n}", inst,
                      lambda inst=inst, n=n: _explicit(inst, n)))
    zeros = Instance((0.0,) * 12)
    cases.append(("pivot-killer-zeros:12", zeros, PivotKiller))
    cases.append(("smaller-wins-zeros:12", zeros,
                  lambda: build_nonadaptive(zeros, "smaller-wins")))
    for n in (5, 8, 11, 14):
        inst, graph = komod_hard_instance(n, seed=n)
        cases.append((f"komod-hard:{n}", inst, lambda g=graph: g))
    for n in (5, 7, 13):
        inst, graph = lemma_one_construction(n, seed=n)
        cases.append((f"lemma1:{n}", inst, lambda g=graph: g))
        inst, graph = lemma_two_construction(n, seed=n)
        cases.append((f"lemma2:{n}", inst, lambda g=graph: g))
    return cases


def _log_digest(pairs) -> str:
    h = hashlib.sha256()
    for rec in pairs:
        h.update((",".join(str(int(x)) for x in rec) + ";").encode())
    return h.hexdigest()


def _outcome(result, queries, violations, log_pairs) -> dict:
    out = {"queries": int(queries), "violations": violations,
           "rounds": getattr(result, "rounds", None),
           "sizes": [int(s) for s in getattr(result, "sizes", ())] or None,
           "log": _log_digest(log_pairs)}
    if hasattr(result, "order"):
        out["order"] = [int(x) for x in result.order]
    else:
        out["winner"] = int(result.winner)
    return out


def session_transcript(case: str, algorithm: str, seed: int) -> dict:
    inst, make = ADVERSARIES[case]
    session = ComparatorSession(inst, make())
    result = ALGORITHMS[algorithm](session, RngSeed(seed).generator())
    assert result.queries == session.queries
    pairs = [(r.left, r.right, r.winner, r.ordinal) for r in session.log]
    assert len(pairs) == session.queries
    # the session overrides every violation, misoriented graphs included
    validate_log(inst, session.log)
    return _outcome(result, session.queries, session.violations, pairs)


def _scheffe_inputs(seed, n=9):
    rng = RngSeed(seed, 7).generator()
    p0, cands = scheffe.planted_suite(n, 8, 0.2, rng)
    return cands, scheffe.sample(p0, 60, rng)


def scheffe_transcript(algorithm: str, seed: int) -> dict:
    cands, smp = _scheffe_inputs(seed)
    if algorithm in ("tournament", "quickselect"):
        sel = getattr(scheffe, f"scheffe_{algorithm}")(
            cands, smp, RngSeed(seed).generator())
        return {"winner": int(sel.winner), "tests": int(sel.tests)}
    rule = scheffe.ScheffeTournament(cands, smp)
    session = ComparatorSession(rule.instance, rule)
    result = ALGORITHMS[algorithm](session, RngSeed(seed).generator())
    pairs = [(r.left, r.right, r.winner) for r in session.log]
    assert result.queries == session.queries == len(pairs)
    return _outcome(result, session.queries, session.violations, pairs)


ADVERSARIES = {name: (inst, make) for name, inst, make in adversary_cases()}
SESSION_KEYS = [(c, a, s) for c in ADVERSARIES for a in ALGORITHMS for s in SEEDS]
SCHEFFE_KEYS = [(a, s) for a in (*ALGORITHMS, "tournament", "quickselect")
                for s in SEEDS]


def record() -> dict:
    return {
        "session": {f"{c}|{a}|{s}": session_transcript(c, a, s)
                    for c, a, s in SESSION_KEYS},
        "scheffe": {f"{a}|{s}": scheffe_transcript(a, s)
                    for a, s in SCHEFFE_KEYS},
    }


@pytest.fixture(scope="module")
def golden():
    with open(DATA, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_recorded(golden):
    assert sorted(golden["session"]) == sorted(
        f"{c}|{a}|{s}" for c, a, s in SESSION_KEYS)
    assert sorted(golden["scheffe"]) == sorted(f"{a}|{s}" for a, s in SCHEFFE_KEYS)


def test_cases_reach_violations_and_comb_repairings(golden):
    """The cases exercise what the transcripts are there to pin: counted
    violations, and comb rounds that fall back to re-pairing."""
    runs = golden["session"].values()
    assert any(r["violations"] for r in runs)
    assert any(r["sizes"] and len(r["sizes"]) > 2 for r in runs)


@pytest.mark.parametrize("case", sorted(ADVERSARIES))
def test_session_transcripts(golden, case):
    for algorithm in ALGORITHMS:
        for seed in SEEDS:
            got = session_transcript(case, algorithm, seed)
            assert got == golden["session"][f"{case}|{algorithm}|{seed}"], \
                (case, algorithm, seed)


@pytest.mark.parametrize("algorithm", [*ALGORITHMS, "tournament", "quickselect"])
def test_scheffe_transcripts(golden, algorithm):
    for seed in SEEDS:
        assert scheffe_transcript(algorithm, seed) == \
            golden["scheffe"][f"{algorithm}|{seed}"], (algorithm, seed)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_transcripts.py --record")
    DATA.parent.mkdir(exist_ok=True)
    table = record()
    with open(DATA, "w", encoding="utf-8") as fh:
        # one run per line, so a changed transcript shows as a one-line diff
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(part)}: {{\n" + ",\n".join(
                f"{json.dumps(key)}: {json.dumps(run, sort_keys=True)}"
                for key, run in sorted(table[part].items())) + "\n}"
            for part in sorted(table)) + "\n}\n")
