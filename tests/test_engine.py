"""Batch answers: a graph or the pivot-killer answering a session's whole
pivot round, matching or round-robin in one call must give the same result,
query count, violations and log as the same adversary asked one query at a
time, for the same (instance, adversary, seed)."""

import numpy as np
import pytest

from advsel.adversary import (ComparatorSession, PivotKiller, TournamentGraph,
                              build_nonadaptive, comparator_for,
                              komod_hard_instance)
from advsel.algorithms import (combined_select, complete_tournament,
                               modified_knockout, quick_select,
                               sequential_select)
from advsel.core import Instance, RngSeed
from advsel.sorting import complete_sort, quick_sort

POLICIES = ("larger-wins", "smaller-wins", "lower-index-wins", "random",
            "pivot-killer")


class PairByPair:
    """The same adversary behind a strategy with no batch form, so the
    session asks it one query at a time."""

    def __init__(self, adversary):
        self.adversary = adversary

    def decide(self, instance, i, j, log, pivot):
        if isinstance(self.adversary, TournamentGraph):
            return self.adversary.winner(i, j)
        return self.adversary.decide(instance, i, j, log, pivot)


def transcript(inst, adv, run, seed):
    session = ComparatorSession(inst, adv)
    result = run(session, RngSeed(seed).generator())
    log = [(r.left, r.right, r.winner, r.ordinal) for r in session.log]
    return result, session.queries, session.violations, log


def assert_batches_match_pairs(inst, adv, run, seed):
    assert comparator_for(inst, adv) is not None
    assert comparator_for(inst, PairByPair(adv)) is None
    assert transcript(inst, adv, run, seed) == \
        transcript(inst, PairByPair(adv), run, seed)


def make_case(rng):
    n = int(rng.integers(1, 14))
    inst = Instance(tuple(float(v) for v in rng.integers(0, 4, size=n)))
    kind = POLICIES[int(rng.integers(len(POLICIES)))]
    if kind == "pivot-killer":
        adv = PivotKiller()
    else:
        adv = build_nonadaptive(inst, kind, rng)
    return inst, adv, int(rng.integers(2 ** 32))


CASES = [make_case(np.random.default_rng(i)) for i in range(60)]
EPS = 0.25
SELECTORS = [
    lambda s, r: complete_tournament(s, rng=r),
    lambda s, r: quick_select(s, rng=r),
    lambda s, r: modified_knockout(s, EPS, rng=r),
    lambda s, r: combined_select(s, EPS, rng=r),
]
SORTERS = [lambda s, r: quick_sort(s, rng=r), lambda s, r: complete_sort(s, rng=r)]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_selection_parity(case):
    inst, adv, seed = CASES[case]
    for run in SELECTORS:
        assert_batches_match_pairs(inst, adv, run, seed)


@pytest.mark.parametrize("case", range(0, len(CASES), 2))
def test_sort_parity(case):
    inst, adv, seed = CASES[case]
    for run in SORTERS:
        assert_batches_match_pairs(inst, adv, run, seed)


# sizes where quick-sort segments are all pivots and single items, and an
# all-equal instance, where every pair is free
EDGE_INSTANCES = [Instance((0.0,)), Instance((0.0, 3.0)), Instance((2.0, 2.0)),
                  Instance((0.0, 1.0, 5.0)), Instance((4.0, 0.0, 2.0)),
                  Instance((1.0,) * 9)]


@pytest.mark.parametrize("kind", POLICIES)
@pytest.mark.parametrize("inst", EDGE_INSTANCES, ids=lambda i: str(i.values))
def test_small_and_all_equal_parity(inst, kind):
    rng = np.random.default_rng(inst.n)
    adv = PivotKiller() if kind == "pivot-killer" else build_nonadaptive(inst, kind, rng)
    for seed in range(8):
        for run in (SORTERS[0], SELECTORS[1]):
            assert_batches_match_pairs(inst, adv, run, seed)


def test_comb_round_sizes_parity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        inst = Instance(tuple(float(v) for v in rng.integers(0, 3, size=n)))
        adv = build_nonadaptive(inst, "smaller-wins")
        seed = int(rng.integers(2 ** 32))
        sizes = [combined_select(ComparatorSession(inst, a, record=False), 0.1,
                                 rng=RngSeed(seed).generator()).sizes
                 for a in (adv, PairByPair(adv))]
        assert sizes[0] == sizes[1]


def test_no_engine_for_arbitrary_strategy():
    class Custom:
        def decide(self, instance, i, j, log, pivot):
            return i

    assert comparator_for(Instance((0.0, 0.0)), Custom()) is None


def test_misoriented_graph_is_asked_pair_by_pair():
    """A graph that contradicts a forced pair gets no batch form, so every
    violation is counted and overridden as by single queries."""
    inst = Instance((0.0, 5.0, 0.0))
    graph = TournamentGraph(np.triu(np.ones((3, 3), dtype=bool), 1))
    assert comparator_for(inst, graph) is None
    session = ComparatorSession(inst, graph)
    assert complete_sort(session, rng=RngSeed(0).generator()).order[0] == 1
    assert session.violations == 1
    fine = Instance((0.0, 0.0, 0.0))
    assert comparator_for(fine, graph) is graph


def rule_case(rng):
    if rng.random() < 0.25:
        n = int(rng.choice([5, 8, 11, 14, 38, 65]))
        return komod_hard_instance(n, seed=int(rng.integers(2 ** 32)))
    n = int(rng.integers(1, 70))
    inst = Instance(tuple(float(v) for v in rng.integers(0, 8, size=n) / 4))
    return inst, build_nonadaptive(inst, POLICIES[int(rng.integers(4))], rng)


def run_all(inst, adv, seed):
    runs = [*SELECTORS, *SORTERS, lambda s, r: sequential_select(s, rng=r)]
    return [transcript(inst, adv, run, seed) for run in runs]


@pytest.mark.parametrize("case", range(40))
def test_rule_and_matrix_comparators_agree(case):
    """A rule evaluated on demand and its dense matrix drive every algorithm
    through the same transcript."""
    rng = np.random.default_rng(1000 + case)
    inst, rule = rule_case(rng)
    dense = rule.dense()
    assert comparator_for(inst, rule) is rule
    assert comparator_for(inst, dense) is dense
    seed = int(rng.integers(2 ** 32))
    assert run_all(inst, rule, seed) == run_all(inst, dense, seed)
