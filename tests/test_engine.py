"""Batch answers: a graph or the pivot-killer answering a session's whole
pivot round, matching or round-robin in one call must give the same result,
query count, violations and log as the same adversary asked one query at a
time, for the same (instance, adversary, seed).

The memoized pivot-killer answers batches too: its memo replays a stored
answer inside a batch (ko-mod's final round-robin and comb's re-paired duels
repeat pairs) and is shared with single queries, so it must match the same
memoized strategy asked pair by pair, a fresh one per transcript.

A session that keeps no log duels on order keys where its batch form is an
order (comb's re-pairings), and must answer as the pairs would."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advsel.adversary import (NONADAPTIVE_POLICIES, AdversaryProtocolError,
                              ComparatorSession, MemoizedStrategy, PivotKiller,
                              TournamentGraph, build_nonadaptive,
                              comparator_for, komod_hard_instance)
from advsel.algorithms import (combined_select, complete_tournament,
                               modified_knockout, quick_select,
                               sequential_select)
from advsel.core import Instance, RngSeed, validate_log
from advsel.harness import TrialConfig, run_trials
from advsel.sorting import complete_sort, quick_sort

from test_transcripts import LogReader

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


class Flipper:
    """Answers the first index of a pair, then the second, in turn."""

    def __init__(self):
        self.count = 0

    def decide(self, instance, i, j, log, pivot):
        self.count += 1
        return i if self.count % 2 else j


def transcript(inst, adv, run, seed):
    session = ComparatorSession(inst, adv)
    result = run(session, RngSeed(seed).generator())
    log = [(r.left, r.right, r.winner, r.ordinal) for r in session.log]
    return result, session.queries, session.violations, log


def assert_batches_match_pairs(inst, adv, run, seed):
    assert comparator_for(inst, adv) is not None
    assert comparator_for(inst, PairByPair(adv)) is None
    expected = transcript(inst, PairByPair(adv), run, seed)
    assert transcript(inst, adv, run, seed) == expected
    if isinstance(adv, TournamentGraph):
        # a memoized graph answers batches through the graph's own batch form
        assert comparator_for(inst, MemoizedStrategy(adv)) is not None
        assert transcript(inst, MemoizedStrategy(adv), run, seed) == expected
        assert transcript(inst, PairByPair(MemoizedStrategy(adv)), run, seed) == expected


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
# every selector and sorter; ko-mod at eps 0.9 runs knock-out rounds from n = 3
RUNS = [*SELECTORS, lambda s, r: modified_knockout(s, 0.9, rng=r),
        lambda s, r: sequential_select(s, rng=r), *SORTERS]


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
@pytest.mark.parametrize("inst", EDGE_INSTANCES, ids=lambda i: str(tuple(i.values.tolist())))
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
    for record in (True, False):
        # asked pair by pair, it keeps its log, as any adversary does
        session = ComparatorSession(inst, graph, record=record)
        assert complete_sort(session, rng=RngSeed(0).generator()).order[0] == 1
        assert session.violations == 1
        assert session.log.recording and len(session.log.winner) == session.queries
        validate_log(inst, session.log)
    fine = Instance((0.0, 0.0, 0.0))
    assert comparator_for(fine, graph) is graph


@pytest.mark.parametrize("graph", [
    TournamentGraph(np.zeros((1, 1), dtype=bool)),
    build_nonadaptive(Instance((0.0,) * 3), "smaller-wins"),
], ids=["dense", "rule"])
def test_graph_of_another_size_is_refused(graph):
    with pytest.raises(ValueError, match="graph size does not match instance"):
        ComparatorSession(Instance((0.0, 0.0)), graph)


def rule_case(rng):
    if rng.random() < 0.25:
        n = int(rng.choice([5, 8, 11, 14, 38, 65]))
        return komod_hard_instance(n, seed=int(rng.integers(2 ** 32)))
    n = int(rng.integers(1, 70))
    inst = Instance(tuple(float(v) for v in rng.integers(0, 8, size=n) / 4))
    return inst, build_nonadaptive(inst, POLICIES[int(rng.integers(4))], rng)


def run_all(inst, adv, seed):
    return [transcript(inst, adv, run, seed) for run in RUNS]


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


def memoized_killer():
    return MemoizedStrategy(PivotKiller())


def assert_memoized_batches_match_pairs(inst, run, seed):
    assert comparator_for(inst, memoized_killer()) is not None
    batched = transcript(inst, memoized_killer(), run, seed)
    assert batched == transcript(inst, PairByPair(memoized_killer()), run, seed)
    return batched


@pytest.mark.parametrize("case", range(0, len(CASES), 3))
def test_memoized_pivot_killer_parity(case):
    inst, _, seed = CASES[case]
    for run in (*SELECTORS, *SORTERS):
        assert_memoized_batches_match_pairs(inst, run, seed)


@pytest.mark.parametrize("n", [120, 200])
def test_memo_replays_inside_batches(n):
    """At these sizes ko-mod's round-robins and comb's duels repeat pairs;
    on comb the memo's replayed answers differ from the plain pivot-killer's."""
    inst = Instance(tuple(float(v) for v in
                          np.random.default_rng(n).integers(0, 3, size=n)))
    changed = 0
    for seed in range(3):
        for run in SELECTORS[2:]:
            log = assert_memoized_batches_match_pairs(inst, run, seed)[3]
            changed += log != transcript(inst, PivotKiller(), run, seed)[3]
    assert changed > 0


def test_memo_crosses_single_queries_and_batches():
    """One session: sequential selection's single queries fill the memo that
    comb's and the round-robin's batches replay, and the reverse."""
    def run(session, rng):
        return (sequential_select(session, rng=rng),
                combined_select(session, EPS, rng=rng),
                complete_tournament(session, rng=rng),
                sequential_select(session, rng=rng))

    for n in (2, 7, 13, 40):
        inst = Instance(tuple(float(v) for v in
                              np.random.default_rng(n).integers(0, 3, size=n)))
        for seed in range(4):
            assert_memoized_batches_match_pairs(inst, run, seed)


class TupleMemo:
    """The memoized strategy with tuple keys and no batch form."""

    def __init__(self, strategy):
        self.strategy = strategy
        self.memo = {}

    def decide(self, instance, i, j, log, pivot):
        key = (i, j) if i < j else (j, i)
        if key not in self.memo:
            self.memo[key] = self.strategy.decide(instance, i, j, log, pivot)
        return self.memo[key]


@pytest.mark.parametrize("values9", [(0.0,) * 9,
                                     (4.0, 0.0, 2.0, 0.0, 3.0, 0.0, 1.0, 2.0, 0.0)],
                         ids=["all-free", "forced"])
def test_memo_reused_across_instances(values9):
    """A memoized strategy reused on n = 5 and then n = 9 replays the answers
    it stored on n = 5; where they break a forced pair of n = 9 the second
    session asks pair by pair, and counts the violations."""
    first, second = Instance((0.0,) * 5), Instance(values9)
    runs = [lambda s, r: quick_select(s, rng=r), lambda s, r: quick_sort(s, rng=r)]

    def sessions(strategy):
        return [transcript(inst, strategy, run, 3)
                for inst in (first, second) for run in runs]

    memo = memoized_killer()
    assert sessions(memo) == sessions(TupleMemo(PivotKiller()))
    forced = values9 != (0.0,) * 9
    assert (comparator_for(second, memo) is None) == forced


def test_memoized_log_reader_is_asked_pair_by_pair():
    inst = Instance((0.0, 5.0, 0.0, 9.0, 1.0))
    assert comparator_for(inst, MemoizedStrategy(Flipper())) is None
    session = ComparatorSession(inst, MemoizedStrategy(Flipper()))
    complete_tournament(session, rng=RngSeed(0).generator())
    assert session.violations > 0
    validate_log(inst, session.log)


def test_memo_shared_by_live_sessions_on_other_values():
    """Batches never replay a stored answer that breaks a forced pair: a
    memo filled meanwhile by a session on other values is refused."""
    memo = memoized_killer()
    session = ComparatorSession(Instance((0.0, 5.0)), memo)
    ComparatorSession(Instance((0.0, 0.0)), memo).query(0, 1)  # stores 0
    with pytest.raises(AdversaryProtocolError):
        session.round_robin(np.array([0, 1]))


@pytest.mark.parametrize("kind", ["graph", "rule", "larger-wins", "komod-hard",
                                  "memoized-pivot-killer"])
def test_recording_round_robin_counts_the_logged_wins(kind):
    """A recording round-robin counts its wins from the batch it logs; they
    equal the wins of a session that keeps no log, which smaller-wins and
    the constructions count without asking a pair."""
    inst = Instance(tuple(float(v) for v in
                          np.random.default_rng(5).integers(0, 3, size=40)))
    if kind == "komod-hard":
        inst, komod = komod_hard_instance(44, seed=5)   # groups of 14
    items = np.random.default_rng(6).permutation(inst.n)[:30]
    make = {"graph": lambda: build_nonadaptive(
                inst, "random", RngSeed(5).generator()).dense(),
            "rule": lambda: build_nonadaptive(inst, "smaller-wins"),
            "larger-wins": lambda: build_nonadaptive(inst, "larger-wins"),
            "komod-hard": lambda: komod,
            "memoized-pivot-killer": memoized_killer}[kind]
    wins = {}
    for record in (True, False):
        session = ComparatorSession(inst, make(), record=record)
        # a pivot round first: the memo replays its answers in the round-robin
        session.pivot_round(int(items[0]), items)
        start = session.queries
        wins[record] = session.round_robin(items).tolist()
        if record:
            logged = [rec.winner for rec in session.log.records[start:]]
    assert wins[True] == wins[False] == [logged.count(int(x)) for x in items]


class ForcedLiar:
    """Gives every pair to the smaller value (the lower index on a tie), so
    it lies on every forced pair."""

    def decide(self, instance, i, j, log, pivot):
        return min(i, j, key=lambda k: (instance.values.item(k), k))


def _graph(policy, dense):
    def make(inst, seed):
        graph = build_nonadaptive(inst, policy, RngSeed(seed, 1).generator())
        return graph.dense() if dense else graph
    return make


# adversaries whose answer to a pair depends on nothing but the pair
MEMORYLESS = {
    **{f"{policy}{'-dense' * dense}": _graph(policy, dense)
       for policy in NONADAPTIVE_POLICIES for dense in (False, True)},
    "pivot-killer": lambda inst, seed: PivotKiller(),
    "forced-liar": lambda inst, seed: ForcedLiar(),
}
ADVERSARIES = {
    **MEMORYLESS,
    "memoized-pivot-killer": lambda inst, seed: memoized_killer(),
    "log-reader": lambda inst, seed: LogReader(),
    "memoized-flipper": lambda inst, seed: MemoizedStrategy(Flipper()),
}


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.integers(0, 3), min_size=1, max_size=16),
       kind=st.sampled_from(sorted(ADVERSARIES)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_answers_depend_only_on_the_queries(values, kind, seed):
    """A session's answers depend on the queries asked and nothing else:
    recording the log or not gives the same run, and after a run a
    memoryless adversary answers every pair as on a fresh session."""
    inst = Instance(tuple(map(float, values)))
    make = ADVERSARIES[kind]
    pairs = [(i, j) for i in range(inst.n) for j in range(inst.n) if i != j]
    for run in RUNS:
        outcomes = []
        for record in (True, False):
            session = ComparatorSession(inst, make(inst, seed), record=record)
            result = run(session, RngSeed(seed).generator())
            outcomes.append((result, session.queries, session.violations))
        assert outcomes[0] == outcomes[1]
        if kind in MEMORYLESS:
            fresh = ComparatorSession(inst, make(inst, seed))
            assert [session.query(i, j) for i, j in pairs] == \
                [fresh.query(i, j) for i, j in pairs]


KEYED_ADVERSARIES = ("larger-wins", "smaller-wins", "lower-index-wins",
                     "pivot-killer", "memoized-pivot-killer")


@st.composite
def keyed_values(draw):
    """Values all equal, distinct with every pair forced, or mixed: a free
    pair of distinct values and a forced pair, so that only larger-wins is
    an order. Fields of 2 and 3 items come up often."""
    kind = draw(st.sampled_from(["equal", "forced", "mixed"]))
    n = draw(st.one_of(st.sampled_from([2, 3]), st.integers(2, 30)))
    if kind == "equal":
        return kind, [draw(st.integers(0, 3))] * n
    if kind == "forced":
        return kind, [1.5 * k for k in draw(st.permutations(range(n)))]
    n = max(n, 3)
    rest = draw(st.lists(st.integers(0, 2), min_size=n - 3, max_size=n - 3))
    return kind, draw(st.permutations([0, 1, 2, *rest]))


@settings(max_examples=150, deadline=None)
@given(case=keyed_values(), adversary=st.sampled_from(KEYED_ADVERSARIES),
       epsilon=st.sampled_from([0.1, 0.5, 0.91]),
       algorithm=st.sampled_from(["comb", "ko-mod"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_keyed_duels_answer_as_pairs(case, adversary, epsilon, algorithm, seed):
    """comb and ko-mod on a session that keeps no log, which duels on order
    keys where it has them, give the winner, queries, rounds, sizes,
    violations and next draw of the same adversary asked pair by pair; the
    memoized pivot-killer's memo ends up holding every pair asked."""
    kind, values = case
    inst = Instance(tuple(map(float, values)))
    run = combined_select if algorithm == "comb" else modified_knockout

    def make():
        if adversary == "pivot-killer":
            return PivotKiller()
        if adversary == "memoized-pivot-killer":
            return memoized_killer()
        return build_nonadaptive(inst, adversary)

    batched, paired = make(), make()
    outcomes = []
    for adv in (batched, PairByPair(paired)):
        session = ComparatorSession(inst, adv, record=False)
        rng = RngSeed(seed).generator()
        result = run(session, epsilon, rng=rng)
        outcomes.append((result, session.queries, session.violations,
                         rng.integers(2 ** 32)))
    assert outcomes[0] == outcomes[1]
    assert getattr(batched, "_memo", None) == getattr(paired, "_memo", None)
    keyed = ComparatorSession(inst, batched, record=False).order_key() is not None
    assert keyed == (adversary != "memoized-pivot-killer"
                     and (kind != "mixed" or adversary == "larger-wins"))


@pytest.fixture
def duel_calls(monkeypatch):
    """Every ``ComparatorSession.duel`` and ``keyed_duel`` call, by name."""
    calls = []
    for name in ("duel", "keyed_duel"):
        method = getattr(ComparatorSession, name)

        def spy(self, a, b, name=name, method=method):
            calls.append(name)
            return method(self, a, b)

        monkeypatch.setattr(ComparatorSession, name, spy)
    return calls


MEMO_SPEC = {"kind": "construction", "name": "pivot-killer",
             "params": {"memoized": True}}


@pytest.mark.parametrize("instance, adversary, keyed", [
    ("zeros:301", "pivot-killer", True),
    ("uniform01:301", "pivot-killer", True),
    ("lemma2:301", "pivot-killer", False),
    ("zeros:301", MEMO_SPEC, False),
], ids=["zeros", "uniform01", "lemma2", "memoized"])
def test_comb_repairings_duel_on_keys_exactly_for_orders(instance, adversary,
                                                         keyed, duel_calls):
    """comb's re-pairings through ``run_trials`` duel on keys against the
    pivot-killer where its rule is an order, asking ``duel`` for no pair,
    and ask ``duel`` against lemma2 and the memoized pivot-killer: a silent
    fallback from the keys fails here."""
    cfg = TrialConfig(algorithm="comb", instance=instance, adversary=adversary,
                      epsilon=0.1, trials=2, seed=4)
    run_trials(cfg)
    assert set(duel_calls) == {"keyed_duel" if keyed else "duel"}
