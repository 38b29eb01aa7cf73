"""The vectorized engine must replay the exact transcript of the canonical
session-based algorithms: same winner/order, same query count, same field
sizes, for the same (instance, adversary, seed)."""

import numpy as np
import pytest

from advsel import engine
from advsel.adversary import (ComparatorSession, PivotKiller, build_nonadaptive,
                              komod_hard_instance)
from advsel.algorithms import (combined_select, complete_tournament,
                               modified_knockout, quick_select)
from advsel.core import Instance, RngSeed
from advsel.sorting import complete_sort, quick_sort

POLICIES = ("larger-wins", "smaller-wins", "lower-index-wins", "random",
            "pivot-killer")


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


@pytest.mark.parametrize("case", range(len(CASES)))
def test_selection_parity(case):
    inst, adv, seed = CASES[case]
    cmp_ = engine.comparator_for(inst, adv)
    assert cmp_ is not None
    eps = 0.25
    for canonical, fast in [
        (lambda s, r: complete_tournament(s, rng=r),
         lambda r: engine.complete_tournament_fast(cmp_, None, r)),
        (lambda s, r: quick_select(s, rng=r),
         lambda r: engine.quick_select_fast(cmp_, None, r)),
        (lambda s, r: modified_knockout(s, eps, rng=r),
         lambda r: engine.modified_knockout_fast(cmp_, eps, None, r)),
        (lambda s, r: combined_select(s, eps, rng=r),
         lambda r: engine.combined_select_fast(cmp_, eps, None, r)),
    ]:
        sess = ComparatorSession(inst, adv, record=False)
        res = canonical(sess, RngSeed(seed).generator())
        w, q = fast(RngSeed(seed).generator())
        assert (res.winner, sess.queries) == (w, q)


@pytest.mark.parametrize("case", range(0, len(CASES), 2))
def test_sort_parity(case):
    inst, adv, seed = CASES[case]
    cmp_ = engine.comparator_for(inst, adv)
    sess = ComparatorSession(inst, adv, record=False)
    res = quick_sort(sess, rng=RngSeed(seed).generator())
    order, q = engine.quick_sort_fast(cmp_, None, RngSeed(seed).generator())
    assert res.order == tuple(order.tolist())
    assert sess.queries == q

    sess = ComparatorSession(inst, adv, record=False)
    res = complete_sort(sess, rng=RngSeed(seed).generator())
    order, q = engine.complete_sort_fast(cmp_, None, RngSeed(seed).generator())
    assert res.order == tuple(order.tolist())
    assert sess.queries == q


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
    cmp_ = engine.comparator_for(inst, adv)
    for seed in range(8):
        sess = ComparatorSession(inst, adv, record=False)
        res = quick_sort(sess, rng=RngSeed(seed).generator())
        order, q = engine.quick_sort_fast(cmp_, None, RngSeed(seed).generator())
        assert (res.order, sess.queries) == (tuple(order.tolist()), q)

        sess = ComparatorSession(inst, adv, record=False)
        res = quick_select(sess, rng=RngSeed(seed).generator())
        w, q = engine.quick_select_fast(cmp_, None, RngSeed(seed).generator())
        assert (res.winner, sess.queries) == (w, q)


def test_comb_round_sizes_parity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        inst = Instance(tuple(float(v) for v in rng.integers(0, 3, size=n)))
        adv = build_nonadaptive(inst, "smaller-wins")
        cmp_ = engine.comparator_for(inst, adv)
        seed = int(rng.integers(2 ** 32))
        s_canon, s_fast = [], []
        combined_select(ComparatorSession(inst, adv, record=False), 0.1,
                        rng=RngSeed(seed).generator(), record_sizes=s_canon)
        engine.combined_select_fast(cmp_, 0.1, None, RngSeed(seed).generator(),
                                    record_sizes=s_fast)
        assert s_canon == [int(x) for x in s_fast]


def test_no_engine_for_arbitrary_strategy():
    class Custom:
        def decide(self, instance, i, j, log, pivot):
            return i

    assert engine.comparator_for(Instance((0.0, 0.0)), Custom()) is None


def rule_case(rng):
    if rng.random() < 0.25:
        n = int(rng.choice([5, 8, 11, 14, 38, 65]))
        return komod_hard_instance(n, seed=int(rng.integers(2 ** 32)))
    n = int(rng.integers(1, 70))
    inst = Instance(tuple(float(v) for v in rng.integers(0, 8, size=n) / 4))
    return inst, build_nonadaptive(inst, POLICIES[int(rng.integers(4))], rng)


def run_all_fast(cmp_, seed):
    eps = 0.25
    runs = [
        engine.complete_tournament_fast(cmp_, None, RngSeed(seed).generator()),
        engine.modified_knockout_fast(cmp_, eps, None, RngSeed(seed).generator()),
        engine.quick_select_fast(cmp_, None, RngSeed(seed).generator()),
        engine.combined_select_fast(cmp_, eps, None, RngSeed(seed).generator()),
        engine.complete_sort_fast(cmp_, None, RngSeed(seed).generator()),
        engine.quick_sort_fast(cmp_, None, RngSeed(seed).generator()),
    ]
    return [(np.asarray(out).tolist(), q) for out, q in runs]


@pytest.mark.parametrize("case", range(40))
def test_rule_and_matrix_comparators_agree(case):
    """A rule evaluated on demand and its dense matrix drive every engine
    algorithm through the same (output, queries)."""
    rng = np.random.default_rng(1000 + case)
    inst, rule = rule_case(rng)
    on_demand = engine.comparator_for(inst, rule)
    matrix = engine.comparator_for(inst, rule.dense())
    assert isinstance(on_demand, engine.RuleComparator)
    assert isinstance(matrix, engine.MatrixComparator)
    seed = int(rng.integers(2 ** 32))
    assert run_all_fast(on_demand, seed) == run_all_fast(matrix, seed)
