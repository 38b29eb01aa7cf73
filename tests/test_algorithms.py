import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advsel.adversary import (ComparatorSession, PivotKiller, TournamentGraph,
                              build_nonadaptive, sequential_hard_instance)
from advsel.algorithms import (CombParams, KoModParams, combined_select,
                               complete_tournament, knockout_round,
                               modified_knockout, quick_select,
                               quickselect_round, sequential_select)
from advsel.core import Instance, InvalidQueryError, RngSeed
from advsel.sorting import complete_sort, quick_sort

from test_adversary import enumerate_valid_orientations, fig1
from test_engine import PairByPair


def session_for(values, policy="lower-index-wins", seed=0, delta=1.0):
    inst = Instance(tuple(float(v) for v in values), delta=delta)
    if policy == "pivot-killer":
        adv = PivotKiller()
    else:
        adv = build_nonadaptive(inst, policy, RngSeed(seed).generator())
    return inst, ComparatorSession(inst, adv)


class TestParams:
    def test_n1_formula(self):
        p = KoModParams.compute(0.1, 1024)
        assert p.n1 == math.ceil(10 * math.log(10) * 10)  # 231
        assert KoModParams.compute(0.9, 2).n1 == 2  # floored at 2

    def test_epsilon_domain(self):
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                KoModParams.compute(eps, 100)
            with pytest.raises(ValueError):
                CombParams(epsilon=eps)

    def test_comb_reps(self):
        p = CombParams(epsilon=0.1)
        assert p.beta1 == 9.0 and p.beta2 == 25.0
        assert p.qs_reps() == math.floor(9 * math.log2(10))  # 29
        assert p.ko_reps(1) == math.floor(25 * (4 / 3) * math.log2(10))  # 110
        # large epsilon never degenerates to zero repetitions
        assert CombParams(epsilon=0.99).qs_reps() == 1
        assert CombParams(epsilon=0.99).ko_reps(1) == 1


class TestCompleteTournament:
    def test_fig1_winner_and_counts(self):
        inst, g = fig1()
        sess = ComparatorSession(inst, g)
        res = complete_tournament(sess, rng=RngSeed(0).generator())
        assert res.winner == 3
        assert res.queries == 6

    def test_all_forced(self):
        inst, sess = session_for((0, 2, 4))
        res = complete_tournament(sess, rng=RngSeed(0).generator())
        assert inst.values[res.winner] == 4.0
        assert res.queries == 3

    def test_two_approx_over_all_valid_graphs(self):
        # {0,1,1,2}: the winner value is always >= x* - 2 = 0 (brute force)
        inst = Instance((0.0, 1.0, 1.0, 2.0))
        orientations, _ = enumerate_valid_orientations(inst)
        for m in orientations:
            sess = ComparatorSession(inst, TournamentGraph(m, check=False))
            res = complete_tournament(sess, rng=RngSeed(1).generator())
            assert inst.values[res.winner] >= 0.0

    def test_tiebreak_is_seeded_uniformish(self):
        inst, _ = fig1()
        g = build_nonadaptive(Instance((0.0,) * 3), "lower-index-wins")
        # a 3-cycle has all wins equal; check the tie-break hits everyone
        cyc = TournamentGraph.from_edges(3, [(0, 1, 0), (1, 2, 1), (0, 2, 2)])
        winners = set()
        for s in range(40):
            sess = ComparatorSession(Instance((0.0,) * 3), cyc)
            winners.add(complete_tournament(sess, rng=RngSeed(s).generator()).winner)
        assert winners == {0, 1, 2}

    def test_empty_rejected(self):
        _, sess = session_for((0,))
        with pytest.raises(ValueError):
            complete_tournament(sess, items=[])

    def test_out_of_range_items_rejected(self):
        # a graph answers whole batches by indexing, where -1 would wrap
        _, sess = session_for((0, 0, 0))
        for algorithm in (complete_tournament, quick_select, sequential_select):
            for items in ([-1, 0], [0, 3]):
                with pytest.raises(InvalidQueryError):
                    algorithm(sess, items=items)
        assert sess.queries == 0


class TestSequential:
    def test_forced_chain(self):
        inst, sess = session_for((0, 2, 4))
        res = sequential_select(sess, rng=RngSeed(0).generator())
        assert inst.values[res.winner] == 4.0
        assert res.queries == 2

    def test_min_adversary_walks_down(self):
        # visit order 2,1,0 under min-on-ties: 2 vs 1 -> 1; 1 vs 0 -> 0
        inst = Instance((2.0, 1.0, 0.0))
        g = build_nonadaptive(inst, "smaller-wins")
        for seed in range(200):
            if list(RngSeed(seed).generator().permutation(3)) == [0, 1, 2]:
                sess = ComparatorSession(inst, g)
                res = sequential_select(sess, rng=RngSeed(seed).generator())
                assert inst.values[res.winner] == 0.0
                break
        else:
            pytest.fail("no seed with identity permutation found")

    def test_exact_query_count(self):
        for n in (1, 2, 5, 9):
            _, sess = session_for([0] * n)
            res = sequential_select(sess, rng=RngSeed(3).generator())
            assert res.queries == n - 1

    def test_hard_instance_output_distribution(self):
        # exact enumeration over all 24 visit orders of (2,1,0,0) under the
        # min-on-ties graph gives P(out=0) = 8/24, P(1) = 6/24, P(2) = 10/24
        inst, g = sequential_hard_instance(2, 2)
        import itertools
        from collections import Counter
        exact = Counter()
        for perm in itertools.permutations(range(4)):
            champ = perm[0]
            for k in perm[1:]:
                champ = k if g.dense().matrix[k, champ] else champ
            exact[inst.values[champ]] += 1
        assert exact == {0.0: 8, 1.0: 6, 2.0: 10}
        zeros = 0
        trials = 600
        for s in range(trials):
            sess = ComparatorSession(inst, g, record=False)
            res = sequential_select(sess, rng=RngSeed(s).generator())
            zeros += inst.values[res.winner] == 0.0
        # within 4 sigma of the enumerated 1/3
        assert abs(zeros / trials - 8 / 24) < 4 * math.sqrt((1 / 3) * (2 / 3) / trials)

    def test_hard_instance_fails_at_scale(self):
        # the walk-down effect needs more layers to bite: at r=s=3 (n=27) the
        # output lands on a bottom-layer 0 almost half the time
        inst, g = sequential_hard_instance(3, 3)
        zeros = 0
        trials = 1500
        for s in range(trials):
            sess = ComparatorSession(inst, g, record=False)
            res = sequential_select(sess, rng=RngSeed(s).generator())
            zeros += inst.values[res.winner] == 0.0
        assert zeros / trials > 0.3


class TestKnockout:
    def test_sizes_and_byes(self):
        """A round draws one rng.permutation(m) and nothing else (nothing at
        m = 1), and keeps each pair's winner, in pair order, then the bye."""
        inst = Instance(np.random.default_rng(0).integers(0, 3, size=60) * 1.0)
        graph = build_nonadaptive(inst, "random", RngSeed(1).generator()).dense()
        for m in range(1, 41):
            items = np.random.default_rng(m).permutation(inst.n)[:m]
            sess = ComparatorSession(inst, graph)
            rng, ref = RngSeed(m).generator(), RngSeed(m).generator()
            out = knockout_round(sess, items, rng)
            order = items[ref.permutation(m)].tolist() if m > 1 else items.tolist()
            pairs = zip(order[0::2], order[1::2])
            bye = order[-1:] if m % 2 else []
            assert out == [graph.winner(a, b) for a, b in pairs] + bye
            assert sess.queries == m // 2
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_forced_survivor(self):
        inst, sess = session_for((0, 2))
        out = knockout_round(sess, [0, 1], RngSeed(0).generator())
        assert out == [1]


class TestModifiedKnockout:
    def test_small_input_goes_straight_to_round_robin(self):
        inst, sess = session_for([0] * 6)
        res = modified_knockout(sess, 0.5, rng=RngSeed(0).generator())
        # n1 = ceil(2 ln2 * log2 6) >= 6 would skip knockout; compute directly
        p = KoModParams.compute(0.5, 6)
        if p.n1 >= 6:
            assert res.queries == 15  # binom(6,2): no knockout happened loop
        assert res.winner in range(6)

    def test_query_bound_structurally(self):
        for n, eps in ((64, 0.3), (200, 0.1)):
            inst, sess = session_for([0] * n, policy="smaller-wins")
            res = modified_knockout(sess, eps, rng=RngSeed(1).generator())
            bound = n + 0.5 * math.log2(n) ** 4 * math.ceil(
                (1 / eps) * math.log(1 / eps)) ** 2
            assert res.queries < bound

    def test_three_approx_on_small_hard_cases(self):
        # value spread is 3: any output >= x*-3 trivially; check >= x*-3 holds
        # and that the machinery runs against an adaptive adversary too
        inst = Instance((3.0, 2.0, 1.0, 0.0, 0.0, 1.0, 2.0, 1.0))
        sess = ComparatorSession(inst, PivotKiller())
        res = modified_knockout(sess, 0.2, rng=RngSeed(5).generator())
        assert inst.values[res.winner] >= inst.max_value - 3

    def test_epsilon_domain(self):
        _, sess = session_for([0] * 4)
        with pytest.raises(ValueError):
            modified_knockout(sess, 1.5, rng=RngSeed(0).generator())


class TestQuickselectRound:
    def test_unique_forced_max_pivot(self):
        inst = Instance((0.0, 5.0, 2.5))
        g = build_nonadaptive(inst, "lower-index-wins")
        for seed in range(50):
            rng = RngSeed(seed).generator()
            if int(rng.integers(3)) == 1:
                sess = ComparatorSession(inst, g)
                out = quickselect_round(sess, [0, 1, 2], RngSeed(seed).generator())
                assert out == [1]
                break
        else:
            pytest.fail("no seed picking pivot 1")

    def test_both_free_outcomes_enumerable(self):
        # (0, 0, 5): a 0-pivot keeps the 5 and maybe the other 0
        inst = Instance((0.0, 0.0, 5.0))
        outcomes = set()
        for m in enumerate_valid_orientations(inst)[0]:
            g = TournamentGraph(m, check=False)
            for seed in range(30):
                rng = RngSeed(seed).generator()
                if int(rng.integers(3)) == 0:  # pivot index 0
                    sess = ComparatorSession(inst, g)
                    out = quickselect_round(sess, [0, 1, 2], RngSeed(seed).generator())
                    outcomes.add(tuple(out))
                    break
        assert outcomes == {(2,), (1, 2)}

    def test_singleton_no_queries(self):
        _, sess = session_for((0, 0))
        assert quickselect_round(sess, [1], RngSeed(0).generator()) == [1]
        assert sess.queries == 0


class TestQuickSelect:
    def test_forced(self):
        inst, sess = session_for((0, 2, 4))
        res = quick_select(sess, rng=RngSeed(2).generator())
        assert inst.values[res.winner] == 4.0
        assert res.queries <= 3

    def test_pivot_killer_exact_counts(self):
        for n in (3, 10):
            inst, sess = session_for([0] * n, policy="pivot-killer")
            res = quick_select(sess, rng=RngSeed(4).generator())
            assert res.queries == n * (n - 1) // 2
            assert res.rounds == n - 1

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=5),
           st.integers(0, 200))
    @settings(max_examples=80, deadline=None)
    def test_two_approx_random_cases(self, values, seed):
        inst = Instance(tuple(float(v) for v in values))
        rng = RngSeed(seed).generator()
        g = build_nonadaptive(inst, "random", rng)
        sess = ComparatorSession(inst, g)
        res = quick_select(sess, rng=rng)
        assert inst.values[res.winner] >= inst.max_value - 2


class TestCombined:
    def test_singleton(self):
        _, sess = session_for((0,))
        res = combined_select(sess, 0.1, rng=RngSeed(0).generator())
        assert res.winner == 0 and res.queries == 0

    def test_shrink_invariant(self):
        for seed in range(8):
            n = 40 + 13 * seed
            inst, sess = session_for([0] * n, policy="pivot-killer")
            sizes = combined_select(sess, 0.1, rng=RngSeed(seed).generator()).sizes
            for a, b in zip(sizes, sizes[1:]):
                assert b <= math.ceil(2 / 3 * a), sizes

    def test_two_approx_against_pivot_killer(self):
        inst = Instance((0.0, 1.0, 2.0, 3.0, 4.0, 3.5, 2.5, 0.5))
        sess = ComparatorSession(inst, PivotKiller())
        res = combined_select(sess, 0.1, rng=RngSeed(9).generator())
        assert inst.values[res.winner] >= inst.max_value - 2

    def test_epsilon_domain(self):
        _, sess = session_for([0] * 4)
        with pytest.raises(ValueError):
            combined_select(sess, 0.0, rng=RngSeed(0).generator())


# every public entry point that takes items, as (session, items, rng)
ITEM_ENTRY_POINTS = {
    "complete_tournament": lambda s, items, rng: complete_tournament(
        s, items=items, rng=rng),
    "sequential_select": lambda s, items, rng: sequential_select(
        s, items=items, rng=rng),
    "knockout_round": knockout_round,
    "modified_knockout": lambda s, items, rng: modified_knockout(
        s, 0.5, items=items, rng=rng),
    "quickselect_round": quickselect_round,
    "quick_select": lambda s, items, rng: quick_select(s, items=items, rng=rng),
    "combined_select": lambda s, items, rng: combined_select(
        s, 0.5, items=items, rng=rng),
    "complete_sort": lambda s, items, rng: complete_sort(s, items=items, rng=rng),
    "quick_sort": lambda s, items, rng: quick_sort(s, items=items, rng=rng),
}


class TestRepeatedItems:
    """Repeated items are refused before any query, whether the adversary
    answers batches or is asked pair by pair, and with or without a log."""

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("pair_by_pair", [False, True])
    @pytest.mark.parametrize("items, repeated", [([0, 0, 1], 0), ([1, 1, 1], 1),
                                                 ([2, 0, 1, 2], 2)])
    @pytest.mark.parametrize("entry", sorted(ITEM_ENTRY_POINTS))
    def test_rejected_before_any_query(self, entry, items, repeated,
                                       pair_by_pair, record):
        inst = Instance((0.0,) * 3)
        adv = build_nonadaptive(inst, "smaller-wins")
        sess = ComparatorSession(inst, PairByPair(adv) if pair_by_pair else adv,
                                 record=record)
        with pytest.raises(InvalidQueryError, match=f"item {repeated} is repeated"):
            ITEM_ENTRY_POINTS[entry](sess, items, RngSeed(0).generator())
        assert sess.queries == 0


@pytest.mark.parametrize("items", [[0.9, 2.5], [True, False], ["0", "1"],
                                   [[0, 1], [2, 0]], [2 ** 63], [2 ** 64]],
                         ids=["floats", "bools", "strings", "nested", "2**63",
                              "2**64"])
@pytest.mark.parametrize("entry", sorted(ITEM_ENTRY_POINTS))
def test_items_that_are_not_indices_are_rejected(entry, items):
    """Items are refused, before any query, unless they are a flat sequence
    of integers: none is cast to an index."""
    inst = Instance((0.0,) * 3)
    sess = ComparatorSession(inst, build_nonadaptive(inst, "smaller-wins"))
    with pytest.raises(InvalidQueryError, match="integer indices|out of range"):
        ITEM_ENTRY_POINTS[entry](sess, items, RngSeed(0).generator())
    assert sess.queries == 0


class TestTranscriptValidity:
    @pytest.mark.parametrize("adv_kind", ["random", "pivot-killer"])
    def test_every_transcript_obeys_forced_rule(self, adv_kind):
        from advsel.core import validate_log
        inst = Instance(tuple(float(v) for v in [0, 1, 2, 3, 2, 1, 0, 2]))
        for seed in range(6):
            _, sess = session_for(inst.values, policy=adv_kind, seed=seed)
            quick_select(sess, rng=RngSeed(seed).generator())
            validate_log(inst, sess.log)

    def test_forged_log_rejected(self):
        from advsel.core import QueryLog, validate_log
        inst = Instance((0.0, 5.0))
        log = QueryLog()
        log.append(0, 1, 0)  # claims 0 beat 5: violates the forced rule
        with pytest.raises(ValueError):
            validate_log(inst, log)


class TestDeterminism:
    @pytest.mark.parametrize("algo", ["compl", "seq", "q-select", "ko-mod", "comb"])
    def test_same_seed_same_transcript(self, algo):
        inst = Instance(tuple(float(v) for v in [0, 1, 2, 1, 0, 2, 1, 0]))
        g = build_nonadaptive(inst, "random", RngSeed(8).generator())

        def run():
            sess = ComparatorSession(inst, g)
            rng = RngSeed(99).generator()
            if algo == "compl":
                r = complete_tournament(sess, rng=rng)
            elif algo == "seq":
                r = sequential_select(sess, rng=rng)
            elif algo == "q-select":
                r = quick_select(sess, rng=rng)
            elif algo == "ko-mod":
                r = modified_knockout(sess, 0.3, rng=rng)
            else:
                r = combined_select(sess, 0.3, rng=rng)
            return r.winner, [(q.left, q.right, q.winner) for q in sess.log]

        assert run() == run()
