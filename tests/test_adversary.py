import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advsel.adversary import (AdversaryProtocolError, ComparatorSession,
                              MemoizedStrategy, PivotKiller, TournamentGraph,
                              adversary_from_spec, build_nonadaptive,
                              comparator_for, komod_hard_instance,
                              lemma_one_construction, lemma_two_construction,
                              parse_adversary, sequential_hard_instance)
from advsel.core import Instance, InvalidQueryError, RngSeed
from advsel.generators import parse_generator


def from_spec(spec, instance):
    return adversary_from_spec(parse_adversary(spec), instance)


def fig1():
    """The four-value example: values (2, 1, 0, 1), the 2 loses to the left 1."""
    inst = Instance((2.0, 1.0, 0.0, 1.0))
    edges = [(0, 2, 0), (0, 1, 0), (3, 0, 3), (3, 1, 3), (3, 2, 3), (2, 1, 2)]
    return inst, TournamentGraph.from_edges(4, edges)


class TestTournamentGraph:
    def test_from_edges_and_winner(self):
        inst, g = fig1()
        assert g.winner(3, 0) == 3
        assert g.winner(0, 2) == 0
        g.validate_for(inst)

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            TournamentGraph.from_edges(3, [(0, 1, 0)])

    def test_non_integer_edge_rejected(self):
        for edge in ((0, 1.9, 1), (True, 0, 0), (0, float("inf"), 1), (0, "1", 1)):
            with pytest.raises(ValueError):
                TournamentGraph.from_edges(2, [edge])

    def test_double_edge_rejected(self):
        with pytest.raises(ValueError):
            TournamentGraph.from_edges(2, [(0, 1, 0), (1, 0, 1)])

    def test_bad_matrix_rejected(self):
        with pytest.raises(ValueError):
            TournamentGraph(np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            TournamentGraph(np.zeros((2, 2), dtype=bool))

    def test_validate_for_catches_misoriented_forced_edge(self):
        inst = Instance((2.0, 0.0))
        bad = TournamentGraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            bad.validate_for(inst)

    @pytest.mark.parametrize("block_cells", [1, 7, 1 << 18])
    def test_validate_for_names_the_first_misoriented_pair(self, monkeypatch,
                                                           block_cells):
        from advsel import adversary
        monkeypatch.setattr(adversary, "_BLOCK_CELLS", block_cells)
        rng = RngSeed(5).generator()
        values = rng.integers(0, 4, size=12).astype(float)
        upper = np.triu(rng.integers(0, 2, size=(12, 12)).astype(bool), 1)
        inst = Instance(values)
        diff = values[:, None] - values[None, :]
        for graph in (TournamentGraph(upper | np.tril(~upper.T, -1)),
                      build_nonadaptive(Instance(values[::-1]), "larger-wins")):
            # the whole-matrix reference: first in row-major order
            i, j = np.argwhere((diff > 1.0) & ~graph.dense().matrix)[0]
            with pytest.raises(ValueError, match=(
                    f"^forced pair misoriented: {j} beats {i} but value gap "
                    f"{diff[i, j]:g} > delta$")):
                graph.validate_for(inst)

    def test_validate_for_checks_in_row_blocks(self):
        n = 4096
        graph = build_nonadaptive(Instance(np.zeros(n)), "smaller-wins")
        other = Instance(np.zeros(n))
        tracemalloc.start()
        try:
            ComparatorSession(other, graph)   # checks graph on other
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert comparator_for(other, graph) is graph
        # one n x n bool matrix; a whole float64 difference would be 128 MB
        assert peak < 16 * 2 ** 20

    def test_edges_round_trip(self):
        _, g = fig1()
        again = TournamentGraph.from_edges(4, list(g.edges()))
        assert np.array_equal(again.matrix, g.matrix)


class TestBuildNonadaptive:
    def test_all_forced(self):
        inst = Instance((0.0, 2.0, 4.0))
        for policy in ("larger-wins", "smaller-wins", "lower-index-wins"):
            g = build_nonadaptive(inst, policy)
            assert g.winner(0, 1) == 1 and g.winner(1, 2) == 2 and g.winner(0, 2) == 2

    def test_smaller_wins_cycle(self):
        g = build_nonadaptive(Instance((2.0, 1.0, 0.0)), "smaller-wins")
        assert g.winner(0, 1) == 1      # free, min
        assert g.winner(1, 2) == 2      # free, min
        assert g.winner(0, 2) == 0      # forced, gap 2

    def test_lower_index_on_equals(self):
        g = build_nonadaptive(Instance((0.0,) * 4), "lower-index-wins")
        for i in range(4):
            for j in range(i + 1, 4):
                assert g.winner(i, j) == i

    def test_random_needs_rng(self):
        with pytest.raises(ValueError):
            build_nonadaptive(Instance((0.0, 0.0)), "random")

    def test_random_is_frozen_and_seeded(self):
        inst = Instance((0.0,) * 6)
        g1 = build_nonadaptive(inst, "random", RngSeed(9).generator())
        g2 = build_nonadaptive(inst, "random", RngSeed(9).generator())
        assert np.array_equal(g1.dense().matrix, g2.dense().matrix)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            build_nonadaptive(Instance((0.0,)), "chaos")

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=7),
           st.sampled_from(["larger-wins", "smaller-wins", "lower-index-wins",
                            "random"]),
           st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_always_valid_and_complete(self, values, policy, seed):
        inst = Instance(tuple(float(v) for v in values))
        g = build_nonadaptive(inst, policy, RngSeed(seed).generator())
        TournamentGraph(g.dense().matrix, check=True)
        g.validate_for(inst)


def enumerate_valid_orientations(inst):
    n = inst.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    free, forced = [], {}
    for i, j in pairs:
        gap = inst.values[i] - inst.values[j]
        if gap > inst.delta:
            forced[(i, j)] = i
        elif -gap > inst.delta:
            forced[(i, j)] = j
        else:
            free.append((i, j))
    out = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        m = np.zeros((n, n), dtype=bool)
        for (i, j), w in forced.items():
            m[w, j if w == i else i] = True
        for (i, j), b in zip(free, bits):
            if b:
                m[i, j] = True
            else:
                m[j, i] = True
        out.append(m)
    return out, len(free)


class TestExhaustiveOracle:
    """Enumerating all valid orientations matches what build_nonadaptive can
    realize across policies and random draws, for n <= 4."""

    @pytest.mark.parametrize("values", [
        (0.0, 0.0, 0.0), (0.0, 1.0, 2.0), (1.0, 1.0, 0.0, 2.0), (0.0, 2.0),
    ])
    def test_count_and_coverage(self, values):
        inst = Instance(values)
        valid, n_free = enumerate_valid_orientations(inst)
        keys = {m.tobytes() for m in valid}
        assert len(keys) == 2 ** n_free

        seen = set()
        for policy in ("larger-wins", "smaller-wins", "lower-index-wins"):
            m = build_nonadaptive(inst, policy).dense().matrix
            assert m.tobytes() in keys
            seen.add(m.tobytes())
        rng = RngSeed(5).generator()
        for _ in range(2500):
            seen.add(build_nonadaptive(inst, "random", rng).dense().matrix.tobytes())
            if len(seen) == len(keys):
                break
        assert seen <= keys
        assert seen == keys  # random draws eventually realize every valid graph


class TestLemmaOne:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
    def test_regular_and_valid(self, n):
        inst, g = lemma_one_construction(n, seed=2)
        assert (g.out_degrees() == (n - 1) // 2).all()
        g.validate_for(inst)
        assert sorted(inst.values) == [0.0] * (n - 1) + [1.0]

    def test_n3_is_a_cycle(self):
        _, g = lemma_one_construction(3, seed=0)
        assert (g.out_degrees() == 1).all()

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            lemma_one_construction(4)


class TestLemmaTwo:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 15])
    def test_regular_valid_and_two_loses_to_ones(self, n):
        inst, g = lemma_two_construction(n, seed=7)
        m = (n - 1) // 2
        assert (g.out_degrees() == m).all()
        g2 = TournamentGraph(g.dense().matrix, check=True)
        g2.validate_for(inst)
        vals = np.array(inst.values)
        assert sorted(inst.values) == [0.0] * m + [1.0] * m + [2.0]
        two = int(np.argmax(vals))
        for one in np.nonzero(vals == 1.0)[0]:
            assert g.winner(two, int(one)) == one
        for zero in np.nonzero(vals == 0.0)[0]:
            assert g.winner(two, int(zero)) == two  # forced, gap 2

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            lemma_two_construction(6)


class TestSequentialHard:
    def test_r2_s2(self):
        inst, g = sequential_hard_instance(2, 2)
        assert inst.values.tolist() == [2.0, 1.0, 0.0, 0.0]
        # min-on-ties: the free (2, 1) pair goes to the smaller value
        assert g.winner(0, 1) == 1

    def test_r3_s2_multiplicities(self):
        inst, _ = sequential_hard_instance(3, 2)
        vals = list(inst.values)
        assert len(vals) == 9
        assert vals.count(2.0) == 1 and vals.count(1.0) == 2 and vals.count(0.0) == 6

    def test_layer_sizes_general(self):
        r, s = 3, 3
        inst, _ = sequential_hard_instance(r, s)
        vals = list(inst.values)
        assert len(vals) == r ** s
        assert vals.count(float(s)) == 1
        for m in range(s):
            assert vals.count(float(m)) == r ** (s - m) - r ** (s - m - 1)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            sequential_hard_instance(2, 30)


class TestKomodHard:
    def test_multiset_and_forced_edges(self):
        inst, g = komod_hard_instance(14, seed=3)
        vals = list(inst.values)
        assert vals.count(3.0) == 1 and vals.count(2.0) == 4
        assert vals.count(1.0) == 4 and vals.count(0.0) == 5
        g2 = TournamentGraph(g.dense().matrix, check=True)
        g2.validate_for(inst)

    def test_orientation_rules(self):
        inst, g = komod_hard_instance(14, seed=3)
        vals = np.array(inst.values)
        three = int(np.argmax(vals))
        twos = np.nonzero(vals == 2.0)[0]
        ones = np.nonzero(vals == 1.0)[0]
        zeros = np.nonzero(vals == 0.0)[0]
        for two in twos:
            assert g.winner(three, int(two)) == two       # 3 loses to all 2s
            for one in ones:
                assert g.winner(int(two), int(one)) == one  # 2s lose to all 1s
        # exactly one zero (the starred one) beats every 1; plain ones lose
        star_like = [z for z in zeros
                     if all(g.winner(int(z), int(o)) == z for o in ones)]
        assert len(star_like) == 1
        star = star_like[0]
        for z in zeros:
            if z != star:
                assert g.winner(int(star), int(z)) == star
                for one in ones:
                    assert g.winner(int(z), int(one)) == one

    def test_smallest_case(self):
        inst, g = komod_hard_instance(5, seed=1)
        assert sorted(inst.values) == [0.0, 0.0, 1.0, 2.0, 3.0]
        TournamentGraph(g.dense().matrix, check=True).validate_for(inst)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            komod_hard_instance(12)

    def test_graph_is_frozen(self):
        _, g = komod_hard_instance(5, seed=1)
        with pytest.raises(ValueError):
            g.dense().matrix[0, 1] = True


class TestSession:
    def test_fig1_queries(self):
        inst, g = fig1()
        s = ComparatorSession(inst, g)
        assert s.query(3, 0) == 3
        assert s.query(0, 2) == 0
        assert s.queries == 2
        assert [r.winner for r in s.log] == [3, 0]

    def test_forced_pairs_forced_for_every_adversary(self):
        inst = Instance((0.0, 2.0, 4.0))
        for adv in (build_nonadaptive(inst, "lower-index-wins"), PivotKiller()):
            s = ComparatorSession(inst, adv)
            assert s.query(0, 1) == 1
            assert s.query(2, 0) == 2

    def test_repeat_queries_consistent_for_graph(self):
        inst = Instance((0.0,) * 5)
        g = build_nonadaptive(inst, "random", RngSeed(3).generator())
        s = ComparatorSession(inst, g)
        first = s.query(1, 4)
        for _ in range(5):
            assert s.query(1, 4) == first

    def test_self_and_range_errors(self):
        inst, g = fig1()
        s = ComparatorSession(inst, g)
        with pytest.raises(InvalidQueryError):
            s.query(2, 2)
        with pytest.raises(InvalidQueryError):
            s.query(0, 7)

    def test_violation_flag_and_override(self):
        class Liar:
            def decide(self, instance, i, j, log, pivot):
                return min(i, j)  # wrong on forced pairs where max has higher idx

        inst = Instance((0.0, 5.0))
        s = ComparatorSession(inst, Liar())
        assert s.query(0, 1) == 1  # forced answer wins
        assert s.violations == 1

    def test_protocol_error(self):
        class Rogue:
            def decide(self, instance, i, j, log, pivot):
                return 99

        s = ComparatorSession(Instance((0.0, 0.0)), Rogue())
        with pytest.raises(AdversaryProtocolError):
            s.query(0, 1)

    def test_adaptive_may_be_inconsistent_memoization_fixes_it(self):
        class Flipper:
            def __init__(self):
                self.count = 0

            def decide(self, instance, i, j, log, pivot):
                self.count += 1
                return i if self.count % 2 else j

        inst = Instance((0.0, 0.0))
        s = ComparatorSession(inst, Flipper())
        a, b = s.query(0, 1), s.query(0, 1)
        assert a != b  # inconsistent answers allowed by default
        s2 = ComparatorSession(inst, MemoizedStrategy(Flipper()))
        assert s2.query(0, 1) == s2.query(0, 1)


class TestPivotKiller:
    def test_pivot_loses_free_queries(self):
        inst = Instance((0.0, 0.0, 0.0))
        s = ComparatorSession(inst, PivotKiller())
        s.announce_pivot(1)
        assert s.query(1, 2) == 2
        assert s.query(0, 1) == 0

    def test_forced_pivot_still_wins(self):
        inst = Instance((0.0, 0.0, 5.0))
        s = ComparatorSession(inst, PivotKiller())
        s.announce_pivot(2)
        assert s.query(2, 0) == 2
        assert s.violations == 0

    def test_non_pivot_queries_lower_index(self):
        inst = Instance((0.0, 0.0, 0.0))
        s = ComparatorSession(inst, PivotKiller())
        s.announce_pivot(None)
        assert s.query(2, 1) == 1

    @pytest.mark.parametrize("i,j", [(0, 0), (-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_decide_rejects_bad_pairs(self, i, j):
        with pytest.raises(InvalidQueryError):
            PivotKiller().decide(Instance((0.0, 0.0, 5.0)), i, j, None, None)

    def test_decide_forced_and_free(self):
        # gaps of exactly delta are free; past it the larger value wins
        inst = Instance((0.0, 1.0, 2.5), delta=1.0)
        killer = PivotKiller()
        assert killer.decide(inst, 0, 2, None, 0) == 2
        assert killer.decide(inst, 2, 0, None, 2) == 2
        assert killer.decide(inst, 0, 1, None, 0) == 1
        assert killer.decide(inst, 1, 0, None, 0) == 1
        assert killer.decide(inst, 1, 0, None, None) == 0


class TestAdversarySpec:
    def test_nonadaptive_spec(self):
        inst = Instance((0.0,) * 4)
        g = from_spec(
            {"kind": "nonadaptive", "policy": "smaller-wins"}, inst)
        assert isinstance(g, TournamentGraph)
        g1 = from_spec(
            {"kind": "nonadaptive", "policy": "random", "seed": 5}, inst)
        g2 = from_spec(
            {"kind": "nonadaptive", "policy": "random", "seed": 5}, inst)
        assert np.array_equal(g1.dense().matrix, g2.dense().matrix)

    def test_pivot_killer_spec(self):
        adv = from_spec(
            {"kind": "construction", "name": "pivot-killer"}, Instance((0.0,)))
        assert isinstance(adv, PivotKiller)

    def test_construction_spec_must_match_instance(self):
        inst, g = lemma_two_construction(5, seed=11)
        spec = {"kind": "construction", "name": "lemma2",
                "params": {"n": 5, "seed": 11}}
        got = from_spec(spec, inst)
        assert np.array_equal(got.dense().matrix, g.dense().matrix)
        with pytest.raises(ValueError):
            from_spec(spec, Instance((0.0,) * 5))

    def test_explicit_spec_validated(self):
        inst = Instance((2.0, 0.0))
        ok = from_spec({"kind": "explicit", "edges": [[0, 1, 0]]}, inst)
        assert ok.winner(0, 1) == 0
        with pytest.raises(ValueError):
            from_spec({"kind": "explicit", "edges": [[0, 1, 1]]}, inst)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            from_spec({"kind": "wat"}, Instance((0.0,)))

    @pytest.mark.parametrize("generator,name,params", [
        ("seqhard:3,3", "seq-hard", {"r": 3, "s": 3}),
        ("komodhard:11", "komod-hard", {"n": 11, "seed": 5}),
    ])
    def test_generator_matches_its_construction_spec(self, generator, name,
                                                      params):
        inst, graph = parse_generator(
            generator, RngSeed(params.get("seed", 0)).generator())
        # the spec's build raises unless it reproduces inst's values
        built = from_spec({"kind": "construction", "name": name,
                           "params": params}, inst)
        assert np.array_equal(built.dense().matrix, graph.dense().matrix)

    def test_komodhard_builds_past_the_construction_cap(self):
        inst, graph = parse_generator("komodhard:4097", RngSeed(1).generator())
        assert inst.n == 4097 and graph.winner(0, 1) in (0, 1)


def dense_policy_reference(inst, policy, rng=None):
    """The dense build that rule-backed policies replaced: masks over the
    whole n x n value-difference array, with the random policy's coins from
    the same n x n draw."""
    n = inst.n
    v = inst.values
    diff = v[:, None] - v[None, :]
    forced = diff > inst.delta
    free = (np.abs(diff) <= inst.delta) & ~np.eye(n, dtype=bool)
    lower = np.arange(n)[:, None] < np.arange(n)[None, :]
    if policy == "larger-wins":
        pref = (diff > 0) | ((diff == 0) & lower)
    elif policy == "smaller-wins":
        pref = (diff < 0) | ((diff == 0) & lower)
    elif policy == "lower-index-wins":
        pref = lower
    else:
        coin = rng.integers(0, 2, size=(n, n), dtype=np.uint8).view(bool)
        pref = (lower & coin) | (~lower & ~coin.T)
    return forced | (free & pref)


def assert_rule_matches(graph, want):
    n = len(want)
    idx = np.arange(n)
    assert np.array_equal(graph.beats(idx[:, None], idx[None, :]), want)
    assert np.array_equal(graph.dense().matrix, want)
    assert np.array_equal(graph.out_degrees(), want.sum(axis=1))
    for i in range(n):
        for j in range(n):
            if i != j:
                assert graph.winner(i, j) == (i if want[i, j] else j)


POLICY_NAMES = ("larger-wins", "smaller-wins", "lower-index-wins", "random")
G = 2.0 ** -20   # one step of the generators' dyadic grid


class TestRuleMatchesDense:
    """Every policy evaluated on demand answers exactly as the dense build,
    on ties and on gaps of exactly delta."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("inst", [
        Instance((0.0,)), Instance((0.0, 0.0)), Instance((0.0, 1.0)),
        Instance((1.0, 0.0)), Instance((0.0, 1.0 + G)), Instance((3.0, 0.0, 3.0)),
        Instance((0.0, 1.0, 2.0)), Instance((2.0, 2.0, 1.0)),
        Instance((0.25, 1.25, 1.25 + G, 0.25 - G, 1.25)),
        Instance((0.0, 0.5, 1.0, 0.5), delta=0.5),
    ], ids=lambda i: f"{tuple(i.values.tolist())}/{i.delta}")
    def test_edge_instances(self, policy, inst):
        seed = 11
        graph = build_nonadaptive(inst, policy, RngSeed(seed).generator())
        want = dense_policy_reference(inst, policy, RngSeed(seed).generator())
        assert_rule_matches(graph, want)

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=12),
           st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from(POLICY_NAMES),
           st.integers(0, 2 ** 32))
    @settings(max_examples=80, deadline=None)
    def test_quarter_grid(self, ks, delta, policy, seed):
        # values k/4 tie often and sit exactly delta apart often
        inst = Instance(tuple(k / 4 for k in ks), delta=delta)
        graph = build_nonadaptive(inst, policy, RngSeed(seed).generator())
        want = dense_policy_reference(inst, policy, RngSeed(seed).generator())
        assert_rule_matches(graph, want)

    def test_dense_is_cached_and_frozen(self):
        graph = build_nonadaptive(Instance((0.0, 1.0, 2.0)), "smaller-wins")
        assert graph.dense() is graph.dense()
        with pytest.raises(ValueError):
            graph.dense().matrix[0, 1] = True

    def test_no_matrix_attribute(self):
        # only dense() makes a matrix; reading .matrix must not build one
        graph = build_nonadaptive(Instance((0.0,) * 3), "lower-index-wins")
        _, komod = komod_hard_instance(5, seed=1)
        for g in (graph, komod):
            assert getattr(g, "matrix", None) is None


def komod_canonical_reference(n):
    """komod-hard's canonical values and matrix, block by block, as the dense
    construction built them."""
    g = (n - 2) // 3
    values = np.concatenate(([3.0], np.full(g, 2.0), np.ones(g), np.zeros(g), [0.0]))
    s3, s2, s1, s0, star = (slice(0, 1), slice(1, 1 + g), slice(1 + g, 1 + 2 * g),
                            slice(1 + 2 * g, 1 + 3 * g), n - 1)
    canon = np.zeros((n, n), dtype=bool)
    for win, lose in ((s3, s1), (s3, s0), (s3, star), (s2, s3), (s2, s0),
                      (s2, star), (s1, s2), (s1, s0), (star, s1), (star, s0)):
        canon[win, lose] = True
    pos = np.arange(g)
    dist = (pos[None, :] - pos[:, None]) % g
    near_regular = (dist >= 1) & (dist <= (g - 1) // 2)
    if g % 2 == 0:
        near_regular |= (dist == g // 2) & (pos[:, None] < g // 2)
    for sl in (s2, s1, s0):
        canon[sl, sl] = near_regular
    return values, canon


class TestKomodRule:
    @pytest.mark.parametrize("n", [5, 8, 11, 14, 602, 605])
    def test_matches_scattered_canonical(self, n):
        seed = 40 + n
        inst, graph = komod_hard_instance(n, seed=seed)
        perm = RngSeed(seed).generator().permutation(n)
        values, canon = komod_canonical_reference(n)
        want = np.zeros((n, n), dtype=bool)
        want[np.ix_(perm, perm)] = canon
        expect_values = np.empty(n)
        expect_values[perm] = values
        assert np.array_equal(inst.values, expect_values)
        if n > 100:
            idx = np.arange(n)
            assert np.array_equal(graph.beats(idx[:, None], idx[None, :]), want)
            assert np.array_equal(graph.dense().matrix, want)
        else:
            assert_rule_matches(graph, want)


def circulant_reference(n):
    """The dense circulant the lemma constructions were built from: i beats
    the next (n-1)/2 indices cyclically."""
    pos = np.arange(n)
    dist = (pos[None, :] - pos[:, None]) % n
    return (dist >= 1) & (dist <= (n - 1) // 2)


class TestLemmaRule:
    @pytest.mark.parametrize("n", range(3, 32, 2))
    def test_matches_dense_circulant(self, n):
        canon = circulant_reference(n)
        m = (n - 1) // 2
        for seed in (0, 1, 7, 20250810):
            inst, one = lemma_one_construction(n, seed=seed)
            assert inst.values.tolist().index(1.0) == RngSeed(seed).generator().integers(n)
            assert_rule_matches(one, canon)
            inst, two = lemma_two_construction(n, seed=seed)
            perm = RngSeed(seed).generator().permutation(n)
            want = np.zeros((n, n), dtype=bool)
            want[np.ix_(perm, perm)] = canon
            expect_values = np.empty(n)
            expect_values[perm] = np.concatenate(([2.0], np.zeros(m), np.ones(m)))
            assert np.array_equal(inst.values, expect_values)
            assert_rule_matches(two, want)

    def test_past_the_dense_budget_needs_no_matrix(self):
        n = 9001   # past DENSE_CELL_BUDGET's n <= 8192
        tracemalloc.start()
        try:
            inst, graph = parse_generator(f"lemma2:{n}", RngSeed(3).generator())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n // 8   # far below one n x n matrix of bools
        items = np.arange(n)
        for pivot in (0, 4500, n - 1):
            assert graph.beats(items, pivot).sum() == (n - 1) // 2
        with pytest.raises(ValueError, match="budget"):
            graph.dense()


class TestDenseBudget:
    """Every dense n x n build checks DENSE_CELL_BUDGET before allocating."""

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        from advsel import adversary
        monkeypatch.setattr(adversary, "DENSE_CELL_BUDGET", 20)   # n <= 4

    def test_random_coins(self):
        build_nonadaptive(Instance((0.0,) * 4), "random", RngSeed(1).generator())
        with pytest.raises(ValueError, match="budget"):
            build_nonadaptive(Instance((0.0,) * 5), "random", RngSeed(1).generator())

    def test_rule_answers_but_dense_refuses(self):
        graph = build_nonadaptive(Instance((0.0,) * 5), "smaller-wins")
        assert graph.winner(3, 1) == 1
        assert list(graph.out_degrees()) == [4, 3, 2, 1, 0]
        with pytest.raises(ValueError, match="budget"):
            graph.dense()

    def test_explicit_edges(self):
        edges = [(i, j, i) for i in range(5) for j in range(i + 1, 5)]
        with pytest.raises(ValueError, match="budget"):
            TournamentGraph.from_edges(5, edges)

    def test_komod_needs_no_matrix(self):
        _, graph = komod_hard_instance(8, seed=2)
        assert graph.out_degrees().sum() == 8 * 7 // 2
        with pytest.raises(ValueError, match="budget"):
            graph.dense()

    def test_session_asks_rule_past_budget(self):
        inst = Instance((0.0, 0.5, 3.0, 0.5, 1.0))
        graph = build_nonadaptive(inst, "smaller-wins")
        want = dense_policy_reference(inst, "smaller-wins")
        s = ComparatorSession(inst, graph)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert s.query(i, j) == (i if want[i, j] else j)
        assert s.violations == 0
