"""Quick-select, quick-sort, sequential selection and the complete
tournament in lockstep. ``PCG64Lanes`` must draw what numpy's
``Generator.integers`` and ``Generator.permutation`` draw on each lane's
state, bit for bit, and a ``LaneBlock`` of trials must give every trial the
winner or order, queries and error of the same trial run alone through a
session, whether the trials share a kept adversary, stack their own
instances, or draw their own values under a construction graph they share.
Over drawn configs, a block gives the same with lanes, without them, and
with every trial building its own instance and adversary."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from advsel import core, harness
from advsel.adversary import (SHORTHAND, ComparatorSession, lemma_one_construction,
                              lemma_two_construction, parse_adversary)
from advsel.algorithms import (LaneBlock, LaneResult, complete_tournament,
                               quick_select, sequential_select)
from advsel.core import Instance, RngSeed, is_t_sorted
from advsel.generators import lane_values, parse_generator
from advsel.harness import TrialConfig, build_instance
from advsel.sorting import LaneSortResult, quick_sort

# ranges past numpy's bounded-integer edge cases: 3 * 2**30 + 1 and 2**31 + 1
# reject about a quarter and a half of their first uint32s
RANGES = st.one_of(st.integers(1, 2 ** 32 - 1),
                   st.sampled_from([1, 2, 3, 2 ** 31, 2 ** 31 + 1,
                                    3 * 2 ** 30 + 1, 2 ** 32 - 1]))


def _generators(root, lo, hi, role):
    return [root.generator(t, role) for t in range(lo, hi)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64), lo=st.integers(0, 2 ** 32 - 64),
       count=st.integers(1, 40), data=st.data())
def test_lanes_draw_what_numpy_draws(seed, lo, count, data):
    root = RngSeed(seed, 3)
    lanes = root.pcg64_lanes(lo, lo + count, 2)
    gens = _generators(root, lo, lo + count, 2)
    lane_ids = st.lists(st.integers(0, count - 1), unique=True, max_size=count)
    # a first draw leaves a pending uint32 on the lanes it touched
    pending = np.array(data.draw(lane_ids, label="pending"), dtype=np.intp)
    lanes.integers(pending, np.full(len(pending), 7))
    for k in pending:
        gens[k].integers(7)
    for step in range(data.draw(st.integers(1, 12), label="steps")):
        subset = np.array(data.draw(lane_ids, label=f"lanes {step}"), dtype=np.intp)
        m = data.draw(st.lists(RANGES, min_size=len(subset), max_size=len(subset)),
                      label=f"ranges {step}")
        got = lanes.integers(subset, np.array(m, dtype=np.uint64))
        want = [gens[k].integers(r) for k, r in zip(subset, m)]
        assert got.tolist() == want
    assert lanes.states() == [g.bit_generator.state for g in gens]


def _pending_lanes(root, lo, count, pending):
    """Lanes lo..lo+count-1 and their generators, after a first draw on the
    ``pending`` lanes leaves a uint32 pending there."""
    lanes = root.pcg64_lanes(lo, lo + count, 2)
    gens = _generators(root, lo, lo + count, 2)
    lanes.integers(np.array(pending, dtype=np.intp), np.full(len(pending), 7))
    for k in pending:
        gens[k].integers(7)
    return lanes, gens


def _check_after(lanes, gens, m):
    """Each lane's state and next ``integers(m)`` against numpy's."""
    assert lanes.states() == [g.bit_generator.state for g in gens]
    assert lanes.integers(np.arange(len(gens)), np.full(len(gens), m)).tolist() == \
        [g.integers(m) for g in gens]


def _check_permutation(root, lo, count, n, pending, m):
    """Each lane's ``permutation(n)``, state and next ``integers(m)`` against
    numpy's, some lanes holding a pending uint32 first."""
    lanes, gens = _pending_lanes(root, lo, count, pending)
    assert lanes.permutation(n).tolist() == [g.permutation(n).tolist() for g in gens]
    _check_after(lanes, gens, m)


# the edges of the shuffle's masks: each power of two and the next n
EDGES = [2 ** k + d for k in range(1, 17) for d in (0, 1) if 2 ** k + d <= 2 ** 16]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 64), lo=st.integers(0, 2 ** 32 - 64),
       n=st.one_of(st.integers(0, 70), st.sampled_from([e for e in EDGES
                                                       if e <= 2 ** 12 + 1])),
       data=st.data())
def test_permutation_is_numpys(seed, lo, n, data):
    count = data.draw(st.integers(1, 24), label="lanes")
    pending = data.draw(st.lists(st.integers(0, count - 1), unique=True),
                        label="pending")
    _check_permutation(RngSeed(seed, 5), lo, count, n, pending,
                       data.draw(RANGES, label="next range"))


@settings(max_examples=60, deadline=None)
@example(seed=0, n=2 ** 16 + 1, pending=True)
@example(seed=0, n=2 ** 16, pending=False)
@given(seed=st.integers(0, 2 ** 64),
       n=st.one_of(st.integers(0, 70), st.sampled_from([*EDGES, 2 ** 16 + 1])),
       pending=st.booleans())
def test_shuffled_copy_is_permutation(seed, n, pending):
    """``algorithms._matching`` draws its pairs by shuffling a copy of the
    int64 items: the draws, order and generator state of gathering them
    through ``permutation``, with or without a uint32 pending first."""
    gens = [RngSeed(seed, 5).generator() for _ in range(2)]
    if pending:
        for g in gens:
            g.integers(7)
    # 64-bit draws, which leave a pending uint32 pending
    items = gens[0].integers(-2 ** 40, 2 ** 40, size=n)
    gens[1].integers(-2 ** 40, 2 ** 40, size=n)
    assert gens[0].bit_generator.state["has_uint32"] == pending
    shuffled = items.copy()
    gens[0].shuffle(shuffled)
    assert shuffled.tolist() == items[gens[1].permutation(n)].tolist()
    assert gens[0].bit_generator.state == gens[1].bit_generator.state


# a long shuffle costs about 20 us per position, so few examples
@settings(max_examples=3, deadline=None)
@example(seed=2 ** 64, n=2 ** 16, pending=[1])
@given(seed=st.integers(0, 2 ** 64), n=st.sampled_from([e for e in EDGES
                                                        if e > 2 ** 12 + 1]),
       pending=st.sampled_from([[], [0], [1], [0, 1]]))
def test_permutation_of_large_n_is_numpys(seed, n, pending):
    _check_permutation(RngSeed(seed, 5), 7, 2, n, pending, 2 ** 31 + 1)


# the ranges of the generators' draws, and two that reject about a quarter
# and a half of the words
FILL_RANGES = [2, 2 ** 20 + 1, 3 * 2 ** 30 + 1, 2 ** 31 + 1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64), lo=st.integers(0, 2 ** 32 - 64),
       hi=st.sampled_from(FILL_RANGES),
       n=st.one_of(st.integers(0, 70), st.sampled_from([257, 1000, 4099])),
       data=st.data())
def test_fill_is_numpys(seed, lo, hi, n, data):
    """``fill(hi, n)`` is each lane's ``Generator.integers(0, hi, size=n)``,
    and leaves each lane where numpy leaves it."""
    count = data.draw(st.integers(1, 24), label="lanes")
    pending = data.draw(st.lists(st.integers(0, count - 1), unique=True),
                        label="pending")
    lanes, gens = _pending_lanes(RngSeed(seed, 5), lo, count, pending)
    got = lanes.fill(hi, n)
    assert got.dtype == np.int64 and got.shape == (count, n)
    assert got.tolist() == [g.integers(0, hi, size=n).tolist() for g in gens]
    _check_after(lanes, gens, data.draw(RANGES, label="next range"))


@pytest.mark.parametrize("width", [1, 5, 64])
@pytest.mark.parametrize("hi", FILL_RANGES)
def test_fill_in_blocks_is_numpys(width, hi, monkeypatch):
    """A fill of more values than one block takes reads on, block after
    block, from where the last block left each lane."""
    monkeypatch.setattr(core, "_FILL_WORDS", width)
    lanes, gens = _pending_lanes(RngSeed(8, 5), 3, 6, [1, 4, 5])
    assert lanes.fill(hi, 70).tolist() == [g.integers(0, hi, size=70).tolist()
                                           for g in gens]
    _check_after(lanes, gens, 2 ** 31 + 1)


def _lane_drawing(word):
    """One lane whose next uint32 is ``word``, and a generator in its state:
    the state one LCG step before the state (high half 0, low half ``word``),
    whose XSL-RR output is ``word`` itself."""
    inc = 2 * 0x5851F42D4C957F2D + 1
    state = (word - inc) * pow(core._PCG64_MULT, -1, 2 ** 128) % 2 ** 128
    lanes = core.PCG64Lanes(*(np.array([[x & core._MASK64], [x >> 64]], dtype=np.uint64)
                              for x in (state, inc)))
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return lanes, gen


@pytest.mark.parametrize("hi,below", [(hi, below) for hi in FILL_RANGES + [3]
                                      for below in (0, 1)
                                      if (2 ** 32 - hi) % hi >= below])
def test_draws_at_the_rejection_threshold(hi, below):
    """A word whose product with hi has a low half of exactly the threshold
    (2**32 - hi) % hi is kept, and one just below it is drawn again, by
    ``fill`` and by ``integers`` as by numpy."""
    threshold = (2 ** 32 - hi) % hi
    # a word w with w * hi = threshold - below modulo 2**32 (hi odd), or 0
    word = 0 if hi % 2 == 0 else (threshold - below) * pow(hi, -1, 2 ** 32) % 2 ** 32
    for draw in (lambda lanes: lanes.fill(hi, 3)[0].tolist(),
                 lambda lanes: [lanes.integers([0], [hi])[0] for _ in range(3)]):
        lanes, gen = _lane_drawing(word)
        assert draw(lanes) == gen.integers(0, hi, size=3).tolist()
        assert lanes.states() == [gen.bit_generator.state]


def test_fill_of_one_draws_nothing():
    lanes = RngSeed(2).pcg64_lanes(0, 3, 0)
    before = lanes.states()
    assert lanes.fill(1, 4).tolist() == [[0] * 4] * 3
    assert lanes.fill(7, 0).shape == (3, 0)
    assert lanes.states() == before
    for hi, n in ((0, 1), (2 ** 32, 1), (2, -1)):
        with pytest.raises(ValueError):
            lanes.fill(hi, n)


def test_lockstep_lanes_draw_what_numpy_draws():
    """Lanes that all hold a pending uint32, or none, as a block's lanes
    do, and a mix of the two, each with ranges of 1 among them or not."""
    root = RngSeed(13)
    lanes = root.pcg64_lanes(0, 10, 2)
    gens = _generators(root, 0, 10, 2)
    subsets = [np.arange(10), np.arange(10), np.arange(0, 10, 2), np.arange(10),
               np.arange(1, 10, 2), np.arange(10)]
    for k, subset in enumerate(subsets):
        m = np.full(len(subset), 2 ** 31 + 1 if k % 2 else 5, dtype=np.uint64)
        if k >= 3:
            m[::3] = 1
        assert lanes.integers(subset, m).tolist() == \
            [gens[j].integers(r) for j, r in zip(subset, m.tolist())]
    assert lanes.states() == [g.bit_generator.state for g in gens]


def test_rejected_draws_are_drawn_again():
    root = RngSeed(11)
    lanes = root.pcg64_lanes(0, 64, 0)
    gens = _generators(root, 0, 64, 0)
    m = 3 * 2 ** 30 + 1
    assert lanes.integers(np.arange(64), np.full(64, m)).tolist() == \
        [g.integers(m) for g in gens]
    states = lanes.states()
    assert states == [g.bit_generator.state for g in gens]
    # one uint32 leaves the high half pending; a re-draw takes it too
    assert 0 < sum(not s["has_uint32"] for s in states) < 64


def test_one_draws_nothing():
    lanes = RngSeed(2).pcg64_lanes(0, 3, 0)
    before = lanes.states()
    assert lanes.integers(np.arange(3), np.ones(3)).tolist() == [0, 0, 0]
    assert lanes.states() == before
    with pytest.raises(ValueError):
        lanes.integers(np.arange(1), np.array([2 ** 32]))
    with pytest.raises(ValueError):
        lanes.integers(np.arange(1), np.array([0]))


def _lemma(build, name, n, seed):
    inst, _ = build(n, seed)
    spec = {"kind": "construction", "name": name, "params": {"n": n, "seed": seed}}
    return {"values": list(inst.values)}, spec


def _explicit(n):
    # a valid dense graph: every pair of an all-zero instance is free
    rng = np.random.default_rng(n)
    edges = [[i, j, i if rng.random() < 0.5 else j]
             for i in range(n) for j in range(i + 1, n)]
    return f"zeros:{n}", {"kind": "explicit", "edges": edges}


# (instance, adversary) of every kind of kept adversary the lanes accept
KEPT = {
    "smaller-wins": ("zeros:30", "smaller-wins"),
    "lower-index-wins": ({"values": [0.0, 2.5, 1.0, 0.5] * 8}, "lower-index-wins"),
    "larger-wins": ({"values": [0.0, 2.5, 1.0, 0.5] * 8}, "larger-wins"),
    "distinct": ("distinct:30", "lower-index-wins"),    # every pair forced
    "explicit-dense": _explicit(25),
    "seeded-random": ("zeros:40", {"kind": "nonadaptive", "policy": "random",
                                   "seed": 5}),
    "lemma1": _lemma(lemma_one_construction, "lemma1", 31, 4),
    "lemma2": _lemma(lemma_two_construction, "lemma2", 33, 6),
}


def _alone(cfg, lo, hi):
    """Winners, queries and errors of trials lo..hi-1, each run alone through
    a session on the kept instance and adversary."""
    root = RngSeed(cfg.seed, cfg.stream)
    inst, cgraph = build_instance(cfg.instance, root.generator(lo, 0))
    adv = harness.adversary_from_spec(parse_adversary(cfg.adversary), inst,
                                      root.generator(lo, 1), cgraph)
    winners, queries = [], []
    for t in range(lo, hi):
        session = ComparatorSession(inst, adv, record=False)
        result = quick_select(session, rng=root.generator(t, 2))
        assert session.violations == 0
        winners.append(result.winner)
        queries.append(result.queries)
    errors = [inst.values[w] < inst.max_value - cfg.t for w in winners]
    return inst, adv, winners, queries, errors


@pytest.fixture()
def lane_calls(monkeypatch):
    """The trial ranges the harness ran as lanes."""
    calls = []
    lane_trials = harness._lane_trials

    def spy(config, root, instance, graph, lo, hi):
        calls.append((lo, hi))
        return lane_trials(config, root, instance, graph, lo, hi)

    monkeypatch.setattr(harness, "_lane_trials", spy)
    return calls


@pytest.mark.parametrize("kind", KEPT)
@pytest.mark.parametrize("lo,hi", [(0, 45), (13, 50)])
def test_lanes_equal_trials_run_alone(kind, lo, hi, lane_calls, monkeypatch):
    # chunks of 7 lanes: neither block length is a multiple of the chunk
    monkeypatch.setattr(harness, "_SEED_CHUNK", 7)
    instance, adversary = KEPT[kind]
    cfg = TrialConfig(algorithm="q-select", instance=instance,
                      adversary=adversary, t=0.0, trials=50, seed=9, stream=2)
    inst, adv, winners, queries, errors = _alone(cfg, lo, hi)
    data = harness._trial_block(cfg, lo, hi)
    assert lane_calls == [(lo, hi)]
    assert data.queries.tolist() == queries
    assert data.errors.tolist() == errors
    assert data.violations == 0 and data.round_sizes == []
    block = LaneBlock(adv, inst.n, RngSeed(9, 2).pcg64_lanes(lo, hi, 2))
    result = quick_select(block)
    assert isinstance(result, LaneResult)
    assert result.winners.tolist() == winners
    assert result.lane_queries.tolist() == queries
    assert result.queries == sum(queries)


def test_rule_above_dense_budget(lane_calls, monkeypatch):
    from advsel import adversary
    monkeypatch.setattr(adversary, "DENSE_CELL_BUDGET", 100)
    monkeypatch.setattr(harness, "_LANE_ITEMS", 200)   # 4 lanes of 50 items
    # zeroone draws its values, so no trial would keep them: fix one draw
    inst, _ = build_instance("zeroone:50", RngSeed(3).generator(0, 0))
    cfg = TrialConfig(algorithm="q-select", instance={"values": list(inst.values)},
                      adversary="smaller-wins", t=0.0, trials=30, seed=3)
    *_, queries, errors = _alone(cfg, 0, 30)
    assert not adversary.fits_dense_budget(inst.n)
    data = harness._trial_block(cfg, 0, 30)
    assert lane_calls == [(0, 30)]
    assert data.queries.tolist() == queries
    assert data.errors.tolist() == errors


def _trials_alone(cfg, lo, hi):
    """Winners or orders, queries and errors of trials lo..hi-1, each run
    alone through a session on its own build of the instance and adversary."""
    root = RngSeed(cfg.seed, cfg.stream)
    spec = parse_adversary(cfg.adversary)
    outputs, queries, errors = [], [], []
    for t in range(lo, hi):
        inst, cgraph = build_instance(cfg.instance, root.generator(t, 0))
        adv = harness.adversary_from_spec(spec, inst, root.generator(t, 1), cgraph)
        session = ComparatorSession(inst, adv, record=False)
        result = harness.run_algorithm(cfg.algorithm, session, root.generator(t, 2))
        assert session.violations == 0
        if cfg.algorithm == "q-sort":
            outputs.append(list(result.order))
            errors.append(not is_t_sorted(inst.values[outputs[-1]].tolist(), cfg.t))
        else:
            outputs.append(result.winner)
            errors.append(inst.values[result.winner] < inst.max_value - cfg.t)
        queries.append(result.queries)
    return inst, outputs, queries, errors


@pytest.mark.parametrize("kind", KEPT)
@pytest.mark.parametrize("lo,hi", [(0, 45), (13, 50)])
def test_sort_lanes_equal_trials_run_alone(kind, lo, hi, lane_calls, monkeypatch):
    monkeypatch.setattr(harness, "_SEED_CHUNK", 7)
    instance, adversary = KEPT[kind]
    cfg = TrialConfig(algorithm="q-sort", instance=instance, adversary=adversary,
                      t=0.0, trials=50, seed=9, stream=2)
    inst, orders, queries, errors = _trials_alone(cfg, lo, hi)
    data = harness._trial_block(cfg, lo, hi)
    assert lane_calls == [(lo, hi)]
    assert data.queries.tolist() == queries
    assert data.errors.tolist() == errors
    assert data.violations == 0 and data.round_sizes == [] and data.n == inst.n
    root = RngSeed(9, 2)
    adv = harness.adversary_from_spec(parse_adversary(adversary), inst,
                                      root.generator(lo, 1),
                                      build_instance(instance, root.generator(lo, 0))[1])
    result = quick_sort(LaneBlock(adv, inst.n, root.pcg64_lanes(lo, hi, 2)))
    assert isinstance(result, LaneSortResult)
    assert result.orders.tolist() == orders
    assert result.lane_queries.tolist() == queries
    assert result.queries == sum(queries)


@pytest.mark.parametrize("algorithm", ["q-sort", "q-select"])
@pytest.mark.parametrize("instance", ["zeroone:30", "uniform01:30", "lemma1:15"])
@pytest.mark.parametrize("policy", ["smaller-wins", "larger-wins", "lower-index-wins"])
@pytest.mark.parametrize("lo,hi", [(0, 45), (13, 50)])
def test_stacked_lanes_equal_trials_run_alone(algorithm, instance, policy, lo, hi,
                                              lane_calls, monkeypatch):
    # each trial draws its instance: the lanes stack them, 7 at a time
    monkeypatch.setattr(harness, "_SEED_CHUNK", 7)
    cfg = TrialConfig(algorithm=algorithm, instance=instance, adversary=policy,
                      t=0.5, trials=50, seed=9, stream=2)
    inst, outputs, queries, errors = _trials_alone(cfg, lo, hi)
    data = harness._trial_block(cfg, lo, hi)
    assert lane_calls == [(lo, hi)]
    assert data.queries.tolist() == queries
    assert data.errors.tolist() == errors
    assert data.n == inst.n and data.violations == 0
    # one block on the stack of all the trials' instances
    root = RngSeed(9, 2)
    stacked = Instance(np.concatenate([
        build_instance(instance, root.generator(t, 0))[0].values
        for t in range(lo, hi)]))
    block = LaneBlock(harness.adversary_from_spec(parse_adversary(policy), stacked),
                      inst.n, root.pcg64_lanes(lo, hi, 2), inst.n)
    result = harness.run_algorithm(algorithm, block, None)
    lane_outputs = result.orders if algorithm == "q-sort" else result.winners
    assert lane_outputs.tolist() == outputs
    assert result.lane_queries.tolist() == queries


@pytest.mark.parametrize("algorithm", ["q-sort", "q-select"])
@pytest.mark.parametrize("instance", ["zeroone:30", "uniform01:30"])
def test_stacked_blocks_build_one_instance(algorithm, instance, lane_calls,
                                           monkeypatch):
    """A stacked block builds its first trial's instance alone, as every
    block does: its lanes draw every trial's values."""
    monkeypatch.setattr(harness, "_SEED_CHUNK", 7)
    cfg = TrialConfig(algorithm=algorithm, instance=instance,
                      adversary="smaller-wins", t=0.5, trials=50, seed=9, stream=2)
    _, _, queries, errors = _trials_alone(cfg, 13, 50)
    builds = []
    build = harness.build_instance

    def spy(source, rng):
        builds.append(source)
        return build(source, rng)

    monkeypatch.setattr(harness, "build_instance", spy)
    data = harness._trial_block(cfg, 13, 50)
    assert lane_calls == [(13, 50)] and builds == [instance]
    assert data.queries.tolist() == queries
    assert data.errors.tolist() == errors


@pytest.mark.parametrize("spec", ["uniform01:30", "zeroone:30", "lemma1:15"])
def test_lane_values_are_the_generators(spec):
    """Each lane's row of ``lane_values`` is the instance ``parse_generator``
    draws on its trial's generator, which is left in the lane's state. Specs
    that draw nothing have no lane form, nor have lemma2 and komodhard, whose
    graphs carry the permutation drawn with their values."""
    root = RngSeed(21, 4)
    lanes = root.pcg64_lanes(5, 17, 0)
    gens = _generators(root, 5, 17, 0)
    rows = lane_values(spec)(lanes)
    assert rows.tolist() == [parse_generator(spec, g)[0].values.tolist() for g in gens]
    assert lanes.states() == [g.bit_generator.state for g in gens]
    for no_lanes in ("zeros:5", "distinct:5", "seqhard:3,2", "lemma2:21",
                     "komodhard:20"):
        assert lane_values(no_lanes) is None


@pytest.mark.parametrize("algorithm", harness.LANE_ALGORITHMS)
@pytest.mark.parametrize("instance", ["lemma2:21", "komodhard:20"])
def test_stacked_constructions_equal_trials_run_alone(algorithm, instance, lane_calls,
                                                      monkeypatch):
    """A construction whose graph is drawn with its values has no lane form,
    so under a policy too its trials run one session each, and the block
    gives what they give alone."""
    monkeypatch.setattr(harness, "_SEED_CHUNK", 7)
    cfg = TrialConfig(algorithm=algorithm, instance=instance,
                      adversary="smaller-wins", t=0.5, trials=50, seed=9, stream=2)
    _, _, queries, errors = _trials_alone(cfg, 13, 50)
    data = harness._trial_block(cfg, 13, 50)
    assert lane_calls == []
    assert data.queries.tolist() == queries
    assert data.errors.tolist() == errors


# seq and compl: every kept kind, lemma1's instance drawn per trial under its
# one graph, a stacked policy, and n = 1, 2, 3
SELECTORS = {
    **KEPT,
    "lemma1-per-trial": ("lemma1:15", "construction"),
    "stacked": ("uniform01:12", "larger-wins"),
    "kept-n1": ("zeros:1", "smaller-wins"),
    "stacked-n2": ("zeroone:2", "smaller-wins"),
    "lemma1-n3": ("lemma1:3", "construction"),
}


@pytest.mark.parametrize("algorithm", ["seq", "compl"])
@pytest.mark.parametrize("kind", SELECTORS)
@pytest.mark.parametrize("lo,hi", [(0, 45), (13, 50)])
def test_selector_lanes_equal_trials_run_alone(algorithm, kind, lo, hi,
                                               lane_calls, monkeypatch):
    monkeypatch.setattr(harness, "_SEED_CHUNK", 7)
    instance, adversary = SELECTORS[kind]
    cfg = TrialConfig(algorithm=algorithm, instance=instance, adversary=adversary,
                      t=0.5, trials=50, seed=9, stream=2)
    inst, winners, queries, errors = _trials_alone(cfg, lo, hi)
    results = []    # the blocks' results, which hold each lane's winner
    run_algorithm = harness.run_algorithm

    def spy(*args):
        results.append(run_algorithm(*args))
        return results[-1]

    monkeypatch.setattr(harness, "run_algorithm", spy)
    data = harness._trial_block(cfg, lo, hi)
    assert lane_calls == [(lo, hi)]
    assert all(isinstance(r, LaneResult) for r in results)
    assert np.concatenate([r.winners for r in results]).tolist() == winners
    assert data.queries.tolist() == queries
    assert data.errors.tolist() == errors
    assert data.violations == 0 and data.round_sizes == [] and data.n == inst.n


# adversaries built per trial, and the instances each is tried on
PER_TRIAL = {
    "random": ("random", ("zeros:20", "zeroone:20")),
    "pivot-killer": ("pivot-killer", ("zeros:20", "zeroone:20")),
    # it draws nothing from the trial's generator, yet on a stack it would
    # draw a coin for every pair of the stack
    "seeded-random": ({"kind": "nonadaptive", "policy": "random", "seed": 5},
                      ("zeroone:20",)),
    # their graphs carry a permutation drawn per trial
    "construction": ("construction", ("komodhard:20", "lemma2:21")),
    # and so these have no lane form to stack
    "smaller-wins": ("smaller-wins", ("lemma2:21", "komodhard:20")),
}


@pytest.mark.parametrize("adversary", PER_TRIAL)
def test_per_trial_adversaries_are_not_lanes(adversary, lane_calls):
    spec, instances = PER_TRIAL[adversary]
    for algorithm in harness.LANE_ALGORITHMS:
        for instance in instances:
            cfg = TrialConfig(algorithm=algorithm, instance=instance,
                              adversary=spec, trials=6, seed=1)
            harness.run_trials(cfg)
    assert lane_calls == []


def test_lanes_start_from_any_items():
    inst, adv = lemma_one_construction(15, 2)
    items = [3, 1, 4, 14, 5, 9, 2, 6]
    for select in (quick_select, sequential_select, complete_tournament):
        for lanes in (20, 1):
            block = LaneBlock(adv, inst.n, RngSeed(4).pcg64_lanes(0, lanes, 2))
            result = select(block, items)
            for t in range(lanes):
                session = ComparatorSession(inst, adv, record=False)
                alone = select(session, items, RngSeed(4).generator(t, 2))
                assert result.winners[t] == alone.winner
                assert result.lane_queries[t] == alone.queries


# stacked rows of the q-select and q-sort kinds: every pair of the stack is free
STACKED = {"stacked-zeroone": ("zeroone:30", "lower-index-wins"),
           "stacked-uniform01": ("uniform01:30", "smaller-wins")}
# the kinds whose graph is an order, so that their lanes carry its keys
KEYED = ("smaller-wins", "larger-wins", "distinct", "stacked", "kept-n1",
         "stacked-n2", *STACKED)
KINDS = {**SELECTORS, **STACKED}


@pytest.mark.parametrize("kind", KINDS)
def test_blocks_carry_keys_exactly_for_orders(kind, monkeypatch):
    """The harness's blocks carry keys where the graph is an order and ask
    the graph elsewhere: a silent fallback to the rule fails here."""
    monkeypatch.setattr(harness, "_SEED_CHUNK", 7)
    keyed = []
    make = harness.LaneBlock

    def spy(*args):
        block = make(*args)
        keyed.append(block.key is not None)
        return block

    monkeypatch.setattr(harness, "LaneBlock", spy)
    instance, adversary = KINDS[kind]
    for algorithm in harness.LANE_ALGORITHMS:
        cfg = TrialConfig(algorithm=algorithm, instance=instance,
                          adversary=adversary, trials=10, seed=9)
        harness._trial_block(cfg, 0, 10)
    assert keyed == [kind in KEYED] * 8     # two blocks per algorithm


@pytest.mark.parametrize("algorithm", harness.LANE_ALGORITHMS)
@pytest.mark.parametrize("kind", KEYED)
def test_keys_answer_as_the_graph(algorithm, kind):
    """Lanes on an order's keys give each lane the output and queries that
    lanes asking the graph's dense copy, which carries no keys, give it: on
    a graph the lanes share and on a stack of the trials' instances."""
    instance, adversary = KINDS[kind]
    root = RngSeed(9, 2)
    count = 20
    inst, cgraph = build_instance(instance, root.generator(0, 0))
    stride = 0
    if kind.startswith("stacked"):
        stride = inst.n
        inst = Instance(np.concatenate([
            build_instance(instance, root.generator(t, 0))[0].values
            for t in range(count)]))
    graph = harness.adversary_from_spec(parse_adversary(adversary), inst,
                                        root.generator(0, 1), cgraph)
    results = []
    for g in (graph, graph.dense()):
        block = LaneBlock(g, stride or inst.n, root.pcg64_lanes(0, count, 2),
                          stride)
        assert (block.key is not None) == (g is graph)
        results.append(harness.run_algorithm(algorithm, block, None))
    keys, rule = results
    out = "orders" if algorithm == "q-sort" else "winners"
    assert getattr(keys, out).tolist() == getattr(rule, out).tolist()
    assert keys.lane_queries.tolist() == rule.lane_queries.tolist()


@pytest.fixture()
def run_calls(monkeypatch):
    """(algorithm, lanes, sign) of every block run as one run of an order."""
    from advsel import algorithms, sorting
    calls = []
    for module, name, algorithm in ((algorithms, "_select_run", "q-select"),
                                    (sorting, "_sort_run", "q-sort")):
        def spy(block, items, sign, run=getattr(module, name), algorithm=algorithm):
            calls.append((algorithm, len(block), sign))
            return run(block, items, sign)

        monkeypatch.setattr(module, name, spy)
    return calls


# zeros:n ranks its items in descending index order under each policy, and
# distinct:n, whose every pair is forced, in ascending
RUN_SIGNS = {"zeros": -1, "distinct": 1}


@pytest.mark.parametrize("algorithm", ["q-select", "q-sort"])
@pytest.mark.parametrize("generator", RUN_SIGNS)
@pytest.mark.parametrize("policy", ["smaller-wins", "larger-wins", "lower-index-wins"])
@pytest.mark.parametrize("n", [1, 2, 3, 50])
@pytest.mark.parametrize("lo,hi", [(0, 45), (13, 50)])
def test_run_blocks_equal_trials_run_alone(algorithm, generator, policy, n, lo, hi,
                                           lane_calls, run_calls, monkeypatch):
    monkeypatch.setattr(harness, "_SEED_CHUNK", 7)
    cfg = TrialConfig(algorithm=algorithm, instance=f"{generator}:{n}",
                      adversary=policy, t=0.0, trials=50, seed=9, stream=2)
    inst, outputs, queries, errors = _trials_alone(cfg, lo, hi)
    results = []
    run_algorithm = harness.run_algorithm

    def spy(*args):
        results.append(run_algorithm(*args))
        return results[-1]

    monkeypatch.setattr(harness, "run_algorithm", spy)
    data = harness._trial_block(cfg, lo, hi)
    assert lane_calls == [(lo, hi)]
    # every block of 7 lanes (the last one shorter) ran as a run
    sign = RUN_SIGNS[generator] if n > 1 else 1
    blocks = [min(7, hi - k) for k in range(lo, hi, 7)]
    assert run_calls == [(algorithm, count, sign) for count in blocks]
    out = "orders" if algorithm == "q-sort" else "winners"
    assert np.concatenate([getattr(r, out) for r in results]).tolist() == outputs
    assert data.queries.tolist() == queries
    assert data.errors.tolist() == errors
    assert data.violations == 0 and data.n == n


@pytest.mark.parametrize("algorithm", ["q-select", "q-sort"])
@pytest.mark.parametrize("kind", ["smaller-wins", "distinct"])
def test_items_out_of_run_order_carry_items(algorithm, kind, run_calls):
    """On the same kept graph, reversed items are a run of the other sign,
    and permuted items fall back to the item path: both give every lane what
    the trial gives alone on those items."""
    instance, adversary = KEPT[kind]
    root = RngSeed(9, 2)
    inst, _ = build_instance(instance, root.generator(0, 0))
    adv = harness.adversary_from_spec(parse_adversary(adversary), inst,
                                      root.generator(0, 1))
    run = quick_sort if algorithm == "q-sort" else quick_select
    ours = {"smaller-wins": -1, "distinct": 1}[kind]
    permuted = np.random.default_rng(3).permutation(inst.n)
    for items, calls in ((np.arange(inst.n)[::-1], [(algorithm, 20, -ours)]),
                         (permuted, [])):
        run_calls.clear()
        result = run(LaneBlock(adv, inst.n, root.pcg64_lanes(0, 20, 2)), items)
        assert run_calls == calls
        for t in range(20):
            session = ComparatorSession(inst, adv, record=False)
            alone = run(session, items, root.generator(t, 2))
            if algorithm == "q-sort":
                assert result.orders[t].tolist() == list(alone.order)
            else:
                assert result.winners[t] == alone.winner
            assert result.lane_queries[t] == alone.queries


def test_select_runs_hold_no_items(run_calls, monkeypatch):
    """A q-select run takes ``_SEED_CHUNK`` lanes whatever n is; a q-sort run
    holds segment sizes, so the item cap still bounds its lanes."""
    monkeypatch.setattr(harness, "_LANE_ITEMS", 100)    # 2 lanes of 50 items
    for algorithm in ("q-select", "q-sort"):
        cfg = TrialConfig(algorithm=algorithm, instance="zeros:50",
                          adversary="smaller-wins", trials=6, seed=1)
        harness.run_trials(cfg)
    assert run_calls == [("q-select", 6, -1)] + [("q-sort", 2, -1)] * 3


# (spec, items) of every generator at n <= 12
SPECS = st.one_of(
    st.tuples(st.sampled_from(["zeros", "distinct", "uniform01", "zeroone"]),
              st.integers(1, 12)).map(lambda g: (f"{g[0]}:{g[1]}", g[1])),
    st.tuples(st.sampled_from(["lemma1", "lemma2"]),
              st.sampled_from([3, 5, 7, 9, 11])).map(lambda g: (f"{g[0]}:{g[1]}", g[1])),
    st.sampled_from([(f"komodhard:{n}", n) for n in (5, 8, 11)] +
                    [(f"seqhard:{r},{s}", r ** s)
                     for r, s in ((2, 1), (2, 2), (2, 3), (3, 2), (12, 1))]))


def _edges(n: int, seed: int) -> dict:
    """An explicit edge list of ``n`` items, each pair's winner one coin."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    coins = np.random.default_rng(seed).integers(0, 2, len(pairs)).tolist()
    return {"kind": "explicit",
            "edges": [[i, j, j if c else i] for (i, j), c in zip(pairs, coins)]}


def _adversaries(n: int):
    """Every shorthand, a seeded ``random``, the memoized pivot-killer, and an
    explicit edge list on ``n`` items."""
    return st.one_of(
        st.sampled_from(sorted(SHORTHAND)),
        st.builds(lambda s: {"kind": "nonadaptive", "policy": "random", "seed": s},
                  st.integers(0, 2 ** 32)),
        st.just({"kind": "construction", "name": "pivot-killer",
                 "params": {"memoized": True}}),
        st.integers(0, 2 ** 32).map(lambda seed: _edges(n, seed)))


def _block_outcome(cfg, lo, hi):
    """What ``_trial_block`` gives, or the ValueError it raises."""
    try:
        data = harness._trial_block(cfg, lo, hi)
    except ValueError as exc:
        return ("raises", str(exc))
    return (data.errors.tolist(), data.queries.tolist(), data.violations,
            data.round_sizes, data.n)


@settings(max_examples=200, deadline=None)
@given(algorithm=st.sampled_from(harness.ALGORITHM_IDS), spec=SPECS,
       t=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]),
       epsilon=st.sampled_from([0.1, 0.5, 0.9]), trials=st.integers(1, 40),
       chunk=st.integers(1, 9), items=st.integers(1, 40),
       words=st.integers(1, 16), data=st.data())
def test_trial_blocks_equal_trials_run_alone(algorithm, spec, t, epsilon, trials,
                                             chunk, items, words, data):
    """Over drawn configs, a block gives what it gives with no lanes, and
    what it gives with nothing kept, every trial building its own instance
    and adversary: the lane rule changes no answer, whichever form it picks."""
    instance, n = spec
    adversary = data.draw(_adversaries(n), label="adversary")
    lo = data.draw(st.integers(0, trials - 1), label="lo")
    cfg = TrialConfig(algorithm=algorithm, instance=instance, adversary=adversary,
                      t=t, epsilon=epsilon, trials=trials, seed=9, stream=2)
    with mock.patch.object(harness, "_SEED_CHUNK", chunk), \
            mock.patch.object(harness, "_LANE_ITEMS", items), \
            mock.patch.object(core, "_FILL_WORDS", words):
        _check_block(cfg, lo, trials)


def _check_block(cfg, lo, hi):
    """A block gives the same as with no lanes and as with nothing kept."""
    found = _block_outcome(cfg, lo, hi)
    with mock.patch.object(harness, "LANE_ALGORITHMS", ()):
        assert _block_outcome(cfg, lo, hi) == found
    with mock.patch.object(harness._TrialStreams, "drew", lambda self: True):
        assert _block_outcome(cfg, lo, hi) == found


@pytest.mark.parametrize("algorithm", harness.LANE_ALGORITHMS)
@pytest.mark.parametrize("instance", ["zeros:9", "distinct:9", "seqhard:3,2"])
def test_rebuilt_instances_with_no_lane_form_run_alone(algorithm, instance):
    """Rebuilt for every trial, an instance whose generator has no lane form
    runs one session per trial, under a policy too: the rule asks for a lane
    form, not for a policy by name."""
    cfg = TrialConfig(algorithm=algorithm, instance=instance,
                      adversary="larger-wins", trials=10, seed=9)
    with mock.patch.object(harness, "_SEED_CHUNK", 4):
        _check_block(cfg, 3, 10)
