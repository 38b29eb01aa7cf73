"""The model's one rule, ``Instance.forces``, against every form of it that
answers or checks a pair: its one-pair form ``forced_winner``, which a
session asks for an adversary asked pair by pair and ``PivotKiller.decide``
asks; the free-edge policies' fused rule (``PolicyTournament.beats``) and
its dense copy; ``TournamentGraph.validate_for``; ``validate_log``; and the
pivot-killer's batch form. They agree on which pairs are forced and who
wins them, down to the last ulp of a value gap and past the float range."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from advsel.adversary import (NONADAPTIVE_POLICIES, ComparatorSession,
                              MemoizedStrategy, PivotKiller, TournamentGraph,
                              build_nonadaptive)
from advsel.core import Instance, RngSeed, forced_winner, validate_log

# pairs a subtraction rounds onto the wrong side of the gap > delta edge
ROUNDING_EDGES = [((1e16 + 2, 1e16), 1.0), ((1 + 2 ** -52, 1.0), 1.5e-16)]

PAIRS = (np.array([0, 1]), np.array([1, 0]))   # (0, 1) and (1, 0)
ITEMS = np.array([0, 1])

finite = st.floats(-1e308, 1e308)
deltas = st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1.5e-16,
                          1.0, 1e16, 1e300, 1e308]) | st.floats(5e-324, 1e308)


@st.composite
def edge_pairs(draw):
    """(x, y, delta): y anywhere, or a few ulps from x - delta, x or x + delta."""
    delta, x = draw(deltas), draw(finite)
    if draw(st.booleans()):
        y = draw(finite)
    else:
        y = x + draw(st.sampled_from([-delta, 0.0, delta]))
        steps = draw(st.integers(-4, 4))
        for _ in range(abs(steps)):
            y = math.nextafter(y, math.copysign(math.inf, steps))
    assume(math.isfinite(y))
    return x, y, delta


class Always:
    """A strategy answering one fixed index of every pair, right or wrong."""

    def __init__(self, index):
        self.index = index

    def decide(self, instance, i, j, log, pivot):
        return self.index


@settings(max_examples=300, deadline=None)
@given(edge_pairs())
@example((1e16 + 2, 1e16, 1.0))
@example((1 + 2 ** -52, 1.0, 1.5e-16))
@example((1e308, -1e308, 1.0))
@example((5e-324, 0.0, 5e-324))
def test_every_form_of_the_rule_agrees(pair):
    x, y, delta = pair
    inst = Instance([x, y], delta)
    assert not (inst.forces(0, 1) and inst.forces(1, 0))
    want = 0 if inst.forces(0, 1) else 1 if inst.forces(1, 0) else None
    wins = [want == 0, want == 1]   # whether a beats b over PAIRS
    assert np.array_equal(inst.forces(*PAIRS), wins)
    assert forced_winner(inst, 0, 1) == forced_winner(inst, 1, 0) == want

    # a session overrides a liar exactly on the forced pair it lies about
    for lie in (0, 1):
        session = ComparatorSession(inst, Always(lie))
        assert [session.query(0, 1), session.query(1, 0)] == [
            lie if want is None else want] * 2
        assert session.violations == (0 if want in (None, lie) else 2)
        validate_log(inst, session.log)

    for policy in NONADAPTIVE_POLICIES:
        graph = build_nonadaptive(inst, policy, RngSeed(0))
        if want is not None:
            assert np.array_equal(graph.beats(*PAIRS), wins)
            assert graph.winner(0, 1) == graph.winner(1, 0) == want
        graph.dense().validate_for(inst)

    for winner in (0, 1):
        graph = TournamentGraph.from_edges(2, [(0, 1, winner)])
        if want in (None, winner):
            graph.validate_for(inst)
        else:
            with pytest.raises(ValueError, match="^forced pair misoriented"):
                graph.validate_for(inst)

    killer = PivotKiller()
    rule = killer.bulk(inst)
    for pivot in (0, 1):
        other = 1 - pivot
        decided = killer.decide(inst, pivot, other, None, pivot)
        assert decided == (other if want is None else want)
        mask = rule.pivot_round_mask(ITEMS, pivot)
        assert not mask[pivot] and (other if mask[other] else pivot) == decided
    duels = rule.beats(*PAIRS)
    for (i, j), a_wins in zip(((0, 1), (1, 0)), duels):
        decided = killer.decide(inst, i, j, None, None)
        assert (i if a_wins else j) == decided == (0 if want is None else want)


@pytest.mark.parametrize("values, delta", ROUNDING_EDGES)
def test_pivot_killer_batches_obey_a_forced_pair_at_the_rounding_edge(values, delta):
    inst = Instance(values, delta)
    assert forced_winner(inst, 0, 1) == 0   # the gap, rounded, still exceeds delta
    memoized = MemoizedStrategy(PivotKiller())
    for strategy in (PivotKiller(), memoized):
        for pivot in (0, 1):
            session = ComparatorSession(inst, strategy)
            mask = session.pivot_round(pivot, ITEMS)
            other = 1 - pivot
            batch = other if mask[other] else pivot
            assert batch == PivotKiller().decide(inst, pivot, other, None, pivot) == 0
            validate_log(inst, session.log)
            assert session.violations == 0
    # the memo replays the batch's answer
    assert memoized.decide(inst, 1, 0, None, None) == 0
