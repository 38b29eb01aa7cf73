"""Maximum-selection algorithms over index arrays. Each one talks to the
world only through a session's batches (``pivot_round``, ``duel``,
``round_robin``; ``query`` for sequential selection), so it runs unchanged
against non-adaptive graphs, adaptive strategies, or the Scheffe comparator.

Randomness comes from an explicit ``numpy.random.Generator``; the draw
sequence is part of each algorithm's contract.

Quick-select, sequential selection and the complete tournament run over
lanes: a session is a block of one lane, and a ``LaneBlock`` runs many trials
in lockstep against one graph, each lane drawing what its trial's own
generator would, so one implementation serves both (``sorting.quick_sort``
runs over lanes the same way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .core import InvalidQueryError, PCG64Lanes

__all__ = [
    "SelectionResult",
    "LaneResult",
    "LaneBlock",
    "run_sign",
    "KoModParams",
    "CombParams",
    "complete_tournament",
    "sequential_select",
    "knockout_round",
    "modified_knockout",
    "quickselect_round",
    "quick_select",
    "combined_select",
]


@dataclass(frozen=True)
class SelectionResult:
    winner: int
    queries: int
    rounds: int
    sizes: tuple[int, ...] = ()     # comb: field size per round, then the final


@dataclass(frozen=True)
class KoModParams:
    """Knock-out schedule: pool size n1 = ceil((1/eps) ln(1/eps) log2 n),
    floored at 2."""

    epsilon: float
    n1: int

    @classmethod
    def compute(cls, epsilon: float, n: int) -> "KoModParams":
        if not (0 < epsilon < 1):
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        raw = (1.0 / epsilon) * math.log(1.0 / epsilon) * math.log2(max(n, 2))
        if not math.isfinite(raw):
            raise ValueError(f"epsilon {epsilon} is too small: the pool size overflows")
        return cls(epsilon=epsilon, n1=max(2, math.ceil(raw)))


@dataclass(frozen=True)
class CombParams:
    """Repetition counts of the knock-out / quick-select combination for one
    epsilon; the other constants are the algorithm's own."""

    epsilon: float
    beta1: ClassVar[float] = 9.0
    beta2: ClassVar[float] = 25.0
    shrink_threshold: ClassVar[float] = 2.0 / 3.0
    win_fraction: ClassVar[float] = 3.0 / 4.0

    def __post_init__(self):
        if not (0 < self.epsilon < 1) or math.isinf(1.0 / self.epsilon):
            raise ValueError(f"epsilon must be in (0, 1) with a finite 1/epsilon, "
                             f"got {self.epsilon}")

    def qs_reps(self) -> int:
        return max(1, math.floor(self.beta1 * math.log2(1.0 / self.epsilon)))

    def ko_reps(self, round_index: int) -> int:
        raw = self.beta2 * (4.0 / 3.0) ** round_index * math.log2(1.0 / self.epsilon)
        return max(1, math.floor(raw))


def _resolve(session, items) -> np.ndarray:
    """The items as an int64 array of distinct indices into the session."""
    if items is None:
        return np.arange(session.n_items, dtype=np.int64)
    items = np.asarray(items)
    if not items.size:
        raise ValueError("need at least one item")
    # bools, floats, strings and Python ints past 64 bits are not indices
    if items.ndim != 1 or items.dtype.kind not in "iu":
        raise InvalidQueryError("items must be a flat sequence of integer indices")
    if items.min() < 0 or items.max() >= session.n_items:
        raise InvalidQueryError(f"items out of range for n={session.n_items}")
    values, counts = np.unique(items, return_counts=True)
    if counts.max() > 1:
        raise InvalidQueryError(f"item {values[counts.argmax()]} is repeated")
    return items.astype(np.int64, copy=False)


def _rng(rng) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


def complete_tournament(session, items=None, rng=None):
    """Round-robin: query every pair once, return an item with the most wins
    (ties broken uniformly). The output value is always within 2 of the
    maximum, against any adversary.

    ``session`` may be a ``LaneBlock``: the result is then a ``LaneResult``."""
    x = _resolve(session, items)
    return _run_lanes(session, rng, lambda block: _round_robin_lanes(block, x))


def sequential_select(session, items=None, rng=None):
    """Visit the items in uniformly random order, always keeping the winner
    of the last comparison. Exactly n-1 queries.

    ``session`` may be a ``LaneBlock``: the result is then a ``LaneResult``."""
    x = _resolve(session, items)
    return _run_lanes(session, rng, lambda block: _sequential_lanes(block, x))


def _matching(session, items: np.ndarray, rng, keyed: bool = False) -> np.ndarray:
    """Pair ``items`` by one random perfect matching and duel each pair: each
    pair's winner, in pair order, then the bye of an odd count. The pairs
    are a shuffled copy of ``items`` read two by two: the draws, and the
    order, of ``items[rng.permutation(len(items))]``. ``keyed``: the items
    are the keys of ``session.order_key()``, and the pairs duel on them."""
    drawn = items.copy()
    rng.shuffle(drawn)
    half = len(drawn) // 2
    a, b = drawn[0:2 * half:2], drawn[1:2 * half:2]
    won = session.keyed_duel(a, b) if keyed else np.where(session.duel(a, b), a, b)
    return np.concatenate([won, drawn[2 * half:]])


def knockout_round(session, items, rng) -> list[int]:
    """Pair the items of one random perfect matching and keep the winners;
    an odd leftover gets a bye. floor(m/2) queries, ceil(m/2) survivors."""
    return _matching(session, _resolve(session, items), rng).tolist()


def modified_knockout(session, epsilon: float, items=None,
                      rng=None) -> SelectionResult:
    """Knock-out rounds with a saved pool: before each round, copy n1 random
    items into the pool, then halve the field; finish with a round-robin over
    the survivors plus the pool (deduplicated, field first)."""
    items = _resolve(session, items)
    rng = _rng(rng)
    params = KoModParams.compute(epsilon, len(items))
    start = session.queries
    x = items
    saved = []
    while len(x) > params.n1:
        picked = rng.choice(len(x), size=params.n1, replace=False)
        saved.append(x[picked])
        x = _matching(session, x, rng)
    if saved:
        # the survivors, then each pool item they lack, at its first place
        field = np.concatenate([x, *saved])
        _, first = np.unique(field, return_index=True)
        x = field[np.sort(first)]
    winners, _ = _round_robin_lanes(_SessionLane(session, rng), x)
    return SelectionResult(int(winners[0]), session.queries - start,
                           rounds=len(saved) + 1)


class LaneBlock:
    """Trials run in lockstep as the lanes of one block, against one graph:
    lane k is one trial, drawing from lane k of ``rng`` exactly what its own
    ``Generator`` would, and its item i is the graph's item
    ``k * stride + i``. The stride is 0 for a graph the trials share: one
    valid for the one instance every trial shares, or lemma1's graph, the
    same for every draw of the values each lane draws. It is n for a policy
    on the trials' own instances stacked lane after lane. The harness stacks
    only values in [0, 1] at delta 1 under a policy that is an order, so its
    stacked blocks carry keys; one without keys serves as their reference.
    Pass it to ``quick_select``, ``quick_sort``, ``sequential_select`` (seq)
    or ``complete_tournament`` (compl) in place of a session; ``queries``
    counts each lane's queries.

    A graph that is an order (``order_key``) answers as one: the lanes then
    carry each graph item's key in place of the item, and a query is one
    comparison of keys. The keys rank ``beats``; a block takes them only
    from a kept graph, whose pivot rounds are its ``beats``. A round-robin
    asks the graph's ``wins_within``, keys or not.

    With stride 0, keys that run monotone over the starting items
    (``run_sign``) make every lane's segment one run of them: the items a
    pivot beats, or that beat it, are the run on one side of it. q-select
    and q-sort then carry each lane's run sizes, not its items, so a round
    costs O(1) per lane; every other block carries items."""

    def __init__(self, graph, n_items: int, rng: PCG64Lanes, stride: int = 0):
        self.graph, self.n_items, self.rng = graph, n_items, rng
        self.stride = stride
        self.queries = np.zeros(len(rng), dtype=np.int64)
        self.key = graph.order_key()
        if self.key is not None:
            self._item_of = np.empty_like(self.key)
            self._item_of[self.key] = np.arange(len(self.key))

    def __len__(self) -> int:
        return len(self.queries)

    def _offsets(self) -> np.ndarray:
        """Each lane's first graph item, for a nonzero stride."""
        return np.arange(0, len(self) * self.stride, self.stride)

    def _keyed(self, flat: np.ndarray) -> np.ndarray:
        """Graph items as the lanes carry them."""
        return flat if self.key is None else self.key[flat]

    def lane_items(self, items: np.ndarray) -> np.ndarray:
        """Every lane's ``items`` as the lanes carry them, lane after lane."""
        if not self.stride:
            return np.tile(self._keyed(items), len(self))
        flat = np.tile(items, len(self)) + np.repeat(self._offsets(), len(items))
        return self._keyed(flat)

    def trial_items(self, flat: np.ndarray) -> np.ndarray:
        """What the lanes carry as the items of their lanes' trials."""
        if self.key is not None:
            flat = self._item_of[flat]
        return flat % self.stride if self.stride else flat

    def draw(self, lanes, sizes, starts):
        """Where each lane's pivot is in the flat items."""
        return starts + self.rng.integers(lanes, sizes)

    def pivot_round(self, lanes, pivots, items, sizes):
        self.queries[lanes] += sizes - 1
        pivots = np.repeat(pivots, sizes)
        if self.key is not None:
            return items > pivots
        return self.graph.beats(items, pivots)

    def visit(self, items: np.ndarray) -> np.ndarray:
        """Each lane's ``items`` as the lanes carry them, in the order of one
        ``permutation`` draw of the lane: one row per lane."""
        rows = items[self.rng.permutation(len(items))]
        if self.stride:
            rows += self._offsets()[:, None]
        return self._keyed(rows)

    def challenge(self, items: np.ndarray, champions: np.ndarray) -> np.ndarray:
        """One query per lane, its item against its champion: the winners."""
        self.queries += 1
        if self.key is not None:
            return np.maximum(items, champions)
        return np.where(self.graph.beats(items, champions), items, champions)

    def round_robin(self, items: np.ndarray) -> np.ndarray:
        """Every pair of ``items`` asked once on each lane: each lane's wins,
        one row per lane, counted once for a graph the lanes share."""
        m = len(items)
        self.queries += m * (m - 1) // 2
        if not self.stride:
            return np.broadcast_to(self.graph.wins_within(items), (len(self), m))
        return np.stack([self.graph.wins_within(items + k) for k in self._offsets()])


class _SessionLane:
    """A session as a block of one lane, drawing from its own generator."""

    __slots__ = ("session", "rng")
    key, stride = None, 0   # it carries items, never a run

    def __init__(self, session, rng):
        self.session, self.rng = session, rng

    def __len__(self) -> int:
        return 1

    def lane_items(self, items: np.ndarray) -> np.ndarray:
        return items

    def trial_items(self, flat: np.ndarray) -> np.ndarray:
        return flat

    def draw(self, lanes, sizes, starts):
        return self.rng.integers(sizes[0])     # the one lane starts at 0

    def pivot_round(self, lanes, pivot, items, sizes):
        return self.session.pivot_round(int(pivot), items)

    def visit(self, items: np.ndarray) -> np.ndarray:
        return items[self.rng.permutation(len(items))][None]

    def challenge(self, item: np.ndarray, champion: np.ndarray) -> np.ndarray:
        return np.array([self.session.query(item.item(), champion.item())])

    def round_robin(self, items: np.ndarray) -> np.ndarray:
        return self.session.round_robin(items)[None]


_ONE_LANE = np.zeros(1, dtype=np.int64)   # lane ids, and the start, of a block of one
_NO_LANES = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class LaneResult:
    """A selector run on a block: each lane's winner and queries, and
    ``queries``, the block's total."""

    winners: np.ndarray
    queries: int
    lane_queries: np.ndarray


def _quickselect_round(block, lanes, items, sizes):
    """One quick-select round on each of the ``lanes`` of a block, whose
    items are ``items`` cut into runs of ``sizes`` (each at least 2): draw a
    pivot per lane and ask it against every other item of its lane in one
    batch. A lane keeps the items that beat its pivot, or only the pivot when
    none did, and is finished once it is down to one item. The live lanes'
    items, sizes and ids, then the finished lanes' ids and winners."""
    one = len(sizes) == 1   # a block of one needs no per-lane sums
    starts = _ONE_LANE if one else sizes.cumsum() - sizes
    at = block.draw(lanes, sizes, starts)
    beat = block.pivot_round(lanes, items[at], items, sizes)
    if one:
        fewest = np.count_nonzero(beat)
        kept = np.array([fewest])
    else:
        kept = np.add.reduceat(beat, starts, dtype=np.int64)
        fewest = kept.min()
    if fewest > 1:
        return items[beat], kept, lanes, _NO_LANES, _NO_LANES
    beat[at] = kept == 0    # keep a lone pivot: it never beats itself
    kept = np.maximum(kept, 1)
    items = items[beat]
    done = kept == 1
    if done.all():          # one item left in each lane: its winner
        return _NO_LANES, _NO_LANES, _NO_LANES, lanes, items
    live = ~done
    return (items[np.repeat(live, kept)], kept[live], lanes[live], lanes[done],
            items[kept.cumsum()[done] - 1])


def run_sign(key: Optional[np.ndarray], items: np.ndarray, stride: int = 0) -> int:
    """Whether lanes that all start from ``items`` hold one run of an order:
    +1 when ``key`` ascends over ``items`` in their given order, so each
    item beats every item before it; -1 when it descends, so each item
    beats every item after it; 0 when there is no key, the lanes stack their
    own instances (a nonzero ``stride``), or the keys are out of order."""
    if key is None or stride:
        return 0
    steps = np.diff(key[items])
    if (steps > 0).all():
        return 1
    return -1 if (steps < 0).all() else 0


def _select_run(block, items: np.ndarray, sign: int):
    """``_select_lanes`` on a block whose lanes hold one run (``run_sign``),
    carrying each lane's run size alone: a round draws its pivot at place p
    of a run of s items, as the item path draws it, and keeps the s - 1 - p
    items after it (ascending) or the p before it (descending), or the pivot
    alone when that side is empty. The winner is the run's top item."""
    count = len(block)
    rounds = np.zeros(count, dtype=np.int64)
    lanes = np.arange(count) if len(items) > 1 else _NO_LANES
    sizes = np.full(len(lanes), len(items))
    r = 0
    while len(lanes):
        r += 1
        at = block.rng.integers(lanes, sizes)
        block.queries[lanes] += sizes - 1
        sizes = sizes - 1 - at if sign > 0 else at
        live = sizes > 1
        rounds[lanes[~live]] = r
        lanes, sizes = lanes[live], sizes[live]
    return np.repeat(items[-1 if sign > 0 else 0], count), rounds


def _select_lanes(block, items: np.ndarray):
    """Quick-select rounds on each lane of a block, every lane starting from
    ``items``, until each lane is down to one item: per lane, the winner and
    the rounds."""
    sign = run_sign(block.key, items, block.stride)
    if sign:
        return _select_run(block, items, sign)
    count, m = len(block), len(items)
    rounds = np.zeros(count, dtype=np.int64)
    if m == 1:
        return np.repeat(items, count), rounds
    winners = np.empty(count, dtype=np.int64)
    items = block.lane_items(items)
    lanes, sizes = np.arange(count), np.full(count, m)
    r = 0
    while len(lanes):
        r += 1
        items, sizes, lanes, done, won = _quickselect_round(block, lanes, items,
                                                            sizes)
        if len(done):
            winners[done] = won
            rounds[done] = r
    return block.trial_items(winners), rounds


def _session_round(lane: _SessionLane, items: np.ndarray) -> np.ndarray:
    """One round on a session's ``items``: the items it keeps."""
    if len(items) == 1:
        return items
    items, _, _, _, won = _quickselect_round(lane, _ONE_LANE, items,
                                             np.array([len(items)]))
    return items if len(items) else won


def quickselect_round(session, items, rng) -> list[int]:
    """Pick a random pivot and compare it to everything else; keep whatever
    beat the pivot, or the pivot itself if nothing did."""
    return _session_round(_SessionLane(session, rng),
                          _resolve(session, items)).tolist()


def quick_select(session, items=None, rng=None):
    """Iterate quickselect rounds down to a single survivor. Zero-error
    2-approximation against any adversary; expected queries below 2n against
    non-adaptive ones.

    ``session`` may be a ``LaneBlock``, whose lanes all start from ``items``
    and run in lockstep: the result is then a ``LaneResult``."""
    x = _resolve(session, items)
    return _run_lanes(session, rng, lambda block: _select_lanes(block, x))


def _run_lanes(session, rng, run):
    """``run(block)`` on a ``LaneBlock`` (a ``LaneResult``), or on a session
    as a block of one lane drawing from ``rng`` (a ``SelectionResult``).
    ``run`` gives each lane's winner, as an item of its trial, and its
    rounds."""
    if isinstance(session, LaneBlock):
        winners, _ = run(session)
        return LaneResult(winners, int(session.queries.sum()), session.queries)
    start = session.queries
    winners, rounds = run(_SessionLane(session, _rng(rng)))
    return SelectionResult(int(winners[0]), session.queries - start,
                           rounds=int(rounds[0]))


_ONE_ROUND = (1,)   # the rounds of a selector of one round, read for a session


def _sequential_lanes(block, items: np.ndarray):
    """Sequential selection on each lane of a block: the lane visits
    ``items`` in the order of one ``permutation`` draw, asking each item in
    turn against the winner of the last query. Per lane, that winner."""
    visit = block.visit(items)
    champions = visit[:, 0]
    for column in visit.T[1:]:
        champions = block.challenge(column, champions)
    return block.trial_items(champions), _ONE_ROUND


def _most_wins(block, items: np.ndarray, wins: np.ndarray) -> np.ndarray:
    """Per lane, an item of ``items`` with the most wins in the lane's row of
    ``wins``: the leader, or one of the tied leaders by one draw of the lane
    (a lane with one leader draws nothing)."""
    top = wins == wins.max(axis=1, keepdims=True)
    tied = np.count_nonzero(top, axis=1)
    pick = np.reshape(block.draw(np.arange(len(wins)), tied, 0), (-1, 1))
    return items[(top.cumsum(axis=1) > pick).argmax(axis=1)]


def _round_robin_lanes(block, items: np.ndarray):
    """The round-robin on each lane of a block: per lane, an item with the
    most wins among ``items``."""
    return _most_wins(block, items, block.round_robin(items)), _ONE_ROUND


def combined_select(session, epsilon: float, items=None,
                    rng=None) -> SelectionResult:
    """Knock-out / quick-select combination: each round runs a fixed budget of
    quickselect rounds, and if the field has not shrunk to 2/3 of its starting
    size, repeatedly re-pairs the *fixed* field and keeps the items that won
    more than 3/4 of the repetitions (byes count as wins), falling back to a
    single top-winner.

    The result's ``sizes`` holds the field size at the start of every round
    plus the final size.
    """
    x = _resolve(session, items)
    rng = _rng(rng)
    params = CombParams(epsilon=epsilon)
    qs_reps = params.qs_reps()
    start = session.queries
    lane = _SessionLane(session, rng)
    sizes = []
    while len(x) > 1:
        sizes.append(len(x))
        for _ in range(qs_reps):
            x = _session_round(lane, x)
        if len(x) > params.shrink_threshold * sizes[-1]:
            reps = params.ko_reps(len(sizes))  # round index, from 1
            # the pairs duel on keys where the session has them: sought only
            # here, as most runs never re-pair
            key = session.order_key()
            field = x if key is None else key[x]
            tally = np.zeros(session.n_items, dtype=np.int64)
            for _ in range(reps):
                # a bye counts as a win
                tally[_matching(session, field, rng, key is not None)] += 1
            wins = tally[field]
            keep = wins > params.win_fraction * reps
            if keep.any():
                x = x[keep]
            else:
                x = _most_wins(lane, x, wins[None])
    sizes.append(len(x))
    return SelectionResult(int(x[0]), session.queries - start,
                           rounds=len(sizes) - 1, sizes=tuple(sizes))
