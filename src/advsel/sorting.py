"""Sorting under adversarial comparators: win-count sort and quick-sort, plus
the exact noiseless quick-sort cost used as the query-count oracle.

Quick-sort runs over lanes as quick-select does: a session is a block of one
lane, and an ``algorithms.LaneBlock`` sorts many trials in lockstep."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import (_NO_LANES, LaneBlock, _SessionLane, _resolve, _rng,
                         run_sign)

__all__ = ["SortResult", "LaneSortResult", "complete_sort", "quick_sort",
           "exact_expected_queries"]


@dataclass(frozen=True)
class SortResult:
    order: tuple[int, ...]  # item indices, intended decreasing
    queries: int


def complete_sort(session, items=None, rng=None) -> SortResult:
    """Query every pair once and output the items by descending win count,
    breaking ties uniformly at random."""
    items = _resolve(session, items)
    rng = _rng(rng)
    m = len(items)
    if m == 1:
        return SortResult((int(items[0]),), 0)
    start = session.queries
    wins = session.round_robin(items)
    tie_rank = np.empty(m, dtype=np.int64)
    tie_rank[rng.permutation(m)] = np.arange(m)
    order = np.lexsort((tie_rank, -wins))
    return SortResult(tuple(items[order].tolist()), session.queries - start)


@dataclass(frozen=True)
class LaneSortResult:
    """``quick_sort`` on a block: each lane's order, one row per lane, and
    ``queries``, the block's total."""

    orders: np.ndarray
    queries: int
    lane_queries: np.ndarray


def quick_sort(session, items=None, rng=None):
    """Classic randomized quick-sort: partition on a uniform pivot into the
    items that beat it and the items it beat (stable encounter order), recurse
    winners-side first.

    ``session`` may be a ``LaneBlock``, whose lanes all start from ``items``
    and run in lockstep: the result is then a ``LaneSortResult``."""
    x = _resolve(session, items)
    if isinstance(session, LaneBlock):
        lanes = len(session.queries)
        sign = run_sign(session.key, x, session.stride)
        if sign:
            out = _sort_run(session, x, sign)
        else:
            out = session.trial_items(_sort_lanes(session, session.lane_items(x),
                                                  lanes)).reshape(lanes, len(x))
        return LaneSortResult(out, int(session.queries.sum()), session.queries)
    start = session.queries
    out = _sort_lanes(_SessionLane(session, _rng(rng)), x, 1)
    return SortResult(tuple(out.tolist()), session.queries - start)


def _sort_lanes(block, items: np.ndarray, count: int) -> np.ndarray:
    """Quick-sort on the ``count`` lanes of a block, whose items are ``items``
    cut into equal runs: a copy of ``items`` with each run in its lane's order.

    Each lane keeps a stack of its segments of two or more items still to
    partition, as (begin, length) in the flat order, so deep partitions cannot
    hit the recursion limit. A step pops one segment per lane, partitions it,
    and pushes the losers' side, then the winners': the winners' side is
    partitioned first, and every lane draws in depth-first order. A pivot or
    a single item is in place once written."""
    out = items.copy()
    m = len(items) // count
    if m < 2:
        return out
    lanes = np.arange(count)
    if isinstance(block, _SessionLane):
        # one lane: a list of (begin, length) costs less per step than arrays
        step, stack, depth = _partition_one, [(0, m)], None
    else:
        # a lane's stack: disjoint segments, each of two or more of its m items
        step = _partition_lanes
        stack = np.empty((2, count, m // 2), dtype=np.int64)
        stack[0, :, 0] = np.arange(0, len(items), m)
        stack[1, :, 0] = m
        depth = np.ones(count, dtype=np.int64)
    while len(lanes):
        lanes = step(block, lanes, out, stack, depth)
    return out


def _sort_run(block, items: np.ndarray, sign: int) -> np.ndarray:
    """``_sort_lanes`` on a block whose lanes hold one run (``run_sign``),
    each lane's stack holding segment sizes alone: every segment stays a run
    in the key order of ``items``, so a pivot at place p of s items has the
    s - 1 - p items after it as winners (ascending) or the p before it
    (descending). A step pops one size per lane, draws once, and pushes the
    losers' size, then the winners', in ``_partition_lanes``'s order. Each
    lane's order is ``items`` in descending key order, one row per lane."""
    count, m = len(block), len(items)
    order = np.tile(items[::-1] if sign > 0 else items, (count, 1))
    if m < 2:
        return order
    # disjoint segments of two or more items each
    stack = np.empty((count, m // 2), dtype=np.int64)
    stack[:, 0] = m
    depth = np.ones(count, dtype=np.int64)
    lanes = np.arange(count)
    while len(lanes):
        depth[lanes] -= 1
        size = stack[lanes, depth[lanes]]
        at = block.rng.integers(lanes, size)
        block.queries[lanes] += size - 1
        won = size - 1 - at if sign > 0 else at
        for s in (size - 1 - won, won):
            push = s > 1
            into = lanes[push]
            stack[into, depth[into]] = s[push]
            depth[into] += 1
        lanes = lanes[depth[lanes] > 0]
    return order


def _partition_one(lane: _SessionLane, lanes, out, stack: list, depth):
    """``_partition_lanes`` on a session, a block of one lane that draws from
    its own generator: through Python ints, a list stack and slices of
    ``out``."""
    begin, size = stack.pop()
    end = begin + size
    items = out[begin:end]
    at = lane.rng.integers(size)
    pivot = items.item(at)
    beat = lane.session.pivot_round(pivot, items)
    lost = ~beat
    lost[at] = False
    winners, losers = items[beat], items[lost]
    mid = begin + len(winners)
    out[begin:mid] = winners
    out[mid] = pivot
    out[mid + 1:end] = losers
    if end - mid > 2:
        stack.append((mid + 1, end - mid - 1))
    if mid - begin > 1:
        stack.append((begin, mid - begin))
    return lanes if stack else _NO_LANES


def _partition_lanes(block, lanes, out, stack, depth):
    """Pop the top segment of each of the ``lanes`` of a block, draw its
    pivot and ask the pivot against the segment, all lanes in one batch, then
    write each segment back stably as winners, pivot, losers, and push the
    two sides that hold two or more items. The lanes with segments left."""
    depth[lanes] -= 1
    begin, size = stack[:, lanes, depth[lanes]]
    starts = size.cumsum() - size
    spots = np.arange(starts[-1] + size[-1]) + np.repeat(begin - starts, size)
    items = out[spots]
    at = block.draw(lanes, size, starts)
    beat = block.pivot_round(lanes, items[at], items, size)
    lost = ~beat
    lost[at] = False
    # an item's place in its segment's winners (losers): the winners (losers)
    # before it in the step, less those before its segment
    won_before = beat.cumsum() - beat
    lost_before = lost.cumsum() - lost
    won = np.add.reduceat(beat, starts, dtype=np.int64)
    mid = begin + won
    place = np.where(beat, won_before + np.repeat(begin - won_before[starts], size),
                     lost_before + np.repeat(mid + 1 - lost_before[starts], size))
    place[at] = mid
    out[place] = items
    for b, s in ((mid + 1, size - won - 1), (begin, won)):
        push = s > 1
        into = lanes[push]
        stack[:, into, depth[into]] = b[push], s[push]
        depth[into] += 1
    return lanes[depth[lanes] > 0]


def exact_expected_queries(n: int) -> float:
    """Expected comparison count of noiseless quick-sort on n distinct inputs,
    from the recursion q_0 = 0, q_n = n - 1 + (2/n) * sum(q_0 .. q_{n-1})."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n <= 1:
        return 0.0
    q = 0.0
    acc = 0.0  # q_0 + ... + q_{m-1}
    for m in range(1, n + 1):
        q = m - 1 + 2.0 * acc / m
        acc += q
    return q
