"""Sorting under adversarial comparators: win-count sort and quick-sort, plus
the exact noiseless quick-sort cost used as the query-count oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import _resolve, _rng

__all__ = ["SortResult", "complete_sort", "quick_sort", "exact_expected_queries"]


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


def quick_sort(session, items=None, rng=None) -> SortResult:
    """Classic randomized quick-sort: partition on a uniform pivot into the
    items that beat it and the items it beat (stable encounter order), recurse
    winners-side first."""
    items = _resolve(session, items)
    rng = _rng(rng)
    start = session.queries
    out = items.copy()  # a single item is already in place
    # segments of two or more items wait with their offset in `out` on an
    # explicit stack, so deep partitions cannot hit the recursion limit;
    # pivots and single items are written straight to theirs. The winners'
    # side is popped first, so the draws come in depth-first order.
    stack = [(items, 0)] if len(items) > 1 else []
    while stack:
        arr, begin = stack.pop()
        p = int(rng.integers(len(arr)))
        beat = session.pivot_round(int(arr[p]), arr)
        winners = arr[beat]
        lost = ~beat
        lost[p] = False
        losers = arr[lost]
        mid = begin + len(winners)
        out[mid] = arr[p]
        for seg, offset in ((losers, mid + 1), (winners, begin)):
            if len(seg) > 1:
                stack.append((seg, offset))
            elif len(seg):
                out[offset] = seg[0]
    return SortResult(tuple(out.tolist()), session.queries - start)


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
