"""Vectorized trial engine for bulk Monte-Carlo runs.

Each function here replays the *same* generator draws as its session-based
counterpart in ``algorithms``/``sorting`` and therefore produces an identical
winner and query count for the same (instance, adversary, seed); the parity
tests pin this down. Three adversary families are supported: frozen
tournament matrices, tournaments given by a rule on the instance (answered on
demand, with no n x n matrix), and the pivot-killer strategy (whose answers
are a deterministic function of values, indices, and the announced pivot).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .adversary import PivotKiller, PolicyTournament, RuleTournament, TournamentGraph
from .algorithms import CombParams, KoModParams
from .core import Instance

__all__ = [
    "MatrixComparator",
    "RuleComparator",
    "PivotKillerComparator",
    "comparator_for",
    "complete_tournament_fast",
    "modified_knockout_fast",
    "quick_select_fast",
    "combined_select_fast",
    "quick_sort_fast",
    "complete_sort_fast",
]


class MatrixComparator:
    """Engine view of a non-adaptive adversary: values plus a beat matrix."""

    def __init__(self, values: np.ndarray, delta: float, matrix: np.ndarray):
        self.values = np.asarray(values, dtype=np.float64)
        self.delta = float(delta)
        self.matrix = matrix
        self.n = len(self.values)

    def beats(self, a, b):
        return self.matrix[a, b]

    def pivot_round_mask(self, items, pivot):
        # which of `items` beat the announced pivot (a fresh array)
        return self.matrix[items, pivot]

    def wins_within(self, items):
        return self.matrix[np.ix_(items, items)].sum(axis=1)


class RuleComparator:
    """Engine view of a rule-defined tournament: every answer is computed
    from the rule when asked."""

    def __init__(self, rule: RuleTournament):
        self.rule = rule
        self.n = rule.n

    def beats(self, a, b):
        return self.rule.beats(a, b)

    def pivot_round_mask(self, items, pivot):
        return self.rule.beats(items, pivot)

    def wins_within(self, items):
        return self.rule.wins_within(items)


class PivotKillerComparator(RuleComparator):
    """Engine view of the pivot-killer strategy: the announced pivot loses
    every free query; free queries without a pivot go to the lower index."""

    def __init__(self, instance: Instance):
        super().__init__(PolicyTournament(instance, "lower-index-wins"))
        self.values = instance.values_array
        self.delta = instance.delta

    def pivot_round_mask(self, items, pivot):
        return self.values[items] >= self.values[pivot] - self.delta


def comparator_for(instance: Instance, adversary):
    """Engine comparator for (instance, adversary), or None if this adversary
    has no vectorized form."""
    if isinstance(adversary, RuleTournament):
        return RuleComparator(adversary)
    if isinstance(adversary, TournamentGraph):
        return MatrixComparator(instance.values_array, instance.delta, adversary.matrix)
    if isinstance(adversary, PivotKiller):
        return PivotKillerComparator(instance)
    return None


def _items_array(cmp, items) -> np.ndarray:
    if items is None:
        return np.arange(cmp.n, dtype=np.int64)
    return np.asarray(items, dtype=np.int64)


def _pick_max_wins_fast(items: np.ndarray, wins: np.ndarray, rng) -> int:
    maxers = items[wins == wins.max()]
    if len(maxers) == 1:
        return int(maxers[0])
    return int(maxers[int(rng.integers(len(maxers)))])


def complete_tournament_fast(cmp, items, rng) -> tuple[int, int]:
    items = _items_array(cmp, items)
    m = len(items)
    if m == 1:
        return int(items[0]), 0
    wins = cmp.wins_within(items)
    return _pick_max_wins_fast(items, wins, rng), m * (m - 1) // 2


def _knockout_round_fast(cmp, items: np.ndarray, rng) -> tuple[np.ndarray, int]:
    m = len(items)
    if m == 1:
        return items, 0
    perm = rng.permutation(m)
    half = m // 2
    a = items[perm[0:2 * half:2]]
    b = items[perm[1:2 * half:2]]
    survivors = np.where(cmp.beats(a, b), a, b)
    if m % 2:
        survivors = np.append(survivors, items[perm[m - 1]])
    return survivors, half


def modified_knockout_fast(cmp, epsilon: float, items, rng,
                           params: Optional[KoModParams] = None) -> tuple[int, int]:
    items = _items_array(cmp, items)
    if params is None:
        params = KoModParams.compute(epsilon, len(items))
    queries = 0
    x = items
    saved = []
    while len(x) > params.n1:
        picked = rng.choice(len(x), size=params.n1, replace=False)
        saved.append(x[picked])
        x, q = _knockout_round_fast(cmp, x, rng)
        queries += q
    if saved:
        pool = np.concatenate(saved)
        # first occurrence within the pool, in pool order
        _, first = np.unique(pool, return_index=True)
        pool = pool[np.sort(first)]
        in_x = np.zeros(cmp.n, dtype=bool)
        in_x[x] = True
        final = np.concatenate([x, pool[~in_x[pool]]])
    else:
        final = x
    winner, q = complete_tournament_fast(cmp, final, rng)
    return winner, queries + q


def _beats_pivot(cmp, items: np.ndarray, p: int) -> np.ndarray:
    """Mask of the items that beat the pivot items[p]; the pivot itself is
    never set, so the mask keeps the others in their order."""
    mask = cmp.pivot_round_mask(items, int(items[p]))
    mask[p] = False
    return mask


def _quickselect_round_fast(cmp, items: np.ndarray, rng) -> tuple[np.ndarray, int]:
    m = len(items)
    if m == 1:
        return items, 0
    p = int(rng.integers(m))
    survivors = items[_beats_pivot(cmp, items, p)]
    if len(survivors) == 0:
        survivors = items[p:p + 1]
    return survivors, m - 1


def quick_select_fast(cmp, items, rng) -> tuple[int, int]:
    x = _items_array(cmp, items)
    queries = 0
    while len(x) > 1:
        x, q = _quickselect_round_fast(cmp, x, rng)
        queries += q
    return int(x[0]), queries


def combined_select_fast(cmp, epsilon: float, items, rng,
                         params: Optional[CombParams] = None,
                         record_sizes: Optional[list] = None) -> tuple[int, int]:
    x = _items_array(cmp, items)
    if params is None:
        params = CombParams(epsilon=epsilon)
    qs_reps = params.qs_reps()
    queries = 0
    i = 0
    while len(x) > 1:
        i += 1
        n_i = len(x)
        if record_sizes is not None:
            record_sizes.append(n_i)
        for _ in range(qs_reps):
            x, q = _quickselect_round_fast(cmp, x, rng)
            queries += q
        if len(x) > params.shrink_threshold * n_i:
            reps = params.ko_reps(i)
            m = len(x)
            half = m // 2
            wins = np.zeros(m, dtype=np.int64)
            for _ in range(reps):
                perm = rng.permutation(m)
                pa = perm[0:2 * half:2]
                pb = perm[1:2 * half:2]
                winner_pos = np.where(cmp.beats(x[pa], x[pb]), pa, pb)
                wins[winner_pos] += 1
                if m % 2:
                    wins[perm[m - 1]] += 1  # bye counts as a win
                queries += half
            keep = wins > params.win_fraction * reps
            if keep.any():
                x = x[keep]
            else:
                x = np.array([_pick_max_wins_fast(x, wins, rng)], dtype=np.int64)
    if record_sizes is not None:
        record_sizes.append(len(x))
    return int(x[0]), queries


def quick_sort_fast(cmp, items, rng) -> tuple[np.ndarray, int]:
    items = _items_array(cmp, items)
    queries = 0
    out = items.copy()  # a single item is already in place
    # segments of two or more items wait with their offset in `out`; pivots
    # and single items are written straight to theirs. The winners' side is
    # popped first, so the draws come in the session's depth-first order.
    stack = [(items, 0)] if len(items) > 1 else []
    while stack:
        arr, start = stack.pop()
        m = len(arr)
        p = int(rng.integers(m))
        mask = _beats_pivot(cmp, arr, p)
        winners = arr[mask]
        mask = ~mask
        mask[p] = False
        losers = arr[mask]
        queries += m - 1
        mid = start + len(winners)
        out[mid] = arr[p]
        for seg, offset in ((losers, mid + 1), (winners, start)):
            if len(seg) > 1:
                stack.append((seg, offset))
            elif len(seg):
                out[offset] = seg[0]
    return out, queries


def complete_sort_fast(cmp, items, rng) -> tuple[np.ndarray, int]:
    items = _items_array(cmp, items)
    m = len(items)
    if m == 1:
        return items, 0
    wins = cmp.wins_within(items)
    tie_rank = np.empty(m, dtype=np.int64)
    tie_rank[rng.permutation(m)] = np.arange(m)
    order = np.lexsort((tie_rank, -wins))
    return items[order], m * (m - 1) // 2
