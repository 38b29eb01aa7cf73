"""Maximum-selection algorithms over index arrays. Each one talks to the
world only through a session's batches (``pivot_round``, ``duel``,
``round_robin``; ``query`` for sequential selection), so it runs unchanged
against non-adaptive graphs, adaptive strategies, or the Scheffe comparator.

Randomness comes from an explicit ``numpy.random.Generator``; the draw
sequence is part of each algorithm's contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import InvalidQueryError

__all__ = [
    "SelectionResult",
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
    """The items as an int64 array of indices into the session."""
    if items is None:
        return np.arange(session.n_items, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    if not len(items):
        raise ValueError("need at least one item")
    if items.min() < 0 or items.max() >= session.n_items:
        raise InvalidQueryError(f"items out of range for n={session.n_items}")
    return items


def _rng(rng) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


def _pick_max_wins(items: np.ndarray, wins: np.ndarray, rng) -> int:
    maxers = items[wins == wins.max()]
    if len(maxers) == 1:
        return int(maxers[0])
    return int(maxers[int(rng.integers(len(maxers)))])


def _round_robin_winner(session, items: np.ndarray, rng) -> int:
    if len(items) == 1:
        return int(items[0])
    return _pick_max_wins(items, session.round_robin(items), rng)


def complete_tournament(session, items=None, rng=None) -> SelectionResult:
    """Round-robin: query every pair once, return an item with the most wins
    (ties broken uniformly). The output value is always within 2 of the
    maximum, against any adversary."""
    items = _resolve(session, items)
    start = session.queries
    winner = _round_robin_winner(session, items, _rng(rng))
    return SelectionResult(winner, session.queries - start, rounds=1)


def sequential_select(session, items=None, rng=None) -> SelectionResult:
    """Visit the items in uniformly random order, always keeping the winner
    of the last comparison. Exactly n-1 queries."""
    items = _resolve(session, items)
    rng = _rng(rng)
    if len(items) == 1:
        return SelectionResult(int(items[0]), 0, rounds=1)
    session.announce_pivot(None)
    visit = items[rng.permutation(len(items))].tolist()
    start = session.queries
    champ = visit[0]
    for x in visit[1:]:
        champ = session.query(x, champ)
    return SelectionResult(champ, session.queries - start, rounds=1)


def _knockout_round(session, items: np.ndarray, rng) -> np.ndarray:
    m = len(items)
    if m == 1:
        return items
    perm = rng.permutation(m)
    half = m // 2
    a = items[perm[0:2 * half:2]]
    b = items[perm[1:2 * half:2]]
    survivors = np.where(session.duel(a, b), a, b)
    if m % 2:
        survivors = np.append(survivors, items[perm[m - 1]])
    return survivors


def knockout_round(session, items, rng) -> list[int]:
    """Pair the items of one random perfect matching and keep the winners;
    an odd leftover gets a bye. floor(m/2) queries, ceil(m/2) survivors."""
    return _knockout_round(session, _resolve(session, items), rng).tolist()


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
        x = _knockout_round(session, x, rng)
    final = x
    if saved:
        pool = np.concatenate(saved)
        # first occurrence within the pool, in pool order
        _, first = np.unique(pool, return_index=True)
        pool = pool[np.sort(first)]
        in_x = np.zeros(session.n_items, dtype=bool)
        in_x[x] = True
        final = np.concatenate([x, pool[~in_x[pool]]])
    winner = _round_robin_winner(session, final, rng)
    return SelectionResult(winner, session.queries - start, rounds=len(saved) + 1)


def _quickselect_round(session, items: np.ndarray, rng) -> np.ndarray:
    m = len(items)
    if m == 1:
        return items
    p = int(rng.integers(m))
    survivors = items[session.pivot_round(int(items[p]), items)]
    return survivors if len(survivors) else items[p:p + 1]


def quickselect_round(session, items, rng) -> list[int]:
    """Pick a random pivot and compare it to everything else; keep whatever
    beat the pivot, or the pivot itself if nothing did."""
    return _quickselect_round(session, _resolve(session, items), rng).tolist()


def quick_select(session, items=None, rng=None) -> SelectionResult:
    """Iterate quickselect rounds down to a single survivor. Zero-error
    2-approximation against any adversary; expected queries below 2n against
    non-adaptive ones."""
    x = _resolve(session, items)
    rng = _rng(rng)
    start = session.queries
    rounds = 0
    while len(x) > 1:
        x = _quickselect_round(session, x, rng)
        rounds += 1
    return SelectionResult(int(x[0]), session.queries - start, rounds=rounds)


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
    sizes = []
    while len(x) > 1:
        sizes.append(len(x))
        for _ in range(qs_reps):
            x = _quickselect_round(session, x, rng)
        if len(x) > params.shrink_threshold * sizes[-1]:
            reps = params.ko_reps(len(sizes))  # round index, from 1
            m = len(x)
            half = m // 2
            wins = np.zeros(m, dtype=np.int64)
            for _ in range(reps):
                perm = rng.permutation(m)
                pa = perm[0:2 * half:2]
                pb = perm[1:2 * half:2]
                wins[np.where(session.duel(x[pa], x[pb]), pa, pb)] += 1
                if m % 2:
                    wins[perm[m - 1]] += 1  # bye counts as a win
            keep = wins > params.win_fraction * reps
            if keep.any():
                x = x[keep]
            else:
                x = np.array([_pick_max_wins(x, wins, rng)], dtype=np.int64)
    sizes.append(len(x))
    return SelectionResult(int(x[0]), session.queries - start,
                           rounds=len(sizes) - 1, sizes=tuple(sizes))
