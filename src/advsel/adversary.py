"""Comparator implementations: frozen tournament graphs, adaptive strategies,
and the named hard constructions, all queried through one session interface.

A non-adaptive adversary is a complete orientation of all index pairs, fixed
before the first query: a dense matrix (``TournamentGraph``) or a rule
evaluated on demand (``RuleTournament``). An adaptive strategy decides each
answer online from the query history (plus an optional pivot hint). Either
way, pairs whose value gap exceeds delta are forced (``Instance.forces``):
the session returns the larger value's index no matter what the adversary
says, and counts the disagreement as a model violation. A graph that passed
``validate_for`` can disagree with none, and is not checked again.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Protocol, Union, runtime_checkable

import numpy as np

from .core import (MAX_INSTANCE_SIZE, Instance, InvalidQueryError, QueryLog,
                   RngSeed, check_choice, check_keys, check_number)

__all__ = [
    "TournamentGraph",
    "RuleTournament",
    "PolicyTournament",
    "ConstructionTournament",
    "AdaptiveStrategy",
    "PivotKiller",
    "MemoizedStrategy",
    "ComparatorSession",
    "comparator_for",
    "AdversaryProtocolError",
    "NONADAPTIVE_POLICIES",
    "build_nonadaptive",
    "lemma_one_construction",
    "lemma_two_construction",
    "sequential_hard_instance",
    "komod_hard_instance",
    "Construction",
    "CONSTRUCTION_TABLE",
    "SHORTHAND",
    "parse_adversary",
    "adversary_from_spec",
    "DENSE_CELL_BUDGET",
    "fits_dense_budget",
    "check_dense_budget",
]

NONADAPTIVE_POLICIES = ("larger-wins", "smaller-wins", "lower-index-wins", "random")

# Most cells (one byte each) an n x n matrix may have. Every dense build checks
# it before allocating, so an oversized input is a ValueError, not an attempt
# at gigabytes.
DENSE_CELL_BUDGET = 1 << 26

# Rules are evaluated over blocks of at most this many pairs at a time, so
# their float64 temporaries stay a few MB whatever n is.
_BLOCK_CELLS = 1 << 18


def fits_dense_budget(n: int) -> bool:
    return n * n <= DENSE_CELL_BUDGET


def check_dense_budget(n: int, what: str) -> None:
    if not fits_dense_budget(n):
        raise ValueError(f"{what} would need a dense {n}x{n} matrix ({n * n} cells), "
                         f"over the budget of {DENSE_CELL_BUDGET} cells")


class AdversaryProtocolError(RuntimeError):
    """An adversary returned an index outside the queried pair."""


class TournamentGraph:
    """A complete orientation of all index pairs, frozen at construction.

    ``matrix[i, j]`` is True iff i beats j. Exactly one of ``matrix[i, j]``
    and ``matrix[j, i]`` holds for i != j; the diagonal is False.
    Subclasses answer from a rule instead and have no ``matrix``; callers
    that need one ask ``dense()``.

    A graph answers whole batches from ``beats`` over index arrays: the
    ``pivot_round_mask`` of a pivot round and the ``wins_within`` of a
    round-robin. It is also a strategy that ignores the query history
    (``decide``). ``validate_for`` remembers the last instance it passed,
    so a session checks a reused graph once.
    """

    __slots__ = ("matrix", "_checked")

    def __init__(self, matrix: np.ndarray, check: bool = True):
        self._checked: Optional[Instance] = None
        matrix = np.asarray(matrix, dtype=bool)
        if check:
            n = matrix.shape[0]
            if matrix.ndim != 2 or matrix.shape != (n, n):
                raise ValueError("orientation matrix must be square")
            if matrix.diagonal().any():
                raise ValueError("no self-edges allowed")
            both = matrix & matrix.T
            neither = ~(matrix | matrix.T) & ~np.eye(n, dtype=bool)
            if both.any() or neither.any():
                raise ValueError("matrix must orient every pair exactly once")
        matrix.flags.writeable = False  # frozen once constructed
        self.matrix = matrix

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> "TournamentGraph":
        return self

    def beats(self, a, b):
        """Whether a beats b, elementwise over index arrays."""
        return self.matrix[a, b]

    def winner(self, i: int, j: int) -> int:
        return i if self.beats(i, j) else j

    def decide(self, instance, i, j, log, pivot):
        return self.winner(i, j)

    def pivot_round_mask(self, items, pivot):
        """Which of ``items`` beat ``pivot`` (a fresh array)."""
        return self.beats(items, pivot)

    def wins_within(self, items: np.ndarray) -> np.ndarray:
        """Wins of each of ``items`` against the others."""
        wins = np.empty(len(items), dtype=np.int64)
        for lo, block in self._blocks(items, items):
            wins[lo:lo + len(block)] = block.sum(axis=1)
        return wins

    def out_degrees(self) -> np.ndarray:
        return self.wins_within(np.arange(self.n))

    def _beats_grid(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """beats over the grid rows x cols."""
        return self.beats(rows[:, None], cols[None, :])

    def _blocks(self, rows: np.ndarray, cols: np.ndarray):
        """(first row, beats over rows x cols) for blocks of rows, so no
        temporary exceeds _BLOCK_CELLS pairs."""
        step = max(1, _BLOCK_CELLS // max(len(cols), 1))
        for lo in range(0, len(rows), step):
            yield lo, self._beats_grid(rows[lo:lo + step], cols)

    def validate_for(self, instance: Instance) -> "TournamentGraph":
        """Raise ValueError unless every pair with a value gap above delta is
        oriented toward the larger value."""
        if instance.n != self.n:
            raise ValueError(f"graph has {self.n} nodes, instance has {instance.n}")
        check_dense_budget(self.n, f"checking every pair of {type(self).__name__}")
        idx = np.arange(self.n)
        for lo, block in self._blocks(idx, idx):
            rows = idx[lo:lo + len(block), None]
            bad = np.argwhere(instance.forces(rows, idx) & ~block)
            if len(bad):
                i, j = bad[0]
                i += lo
                raise ValueError(
                    f"forced pair misoriented: {j} beats {i} but value gap "
                    f"{instance.values.item(i) - instance.values.item(j):g} > delta"
                )
        self._checked = instance
        return self

    @classmethod
    def from_edges(cls, n: int, edges) -> "TournamentGraph":
        """Build from an explicit edge list of (i, j, winner) triples."""
        check_dense_budget(n, "an explicit edge list")
        matrix = np.zeros((n, n), dtype=bool)
        seen = np.zeros((n, n), dtype=bool)
        for edge in edges:
            try:
                i, j, w = (check_number("an edge index", x) for x in edge)
            except (TypeError, ValueError):
                raise ValueError(f"bad edge {edge!r}: expected [i, j, winner] "
                                 "integers") from None
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bad edge pair ({i}, {j})")
            if w not in (i, j):
                raise ValueError(f"winner {w} not in pair ({i}, {j})")
            if seen[i, j]:
                raise ValueError(f"pair ({i}, {j}) specified twice")
            seen[i, j] = seen[j, i] = True
            matrix[w, i if w == j else j] = True
        if not seen[~np.eye(n, dtype=bool)].all():
            raise ValueError("edge list must cover every unordered pair")
        return cls(matrix)

    def edges(self):
        matrix = self.dense().matrix
        for i in range(self.n):
            for j in range(i + 1, self.n):
                yield (i, j, i if matrix[i, j] else j)


class RuleTournament(TournamentGraph):
    """A tournament given by a rule on indices and evaluated on demand:
    ``beats`` costs O(1) per pair and no n x n matrix exists until
    ``dense()`` builds one (once, within ``DENSE_CELL_BUDGET``).
    """

    __slots__ = ("_n", "_dense")

    def __init__(self, n: int):
        self._n = n
        self._dense: Optional[TournamentGraph] = None
        self._checked: Optional[Instance] = None

    @property
    def n(self) -> int:
        return self._n

    def beats(self, a, b):
        raise NotImplementedError

    def dense(self) -> TournamentGraph:
        if self._dense is None:
            check_dense_budget(self._n, f"a dense copy of {type(self).__name__}")
            idx = np.arange(self._n)
            if self._n * self._n <= _BLOCK_CELLS:
                matrix = self._beats_grid(idx, idx)
            else:
                matrix = np.empty((self._n, self._n), dtype=bool)
                for lo, block in self._blocks(idx, idx):
                    matrix[lo:lo + len(block)] = block
            self._dense = TournamentGraph(matrix, check=False)
            self._dense._checked = self._checked
        return self._dense


@runtime_checkable
class AdaptiveStrategy(Protocol):
    """Decision rule of an adaptive adversary.

    ``decide`` sees the instance, the queried pair, the full log so far, and
    the pivot hint (the index the current round is pivoting on, or None).
    It must return one of the two queried indices; on forced pairs the
    session overrides wrong answers anyway.

    A strategy that never reads the log may also offer ``bulk(instance)``:
    an object answering ``pivot_round_mask``, ``beats`` and ``wins_within``
    (as ``TournamentGraph`` does) exactly as ``decide`` would answer the
    batch's pairs one by one, in order, with the session's pivot hint; or
    None when it cannot. Its answers must obey every forced pair, since a
    session asks it instead of ``decide`` and checks none of them.
    """

    def decide(self, instance: Instance, i: int, j: int, log: QueryLog,
               pivot: Optional[int]) -> int: ...


class PivotKiller:
    """Adaptive strategy that declares the announced pivot the loser of every
    free query it appears in. Free queries not involving the pivot go to the
    lower index; forced queries obey the model."""

    def decide(self, instance, i, j, log, pivot):
        values = instance.values
        n = len(values)
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise InvalidQueryError(f"invalid query ({i}, {j}) for n={n}")
        # Instance.forces, inline on Python floats
        gap = values.item(i) - values.item(j)
        if gap > instance.delta or -gap > instance.delta:
            return i if gap > 0 else j
        if pivot == i:
            return j
        if pivot == j:
            return i
        return min(i, j)

    def bulk(self, instance):
        return _PivotKillerRule(instance)


class MemoizedStrategy:
    """Wrapper forcing an adaptive strategy to stay self-consistent: the first
    answer for each unordered pair is replayed on repeat queries.

    Single queries (``decide``) and batches (``bulk``) share one memo, keyed
    by ``lo << 32 | hi`` for the pair lo < hi, so a strategy reused across
    sessions or instances replays every pair it has answered."""

    def __init__(self, strategy):
        self.strategy = strategy
        self._memo: dict[int, int] = {}

    def decide(self, instance, i, j, log, pivot):
        code = i << 32 | j if i < j else j << 32 | i
        winner = self._memo.get(code)
        if winner is None:
            winner = self._memo[code] = self.strategy.decide(instance, i, j, log, pivot)
        return winner

    def bulk(self, instance):
        """The inner strategy's batch form behind the memo; None if the inner
        strategy has none or a stored answer breaks a forced pair of
        ``instance`` (the memo was filled on other values)."""
        inner = getattr(self.strategy, "bulk", None)
        rule = None if inner is None else inner(instance)
        if rule is None:
            return None
        if self._memo:
            codes = np.fromiter(self._memo, dtype=np.int64, count=len(self._memo))
            lo, hi = codes >> 32, codes & 0xFFFFFFFF
            inside = hi < instance.n
            winners = np.fromiter(self._memo.values(), dtype=np.int64,
                                  count=len(codes))[inside]
            # a stored loser forced to beat its winner
            if instance.forces((lo + hi)[inside] - winners, winners).any():
                return None
        return _MemoizedBatches(rule, self._memo, instance)


class _MemoizedBatches:
    """A memoized strategy's batch answers: its inner strategy's answers for
    a batch, then one pass over the pairs in order that keeps a stored answer
    or stores the new one (``dict.setdefault``), as ``decide`` would."""

    __slots__ = ("rule", "memo", "instance")

    def __init__(self, rule, memo: dict, instance: Instance):
        self.rule, self.memo, self.instance = rule, memo, instance

    def _replay(self, a, b, a_wins):
        """Whether a beats b for each pair, once the memo has had its say."""
        winners = np.where(a_wins, a, b)
        codes = np.minimum(a, b) << 32 | np.maximum(a, b)
        stored = np.fromiter(map(self.memo.setdefault, codes.tolist(), winners.tolist()),
                             dtype=np.int64, count=len(codes))
        replayed = stored != winners
        # a stored answer from another instance's session may break a forced
        # pair: the replayed loser, the new winner, is forced to beat it
        if replayed.any() and self.instance.forces(winners[replayed],
                                                   stored[replayed]).any():
            raise AdversaryProtocolError(
                "a memoized answer breaks a forced pair of this instance")
        return stored == a

    def pivot_round_mask(self, items, pivot):
        rivals = items != pivot
        mask = np.zeros(len(items), dtype=bool)
        mask[rivals] = self._replay(items[rivals], np.full(rivals.sum(), pivot),
                                    self.rule.pivot_round_mask(items, pivot)[rivals])
        return mask

    def beats(self, a, b):
        return self._replay(a, b, self.rule.beats(a, b))

    def wins_within(self, items):
        return _round_robin_wins(self.beats, items)


def _round_robin_wins(beats, items: np.ndarray, log: Optional[QueryLog] = None):
    """Wins of each of ``items`` from one ``beats`` call over every pair of
    them, row by row (a before b in ``items``), each pair also logged, in that
    order, to ``log`` if given."""
    rows, cols = np.triu_indices(len(items), 1)
    a, b = items[rows], items[cols]
    a_wins = beats(a, b)
    if log is not None:
        log.extend(a, b, np.where(a_wins, a, b))
    return np.bincount(np.where(a_wins, rows, cols), minlength=len(items))


Adversary = Union[TournamentGraph, AdaptiveStrategy]


class ComparatorSession:
    """Query oracle binding an instance to one adversary.

    Enforces forced outcomes, logs every query, and counts queries. Answers
    from the adversary that disagree with a forced outcome are overridden and
    tallied in ``violations``. Single-owner: not safe for concurrent queries.

    Algorithms ask whole batches (``pivot_round``, ``duel``, ``round_robin``)
    of int64 index arrays. A valid graph and a strategy with a batch form
    (``bulk``: the pivot-killer, memoized or not) answer a batch in one call
    (see ``comparator_for``); any other adversary is asked one ``query`` at a
    time, with the pivot hint, in the same order. Both write the same log.
    """

    def __init__(self, instance: Instance, adversary: Adversary, record: bool = True):
        self.instance = instance
        self.adversary = adversary
        self.log = QueryLog(recording=record)
        self.violations = 0
        self._pivot: Optional[int] = None
        # per-query reads: Python floats, without a per-session copy
        self._values = memoryview(instance.values)
        self._delta = instance.delta
        self._n = instance.n
        if isinstance(adversary, TournamentGraph) and adversary.n != instance.n:
            raise ValueError("graph size does not match instance")
        self._bulk = comparator_for(instance, adversary)
        # a dense graph valid for the instance answers single queries with no
        # check; a rule has no matrix and goes through decide()
        self._matrix = (getattr(adversary, "matrix", None)
                        if self._bulk is adversary else None)

    @property
    def n_items(self) -> int:
        return self._n

    @property
    def queries(self) -> int:
        return self.log.count

    def announce_pivot(self, index: Optional[int]) -> None:
        """Side channel telling adaptive adversaries which item the current
        round pivots on (None clears it)."""
        self._pivot = index

    def query(self, i: int, j: int) -> int:
        if i == j:
            raise InvalidQueryError("cannot compare an index with itself")
        if not (0 <= i < self._n and 0 <= j < self._n):
            raise InvalidQueryError(f"indices ({i}, {j}) out of range for n={self._n}")
        if self._matrix is not None:
            answer = i if self._matrix[i, j] else j
        else:
            answer = self.adversary.decide(self.instance, i, j, self.log, self._pivot)
            if answer != i and answer != j:
                raise AdversaryProtocolError(
                    f"adversary answered {answer} for pair ({i}, {j})")
            # Instance.forces, inline on Python floats
            gap = self._values[i] - self._values[j]
            if gap > self._delta or -gap > self._delta:
                want = i if gap > 0 else j
                if answer != want:
                    self.violations += 1
                    answer = want
        self.log.append(i, j, answer)
        return answer

    def _query_beats(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether a[k] beat b[k], one query per pair, in order."""
        return np.array([self.query(x, y) == x
                         for x, y in zip(a.tolist(), b.tolist())], dtype=bool)

    # A batch form's answers need no forced-pair check: comparator_for hands
    # out only adversaries that never violate the model.

    def pivot_round(self, pivot: int, items: np.ndarray) -> np.ndarray:
        """Announce ``pivot`` and compare it with every other one of
        ``items`` (which holds it once), in order: the mask of the items that
        beat it, False at the pivot itself."""
        self._pivot = pivot
        bulk = self._bulk
        if bulk is None:
            return np.array([x != pivot and self.query(pivot, x) == x
                             for x in items.tolist()], dtype=bool)
        mask = bulk.pivot_round_mask(items, pivot)
        if self.log.recording:
            others = items != pivot
            rivals = items[others]
            self.log.extend(pivot, rivals, np.where(mask[others], rivals, pivot))
        else:
            self.log.count += len(items) - 1
        return mask

    def duel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Clear the pivot and compare the pairs (a[k], b[k]) in order: the
        mask of the pairs that a won."""
        self._pivot = None
        bulk = self._bulk
        if bulk is None:
            return self._query_beats(a, b)
        mask = bulk.beats(a, b)
        if self.log.recording:
            self.log.extend(a, b, np.where(mask, a, b))
        else:
            self.log.count += len(a)
        return mask

    def round_robin(self, items: np.ndarray) -> np.ndarray:
        """Clear the pivot and compare every pair of ``items`` once, row by
        row: the wins of each item."""
        self._pivot = None
        bulk = self._bulk
        if bulk is None:
            return _round_robin_wins(self._query_beats, items)
        if self.log.recording:
            return _round_robin_wins(bulk.beats, items, self.log)
        wins = bulk.wins_within(items)
        self.log.count += len(items) * (len(items) - 1) // 2
        return wins


class PolicyTournament(RuleTournament):
    """A non-adaptive policy as a rule on the instance's values: a pair whose
    gap exceeds delta goes to the larger value, a free pair to the policy's
    choice. ``coin`` holds the fair coins of the ``random`` policy; only
    ``coin[min(a, b), max(a, b)]`` is read, as a's win when a < b."""

    __slots__ = ("instance", "policy", "coin", "_values", "_delta")

    def __init__(self, instance: Instance, policy: str,
                 coin: Optional[np.ndarray] = None):
        super().__init__(instance.n)
        if (policy == "random") != (coin is not None):
            raise ValueError("the random policy and only it takes a coin array")
        self.instance, self.policy, self.coin = instance, policy, coin
        self._values = instance.values
        self._delta = instance.delta
        self._checked = instance  # valid by construction

    def beats(self, a, b):
        coin = None
        if self.coin is not None:
            coin = self.coin[np.minimum(a, b), np.maximum(a, b)] ^ (a > b)
        return self._orient(a, b, coin)

    def _beats_grid(self, rows, cols):
        coin = None
        if self.coin is not None:
            # whole-row gathers: far cheaper than one gather per pair
            coin = np.where(rows[:, None] < cols, self.coin[rows][:, cols],
                            ~self.coin[cols][:, rows].T)
        return self._orient(rows[:, None], cols[None, :], coin)

    def _orient(self, a, b, coin):
        """Whether a beats b; ``coin`` holds a's coin for each pair under
        the random policy."""
        # Instance.forces, inline and fused with the policy
        with np.errstate(over="ignore"):
            d = self._values[a] - self._values[b]
        if self.policy == "larger-wins":
            # ties go to the lower index; every gap above zero is a win
            return (d > 0) | ((d == 0) & (a < b))
        if self.policy == "smaller-wins":
            pref = (d < 0) | ((d == 0) & (a < b))
        elif self.policy == "lower-index-wins":
            pref = a < b
        else:
            pref = coin & (a != b)
        return (d > self._delta) | ((np.abs(d) <= self._delta) & pref)


def build_nonadaptive(instance: Instance, policy: str,
                      rng=None) -> PolicyTournament:
    """Complete, valid, frozen graph with free pairs oriented per policy.

    Policies: ``larger-wins`` / ``smaller-wins`` (value ties go to the lower
    index), ``lower-index-wins``, and ``random`` (every free pair gets an
    independent fair coin, drawn eagerly so the graph is fixed before any
    query). ``smaller-wins`` realizes the min-on-ties adversary. ``rng`` may
    be a Generator, an RngSeed, or a plain seed; only ``random`` uses it.
    The graph is a rule on the values; only ``random`` stores n x n coins.
    """
    if policy not in NONADAPTIVE_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if policy != "random":
        return PolicyTournament(instance, policy)
    if rng is None:
        raise ValueError("random policy needs a generator")
    n = instance.n
    check_dense_budget(n, "the random policy's coins")
    coin = _seed_rng(rng).integers(0, 2, size=(n, n), dtype=np.uint8).view(bool)
    return PolicyTournament(instance, policy, coin)


class _PivotKillerRule(PolicyTournament):
    """``PivotKiller``'s answers in closed form: in a pivot round every item
    that is not forced to lose beats the pivot; other free pairs go to the
    lower index."""

    __slots__ = ()

    def __init__(self, instance: Instance):
        super().__init__(instance, "lower-index-wins")

    def pivot_round_mask(self, items, pivot):
        return ~self.instance.forces(pivot, items) & (items != pivot)


def comparator_for(instance: Instance, adversary):
    """What answers a session's batches in one call: the adversary itself if
    it is a graph valid for ``instance``, a strategy's ``bulk(instance)`` if
    it offers one, or None, when every query must be asked pair by pair (a
    strategy that reads the log, or a graph that would need its violations
    counted)."""
    if isinstance(adversary, TournamentGraph):
        if adversary._checked is not instance:
            try:
                adversary.validate_for(instance)
            except ValueError:
                return None
        return adversary
    bulk = getattr(adversary, "bulk", None)
    return None if bulk is None else bulk(instance)


def _near_regular_beats(a, b, g: int):
    """Whether position a beats b in the tournament on ``g`` cyclic
    positions with out-degrees as equal as possible: a beats a+1 ..
    a+floor((g-1)/2), and for even g the antipodal pair goes to the lower
    position."""
    step = (b - a - 1) % g  # b is a + 1 + step cyclically
    beats = step < (g - 1) // 2
    if g % 2 == 0:
        beats |= (step == g // 2 - 1) & (a < g // 2)
    return beats


class ConstructionTournament(RuleTournament):
    """A named construction's orientation as a rule under its hidden
    permutation: canonical position p is index ``perm[p]``. Positions fall
    into value groups of the given ``sizes``, each of one item or of the same
    size g. ``table[x, y]`` says whether group x beats group y; inside a group
    the near-regular tournament on the g within-group offsets decides.
    lemma1 and lemma2 are one group of n with no table, lemma1 with no
    ``perm`` (the identity); a table needs a ``perm``."""

    __slots__ = ("_group", "_offset", "_g", "_table")

    def __init__(self, sizes, perm: Optional[np.ndarray] = None,
                 table: Optional[np.ndarray] = None):
        n = sum(sizes)
        super().__init__(n)
        self._g, self._table, self._group = max(sizes), table, None
        # each item's offset in its group; None: one group in index order
        self._offset = None if perm is None else np.empty_like(perm)
        if perm is not None:
            self._offset[perm] = np.arange(n)  # the canonical positions
        if table is not None:
            starts = np.cumsum(sizes) - sizes
            self._group = np.repeat(np.arange(len(sizes)), sizes)[self._offset]
            self._offset -= starts[self._group]

    def beats(self, a, b):
        offset = self._offset
        inside = _near_regular_beats(a if offset is None else offset[a],
                                     b if offset is None else offset[b], self._g)
        if self._table is None:
            return inside
        ga, gb = self._group[a], self._group[b]
        return np.where(ga == gb, inside, self._table[ga, gb])


def _require_odd(n: int) -> int:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"construction needs odd n >= 3, got {n}")
    return n


def _valid_pair(instance: Instance, graph):
    """(instance, graph) of a construction whose graph is valid for its
    instance by construction, so no session checks it again."""
    graph._checked = instance
    return instance, graph


def _seed_rng(seed) -> np.random.Generator:
    if seed is None:
        return RngSeed(0).generator()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RngSeed):
        return seed.generator()
    return RngSeed(check_number("seed", seed)).generator()


def lemma_one_construction(n: int, seed=None) -> tuple[Instance, ConstructionTournament]:
    """Regular tournament over a hidden permutation of (1, 0, ..., 0).

    Every index beats the next (n-1)/2 indices cyclically, so all out-degrees
    equal (n-1)/2; with all gaps <= 1 every orientation is legal, and no
    algorithm can tell the single 1 apart from the 0s.
    """
    n = _require_odd(n)
    rng = _seed_rng(seed)
    values = np.zeros(n)
    values[int(rng.integers(n))] = 1.0
    return _valid_pair(Instance(values), ConstructionTournament((n,)))


def lemma_two_construction(n: int, seed=None) -> tuple[Instance, ConstructionTournament]:
    """Regular tournament over a hidden permutation of (2, 1^m, 0^m) in which
    the 2 loses to every 1, m = (n-1)/2.

    Built on a cycle ordered (2, 0^m, 1^m) so the circulant's forced edges
    (2 over every 0) land correctly and every 1 has the 2 in its out-fan,
    then relabeled by a seeded permutation.
    """
    n = _require_odd(n)
    m = (n - 1) // 2
    rng = _seed_rng(seed)
    canon_values = np.concatenate(([2.0], np.zeros(m), np.ones(m)))
    perm = rng.permutation(n)  # canonical position p becomes index perm[p]
    values = np.empty(n)
    values[perm] = canon_values
    return _valid_pair(Instance(values), ConstructionTournament((n,), perm))


def _layered_size(r: int, s: int) -> int:
    """Items of ``sequential_hard_instance(r, s)``: r^s, at most MAX_INSTANCE_SIZE."""
    if r < 2 or s < 1:
        raise ValueError("need r >= 2 and s >= 1")
    # r^s >= 2^s, so a large s is rejected before the power is taken
    if s >= MAX_INSTANCE_SIZE.bit_length() or r ** s > MAX_INSTANCE_SIZE:
        raise ValueError(f"{r}^{s} items is more than MAX_INSTANCE_SIZE "
                         f"({MAX_INSTANCE_SIZE})")
    return r ** s


def sequential_hard_instance(r: int, s: int) -> tuple[Instance, PolicyTournament]:
    """Layered instance of n = r^s values (one s, then r^(s-m) - r^(s-m-1)
    copies of each m < s) paired with the min-on-ties adversary, on which
    sequential selection almost always walks down to a 0."""
    n = _layered_size(r, s)
    values = np.empty(n)
    values[0] = s
    for m in range(s - 1, -1, -1):
        values[r ** (s - m - 1): r ** (s - m)] = m
    inst = Instance(values)
    return inst, build_nonadaptive(inst, "smaller-wins")


def komod_hard_instance(n: int, seed=None) -> tuple[Instance, ConstructionTournament]:
    """Hidden permutation of {3, 2^g, 1^g, 0^g, 0*} (g = (n-2)/3) with the
    orientation that defeats the modified knock-out's 3-approximation:
    all 2s and all plain 0s lose to all 1s, 3 loses to all 2s, and the
    distinguished 0* beats every 1 and every plain 0.

    Ties inside each equal-value group are a near-regular tournament rather
    than lower-index-wins: a single dominant 1 would otherwise out-win 0* in
    the final round-robin and the construction would lose its teeth.
    """
    if n < 5 or (n - 2) % 3 != 0:
        raise ValueError(f"need n - 2 divisible by 3 and n >= 5, got {n}")
    rng = _seed_rng(seed)
    g = (n - 2) // 3
    # canonical order: [3] [2]*g [1]*g [0]*g [0*]
    canon_values = np.concatenate(([3.0], np.full(g, 2.0), np.ones(g), np.zeros(g), [0.0]))
    perm = rng.permutation(n)  # canonical position p becomes index perm[p]
    values = np.empty(n)
    values[perm] = canon_values
    return _valid_pair(Instance(values),
                       ConstructionTournament((1, g, g, g, 1), perm, _KOMOD_GROUPS))


# Who beats whom between komod-hard's value groups, in canonical order
# 3, 2s, 1s, plain 0s, 0* (row beats column).
_KOMOD_GROUPS = np.array([
    [0, 0, 1, 1, 1],    # 3 loses to every 2 (free), beats the rest (forced)
    [1, 0, 0, 1, 1],    # 2s lose to every 1 (free)
    [0, 1, 0, 1, 0],    # 1s beat every plain 0 (free), lose to 0* (free)
    [0, 0, 0, 0, 0],    # plain 0s lose every pair across groups
    [0, 0, 1, 1, 0],    # 0* beats every 1 and every plain 0 (free)
], dtype=bool)


class Construction(NamedTuple):
    """A named instance builder: its integer params, in order, whether a seed
    follows them, and ``size``, the item count of the params (default: the first)."""

    builder: Callable
    params: tuple[str, ...]
    seeded: bool
    size: Optional[Callable[..., int]] = None

    def items(self, args) -> int:
        return self.size(*args) if self.size else args[0]

    def build(self, args, seed=None):
        return self.builder(*args, seed) if self.seeded else self.builder(*args)


# name -> what a {"kind": "construction"} spec builds from its "params" (and an optional
# "seed" when seeded). "pivot-killer" is adaptive: its one param is the flag "memoized".
CONSTRUCTION_TABLE = {
    "lemma1": Construction(lemma_one_construction, ("n",), True),
    "lemma2": Construction(lemma_two_construction, ("n",), True),
    "seq-hard": Construction(sequential_hard_instance, ("r", "s"), False,
                             _layered_size),
    "komod-hard": Construction(komod_hard_instance, ("n",), True),
}

SHORTHAND = {
    **{policy: {"kind": "nonadaptive", "policy": policy}
       for policy in NONADAPTIVE_POLICIES},
    "pivot-killer": {"kind": "construction", "name": "pivot-killer"},
    # the graph that came with the instance's construction
    "construction": {"kind": "construction"},
}


def _seed(seed) -> Optional[int]:
    return None if seed is None else check_number("seed", seed)


def parse_adversary(spec) -> dict:
    """The checked dict of a shorthand name or JSON spec: each key of its kind, of the
    right type; an unknown key, kind, policy or construction is a ValueError naming
    it. A construction named None is the graph that came with the instance."""
    if isinstance(spec, str):
        spec = SHORTHAND[check_choice("adversary shorthand", spec, SHORTHAND)]
    if not isinstance(spec, dict):
        raise ValueError("adversary spec must be a shorthand name or a JSON object")
    kind = check_choice("adversary spec kind", spec.get("kind"),
                        ("nonadaptive", "construction", "explicit"))
    if kind == "nonadaptive":
        checked = {"kind": kind, "seed": _seed(spec.get("seed")),
                   "policy": check_choice("policy", spec.get("policy", "random"),
                                          NONADAPTIVE_POLICIES)}
    elif kind == "explicit":
        if not isinstance(spec.get("edges"), list):
            raise ValueError("explicit spec needs an 'edges' list of [i, j, winner]")
        checked = {"kind": kind, "edges": spec["edges"]}
    else:
        name = spec.get("name")
        checked = {"kind": kind, "name": name,
                   "params": _construction_params(name, spec.get("params") or {})}
    check_keys(f"{kind} adversary spec", spec, checked)
    return checked


def _construction_params(name, params) -> dict:
    if not isinstance(params, dict):
        raise ValueError("construction 'params' must be an object")
    if name is None or name == "pivot-killer":
        check_keys(f"{name or 'nameless construction'} params", params,
                   ("memoized",) if name else ())
        memoized = params.get("memoized", False)
        if not isinstance(memoized, bool):
            raise ValueError(f"{name} param 'memoized' must be true or false, "
                             f"got {memoized!r}")
        return {"memoized": memoized} if name else {}
    entry = CONSTRUCTION_TABLE[check_choice(
        "construction", name, (*CONSTRUCTION_TABLE, "pivot-killer"))]
    check_keys(f"{name} params", params, entry.params + ("seed",) * entry.seeded)
    checked = {p: check_number(f"{name} param {p!r}", params.get(p))
               for p in entry.params}
    if entry.seeded:
        checked["seed"] = _seed(params.get("seed"))
    return checked


def adversary_from_spec(spec: dict, instance: Instance,
                        rng: Optional[np.random.Generator] = None) -> Adversary:
    """Build a spec checked by ``parse_adversary`` for an instance: a construction must
    rebuild it (item count compared first), an explicit edge list is validated on it."""
    if spec["kind"] == "nonadaptive":
        rng = rng if spec["seed"] is None else _seed_rng(spec["seed"])
        return build_nonadaptive(instance, spec["policy"], rng)
    if spec["kind"] == "explicit":
        return TournamentGraph.from_edges(instance.n, spec["edges"]).validate_for(instance)
    name, params = spec["name"], spec["params"]
    if name == "pivot-killer":
        return MemoizedStrategy(PivotKiller()) if params["memoized"] else PivotKiller()
    entry = CONSTRUCTION_TABLE[name]
    args = [params[p] for p in entry.params]
    if entry.items(args) == instance.n:
        built, graph = entry.build(args, params.get("seed"))
        if np.array_equal(built.values, instance.values) and built.delta == instance.delta:
            return _valid_pair(instance, graph)[1]
    raise ValueError(f"construction {name} with params {params} does not "
                     "reproduce the supplied instance")
