"""Comparator implementations: frozen tournament graphs, adaptive strategies,
and the named hard constructions, all queried through one session interface.

A non-adaptive adversary is a complete orientation of all index pairs, fixed
before the first query: a dense matrix (``TournamentGraph``) or a rule
evaluated on demand (``RuleTournament``). An adaptive strategy decides each
answer online from the query history (plus an optional pivot hint). Either
way, pairs whose value gap exceeds delta are forced (``Instance.forces``):
the session returns the larger value's index no matter what the adversary
says, and counts the disagreement as a model violation. A graph that passed
``validate_for`` can disagree with none, so its batches are not checked.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Protocol, runtime_checkable

import numpy as np

from .core import (MAX_INSTANCE_SIZE, Instance, InvalidQueryError, PCG64Lanes,
                   QueryLog, RngSeed, as_index, check_choice, check_keys,
                   check_number, forced_winner)

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

    A graph is a strategy that ignores the query history (``decide``) and
    its own batch form (``bulk``), answering ``beats``, ``pivot_round_mask``
    and ``wins_within`` over index arrays. ``validate_for`` remembers the
    last instance it passed, so a session checks a reused graph once.
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

    def bulk(self, instance: Instance) -> Optional["TournamentGraph"]:
        """Itself when valid for ``instance``; None when it breaks a forced
        pair, so a session asks it pair by pair and counts each violation."""
        if instance.n != self.n:
            raise ValueError("graph size does not match instance")
        try:
            return self if self._checked is instance else self.validate_for(instance)
        except ValueError:
            return None

    def pivot_round_mask(self, items, pivot):
        """Which of ``items`` beat ``pivot`` (a fresh array)."""
        return self.beats(items, pivot)

    def wins_within(self, items: np.ndarray) -> np.ndarray:
        """Wins of each of ``items`` against the others. The items are
        distinct, as ``algorithms._resolve`` guarantees a session's are."""
        wins = np.empty(len(items), dtype=np.int64)
        for lo, block in self._blocks(items, items):
            wins[lo:lo + len(block)] = block.sum(axis=1)
        return wins

    def out_degrees(self) -> np.ndarray:
        return self.wins_within(np.arange(self.n))

    def order_key(self) -> Optional[np.ndarray]:
        """Int64 keys, a permutation of 0..n-1 with ``key[a] > key[b]``
        exactly when a beats b, when the graph is shown to be an order;
        else None, as here. The keys rank ``beats``: what a session's
        ``duel`` and round-robins ask, and a kept graph's pivot rounds,
        which are its ``beats``. A pivot round answered otherwise
        (``_PivotKillerRule``) never reads them."""
        return None

    def _blocks(self, rows: np.ndarray, cols: np.ndarray):
        """(first row, beats over rows x cols) for blocks of rows, so no
        temporary exceeds _BLOCK_CELLS pairs."""
        step = max(1, _BLOCK_CELLS // max(len(cols), 1))
        for lo in range(0, len(rows), step):
            yield lo, self.beats(rows[lo:lo + step, None], cols[None, :])

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
        pairs = 0
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
            if matrix[i, j] or matrix[j, i]:
                raise ValueError(f"pair ({i}, {j}) specified twice")
            matrix[w, i if w == j else j] = True
            pairs += 1
        if pairs != n * (n - 1) // 2:
            raise ValueError("edge list must cover every unordered pair")
        return cls(matrix, check=False)

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
    session overrides wrong answers anyway. The log's ``left``, ``right``
    and ``winner`` columns hold the answers so far, in order: the last
    winner is ``log.winner[-1]``, read in O(1).

    A strategy that never reads the log may also offer ``bulk(instance)``:
    an object answering ``pivot_round_mask``, ``beats`` and ``wins_within``
    (as ``TournamentGraph`` does) exactly as ``decide`` would answer the
    batch's pairs one by one, in order, with the pivot round's pivot as the
    hint; or None when it cannot. Its answers must obey every forced pair,
    since a session asks it instead of ``decide`` and checks none of them.
    Graphs implement it too: a graph's ``bulk`` is itself, if valid.
    """

    def decide(self, instance: Instance, i: int, j: int, log: QueryLog,
               pivot: Optional[int]) -> int: ...


class PivotKiller:
    """Adaptive strategy that declares the pivot it is given the loser of every
    free query it appears in. Free queries not involving the pivot go to the
    lower index; forced queries obey the model."""

    def decide(self, instance, i, j, log, pivot):
        want = forced_winner(instance, i, j)
        if want is not None:
            return want
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

    Single queries (``decide``) and batches (``bulk``) share one memo, the
    int8 square table ``won``: 0 for a pair not yet asked, 1 where the row
    item beat the column item, 2 where it lost, written in both orientations.
    It grows to the largest instance the strategy has seen, within
    ``DENSE_CELL_BUDGET``, so a strategy reused across sessions or instances
    replays every pair it has answered."""

    def __init__(self, strategy):
        self.strategy = strategy
        self.won = np.zeros((0, 0), dtype=np.int8)

    def _table(self, n: int) -> np.ndarray:
        """The table, grown to at least n x n, the old square in its corner."""
        if n > len(self.won):
            check_dense_budget(n, "the memo")
            won = np.zeros((n, n), dtype=np.int8)
            m = len(self.won)
            won[:m, :m] = self.won
            self.won = won
        return self.won

    def decide(self, instance, i, j, log, pivot):
        won = self._table(instance.n)
        stored = won[i, j]
        if stored:
            return i if stored == 1 else j
        winner = self.strategy.decide(instance, i, j, log, pivot)
        # any other answer is the session's to refuse, and is not stored
        if winner == i:
            won[i, j], won[j, i] = 1, 2
        elif winner == j:
            won[i, j], won[j, i] = 2, 1
        return winner

    def bulk(self, instance):
        """The inner strategy's batch form behind the memo; None if the inner
        strategy has none or a stored answer breaks a forced pair of
        ``instance`` (the memo was filled on other values)."""
        inner = getattr(self.strategy, "bulk", None)
        rule = None if inner is None else inner(instance)
        if rule is None:
            return None
        n = instance.n
        if self.won.size:
            # a stored loser forced to beat its winner
            losers, winners = np.nonzero(self.won[:n, :n] == 2)
            if instance.forces(losers, winners).any():
                return None
        self._table(n)
        return _MemoizedBatches(rule, self, instance)


class _MemoizedBatches:
    """A memoized strategy's batch answers: its inner strategy's answers for
    a batch, the stored answer wherever the memo's table has one, written
    back to the table in both orientations. Every batch form answers a pair
    one way, so a pair repeated within a batch gets the same write. The table
    is read from the memo at each batch: a session on a larger instance may
    have grown it since."""

    __slots__ = ("rule", "memo", "instance")

    def __init__(self, rule, memo: MemoizedStrategy, instance: Instance):
        self.rule, self.memo, self.instance = rule, memo, instance

    def _replay(self, a, b, a_wins):
        """Whether a beats b for each pair, once the memo has had its say."""
        won = self.memo.won
        stored = won[a, b]
        if stored.any():
            replayed = stored == 1 + a_wins     # the other answer is stored
            # a stored answer from another instance's session may break a
            # forced pair: the replayed loser, the new winner, is forced to
            # beat it
            if replayed.any() and self.instance.forces(
                    np.where(a_wins, a, b)[replayed],
                    np.where(a_wins, b, a)[replayed]).any():
                raise AdversaryProtocolError(
                    "a memoized answer breaks a forced pair of this instance")
            a_wins = a_wins ^ replayed
        # a stored answer rewrites itself
        won[a, b] = 2 - a_wins
        won[b, a] = 1 + a_wins
        return a_wins

    def pivot_round_mask(self, items, pivot):
        # the column won[items, pivot] and its row; the diagonal cell the
        # pivot's own entry writes goes back to 0
        mask = self._replay(items, pivot, self.rule.pivot_round_mask(items, pivot))
        self.memo.won[pivot, pivot] = 0
        return mask

    def beats(self, a, b):
        return self._replay(a, b, self.rule.beats(a, b))

    def wins_within(self, items):
        return _round_robin_wins(self.beats, items)


def _round_robin_wins(beats, items: np.ndarray, log: Optional[QueryLog] = None):
    """Wins of each of ``items`` from ``beats`` over every pair of them, row
    by row (a before b in ``items``), each pair also logged, in that order, to
    ``log`` if given. Rows go to ``beats`` in blocks of at most _BLOCK_CELLS
    pairs (or one row), so the temporaries stay O(m) for m items: one block
    up to m = 513."""
    m = len(items)
    wins = np.zeros(m, dtype=np.int64)
    step = max(1, _BLOCK_CELLS // max(m - 1, 1))
    for lo in range(0, m - 1, step):
        r = np.arange(lo, min(lo + step, m - 1))
        counts = m - 1 - r
        rows = np.repeat(r, counts)
        # the p-th pair of row r is (r, r + 1 + p)
        cols = np.arange(len(rows)) + np.repeat(r + 1 - (counts.cumsum() - counts),
                                                counts)
        a, b = items[rows], items[cols]
        a_wins = beats(a, b)
        if log is not None:
            log.extend(a, b, np.where(a_wins, a, b))
        wins += np.bincount(np.where(a_wins, rows, cols), minlength=m)
    return wins


class ComparatorSession:
    """Query oracle binding an instance to one adversary.

    Enforces forced outcomes, logs every query, and counts queries. Answers
    from the adversary that disagree with a forced outcome are overridden and
    tallied in ``violations``. Single-owner: not safe for concurrent queries.

    Algorithms ask whole batches (``pivot_round``, ``duel``, ``round_robin``)
    of int64 index arrays, or duel on order keys (``keyed_duel``) when the
    session has them (``order_key``). An adversary with a batch form
    (``bulk``: a valid graph, the pivot-killer, memoized or not) answers a
    batch in one call (see ``comparator_for``); any other is asked one
    ``query`` at a time, in the same order, a pivot round passing its pivot
    as the hint. Both write the same log. ``record=False`` keeps only the
    count, except for an adversary asked pair by pair, whose ``decide`` may
    read the log. A single ``query`` always asks ``decide`` and checks the
    answer's forced pair.
    """

    def __init__(self, instance: Instance, adversary: AdaptiveStrategy,
                 record: bool = True):
        self.instance = instance
        self.adversary = adversary
        self.violations = 0
        self._n = instance.n
        self._bulk = comparator_for(instance, adversary)
        self.log = QueryLog(recording=record or self._bulk is None)

    @property
    def n_items(self) -> int:
        return self._n

    @property
    def queries(self) -> int:
        return self.log.count

    def query(self, i: int, j: int, pivot: Optional[int] = None) -> int:
        """The winner of i and j; ``pivot`` is the hint an adaptive adversary
        sees: the item the current round pivots on, or None. An index is
        an integer: a numpy integer is taken as its Python int."""
        if type(i) is not int or type(j) is not int:
            i, j = as_index(i), as_index(j)
        if i == j:
            raise InvalidQueryError("cannot compare an index with itself")
        if not (0 <= i < self._n and 0 <= j < self._n):
            raise InvalidQueryError(f"indices ({i}, {j}) out of range for n={self._n}")
        answer = self.adversary.decide(self.instance, i, j, self.log, pivot)
        if answer != i and answer != j:
            raise AdversaryProtocolError(
                f"adversary answered {answer} for pair ({i}, {j})")
        want = forced_winner(self.instance, i, j)
        if want is not None and answer != want:
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
        """Compare ``pivot``, as the pivot hint, with every other one of
        ``items`` (which holds it once), in order: the mask of the items that
        beat it, False at the pivot itself."""
        bulk = self._bulk
        if bulk is None:
            return np.array([x != pivot and self.query(pivot, x, pivot) == x
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
        """Compare the pairs (a[k], b[k]) in order: the mask of the pairs
        that a won."""
        bulk = self._bulk
        if bulk is None:
            return self._query_beats(a, b)
        mask = bulk.beats(a, b)
        if self.log.recording:
            self.log.extend(a, b, np.where(mask, a, b))
        else:
            self.log.count += len(a)
        return mask

    def order_key(self) -> Optional[np.ndarray]:
        """The keys of ``TournamentGraph.order_key``, which rank ``duel``'s
        answers, when the session keeps no log and a graph answers its
        batches; else None: a log needs each pair, a memo must see each
        pair, and a strategy asked pair by pair may read the log."""
        if self.log.recording or not isinstance(self._bulk, TournamentGraph):
            return None
        return self._bulk.order_key()

    def keyed_duel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``duel`` on the keys of ``order_key``: each pair's winning key."""
        self.log.count += len(a)
        return np.maximum(a, b)

    def round_robin(self, items: np.ndarray) -> np.ndarray:
        """Compare every pair of ``items`` once, row by row: the wins of each
        item."""
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

    __slots__ = ("instance", "policy", "coin", "_key")

    def __init__(self, instance: Instance, policy: str,
                 coin: Optional[np.ndarray] = None):
        super().__init__(instance.n)
        if (policy == "random") != (coin is not None):
            raise ValueError("the random policy and only it takes a coin array")
        self.instance, self.policy, self.coin = instance, policy, coin
        self._checked = instance  # valid by construction
        self._key = _UNSOUGHT

    def order_key(self) -> Optional[np.ndarray]:
        """The keys of an order, ranking ``beats`` (see
        ``TournamentGraph.order_key``), sought once: larger-wins is always
        one, ranked by (value desc, index asc). Smaller-wins and
        lower-index-wins are one when no pair is forced,
        ``fl(max - min) <= delta``, in the policy's own order: (value asc,
        index asc) and the index. They are one too when every two distinct
        values are forced, each gap between neighbouring sorted distinct
        values above delta: value order, ties to the lower index. ``random``
        never is. ``wins_within`` makes the same test on a round-robin's
        items alone.

        Exact under rounding: the values are finite and rounded subtraction
        is monotone, so ``fl(max - min)`` bounds every ``fl(v_a - v_b)``
        ``beats`` computes, and the gap between neighbouring distinct values
        bounds every larger gap from below."""
        if self._key is _UNSOUGHT:
            self._key = _policy_order(self.policy, self.instance.values,
                                      self.instance.delta)
        return self._key

    def beats(self, a, b):
        values, delta = self.instance.values, self.instance.delta
        # Instance.forces, inline and fused with the policy
        with np.errstate(over="ignore"):
            d = values[a] - values[b]
        if self.policy == "larger-wins":
            # ties go to the lower index; every gap above zero is a win
            return (d > 0) | ((d == 0) & (a < b))
        if self.policy == "smaller-wins":
            pref = (d < 0) | ((d == 0) & (a < b))
        elif self.policy == "lower-index-wins":
            pref = a < b
        else:   # a's coin; an item never beats itself
            coin = self.coin[np.minimum(a, b), np.maximum(a, b)]
            pref = (coin ^ (a > b)) & (a != b)
        # a free win needs d <= 0 under smaller-wins, and is moot for d > delta
        return (d > delta) | ((d >= -delta) & pref)

    def wins_within(self, items):
        """The items' ranks when their own values make them an order
        (``_policy_order``): an item then beats exactly the items below it,
        in O(m log m). Else, and always for ``random``, the grid."""
        if len(items) < 2:      # no pair
            return np.zeros(len(items), dtype=np.int64)
        ranked = np.sort(items)
        key = _policy_order(self.policy, self.instance.values[ranked],
                            self.instance.delta)
        if key is None:
            return super().wins_within(items)
        return key[np.searchsorted(ranked, items)]


_UNSOUGHT = object()    # an order key not looked for yet


def _top_first(order: np.ndarray) -> np.ndarray:
    """Keys ranking ``order[0]`` highest and ``order[-1]`` lowest."""
    key = np.empty(len(order), dtype=np.int64)
    key[order] = np.arange(len(order) - 1, -1, -1)
    return key


def _policy_order(policy: str, values: np.ndarray,
                  delta: float) -> Optional[np.ndarray]:
    """The keys of ``PolicyTournament.order_key`` for ``policy`` on
    ``values`` at ``delta``, indexed by position in ``values``; None when
    the policy's graph on them is no order."""
    if policy == "random":
        return None
    if policy != "larger-wins":
        with np.errstate(over="ignore"):
            free = values.max() - values.min() <= delta
        if free:    # the policy's own order
            if policy == "lower-index-wins":
                return np.arange(len(values) - 1, -1, -1)
            return _top_first(np.argsort(values, kind="stable"))
    # value order, ties to the lower index
    order = np.argsort(-values, kind="stable")
    if policy != "larger-wins":
        ranked = values[order]
        with np.errstate(over="ignore"):
            gaps = ranked[:-1] - ranked[1:]
        if ((gaps > 0) & (gaps <= delta)).any():
            return None     # a free pair of distinct values
    return _top_first(order)


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
    # rng.integers(0, 2, n * n, uint8) from the little-endian bytes of
    # full-range uint32s: numpy's bounded draw takes each coin from the next
    # byte of a uint32 (Lemire's method, whose threshold is 0 for a range of
    # 2) as (byte * 2) >> 8, the byte's top bit
    words = _seed_rng(rng).integers(0, 2 ** 32, size=-(-n * n // 4),
                                    dtype=np.uint32)
    coin = words.astype("<u4", copy=False).view(np.uint8)[:n * n]
    np.right_shift(coin, 7, out=coin)
    return PolicyTournament(instance, policy, coin.reshape(n, n).view(bool))


class _PivotKillerRule(PolicyTournament):
    """``PivotKiller``'s answers in closed form: in a pivot round every item
    that is not forced to lose beats the pivot; other free pairs go to the
    lower index. Its ``order_key`` ranks those other pairs, ``beats``, as
    lower-index-wins does; its pivot rounds answer otherwise and never use
    the key."""

    __slots__ = ()

    def __init__(self, instance: Instance):
        super().__init__(instance, "lower-index-wins")

    def pivot_round_mask(self, items, pivot):
        return ~self.instance.forces(pivot, items) & (items != pivot)


def comparator_for(instance: Instance, adversary):
    """What answers a session's batches in one call: the adversary's
    ``bulk(instance)``, or None when it has none or declines (a graph that
    would need its violations counted), so every query is asked alone."""
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
    size g. ``table[x, y]`` says whether group x beats group y, and is False
    on its diagonal; inside a group the near-regular tournament on the g
    within-group offsets decides.
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

    def wins_within(self, items):
        """Counted in O(m log m): each item's wins inside its group, from
        the present offsets in its near-regular window, plus its group's
        ``table`` row times the items present in each other group."""
        g = self._g
        offset = items if self._offset is None else self._offset[items]
        group = np.zeros_like(offset) if self._group is None else self._group[items]
        start = group * g
        keys = np.sort(start + offset)
        present = np.bincount(group, minlength=1 if self._table is None
                              else len(self._table))

        def below(t):
            """Present items of each one's group at offsets below t < 2g,
            the group's offsets run through twice, up to a shift per group."""
            return (t >= g) * present[group] + np.searchsorted(keys, start + t % g)

        # the window of offset o: o+1 .. o+(g-1)//2 cyclically, and for even
        # g the antipode o + g/2 when o < g/2 (see _near_regular_beats)
        end = offset + 1 + (g - 1) // 2 + ((g % 2 == 0) & (offset < g // 2))
        wins = below(end) - below(offset + 1)
        if self._table is not None:
            wins += self._table[group] @ present
        return wins


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
    values = _lemma_one_values(n, _seed_rng(seed).integers(n))
    return _valid_pair(Instance(values), ConstructionTournament((n,)))


def _lemma_one_values(n: int, top) -> np.ndarray:
    """lemma1's values: all 0 but a 1 at index ``top``, one row per entry
    when ``top`` is an array."""
    top = np.asarray(top)
    values = np.zeros((*top.shape, n))
    np.put_along_axis(values, top[..., None], 1.0, axis=-1)
    return values


def _lemma_one_lanes(n: int, lanes: PCG64Lanes) -> np.ndarray:
    """``lemma_one_construction``'s values on each lane of ``lanes``, one row
    per lane, from the same one ``integers(n)`` draw. Its graph is the same
    for every draw."""
    return _lemma_one_values(n, lanes.integers(np.arange(len(lanes)),
                                               np.full(len(lanes), n)))


def lemma_two_construction(n: int, seed=None) -> tuple[Instance, ConstructionTournament]:
    """Regular tournament over a hidden permutation of (2, 1^m, 0^m) in which
    the 2 loses to every 1, m = (n-1)/2.

    Built on a cycle ordered (2, 0^m, 1^m) so the circulant's forced edges
    (2 over every 0) land correctly and every 1 has the 2 in its out-fan,
    then relabeled by a seeded permutation.
    """
    perm = _seed_rng(seed).permutation(_require_odd(n))
    return _valid_pair(Instance(_lemma_two_values(n, perm)),
                       ConstructionTournament((n,), perm))


def _lemma_two_values(n: int, perm) -> np.ndarray:
    """lemma2's values under ``perm``: canonical position p becomes index
    perm[p]."""
    m = (_require_odd(n) - 1) // 2
    return _permuted(np.concatenate(([2.0], np.zeros(m), np.ones(m))), perm)


def _permuted(canon: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Values with ``canon[p]`` at index ``perm[p]``."""
    values = np.empty(len(perm))
    values[perm] = canon
    return values


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
    g = _komod_groups(n)
    perm = _seed_rng(seed).permutation(n)
    return _valid_pair(Instance(_komod_values(n, perm)),
                       ConstructionTournament((1, g, g, g, 1), perm, _KOMOD_GROUPS))


def _komod_groups(n: int) -> int:
    """The size g = (n - 2) / 3 of komod-hard's groups of 2s, 1s and 0s."""
    if n < 5 or (n - 2) % 3 != 0:
        raise ValueError(f"need n - 2 divisible by 3 and n >= 5, got {n}")
    return (n - 2) // 3


def _komod_values(n: int, perm) -> np.ndarray:
    """komod-hard's values under ``perm``, as ``_lemma_two_values``."""
    g = _komod_groups(n)
    # canonical order: [3] [2]*g [1]*g [0]*g [0*]
    return _permuted(np.concatenate(([3.0], np.full(g, 2.0), np.ones(g),
                                     np.zeros(g), [0.0])), perm)


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
    follows them, ``size``, the item count of the params (default: the first),
    and ``lanes``, for a seeded builder whose graph, if it builds one, is the
    same for every draw of its values (it carries no drawn permutation): its
    values drawn on each lane of a ``PCG64Lanes`` from the params, one row
    per lane, as the builder draws them on a generator."""

    builder: Callable
    params: tuple[str, ...]
    seeded: bool
    size: Optional[Callable[..., int]] = None
    lanes: Optional[Callable[..., np.ndarray]] = None

    def items(self, args) -> int:
        return self.size(*args) if self.size else args[0]

    def build(self, args, seed=None):
        return self.builder(*args, seed) if self.seeded else self.builder(*args)


# name -> what a {"kind": "construction"} spec builds from its "params" (and an optional
# "seed" when seeded). "pivot-killer" is adaptive: its one param is the flag "memoized".
CONSTRUCTION_TABLE = {
    "lemma1": Construction(lemma_one_construction, ("n",), True,
                           lanes=_lemma_one_lanes),
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
                   "params": _construction_params(name, spec.get("params", {}))}
    check_keys(f"{kind} adversary spec", spec, checked)
    return checked


def _construction_params(name, params) -> dict:
    if not isinstance(params, dict):
        raise ValueError("construction 'params' must be an object")
    if name is None:
        if params:
            raise ValueError("the nameless construction (the instance's own "
                             f"graph) takes no params, got {next(iter(params))!r}")
        return {}
    if name == "pivot-killer":
        check_keys(f"{name} params", params, ("memoized",))
        memoized = params.get("memoized", False)
        if not isinstance(memoized, bool):
            raise ValueError(f"{name} param 'memoized' must be true or false, "
                             f"got {memoized!r}")
        return {"memoized": memoized}
    entry = CONSTRUCTION_TABLE[check_choice(
        "construction", name, (*CONSTRUCTION_TABLE, "pivot-killer"))]
    check_keys(f"{name} params", params, entry.params + ("seed",) * entry.seeded)
    checked = {p: check_number(f"{name} param {p!r}", params.get(p))
               for p in entry.params}
    if entry.seeded:
        checked["seed"] = _seed(params.get("seed"))
    return checked


def adversary_from_spec(spec: dict, instance: Instance,
                        rng: Optional[np.random.Generator] = None,
                        graph: Optional[TournamentGraph] = None) -> AdaptiveStrategy:
    """Build a spec checked by ``parse_adversary`` for an instance: a construction must
    rebuild it (item count compared first), an explicit edge list is validated on it,
    and a nameless construction is ``graph``, the one that came with the instance."""
    if spec["kind"] == "nonadaptive":
        rng = rng if spec["seed"] is None else _seed_rng(spec["seed"])
        return build_nonadaptive(instance, spec["policy"], rng)
    if spec["kind"] == "explicit":
        return TournamentGraph.from_edges(instance.n, spec["edges"]).validate_for(instance)
    name, params = spec["name"], spec["params"]
    if name is None:
        if graph is None:
            raise ValueError("adversary 'construction' needs a construction instance")
        return graph
    if name == "pivot-killer":
        return MemoizedStrategy(PivotKiller()) if params["memoized"] else PivotKiller()
    entry = CONSTRUCTION_TABLE[name]
    args = [params[p] for p in entry.params]
    if entry.items(args) == instance.n:
        built, rebuilt = entry.build(args, params.get("seed"))
        if np.array_equal(built.values, instance.values) and built.delta == instance.delta:
            return _valid_pair(instance, rebuilt)[1]
    raise ValueError(f"construction {name} with params {params} does not "
                     "reproduce the supplied instance")
