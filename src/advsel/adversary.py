"""Comparator implementations: frozen tournament graphs, adaptive strategies,
and the named hard constructions, all queried through one session interface.

A non-adaptive adversary is a complete orientation of all index pairs, fixed
before the first query: a dense matrix (``TournamentGraph``) or a rule
evaluated on demand (``RuleTournament``). An adaptive strategy decides each
answer online from the query history (plus an optional pivot hint). Either
way, pairs whose value gap exceeds delta are forced: the session returns the
larger value's index no matter what the adversary says, and counts the
disagreement as a model violation.
"""

from __future__ import annotations

from typing import Optional, Protocol, Union, runtime_checkable

import numpy as np

from .core import (Instance, InvalidQueryError, QueryBatches, QueryLog, RngSeed,
                   check_number)

__all__ = [
    "TournamentGraph",
    "RuleTournament",
    "PolicyTournament",
    "KomodTournament",
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
    "adversary_from_spec",
    "DENSE_CELL_BUDGET",
    "fits_dense_budget",
    "check_dense_budget",
]

NONADAPTIVE_POLICIES = ("larger-wins", "smaller-wins", "lower-index-wins", "random")

# Dense-matrix graphs get unwieldy past this size.
MAX_CONSTRUCTION_SIZE = 4096

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

    A graph answers whole batches: ``beats`` over index arrays, the
    ``pivot_round_mask`` of a pivot round and the ``wins_within`` of a
    round-robin. ``validate_for`` remembers the last instance it passed,
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

    def pivot_round_mask(self, items, pivot):
        """Which of ``items`` beat ``pivot`` (a fresh array)."""
        return self.matrix[items, pivot]

    def wins_within(self, items: np.ndarray) -> np.ndarray:
        """Wins of each of ``items`` against the others."""
        return self.matrix[np.ix_(items, items)].sum(axis=1)

    def out_degrees(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def validate_for(self, instance: Instance) -> "TournamentGraph":
        """Raise ValueError unless every pair with a value gap above delta is
        oriented toward the larger value."""
        if instance.n != self.n:
            raise ValueError(f"graph has {self.n} nodes, instance has {instance.n}")
        diff = instance.values_array[:, None] - instance.values_array[None, :]
        bad = np.argwhere((diff > instance.delta) & ~self.dense().matrix)
        if len(bad):
            i, j = bad[0]
            raise ValueError(
                f"forced pair misoriented: {j} beats {i} but value gap "
                f"{instance.values[int(i)] - instance.values[int(j)]:g} > delta"
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

    A rule is also a strategy that ignores the query history, so a session
    can ask it pair by pair through ``decide`` when a dense matrix would not
    fit the budget.
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

    def pivot_round_mask(self, items, pivot):
        return self.beats(items, pivot)

    def _beats_grid(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """beats over the grid rows x cols."""
        return self.beats(rows[:, None], cols[None, :])

    def _blocks(self, rows: np.ndarray, cols: np.ndarray):
        """(first row, beats over rows x cols) for blocks of rows, so no
        temporary exceeds _BLOCK_CELLS pairs."""
        step = max(1, _BLOCK_CELLS // max(len(cols), 1))
        for lo in range(0, len(rows), step):
            yield lo, self._beats_grid(rows[lo:lo + step], cols)

    def wins_within(self, items: np.ndarray) -> np.ndarray:
        """Wins of each of ``items`` against the others."""
        wins = np.empty(len(items), dtype=np.int64)
        for lo, block in self._blocks(items, items):
            wins[lo:lo + len(block)] = block.sum(axis=1)
        return wins

    def out_degrees(self) -> np.ndarray:
        return self.wins_within(np.arange(self._n))

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

    def decide(self, instance, i, j, log, pivot):
        return self.winner(i, j)


@runtime_checkable
class AdaptiveStrategy(Protocol):
    """Decision rule of an adaptive adversary.

    ``decide`` sees the instance, the queried pair, the full log so far, and
    the pivot hint (the index the current round is pivoting on, or None).
    It must return one of the two queried indices; on forced pairs the
    session overrides wrong answers anyway.
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
        gap = values[i] - values[j]
        if gap > instance.delta or -gap > instance.delta:
            return i if gap > 0 else j
        if pivot == i:
            return j
        if pivot == j:
            return i
        return min(i, j)


class MemoizedStrategy:
    """Wrapper forcing an adaptive strategy to stay self-consistent: the first
    answer for each unordered pair is replayed on repeat queries."""

    def __init__(self, strategy):
        self.strategy = strategy
        self._memo: dict[tuple[int, int], int] = {}

    def decide(self, instance, i, j, log, pivot):
        key = (i, j) if i < j else (j, i)
        if key in self._memo:
            return self._memo[key]
        w = self.strategy.decide(instance, i, j, log, pivot)
        self._memo[key] = w
        return w


Adversary = Union[TournamentGraph, AdaptiveStrategy]


class ComparatorSession(QueryBatches):
    """Query oracle binding an instance to one adversary.

    Enforces forced outcomes, logs every query, and counts queries. Answers
    from the adversary that disagree with a forced outcome are overridden and
    tallied in ``violations``. Single-owner: not safe for concurrent queries.

    Algorithms ask whole batches (``pivot_round``, ``duel``, ``round_robin``).
    A valid graph and the pivot-killer answer a batch in one vectorized call
    (see ``comparator_for``); any other adversary is asked pair by pair, with
    the pivot hint, in the same order. Both write the same log.
    """

    def __init__(self, instance: Instance, adversary: Adversary, record: bool = True):
        self.instance = instance
        self.adversary = adversary
        self.log = QueryLog(recording=record)
        self.violations = 0
        self._pivot: Optional[int] = None
        self._values = instance.values
        self._delta = instance.delta
        self._n = instance.n
        self._matrix = None
        if isinstance(adversary, TournamentGraph):
            if adversary.n != instance.n:
                raise ValueError("graph size does not match instance")
            # a rule has no matrix: single queries go through decide()
            self._matrix = getattr(adversary, "matrix", None)
        self._bulk = comparator_for(instance, adversary)

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
        vi, vj = self._values[i], self._values[j]
        gap = vi - vj
        if gap > self._delta or -gap > self._delta:
            want = i if gap > 0 else j
            if answer != want:
                self.violations += 1
                answer = want
        self.log.append(i, j, answer)
        return answer

    # Batches answered in one call. The answers need no forced-pair check:
    # comparator_for hands out only adversaries that never violate the model.

    def pivot_round(self, pivot: int, items: np.ndarray) -> np.ndarray:
        bulk = self._bulk
        if bulk is None:
            return super().pivot_round(pivot, items)
        self._pivot = pivot
        mask = bulk.pivot_round_mask(items, pivot)
        if self.log.recording:
            others = items != pivot
            rivals = items[others]
            self.log.extend(pivot, rivals, np.where(mask[others], rivals, pivot))
        else:
            self.log.count += len(items) - 1
        return mask

    def duel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        bulk = self._bulk
        if bulk is None:
            return super().duel(a, b)
        self._pivot = None
        mask = bulk.beats(a, b)
        if self.log.recording:
            self.log.extend(a, b, np.where(mask, a, b))
        else:
            self.log.count += len(a)
        return mask

    def round_robin(self, items: np.ndarray) -> np.ndarray:
        bulk = self._bulk
        if bulk is None:
            return super().round_robin(items)
        self._pivot = None
        m = len(items)
        if self.log.recording:
            rows, cols = np.triu_indices(m, 1)
            a, b = items[rows], items[cols]
            self.log.extend(a, b, np.where(bulk.beats(a, b), a, b))
        else:
            self.log.count += m * (m - 1) // 2
        return bulk.wins_within(items)


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
        self._values = instance.values_array
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


def build_nonadaptive(instance: Instance, free_edge_policy: str,
                      rng=None) -> PolicyTournament:
    """Complete, valid, frozen graph with free pairs oriented per policy.

    Policies: ``larger-wins`` / ``smaller-wins`` (value ties go to the lower
    index), ``lower-index-wins``, and ``random`` (every free pair gets an
    independent fair coin, drawn eagerly so the graph is fixed before any
    query). ``smaller-wins`` realizes the min-on-ties adversary. ``rng`` may
    be a Generator, an RngSeed, or a plain seed; only ``random`` uses it.
    The graph is a rule on the values; only ``random`` stores n x n coins.
    """
    policy = "random" if free_edge_policy == "seeded-random" else free_edge_policy
    if policy not in NONADAPTIVE_POLICIES:
        raise ValueError(f"unknown policy {free_edge_policy!r}")
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
        values = self._values
        return (values[items] >= values[pivot] - self._delta) & (items != pivot)


def comparator_for(instance: Instance, adversary):
    """What answers a session's batches in one call: the adversary itself if
    it is a graph valid for ``instance``, the closed form of ``PivotKiller``,
    or None, when every query must be asked pair by pair (a strategy that
    reads the log, or a graph that would need its violations counted)."""
    if isinstance(adversary, TournamentGraph):
        if adversary._checked is not instance:
            try:
                adversary.validate_for(instance)
            except ValueError:
                return None
        return adversary
    if isinstance(adversary, PivotKiller):
        return _PivotKillerRule(instance)
    return None


def _near_regular_beats(a, b, g: int):
    """Whether position a beats b in the tournament on ``g`` cyclic
    positions with out-degrees as equal as possible: a beats a+1 ..
    a+floor((g-1)/2), and for even g the antipodal pair goes to the lower
    position."""
    dist = (b - a) % g
    beats = (dist >= 1) & (dist <= (g - 1) // 2)
    if g % 2 == 0:
        beats |= (dist == g // 2) & (a < g // 2)
    return beats


def _near_regular(g: int) -> np.ndarray:
    check_dense_budget(g, "a regular tournament")
    pos = np.arange(g)
    return _near_regular_beats(pos[:, None], pos[None, :], g)


def _require_odd(n: int) -> int:
    n = check_number("n", n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"construction needs odd n >= 3, got {n}")
    if n > MAX_CONSTRUCTION_SIZE:
        raise ValueError(f"n={n} exceeds construction size cap {MAX_CONSTRUCTION_SIZE}")
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


def lemma_one_construction(n: int, seed=None) -> tuple[Instance, TournamentGraph]:
    """Regular tournament over a hidden permutation of (1, 0, ..., 0).

    Every index beats the next (n-1)/2 indices cyclically, so all out-degrees
    equal (n-1)/2; with all gaps <= 1 every orientation is legal, and no
    algorithm can tell the single 1 apart from the 0s.
    """
    n = _require_odd(n)
    rng = _seed_rng(seed)
    values = np.zeros(n)
    values[int(rng.integers(n))] = 1.0
    return _valid_pair(Instance(tuple(values)),
                       TournamentGraph(_near_regular(n), check=False))


def lemma_two_construction(n: int, seed=None) -> tuple[Instance, TournamentGraph]:
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
    canon = _near_regular(n)
    perm = rng.permutation(n)  # canonical position p becomes index perm[p]
    matrix = np.zeros((n, n), dtype=bool)
    matrix[np.ix_(perm, perm)] = canon
    values = np.empty(n)
    values[perm] = canon_values
    return _valid_pair(Instance(tuple(values)), TournamentGraph(matrix, check=False))


def sequential_hard_instance(r: int, s: int) -> tuple[Instance, PolicyTournament]:
    """Layered instance of n = r^s values (one s, then r^(s-m) - r^(s-m-1)
    copies of each m < s) paired with the min-on-ties adversary, on which
    sequential selection almost always walks down to a 0."""
    r, s = check_number("r", r), check_number("s", s)
    if r < 2 or s < 1:
        raise ValueError("need r >= 2 and s >= 1")
    # r^s >= 2^s, so a large s is rejected before the power is taken
    if s >= MAX_CONSTRUCTION_SIZE.bit_length() or r ** s > MAX_CONSTRUCTION_SIZE:
        raise ValueError(f"{r}^{s} exceeds construction size cap {MAX_CONSTRUCTION_SIZE}")
    n = r ** s
    values = np.empty(n)
    values[0] = s
    for m in range(s - 1, -1, -1):
        values[r ** (s - m - 1): r ** (s - m)] = m
    inst = Instance(tuple(values))
    return inst, build_nonadaptive(inst, "smaller-wins")


def komod_hard_instance(n: int, seed=None) -> tuple[Instance, "KomodTournament"]:
    """Hidden permutation of {3, 2^g, 1^g, 0^g, 0*} (g = (n-2)/3) with the
    orientation that defeats the modified knock-out's 3-approximation:
    all 2s and all plain 0s lose to all 1s, 3 loses to all 2s, and the
    distinguished 0* beats every 1 and every plain 0.

    Ties inside each equal-value group are a near-regular tournament rather
    than lower-index-wins: a single dominant 1 would otherwise out-win 0* in
    the final round-robin and the construction would lose its teeth.
    """
    n = check_number("n", n)
    if n < 5 or (n - 2) % 3 != 0:
        raise ValueError(f"need n - 2 divisible by 3 and n >= 5, got {n}")
    if n > MAX_CONSTRUCTION_SIZE:
        raise ValueError(f"n={n} exceeds construction size cap {MAX_CONSTRUCTION_SIZE}")
    rng = _seed_rng(seed)
    g = (n - 2) // 3
    # canonical order: [3] [2]*g [1]*g [0]*g [0*]
    canon_values = np.concatenate(([3.0], np.full(g, 2.0), np.ones(g), np.zeros(g), [0.0]))
    perm = rng.permutation(n)  # canonical position p becomes index perm[p]
    values = np.empty(n)
    values[perm] = canon_values
    return _valid_pair(Instance(tuple(values)), KomodTournament(perm))


# Who beats whom between komod-hard's value groups, in canonical order
# 3, 2s, 1s, plain 0s, 0* (row beats column).
_KOMOD_GROUPS = np.array([
    [0, 0, 1, 1, 1],    # 3 loses to every 2 (free), beats the rest (forced)
    [1, 0, 0, 1, 1],    # 2s lose to every 1 (free)
    [0, 1, 0, 1, 0],    # 1s beat every plain 0 (free), lose to 0* (free)
    [0, 0, 0, 0, 0],    # plain 0s lose every pair across groups
    [0, 0, 1, 1, 0],    # 0* beats every 1 and every plain 0 (free)
], dtype=bool)


class KomodTournament(RuleTournament):
    """komod-hard's orientation as a block rule under its hidden permutation:
    ``_KOMOD_GROUPS`` across groups, the near-regular tournament on the
    within-group offsets inside the 2s, the 1s and the plain 0s."""

    __slots__ = ("_group", "_offset", "_g")

    def __init__(self, perm: np.ndarray):
        n = len(perm)
        super().__init__(n)
        self._g = (n - 2) // 3
        pos = np.empty(n, dtype=np.int64)
        pos[perm] = np.arange(n)
        # positions 0, 1..g, g+1..2g, 2g+1..3g, 3g+1 are groups 0..4
        self._group = 1 + (pos - 1) // self._g
        self._offset = (pos - 1) % self._g

    def beats(self, a, b):
        ga, gb = self._group[a], self._group[b]
        inside = _near_regular_beats(self._offset[a], self._offset[b], self._g)
        return np.where(ga == gb, inside, _KOMOD_GROUPS[ga, gb])


CONSTRUCTIONS = ("lemma1", "lemma2", "seq-hard", "komod-hard", "pivot-killer")


def adversary_from_spec(spec: dict, instance: Instance,
                        rng: Optional[np.random.Generator] = None) -> Adversary:
    """Resolve an adversary spec (the JSON wire format) against an instance.

    Construction graphs are rebuilt from their params and must reproduce the
    given instance's values; explicit edge lists are validated against it.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("adversary spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "nonadaptive":
        policy = spec.get("policy", "random")
        if "seed" in spec and spec["seed"] is not None:
            rng = _seed_rng(spec["seed"])
        if policy in ("random", "seeded-random") and rng is None:
            raise ValueError("random policy needs a 'seed' in the spec or a generator")
        return build_nonadaptive(instance, policy, rng)
    if kind == "construction":
        name = spec.get("name")
        params = spec.get("params", {}) or {}
        if not isinstance(params, dict):
            raise ValueError("construction 'params' must be an object")
        if name == "pivot-killer":
            strategy: Adversary = PivotKiller()
            if params.get("memoized"):
                strategy = MemoizedStrategy(strategy)
            return strategy
        if name not in CONSTRUCTIONS:
            raise ValueError(f"unknown construction {name!r}")
        built_inst, graph = build_construction(name, params)
        if built_inst.values != instance.values or built_inst.delta != instance.delta:
            raise ValueError(
                f"construction {name} with params {params} does not reproduce "
                "the supplied instance")
        return _valid_pair(instance, graph)[1]
    if kind == "explicit":
        if not isinstance(spec.get("edges"), list):
            raise ValueError("explicit spec needs an 'edges' list of [i, j, winner]")
        graph = TournamentGraph.from_edges(instance.n, spec["edges"])
        return graph.validate_for(instance)
    raise ValueError(f"unknown adversary kind {kind!r}")


def build_construction(name: str, params: dict) -> tuple[Instance, TournamentGraph]:
    """Instantiate a named hard construction from its JSON params."""
    if name == "lemma1":
        return lemma_one_construction(params["n"], params.get("seed"))
    if name == "lemma2":
        return lemma_two_construction(params["n"], params.get("seed"))
    if name == "seq-hard":
        return sequential_hard_instance(params["r"], params["s"])
    if name == "komod-hard":
        return komod_hard_instance(params["n"], params.get("seed"))
    raise ValueError(f"unknown construction {name!r}")
