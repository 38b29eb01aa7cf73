"""Hypothesis selection for density estimation: the two-candidate Scheffe
test, the quadratic round-robin tournament, and the linear quick-select
composition.

The pairwise test is deterministic given the sample set, so a fixed sample
set induces a fixed tournament over the candidates, ``ScheffeTournament``: a
rule asked through the one ``ComparatorSession``, so quick-select runs against
it exactly as against a non-adaptive comparator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .adversary import ComparatorSession, RuleTournament, _round_robin_wins
from .algorithms import complete_tournament, quick_select
from .core import (MAX_INSTANCE_SIZE, Instance, check_keys, check_number,
                   check_numbers)

__all__ = [
    "DiscreteDistribution",
    "SampleSet",
    "ScheffeOutcome",
    "ScheffeSelection",
    "l1_distance",
    "sample",
    "scheffe_test",
    "ScheffeTournament",
    "scheffe_tournament",
    "scheffe_quickselect",
    "planted_suite",
    "candidates_to_json",
    "candidates_from_json",
]

_SUM_TOL = 1e-9
_OUTSIDE_SUPPORT = "sample index outside the candidates' support"


class DiscreteDistribution:
    """Probability vector over a finite support 0..m-1."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        try:
            arr = np.asarray(probs, dtype=np.float64)
        except (TypeError, OverflowError):
            raise ValueError("probs must be a sequence of numbers") from None
        if arr.ndim != 1 or len(arr) < 1:
            raise ValueError("probs must be a nonempty 1-d sequence")
        if (arr < 0).any():
            raise ValueError("probabilities must be non-negative")
        total = float(arr.sum())
        if not abs(total - 1.0) <= _SUM_TOL:   # a NaN sum fails too
            raise ValueError(f"probabilities sum to {total}, not 1")
        arr = arr.copy()
        arr.flags.writeable = False
        self.probs = arr

    @property
    def support_size(self) -> int:
        return len(self.probs)

    def __eq__(self, other):
        return isinstance(other, DiscreteDistribution) and np.array_equal(self.probs, other.probs)

    def __repr__(self):
        return f"DiscreteDistribution({self.probs.tolist()})"


@dataclass(frozen=True)
class SampleSet:
    """Record of k i.i.d. draws, stored as support indices."""

    samples: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.int64))
        if len(self.samples) != self.k:
            raise ValueError("k must equal the number of samples")

    @cached_property
    def counts(self) -> np.ndarray:
        """How many samples fell on each index 0..max: built once, O(k)."""
        if self.k and self.samples.min() < 0:
            raise ValueError(_OUTSIDE_SUPPORT)
        return np.bincount(self.samples)


class ScheffeOutcome(NamedTuple):
    """Result of one pairwise test; ``winner`` is 0 for the first argument,
    1 for the second."""

    winner: int
    set_mass_1: float
    set_mass_2: float
    empirical_mass: float


@dataclass(frozen=True)
class ScheffeSelection:
    winner: int   # index into the candidate list
    tests: int    # number of pairwise Scheffe tests performed


def _check_support(p: DiscreteDistribution, q: DiscreteDistribution):
    a, b = len(p.probs), len(q.probs)
    if a != b:
        raise ValueError(f"support sizes differ: {sorted((a, b))}")


def l1_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    _check_support(p, q)
    return float(np.abs(p.probs - q.probs).sum())


def sample(p: DiscreteDistribution, k: int, rng: np.random.Generator) -> SampleSet:
    """k <= MAX_INSTANCE_SIZE i.i.d. draws by inverse CDF over the support order."""
    if not 0 <= k <= MAX_INSTANCE_SIZE:
        raise ValueError(f"k must be between 0 and {MAX_INSTANCE_SIZE}, got {k}")
    cdf = np.cumsum(p.probs)
    u = rng.random(k)
    idx = np.searchsorted(cdf, u, side="right")
    return SampleSet(np.minimum(idx, p.support_size - 1), k)


def _sample_counts(samples: SampleSet, support_size: int) -> np.ndarray:
    """The samples' histogram, checked against a support of m atoms; it may
    be shorter than m, up to the largest sample index."""
    counts = samples.counts
    if len(counts) > support_size:
        raise ValueError(_OUTSIDE_SUPPORT)
    return counts


def scheffe_test(p1: DiscreteDistribution, p2: DiscreteDistribution,
                 samples: SampleSet) -> ScheffeOutcome:
    """Compare two candidates on the witness set S = {x : p1(x) > p2(x)}:
    whichever assigns S a mass closer to the empirical frequency wins,
    with ties going to the first argument.

    The empirical mass is read from the sample set's histogram, built at its
    first test, so a test costs O(m) for a support of m atoms, not O(k): one
    comparison, two masked sums and one integer dot.
    """
    _check_support(p1, p2)
    probs1, probs2 = p1.probs, p2.probs
    counts = _sample_counts(samples, len(probs1))
    s_set = probs1 > probs2
    # np.add.reduce is the call ndarray.sum makes: numpy's pairwise order, bit for bit
    m1 = float(np.add.reduce(probs1[s_set]))
    m2 = float(np.add.reduce(probs2[s_set]))
    # an exact count divided once by k: the mean of the samples' membership
    mu = int(counts.dot(s_set[:len(counts)])) / samples.k if samples.k else 0.0
    winner = 0 if abs(m1 - mu) <= abs(m2 - mu) else 1
    return ScheffeOutcome(winner, m1, m2, mu)


class ScheffeTournament(RuleTournament):
    """The tournament a sample set induces over the candidates: a beats b when
    a wins their ``scheffe_test``, run in canonical order (lower index first),
    one test per answer. An item never beats itself and runs no test.

    Every pair is free on ``instance``, n zeros with delta 1, so the rule is
    valid for it by construction: a session on it asks the rule batch by
    batch and never builds its dense matrix.
    """

    __slots__ = ("candidates", "samples", "instance")

    def __init__(self, candidates: Sequence[DiscreteDistribution], samples: SampleSet):
        super().__init__(len(candidates))
        self.candidates, self.samples = list(candidates), samples
        self.instance = self._checked = Instance(np.zeros(len(candidates)))

    def _beats(self, a: int, b: int) -> bool:
        if a == b:
            return False
        if a < b:
            return scheffe_test(self.candidates[a], self.candidates[b],
                                self.samples).winner == 0
        return scheffe_test(self.candidates[b], self.candidates[a],
                            self.samples).winner == 1

    def beats(self, a, b):
        a, b = np.broadcast_arrays(a, b)
        return np.array(list(map(self._beats, a.ravel().tolist(), b.ravel().tolist())),
                        dtype=bool).reshape(a.shape)

    def pivot_round_mask(self, items, pivot):
        return np.array([self._beats(x, pivot) for x in items.tolist()], dtype=bool)

    def wins_within(self, items):
        """One test per unordered pair of ``items``."""
        return _round_robin_wins(self.beats, items)


def _session(candidates: Sequence[DiscreteDistribution],
             samples: SampleSet) -> ComparatorSession:
    """A session on the tournament ``samples`` induce over ``candidates``: a
    ValueError unless there is a candidate, and a sample when there are two
    or more to test."""
    if len(candidates) == 0:
        raise ValueError("need at least one candidate")
    if samples.k < 1 and len(candidates) > 1:
        raise ValueError("need at least one sample")
    rule = ScheffeTournament(candidates, samples)
    return ComparatorSession(rule.instance, rule, record=False)


def scheffe_tournament(candidates: Sequence[DiscreteDistribution],
                       samples: SampleSet, rng=None) -> ScheffeSelection:
    """Round-robin of pairwise tests; returns the candidate with the most
    wins (seeded-random tie-break). Theta(k + n^2 m) work for k samples on
    a support of m atoms."""
    result = complete_tournament(_session(candidates, samples), rng=rng)
    return ScheffeSelection(result.winner, result.queries)


def scheffe_quickselect(candidates: Sequence[DiscreteDistribution],
                        samples: SampleSet, rng=None) -> ScheffeSelection:
    """Quick-select over candidates with the Scheffe test as the comparator;
    expected Theta(k + n m) work since the induced tournament is fixed."""
    result = quick_select(_session(candidates, samples), rng=rng)
    return ScheffeSelection(result.winner, result.queries)


def planted_suite(n_candidates: int, support_size: int, radius: float,
                  rng: np.random.Generator
                  ) -> tuple[DiscreteDistribution, list[DiscreteDistribution]]:
    """Synthetic benchmark: a random target p0, one candidate planted at an
    exact l1 radius from it, and random Dirichlet fillers (which land much
    farther away with overwhelming probability)."""
    if n_candidates < 1 or support_size < 2:
        raise ValueError("need n_candidates >= 1 and support_size >= 2")
    if not (0 < radius < 1):
        raise ValueError("radius must be in (0, 1)")
    p0 = rng.dirichlet(np.ones(support_size))
    order = np.argsort(p0)[::-1]
    planted = p0.copy()
    move = radius / 2
    left = move
    for atom in order[:support_size // 2]:
        d = min(planted[atom], left)
        planted[atom] -= d
        left -= d
        if left <= 0:
            break
    if left > 1e-12:
        raise ValueError(f"radius {radius} too large for this p0 draw")
    receivers = order[support_size // 2:]
    planted[receivers] += move / len(receivers)
    candidates = [DiscreteDistribution(rng.dirichlet(np.ones(support_size)))
                  for _ in range(n_candidates - 1)]
    slot = int(rng.integers(n_candidates))
    candidates.insert(slot, DiscreteDistribution(planted))
    return DiscreteDistribution(p0), candidates


def candidates_to_json(p0: DiscreteDistribution,
                       candidates: Sequence[DiscreteDistribution]) -> str:
    return json.dumps({
        "support": p0.support_size,
        "candidates": [c.probs.tolist() for c in candidates],
        "p0": p0.probs.tolist(),
    })


def candidates_from_json(text: str | dict) -> tuple[DiscreteDistribution,
                                                    list[DiscreteDistribution]]:
    obj = json.loads(text) if isinstance(text, str) else text
    if not isinstance(obj, dict):
        raise ValueError("candidates JSON must be an object")
    check_keys("candidates JSON", obj, ("support", "candidates", "p0"))
    if not isinstance(obj.get("candidates"), list):
        raise ValueError("'candidates' must be a list of probability vectors")
    support = check_number("support", obj["support"])
    p0 = DiscreteDistribution(check_numbers("'p0'", obj["p0"]))
    candidates = [DiscreteDistribution(check_numbers(f"candidate {i}", c))
                  for i, c in enumerate(obj["candidates"])]
    for d in (p0, *candidates):
        if d.support_size != support:
            raise ValueError("candidate support does not match declared support")
    if not candidates:
        raise ValueError("candidate list is empty")
    return p0, candidates
