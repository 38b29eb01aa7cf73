"""Domain types shared by every module: value instances, query records, seeds.

The comparator model: given two distinct item indices i, j over a value
multiset, the comparator must return the index of the larger value whenever
the two values differ by more than ``delta``; when they are within ``delta``
of each other the answer is free (and possibly adversarial).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Instance",
    "QueryRecord",
    "QueryLog",
    "QueryBatches",
    "RngSeed",
    "InvalidQueryError",
    "check_number",
    "forced_winner",
    "is_t_approx",
    "is_t_sorted",
    "validate_log",
]


class InvalidQueryError(ValueError):
    """A query violated the comparator preconditions (i == j or bad index)."""


def check_number(name: str, value, kind=numbers.Integral):
    """``value`` of an input field if it is of ``kind`` (booleans are not
    numbers here), and a real one fits a float, as the code computes with it;
    otherwise a ValueError naming the field. An integer comes back as int."""
    if not isinstance(value, kind) or isinstance(value, bool):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if kind is numbers.Integral:
        return int(value)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of float range") from None
    return value


@dataclass(frozen=True)
class Instance:
    """An indexed multiset of real values plus the comparison threshold.

    Item identity is the index; duplicate values are allowed. ``delta``
    defaults to 1, the usual normalization.
    """

    values: tuple[float, ...]
    delta: float = 1.0

    def __post_init__(self):
        try:
            values = tuple(float(v) for v in self.values)
        except OverflowError:
            raise ValueError("all values must be finite") from None
        object.__setattr__(self, "values", values)
        if len(self.values) < 1:
            raise ValueError("instance needs at least one value")
        if not (self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("all values must be finite")

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def max_value(self) -> float:
        return max(self.values)

    @cached_property
    def values_array(self) -> np.ndarray:
        arr = np.asarray(self.values, dtype=np.float64)
        arr.flags.writeable = False
        return arr

    def check_index(self, i: int) -> int:
        if not (0 <= i < self.n):
            raise InvalidQueryError(f"index {i} out of range for n={self.n}")
        return int(i)

    def to_json(self) -> str:
        return json.dumps({"values": list(self.values), "delta": self.delta})

    @classmethod
    def from_json(cls, text: str | dict) -> "Instance":
        obj = json.loads(text) if isinstance(text, str) else text
        if not isinstance(obj, dict) or "values" not in obj:
            raise ValueError("instance JSON must be an object with a 'values' array")
        values, delta = obj["values"], obj.get("delta", 1.0)
        if not isinstance(values, (list, tuple)) or \
                not all(isinstance(v, numbers.Real) for v in values):
            raise ValueError("instance 'values' must be an array of numbers")
        if not isinstance(delta, numbers.Real):
            raise ValueError("instance 'delta' must be a number")
        try:
            delta = float(delta)
        except OverflowError:
            raise ValueError("instance 'delta' is out of float range") from None
        return cls(values=tuple(values), delta=delta)


@dataclass(frozen=True)
class QueryRecord:
    """One answered comparison: which pair, who won, and when."""

    left: int
    right: int
    winner: int
    ordinal: int

    def __post_init__(self):
        if self.left == self.right:
            raise InvalidQueryError("query pairs two distinct indices")
        if self.winner not in (self.left, self.right):
            raise ValueError("winner must be one of the queried indices")


def _checked_record(left: int, right: int, winner: int, ordinal: int) -> QueryRecord:
    """A QueryRecord for a pair the session already checked: the fields are
    stored directly, without running ``__post_init__`` again."""
    rec = object.__new__(QueryRecord)
    fields = rec.__dict__
    fields["left"] = left
    fields["right"] = right
    fields["winner"] = winner
    fields["ordinal"] = ordinal
    return rec


class QueryLog:
    """Ordered transcript of comparisons plus a running count.

    Recording the full transcript can be switched off for bulk Monte-Carlo
    runs; the count is always maintained. ``append`` and ``extend`` trust
    their caller (a session, which has already checked each pair): they
    store the pair and winner as given, without the checks of a direct
    ``QueryRecord(...)``. ``validate_log`` rejects a bad record afterwards.
    """

    __slots__ = ("records", "count", "recording")

    def __init__(self, recording: bool = True):
        self.records: list[QueryRecord] = []
        self.count: int = 0
        self.recording = recording

    def append(self, left: int, right: int, winner: int) -> None:
        if self.recording:
            self.records.append(_checked_record(left, right, winner, self.count))
        self.count += 1

    def extend(self, left, right, winner) -> None:
        """Append one record per entry of ``right``, in order; ``left`` and
        ``winner`` are arrays of the same length or single indices."""
        left, right, winner = (a.tolist() for a in
                               np.broadcast_arrays(left, right, winner))
        if self.recording:
            self.records.extend(map(_checked_record, left, right, winner,
                                    range(self.count, self.count + len(right))))
        self.count += len(right)

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.records)


class QueryBatches:
    """The batches the algorithms are made of, answered one ``query`` at a
    time in a fixed order. A session that can answer a whole batch at once
    overrides them; every session gives the same answers in the same order.

    Items are int64 index arrays; the result is an array over them.
    """

    def pivot_round(self, pivot: int, items: np.ndarray) -> np.ndarray:
        """Announce ``pivot`` and compare it with every other one of
        ``items`` (which holds it once), in order: the mask of the items that
        beat it, False at the pivot itself."""
        self.announce_pivot(pivot)
        return np.array([x != pivot and self.query(pivot, x) == x
                         for x in items.tolist()], dtype=bool)

    def duel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Clear the pivot and query the pairs (a[k], b[k]) in order: the
        mask of the pairs that a won."""
        self.announce_pivot(None)
        return np.array([self.query(x, y) == x
                         for x, y in zip(a.tolist(), b.tolist())], dtype=bool)

    def round_robin(self, items: np.ndarray) -> np.ndarray:
        """Clear the pivot and query every pair of ``items`` once, row by
        row: the wins of each item."""
        self.announce_pivot(None)
        items = items.tolist()
        wins = [0] * len(items)
        for a, x in enumerate(items):
            for b in range(a + 1, len(items)):
                wins[a if self.query(x, items[b]) == x else b] += 1
        return np.array(wins, dtype=np.int64)


@dataclass(frozen=True)
class RngSeed:
    """A (seed, stream) pair that roots every random choice downstream.

    Sub-streams are derived through ``numpy.random.SeedSequence`` spawn keys,
    so per-trial generators are independent and independent of execution
    order. ``pcg64_states`` derives the same streams for a block of trials
    at once.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream must be non-negative")

    def sequence(self, *key: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, *key))

    def generator(self, *key: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.sequence(*key)))

    def pcg64_states(self, lo: int, hi: int, role: int) -> list[dict]:
        """PCG64 ``bit_generator.state`` of ``generator(t, role)`` for t in
        lo..hi-1, ready to assign to a reused ``PCG64``.

        Bit-identical to seeding through ``SeedSequence``: its pool hash runs
        once for the whole block, on uint32 arrays with one entry per trial
        from the trial word on (on Python ints for a single trial); PCG64's
        ``srandom`` step then runs on Python ints. A trial index must fit one
        32-bit word, so every trial's key has the same word layout.
        """
        if not 0 <= lo <= hi <= 2 ** 32:
            raise ValueError(f"trial range {lo}..{hi} must lie within 0..2**32")
        if role < 0:
            raise ValueError("role must be non-negative")
        trials = lo if hi - lo == 1 else np.arange(lo, hi, dtype=np.uint32)
        words = _uint32_words(self.seed)
        words += [0] * (_POOL_SIZE - len(words))  # padded: the key is spawned
        words += [*_uint32_words(self.stream), trials, *_uint32_words(role)]
        consts = _hash_consts(_INIT_A, _MULT_A)
        pool = [_hashmix(w, *next(consts)) for w in words[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(consts)))
        for word in words[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], _hashmix(word, *next(consts)))
        # generate_state(4, uint64): 8 words cycling over the pool, read as
        # little-endian uint64 pairs: seed high, seed low, inc high, inc low
        consts = _hash_consts(_INIT_B, _MULT_B)
        out = [np.asarray(_hashmix(pool[k % _POOL_SIZE], *next(consts)),
                          dtype=np.uint64) for k in range(2 * _POOL_SIZE)]
        seed_hi, seed_lo, inc_hi, inc_lo = [
            (out[k] | out[k + 1] << 32).reshape(-1).tolist()
            for k in range(0, 2 * _POOL_SIZE, 2)]
        states = []
        for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            state = ((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc
            states.append({"bit_generator": "PCG64",
                           "state": {"state": state & _MASK128, "inc": inc},
                           "has_uint32": 0, "uinteger": 0})
        return states


# numpy's SeedSequence pool hash and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of n, as SeedSequence splits an int."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_consts(const: int, mult: int):
    """(xor, multiply) constants of successive SeedSequence hash steps."""
    while True:
        nxt = (const * mult) & _MASK32
        yield const, nxt
        const = nxt


# Values are Python ints or uint32 arrays; masking every product to 32 bits
# keeps the two kinds interchangeable.

def _hashmix(value, xor_c, mul_c):
    value = ((value ^ xor_c) * mul_c) & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> _XSHIFT)


def forced_winner(instance: Instance, i: int, j: int) -> Optional[int]:
    """Index of the forced winner of (i, j), or None when the pair is free.

    A pair is forced exactly when the value gap strictly exceeds ``delta``.
    """
    i = instance.check_index(i)
    j = instance.check_index(j)
    if i == j:
        raise InvalidQueryError("cannot compare an index with itself")
    vi, vj = instance.values[i], instance.values[j]
    if abs(vi - vj) > instance.delta:
        return i if vi > vj else j
    return None


def is_t_approx(output_value: float, instance: Instance, t: float) -> bool:
    """True iff ``output_value`` is within ``t`` of the instance maximum."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return output_value >= instance.max_value - t


def validate_log(instance: Instance, log: QueryLog) -> None:
    """Assert every recorded answer obeys the forced-outcome rule.

    Raises ValueError on the first record whose winner is not in its pair,
    or whose pair has a gap above delta but whose winner is not the larger
    value's index; InvalidQueryError on a pair of equal or out-of-range
    indices.
    """
    for rec in log:
        if rec.winner not in (rec.left, rec.right):
            raise ValueError(
                f"record {rec.ordinal}: winner {rec.winner} is not in the "
                f"pair ({rec.left}, {rec.right})")
        want = forced_winner(instance, rec.left, rec.right)
        if want is not None and rec.winner != want:
            raise ValueError(
                f"record {rec.ordinal}: pair ({rec.left}, {rec.right}) is "
                f"forced toward {want} but {rec.winner} won")


def is_t_sorted(output_order: Sequence[float] | Iterable[float], t: float) -> bool:
    """True iff no later element exceeds an earlier one by more than ``t``.

    Equivalent to the O(n^2) all-pairs check; implemented with a running
    minimum of the prefix.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    seq = list(output_order)
    if not seq:
        raise ValueError("sequence must be nonempty")
    running_min = seq[0]
    for v in seq[1:]:
        if v > running_min + t:
            return False
        if v < running_min:
            running_min = v
    return True
