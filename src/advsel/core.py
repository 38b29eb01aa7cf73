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
from operator import attrgetter
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Instance",
    "QueryRecord",
    "QueryLog",
    "RngSeed",
    "PCG64Lanes",
    "InvalidQueryError",
    "check_number",
    "check_keys",
    "check_choice",
    "MAX_INSTANCE_SIZE",
    "forced_winner",
    "is_t_approx",
    "is_t_sorted",
    "validate_log",
]


# most items an instance or a Scheffe sample set may have, checked before the build
MAX_INSTANCE_SIZE = 2 ** 24


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


def check_choice(what: str, value, choices):
    """``value`` if it is one of the names ``choices``, else a ValueError."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"unknown {what} {value!r} (expected one of "
                         f"{', '.join(choices)})")
    return value


def check_keys(what: str, obj: dict, allowed) -> None:
    """A ValueError for any key of ``obj`` outside ``allowed``: none is ignored."""
    for key in obj:
        check_choice(f"{what} key", key, allowed)


@dataclass(frozen=True, eq=False)
class Instance:
    """An indexed multiset of real values plus the comparison threshold.

    Item identity is the index; duplicate values are allowed. ``values`` is
    the instance's own read-only float64 copy, and instances compare by
    identity. ``delta`` defaults to 1, the usual normalization.
    """

    values: np.ndarray
    delta: float = 1.0

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        try:
            values = np.array(self.values, dtype=np.float64)
        except OverflowError:
            raise ValueError("all values must be finite") from None
        if values.ndim != 1 or len(values) < 1:
            raise ValueError("instance needs a nonempty 1-D sequence of values")
        if not np.isfinite(values).all():
            raise ValueError("all values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def max_value(self) -> float:
        return float(self.values.max())

    def forces(self, a, b):
        """Whether a is forced to beat b, elementwise over index arrays: the
        model's one rule, ``values[a] - values[b] > delta``. A gap past the
        float range is an infinity of the right sign, without a warning."""
        with np.errstate(over="ignore"):
            return self.values[a] - self.values[b] > self.delta

    def to_json(self) -> str:
        return json.dumps({"values": self.values.tolist(), "delta": self.delta})

    @classmethod
    def from_json(cls, text: str | dict) -> "Instance":
        obj = json.loads(text) if isinstance(text, str) else text
        if not isinstance(obj, dict) or "values" not in obj:
            raise ValueError("instance JSON must be an object with a 'values' array")
        check_keys("instance JSON", obj, ("values", "delta"))
        values = obj["values"]
        if not isinstance(values, (list, tuple)) or not all(
                isinstance(v, numbers.Real) and not isinstance(v, bool)
                for v in values):
            raise ValueError("instance 'values' must be an array of numbers "
                             "(not booleans)")
        delta = check_number("instance 'delta'", obj.get("delta", 1.0), numbers.Real)
        return cls(values=values, delta=float(delta))


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

    def pcg64_lanes(self, lo: int, hi: int, role: int) -> "PCG64Lanes":
        """The generators ``generator(t, role)`` for t in lo..hi-1, as the
        lanes of one ``PCG64Lanes``.

        Bit-identical to seeding through ``SeedSequence``: its pool hash runs
        once for the whole block, on uint32 arrays with one entry per trial
        from the trial word on, and so does PCG64's ``srandom`` step, on
        uint64 halves. A trial index must fit one 32-bit word, so every
        trial's key has the same word layout.
        """
        if not 0 <= lo <= hi <= 2 ** 32:
            raise ValueError(f"trial range {lo}..{hi} must lie within 0..2**32")
        if role < 0:
            raise ValueError("role must be non-negative")
        trials = np.arange(lo, hi, dtype=np.uint32)
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
            out[k] | out[k + 1] << 32 for k in range(0, 2 * _POOL_SIZE, 2)]
        # srandom: inc = 2 * inc + 1, then one step from seed + inc
        inc = np.stack([inc_lo << 1 | 1, inc_hi << 1 | inc_lo >> 63])
        start_lo = seed_lo + inc[0]
        start = np.stack([start_lo, seed_hi + inc[1] + (start_lo < inc[0])])
        return PCG64Lanes(_lcg_step(start, inc), inc)

    def pcg64_states(self, lo: int, hi: int, role: int) -> list[dict]:
        """PCG64 ``bit_generator.state`` of ``generator(t, role)`` for t in
        lo..hi-1, ready to assign to a reused ``PCG64``."""
        return self.pcg64_lanes(lo, hi, role).states()


# numpy's SeedSequence pool hash and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MULT_LO = np.uint64(_PCG64_MULT & (1 << 64) - 1)
_MULT_HI = np.uint64(_PCG64_MULT >> 64)


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of a * b, from the products of their 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    low = a0 * b0
    mid = a1 * b0 + (low >> 32)
    cross = a0 * b1 + (mid & _MASK32)
    return a1 * b1 + (mid >> 32) + (cross >> 32)


def _lcg_step(state: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """PCG64's LCG step, state * mult + inc modulo 2**128, on (2, k) arrays of
    uint64 halves, low first; uint64 products wrap modulo 2**64."""
    lo, hi = state
    new_lo = lo * _MULT_LO + inc[0]
    new_hi = (hi * _MULT_LO + lo * _MULT_HI + _mulhi(lo, _MULT_LO) + inc[1]
              + (new_lo < inc[0]))
    return np.stack([new_lo, new_hi])


class PCG64Lanes:
    """PCG64 generators stepped in lockstep, one lane per generator, each
    drawing exactly what a ``Generator`` on its state would (made by
    ``RngSeed.pcg64_lanes``).

    A state is two uint64 halves. A step is PCG64's 128-bit LCG, whose one
    product that overflows 64 bits is formed from 32-bit limbs; its output
    is the XSL-RR permutation (M. O'Neill, HMC-CS-2014-0905). A 64-bit
    output is handed out as two uint32s, low half first, the high half
    waiting in ``uinteger`` with ``has_uint32`` set, as numpy buffers it.
    """

    def __init__(self, state: np.ndarray, inc: np.ndarray):
        self._state, self._inc = state, inc
        self._has = np.zeros(state.shape[1], dtype=bool)
        self._pending = np.zeros(state.shape[1], dtype=np.uint64)

    def __len__(self) -> int:
        return len(self._has)

    def states(self) -> list[dict]:
        """Each lane's state in the form of ``PCG64().state``."""
        (lo, hi), (inc_lo, inc_hi) = self._state.tolist(), self._inc.tolist()
        return [{"bit_generator": "PCG64",
                 "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                 "has_uint32": int(has), "uinteger": pending}
                for s_lo, s_hi, i_lo, i_hi, has, pending in zip(
                    lo, hi, inc_lo, inc_hi, self._has.tolist(),
                    self._pending.tolist())]

    def _step(self, lanes: np.ndarray) -> np.ndarray:
        """Advance the listed lanes one LCG step: their 64-bit outputs."""
        state = _lcg_step(self._state[:, lanes], self._inc[:, lanes])
        self._state[:, lanes] = state
        # XSL-RR: the halves xor-ed, rotated right by the top 6 bits
        word, rot = state[1] ^ state[0], state[1] >> 58
        return word >> rot | word << (-rot & 63)

    def _next_uint32(self, lanes: np.ndarray) -> np.ndarray:
        """Each listed lane's next uint32, as uint64 (lanes distinct)."""
        has = self._has[lanes]
        out = self._pending[lanes]
        fresh = ~has
        if fresh.any():
            word = self._step(lanes[fresh])
            out[fresh] = word & _MASK32
            self._pending[lanes[fresh]] = word >> 32
        self._has[lanes] = fresh
        return out

    def integers(self, lanes, m) -> np.ndarray:
        """One ``Generator.integers(m[k])`` draw on each of the distinct
        ``lanes``, for 1 <= m[k] < 2**32: numpy's path for that range,
        Lemire's bounded method (ACM TOMACS 2019) on one uint32, re-drawn
        while the low half of the product is below (2**32 - m) % m. m = 1
        draws nothing."""
        lanes = np.asarray(lanes, dtype=np.intp)
        m = np.asarray(m, dtype=np.uint64)
        if len(m) and not (m.min() >= 1 and m.max() <= _MASK32):
            raise ValueError("each range must lie within 1..2**32-1")
        out = np.zeros(len(lanes), dtype=np.int64)
        draw = np.flatnonzero(m > 1)
        lanes, m = lanes[draw], m[draw]
        product = self._next_uint32(lanes) * m
        threshold = (_MASK32 + 1 - m) % m
        redo = np.flatnonzero((product & _MASK32) < threshold)
        while len(redo):
            product[redo] = self._next_uint32(lanes[redo]) * m[redo]
            redo = redo[(product[redo] & _MASK32) < threshold[redo]]
        out[draw] = product >> 32
        return out


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
    if not (0 <= i < instance.n and 0 <= j < instance.n):
        raise InvalidQueryError(f"indices ({i}, {j}) out of range for n={instance.n}")
    if i == j:
        raise InvalidQueryError("cannot compare an index with itself")
    if instance.forces(i, j):
        return i
    return j if instance.forces(j, i) else None


def is_t_approx(output_value: float, instance: Instance, t: float) -> bool:
    """True iff ``output_value`` is within ``t`` of the instance maximum."""
    if not t >= 0:   # NaN too
        raise ValueError("t must be non-negative")
    return output_value >= instance.max_value - t


def validate_log(instance: Instance, log: QueryLog) -> None:
    """Assert every recorded answer obeys the forced-outcome rule.

    Raises ValueError on the first record whose winner is not in its pair,
    or whose pair has a gap above delta but whose winner is not the larger
    value's index; InvalidQueryError on a pair of equal or out-of-range
    indices. One numpy pass over the log finds that record.
    """
    records = log.records
    left, right, winner = np.fromiter(
        map(attrgetter("left", "right", "winner"), records),
        dtype=np.dtype((np.int64, 3)), count=len(records)).T
    n = instance.n
    sane = (((winner == left) | (winner == right)) & (left != right)
            & (np.minimum(left, right) >= 0) & (np.maximum(left, right) < n))
    # a pair breaks the rule when its loser is forced to beat its winner
    loser = (left + right - winner).clip(0, n - 1)
    bad = ~sane | instance.forces(loser, winner.clip(0, n - 1))
    if not bad.any():
        return
    rec = records[int(bad.argmax())]
    if rec.winner not in (rec.left, rec.right):
        raise ValueError(
            f"record {rec.ordinal}: winner {rec.winner} is not in the "
            f"pair ({rec.left}, {rec.right})")
    want = forced_winner(instance, rec.left, rec.right)
    raise ValueError(
        f"record {rec.ordinal}: pair ({rec.left}, {rec.right}) is "
        f"forced toward {want} but {rec.winner} won")


def is_t_sorted(output_order: Sequence[float] | Iterable[float], t: float) -> bool:
    """True iff no later element exceeds an earlier one by more than ``t``.

    Equivalent to the O(n^2) all-pairs check; implemented with a running
    minimum of the prefix.
    """
    if not t >= 0:   # NaN too
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
