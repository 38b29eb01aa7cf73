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
from typing import Iterable, Optional

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
    "check_numbers",
    "check_choice",
    "MAX_INSTANCE_SIZE",
    "as_index",
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


def check_numbers(name: str, values):
    """``values`` of an input field if it is an array of numbers (booleans
    and nulls are not numbers here); otherwise a ValueError naming the field."""
    if not isinstance(values, (list, tuple)) or not all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values):
        raise ValueError(f"{name} must be an array of numbers (not booleans)")
    return values


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
        values = check_numbers("instance 'values'", obj["values"])
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


class QueryLog:
    """Ordered transcript of comparisons plus a running count.

    The transcript is three int lists, ``left``, ``right`` and ``winner``,
    one entry per query; reading the log (iterating it, or ``records``)
    builds each ``QueryRecord``, its position the ordinal. Recording can be
    switched off for bulk Monte-Carlo runs; the count is always kept.
    ``append`` and ``extend`` store entries as given, trusting their caller
    (a session checks each pair first); ``validate_log`` rejects a bad one.
    """

    __slots__ = ("left", "right", "winner", "count", "recording")

    def __init__(self, recording: bool = True):
        self.left: list[int] = []
        self.right: list[int] = []
        self.winner: list[int] = []
        self.count: int = 0
        self.recording = recording

    def append(self, left: int, right: int, winner: int) -> None:
        if self.recording:
            self.left.append(left)
            self.right.append(right)
            self.winner.append(winner)
        self.count += 1

    def extend(self, left, right, winner) -> None:
        """Append one entry per element of ``right``, in order; ``left`` and
        ``winner`` are arrays of the same length or single indices."""
        if self.recording:
            for column, entries in zip((self.left, self.right, self.winner),
                                       np.broadcast_arrays(left, right, winner)):
                column.extend(entries.tolist())
        self.count += len(right)

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return map(QueryRecord, self.left, self.right, self.winner,
                   range(len(self.winner)))

    @property
    def records(self) -> list[QueryRecord]:
        """Every entry as a ``QueryRecord``, built on each read."""
        return list(self)


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
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
_MULT = tuple(np.uint64(h) for h in (_PCG64_MULT & _MASK64, _PCG64_MULT >> 64))
# LCG steps ``_lcg_ahead`` takes by their own jump constants before doubling
_AHEAD_BY_JUMP = 32
# values of all lanes one block of ``PCG64Lanes.fill`` draws
_FILL_WORDS = 1 << 17


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of a * b, from the products of their 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    low = a0 * b0
    mid = a1 * b0 + (low >> 32)
    cross = a0 * b1 + (mid & _MASK32)
    return a1 * b1 + (mid >> 32) + (cross >> 32)


def _affine(x, a, c) -> np.ndarray:
    """x * a + c modulo 2**128, elementwise on (low, high) uint64 halves,
    stacked on a new first axis; uint64 products wrap modulo 2**64."""
    (x_lo, x_hi), (a_lo, a_hi), (c_lo, c_hi) = x, a, c
    lo = x_lo * a_lo + c_lo
    hi = x_hi * a_lo + x_lo * a_hi + _mulhi(x_lo, a_lo) + c_hi + (lo < c_lo)
    return np.stack([lo, hi])


def _lcg_step(state: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """PCG64's LCG step, state * mult + inc modulo 2**128, on (2, k) arrays of
    uint64 halves, low first."""
    return _affine(state, _MULT, inc)


def _lcg_ahead(state: np.ndarray, inc: np.ndarray, steps: int) -> np.ndarray:
    """The states after 1..``steps`` LCG steps of each lane of ``state``, as
    (2, steps, lanes) halves: step k's is A_k * state + G_k * inc, A_k =
    mult**k and G_k the sum of mult**i for i < k, modulo 2**128 (the
    jump-ahead of F. Brown, Trans. Am. Nucl. Soc. 1994). Past the first
    ``_AHEAD_BY_JUMP`` steps the states double: with L made, the next L are
    the first L stepped L times more, A_L * s + G_L * inc."""
    a, g, jumps = 1, 0, []
    for _ in range(min(steps, _AHEAD_BY_JUMP)):
        a, g = a * _PCG64_MULT & _MASK128, (g * _PCG64_MULT + 1) & _MASK128
        jumps.append((a & _MASK64, a >> 64, g & _MASK64, g >> 64))
    a_lo, a_hi, g_lo, g_hi = np.array(jumps, dtype=np.uint64).T[:, :, None]
    out = _affine(state[:, None], (a_lo, a_hi),
                  _affine(inc[:, None], (g_lo, g_hi), (0, 0)))
    while out.shape[1] < steps:
        more = min(out.shape[1], steps - out.shape[1])
        shift = _affine(inc, _halves(g), (0, 0))[:, None]
        out = np.concatenate([out, _affine(out[:, :more], _halves(a), shift)], axis=1)
        a, g = a * a & _MASK128, g * (a + 1) & _MASK128
    return out


def _halves(x: int) -> tuple[np.uint64, np.uint64]:
    return np.uint64(x & _MASK64), np.uint64(x >> 64)


def _xsl_rr(state: np.ndarray) -> np.ndarray:
    """PCG64's output of each state, (2, ...) uint64 halves, low first: the
    halves xor-ed, rotated right by the top 6 bits."""
    word, rot = state[1] ^ state[0], state[1] >> 58
    return word >> rot | word << (-rot & 63)


class PCG64Lanes:
    """PCG64 generators stepped in lockstep, one lane per generator, each
    drawing exactly what a ``Generator`` on its state would (made by
    ``RngSeed.pcg64_lanes``).

    A state is two uint64 halves. A step is PCG64's 128-bit LCG, whose one
    product that overflows 64 bits is formed from 32-bit limbs; its output
    is the XSL-RR permutation (M. O'Neill, HMC-CS-2014-0905). A 64-bit
    output is handed out as two uint32s, low half first, the high half
    waiting in ``uinteger`` with ``has_uint32`` set, as numpy buffers it.

    Three of numpy's draws are modelled: ``integers(m)``, one value on each
    listed lane, and ``permutation(n)`` and ``integers(0, hi, size=n)``
    (``fill``) on every lane, which read one word stream run ahead on all
    lanes (``_stream``). Lanes in lockstep all hold a pending half or none
    do; ``integers`` then reads or steps them all with no per-lane split.
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
        return _xsl_rr(state)

    def _next_uint32(self, lanes: np.ndarray) -> np.ndarray:
        """Each listed lane's next uint32, as uint64 (lanes distinct). Lanes
        in lockstep all hold a pending half or none do: those read the halves,
        or take one step, with no split of the lanes."""
        has = self._has[lanes]
        held = np.count_nonzero(has)
        if held == len(lanes):
            self._has[lanes] = False
            return self._pending[lanes]
        if not held:
            word = self._step(lanes)
            self._pending[lanes] = word >> 32
            self._has[lanes] = True
            return word & _MASK32
        out = self._pending[lanes]
        fresh = ~has
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
        if not len(m):
            return np.zeros(0, dtype=np.int64)
        least = m.min()
        if not (least >= 1 and m.max() <= _MASK32):
            raise ValueError("each range must lie within 1..2**32-1")
        count = len(m)
        # the lanes that draw: every lane unless some range is 1
        draw = None if least > 1 else np.flatnonzero(m > 1)
        if draw is not None:
            lanes, m = lanes[draw], m[draw]
        product = self._next_uint32(lanes) * m
        # the threshold (2**32 - m) % m is below m: only a low half below m
        # can be re-drawn, so only those lanes compute it
        redo = np.flatnonzero((product & _MASK32) < m)
        if len(redo):
            threshold = (_MASK32 + 1 - m[redo]) % m[redo]
            while True:
                again = (product[redo] & _MASK32) < threshold
                if not again.any():
                    break
                redo, threshold = redo[again], threshold[again]
                product[redo] = self._next_uint32(lanes[redo]) * m[redo]
        if draw is None:
            return (product >> 32).view(np.int64)
        out = np.zeros(count, dtype=np.int64)
        out[draw] = product >> 32
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Each lane's ``Generator.permutation(n)``, one row per lane, for
        0 <= n <= 2**32: numpy's Fisher-Yates shuffle of ``arange(n)`` from
        the top (R. Durstenfeld, CACM 1964), whose swap for position i is
        ``random_interval(i)``: the next uint32 masked to the smallest mask
        of all ones that covers i, re-drawn while above i.

        The words come as blocks of LCG steps run ahead on every lane and
        read with a pointer per lane (``_stream``); each lane is then left
        at the step of its last read (``_settle``)."""
        if not 0 <= n <= _MASK32 + 1:
            raise ValueError("n must lie within 0..2**32")
        count = len(self)
        out = np.tile(np.arange(n, dtype=np.int64), (count, 1))
        if n < 2:
            return out
        rows = np.arange(count)
        words, states, at = self._stream()
        swap = np.empty(count, dtype=np.uint64)
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            redo = rows
            while len(redo):
                if at[redo].max() >= words.shape[1]:
                    words, states = self._run_ahead(words, states, 3 * i // 4 + 8)
                swap[redo] = words[redo, at[redo]] & mask
                at[redo] += 1
                redo = redo[swap[redo] > i]
            out[rows, i], out[rows, swap] = out[rows, swap], out[rows, i]
        self._settle(words, states, at)
        return out

    def fill(self, hi: int, n: int) -> np.ndarray:
        """Each lane's ``Generator.integers(0, hi, size=n)``, one row per
        lane, for 1 <= hi < 2**32: n bounded draws in a row, each as
        ``integers`` draws it, the first word whose product with hi has a
        low half of at least (2**32 - hi) % hi (hi = 1 draws nothing).

        The words are read as ``permutation`` reads them, a rejected word
        moving only its own lane's pointer, about ``_FILL_WORDS`` values of
        all lanes at a time."""
        if not 1 <= hi <= _MASK32:
            raise ValueError("hi must lie within 1..2**32-1")
        if n < 0:
            raise ValueError("n must be non-negative")
        count = len(self)
        out = np.zeros((count, n), dtype=np.int64)
        if hi == 1 or not count:
            return out
        threshold = (_MASK32 + 1 - hi) % hi
        words_per_value = (_MASK32 + 1) / (_MASK32 + 1 - threshold)
        width = max(1, _FILL_WORDS // count)
        for lo in range(0, n, width):
            size = min(width, n - lo)
            words, states, at = self._stream()
            short = size
            while short > 0:
                words, states = self._run_ahead(
                    words, states, math.ceil(short * words_per_value / 2) + 1)
                # the low half of each product, as uint32 products wrap
                ok = (np.arange(words.shape[1]) >= at[:, None]) \
                    & (words * np.uint32(hi) >= threshold)
                # words a lane accepts, so far
                rank = np.cumsum(ok, axis=1, dtype=np.int32)
                short = size - rank[:, -1].min()
            accepted = words[ok & (rank <= size)].astype(np.uint64)
            out[:, lo:lo + size] = (accepted * hi >> 32).reshape(count, size)
            self._settle(words, states, np.count_nonzero(rank < size, axis=1) + 1)
        return out

    def _stream(self):
        """Every lane's words, states and read pointer, as ``permutation``
        and ``fill`` read them: a lane's words are its pending uint32, then
        each step's low and high halves, step k's columns 2k - 1 and 2k and
        its state ``states[:, k]``; ``at`` is the next word it reads."""
        return (self._pending[:, None].astype(np.uint32), self._state[:, None],
                (~self._has).astype(np.intp))

    def _settle(self, words: np.ndarray, states: np.ndarray, at: np.ndarray) -> None:
        """Leave each lane at the step of the last word it read (``at`` is the
        next), that step's high half pending when only its low half was read."""
        rows = np.arange(len(at))
        steps = at // 2
        self._state = states[:, steps, rows]
        self._pending = words[rows, 2 * steps].astype(np.uint64)
        self._has = at % 2 == 0

    def _run_ahead(self, words: np.ndarray, states: np.ndarray, steps: int):
        """``words`` and ``states`` (see ``permutation``) with ``steps`` more
        LCG steps of every lane after the last state, none of them taken."""
        more = _lcg_ahead(states[:, -1], self._inc, steps)
        # each lane's outputs in a row, each read as its low, then high uint32
        halves = np.ascontiguousarray(_xsl_rr(more).T, dtype="<u8").view("<u4")
        return (np.concatenate([words, halves], axis=1),
                np.concatenate([states, more], axis=1))


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


def as_index(i) -> int:
    """``i`` as a Python int: a numpy integer is taken as its int, and a
    bool, float or string is no index (InvalidQueryError)."""
    if isinstance(i, numbers.Integral) and not isinstance(i, bool):
        return int(i)
    raise InvalidQueryError(f"index {i!r} is not an integer")


def forced_winner(instance: Instance, i: int, j: int) -> Optional[int]:
    """Index of the forced winner of (i, j), or None when the pair is free:
    the one-pair form of ``Instance.forces``, on Python floats, whose
    subtraction overflows to an infinity of the right sign as numpy's does.

    A pair is forced exactly when the value gap strictly exceeds ``delta``.
    """
    if type(i) is not int or type(j) is not int:
        i, j = as_index(i), as_index(j)
    values = instance.values
    n = len(values)
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidQueryError(f"indices ({i}, {j}) out of range for n={n}")
    if i == j:
        raise InvalidQueryError("cannot compare an index with itself")
    gap = values.item(i) - values.item(j)
    if gap > instance.delta:
        return i
    return j if -gap > instance.delta else None


def is_t_approx(output_value, instance, t: float):
    """Whether ``output_value`` is within ``t`` of the instance maximum,
    elementwise over an array of output values. ``instance`` may also be
    the maxima themselves, one per output value (for trials whose instances
    differ)."""
    if not t >= 0:   # NaN too
        raise ValueError("t must be non-negative")
    maximum = instance.max_value if isinstance(instance, Instance) else instance
    return output_value >= maximum - t


def validate_log(instance: Instance, log: QueryLog) -> None:
    """Assert every recorded answer obeys the forced-outcome rule.

    Raises ValueError on the first record whose winner is not in its pair,
    or whose pair has a gap above delta but whose winner is not the larger
    value's index; InvalidQueryError on a pair of equal or out-of-range
    indices. One numpy pass over the log's columns finds that record.
    """
    left, right, winner = (np.array(column, dtype=np.int64) for column in
                           (log.left, log.right, log.winner))
    n = instance.n
    sane = (((winner == left) | (winner == right)) & (left != right)
            & (np.minimum(left, right) >= 0) & (np.maximum(left, right) < n))
    # a pair breaks the rule when its loser is forced to beat its winner
    loser = (left + right - winner).clip(0, n - 1)
    bad = ~sane | instance.forces(loser, winner.clip(0, n - 1))
    if not bad.any():
        return
    k = int(bad.argmax())
    i, j, won = log.left[k], log.right[k], log.winner[k]
    if won not in (i, j):
        raise ValueError(
            f"record {k}: winner {won} is not in the pair ({i}, {j})")
    want = forced_winner(instance, i, j)
    raise ValueError(
        f"record {k}: pair ({i}, {j}) is forced toward {want} but {won} won")


def is_t_sorted(output_order: Iterable[float] | np.ndarray, t: float):
    """True iff no later element exceeds an earlier one by more than ``t``.

    Equivalent to the O(n^2) all-pairs check; implemented with a running
    minimum of the prefix. A 2-D array is one sequence per row, and gives
    one bool per row, from the same float expression.
    """
    if not t >= 0:   # NaN too
        raise ValueError("t must be non-negative")
    if isinstance(output_order, np.ndarray) and output_order.ndim == 2:
        rows = output_order
        if not rows.shape[1]:
            raise ValueError("sequence must be nonempty")
        running_min = np.minimum.accumulate(rows[:, :-1], axis=1)
        return ~(rows[:, 1:] > running_min + t).any(axis=1)
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
