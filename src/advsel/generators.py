"""Instance generators and the compact ``name:params`` spec strings used by
the CLI and the harness.

Non-integer values are drawn on the dyadic grid k/2^20 so that every pairwise
gap is an exact binary float and the forced/free classification at the delta
threshold can never be flipped by rounding.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .adversary import (TournamentGraph, build_construction)
from .core import Instance

__all__ = [
    "make_zeros",
    "make_distinct",
    "make_uniform01",
    "make_zeroone",
    "parse_generator",
    "GENERATOR_NAMES",
]

GRID = 2 ** 20

# name -> number of integer arguments after the colon
_ARITY = {"zeros": 1, "distinct": 1, "uniform01": 1, "zeroone": 1,
          "lemma1": 1, "lemma2": 1, "seqhard": 2, "komodhard": 1}
GENERATOR_NAMES = tuple(_ARITY)


def make_zeros(n: int) -> Instance:
    if n < 1:
        raise ValueError("n must be >= 1")
    return Instance((0.0,) * n)


def make_distinct(n: int) -> Instance:
    """Distinct values with every pairwise gap above delta, ascending by
    index: comparisons are all forced (noiseless)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Instance(tuple(2.0 * i for i in range(n)))


def make_uniform01(n: int, rng: np.random.Generator) -> Instance:
    if n < 1:
        raise ValueError("n must be >= 1")
    return Instance(tuple(rng.integers(0, GRID + 1, size=n) / GRID))


def make_zeroone(n: int, rng: np.random.Generator) -> Instance:
    """Each value an independent fair coin in {0, 1}: every pair is free."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Instance(tuple(rng.integers(0, 2, size=n).astype(float)))


def parse_generator(spec: str, rng: Optional[np.random.Generator] = None
                    ) -> tuple[Instance, Optional[TournamentGraph]]:
    """Build an instance (and, for the named constructions, its graph) from a
    spec string like ``zeros:10``, ``uniform01:100`` or ``seqhard:3,3``."""
    name, _, arg = spec.partition(":")
    if name not in _ARITY:
        raise ValueError(f"unknown generator {name!r} (expected one of {GENERATOR_NAMES})")
    try:
        args = [int(a) for a in arg.split(",")] if arg else []
    except ValueError:
        raise ValueError(f"bad generator arguments in {spec!r}") from None
    if len(args) != _ARITY[name]:
        raise ValueError(f"generator {name!r} takes {_ARITY[name]} "
                         f"integer argument(s), got {spec!r}")
    if name == "zeros":
        return make_zeros(*args), None
    if name == "distinct":
        return make_distinct(*args), None
    if name == "uniform01":
        if rng is None:
            raise ValueError("uniform01 needs a generator (pass a seed)")
        return make_uniform01(args[0], rng), None
    if name == "zeroone":
        if rng is None:
            raise ValueError("zeroone needs a generator (pass a seed)")
        return make_zeroone(args[0], rng), None
    if name in ("lemma1", "lemma2"):
        return build_construction(name, {"n": args[0], "seed": rng})
    if name == "seqhard":
        return build_construction("seq-hard", {"r": args[0], "s": args[1]})
    return build_construction("komod-hard", {"n": args[0], "seed": rng})
