"""Instance generators and the compact ``name:params`` spec strings used by
the CLI and the harness.

Non-integer values are drawn on the dyadic grid k/2^20 so that every pairwise
gap is an exact binary float and the forced/free classification at the delta
threshold can never be flipped by rounding.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .adversary import CONSTRUCTION_TABLE, Construction, TournamentGraph
from .core import MAX_INSTANCE_SIZE, Instance, check_choice

__all__ = [
    "make_zeros",
    "make_distinct",
    "make_uniform01",
    "make_zeroone",
    "parse_generator",
    "GENERATOR_NAMES",
    "MAX_INSTANCE_SIZE",
]

GRID = 2 ** 20


def make_zeros(n: int) -> Instance:
    return Instance(np.zeros(n))


def make_distinct(n: int) -> Instance:
    """Distinct values with every pairwise gap above delta, ascending by
    index: comparisons are all forced (noiseless)."""
    return Instance(2.0 * np.arange(n))


def make_uniform01(n: int, rng: np.random.Generator) -> Instance:
    return Instance(rng.integers(0, GRID + 1, size=n) / GRID)


def make_zeroone(n: int, rng: np.random.Generator) -> Instance:
    """Each value an independent fair coin in {0, 1}: every pair is free."""
    return Instance(rng.integers(0, 2, size=n).astype(float))


# name -> entry: a spec's integer arguments are its params (a seeded entry also gets
# the generator); a construction's generator is that construction's own entry
_GENERATORS = {
    "zeros": Construction(make_zeros, ("n",), False),
    "distinct": Construction(make_distinct, ("n",), False),
    "uniform01": Construction(make_uniform01, ("n",), True),
    "zeroone": Construction(make_zeroone, ("n",), True),
    "lemma1": CONSTRUCTION_TABLE["lemma1"],
    "lemma2": CONSTRUCTION_TABLE["lemma2"],
    "seqhard": CONSTRUCTION_TABLE["seq-hard"],
    "komodhard": CONSTRUCTION_TABLE["komod-hard"],
}
GENERATOR_NAMES = tuple(_GENERATORS)


def parse_generator(spec: str, rng: Optional[np.random.Generator] = None
                    ) -> tuple[Instance, Optional[TournamentGraph]]:
    """Build an instance (and, for the named constructions, its graph) from a
    spec string like ``zeros:10``, ``uniform01:100`` or ``seqhard:3,3``."""
    name, _, arg = spec.partition(":")
    entry = _GENERATORS[check_choice("generator", name, GENERATOR_NAMES)]
    try:
        args = [int(a) for a in arg.split(",")] if arg else []
    except ValueError:
        raise ValueError(f"bad generator arguments in {spec!r}") from None
    if len(args) != len(entry.params):
        raise ValueError(f"generator {name!r} takes {len(entry.params)} "
                         f"integer argument(s), got {spec!r}")
    if not 1 <= entry.items(args) <= MAX_INSTANCE_SIZE:
        raise ValueError(f"generator {spec!r} must ask for 1 to "
                         f"{MAX_INSTANCE_SIZE} items")
    if entry.seeded and rng is None:
        raise ValueError(f"{name} draws from a generator (pass a seed)")
    built = entry.build(args, rng)
    return built if isinstance(built, tuple) else (built, None)
