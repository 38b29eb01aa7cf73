"""Instance generators and the compact ``name:params`` spec strings used by
the CLI and the harness.

Non-integer values are drawn on the dyadic grid k/2^20 so that every pairwise
gap is an exact binary float and the forced/free classification at the delta
threshold can never be flipped by rounding.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from .adversary import CONSTRUCTION_TABLE, Construction, TournamentGraph
from .core import MAX_INSTANCE_SIZE, Instance, PCG64Lanes, check_choice

__all__ = [
    "make_zeros",
    "make_distinct",
    "make_uniform01",
    "make_zeroone",
    "parse_generator",
    "lane_values",
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
    return Instance(_uniform01_values(rng.integers(0, GRID + 1, size=n)))


def make_zeroone(n: int, rng: np.random.Generator) -> Instance:
    """Each value an independent fair coin in {0, 1}: every pair is free."""
    return Instance(_zeroone_values(rng.integers(0, 2, size=n)))


# a drawn generator's values from its draws of integers(0, hi), written once
# for a generator and for the lanes of a ``PCG64Lanes``

def _uniform01_values(draws: np.ndarray) -> np.ndarray:
    return draws / GRID


def _zeroone_values(draws: np.ndarray) -> np.ndarray:
    return draws.astype(float)


def _drawn_lanes(values: Callable[[np.ndarray], np.ndarray], hi: int):
    """The ``Construction.lanes`` entry of a generator whose n values are
    ``values`` of n draws of ``integers(0, hi)``: one row per lane."""
    return lambda n, lanes: values(lanes.fill(hi, n))


# name -> entry: a spec's integer arguments are its params (a seeded entry also gets
# the generator); a construction's generator is that construction's own entry
_GENERATORS = {
    "zeros": Construction(make_zeros, ("n",), False),
    "distinct": Construction(make_distinct, ("n",), False),
    "uniform01": Construction(make_uniform01, ("n",), True,
                              lanes=_drawn_lanes(_uniform01_values, GRID + 1)),
    "zeroone": Construction(make_zeroone, ("n",), True,
                            lanes=_drawn_lanes(_zeroone_values, 2)),
    "lemma1": CONSTRUCTION_TABLE["lemma1"],
    "lemma2": CONSTRUCTION_TABLE["lemma2"],
    "seqhard": CONSTRUCTION_TABLE["seq-hard"],
    "komodhard": CONSTRUCTION_TABLE["komod-hard"],
}
GENERATOR_NAMES = tuple(_GENERATORS)


def _parse(spec: str):
    """The entry and the integer arguments of a spec string, checked."""
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
    return name, entry, args


def parse_generator(spec: str, rng: Optional[np.random.Generator] = None
                    ) -> tuple[Instance, Optional[TournamentGraph]]:
    """Build an instance (and, for the named constructions, its graph) from a
    spec string like ``zeros:10``, ``uniform01:100`` or ``seqhard:3,3``."""
    name, entry, args = _parse(spec)
    if entry.seeded and rng is None:
        raise ValueError(f"{name} draws from a generator (pass a seed)")
    built = entry.build(args, rng)
    return built if isinstance(built, tuple) else (built, None)


def lane_values(spec: str) -> Optional[Callable[[PCG64Lanes], np.ndarray]]:
    """For a spec with a lane form (uniform01, zeroone and lemma1): a
    function of a ``PCG64Lanes`` giving each lane's values, one row per
    lane, as ``parse_generator`` draws one instance's on a generator in the
    lane's state. None for every other spec: one that draws nothing, and
    lemma2 and komodhard, whose graph carries the permutation drawn with
    their values."""
    _, entry, args = _parse(spec)
    return None if entry.lanes is None else partial(entry.lanes, *args)
