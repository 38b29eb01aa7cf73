"""Workloads of the advsel benchmark and the checks on their outputs.

A workload is a fixed list of cells. A cell is one call into advsel's public
API: ``harness.run_trials`` for an (algorithm, instance, adversary) config,
or a loop of ``scheffe.scheffe_quickselect`` / ``scheffe.scheffe_tournament``
calls on ``planted_suite`` inputs. A pass runs every cell once. Pass p runs
variant p % VARIANTS, and each variant draws its own trials (its own harness
stream), so a run averages over VARIANTS different draws of each cell.

Every cell of every pass is checked twice:

* its per-trial ``(errors, queries)`` digest (``(winner, tests)`` for Scheffe
  cells) must equal the digest recorded in ``golden.json`` for that seed and
  variant. For a seed with no recorded digests, a repeated variant must
  reproduce the digest of its first pass in the same run, and the runner
  checks one extra pass of ``DEFAULT_SEED`` against ``golden.json``, so the
  draw contract is checked whatever the seed;
* the bounds the paper proves for every seed must hold (``CHECKS``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from advsel import harness, scheffe
from advsel.core import RngSeed

VARIANTS = 16
GOLDEN_PATH = Path(__file__).with_name("golden.json")

DEFAULT_SEED = 20250810     # the seed of the acceptance suite and the report
HELD_OUT_SEED = 1606        # never used while the cell sizes were tuned
GOLDEN_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

SCHEFFE_SUPPORT, SCHEFFE_RADIUS, SCHEFFE_K = 20, 0.1, 10_000
MEMO_PIVOT_KILLER = {"kind": "construction", "name": "pivot-killer",
                     "params": {"memoized": True}}

# Bounds that hold for every seed, by name.
CHECKS = {
    "zero-error": "no trial errs at t=2",
    "quadratic": "every trial makes exactly n(n-1)/2 queries",
    "linear": "every trial makes exactly n-1 queries",
    "binomial": "every tournament runs exactly C(n,2) Scheffe tests",
}


@dataclass(frozen=True)
class Cell:
    """One call into advsel per pass. ``algorithm`` is a harness algorithm
    id, or ``scheffe-quickselect`` / ``scheffe-tournament``."""

    algorithm: str
    instance: str           # generator spec; "planted" for Scheffe cells
    n: int
    adversary: object = None
    trials: int = 1
    epsilon: Optional[float] = None
    checks: tuple = ()

    @property
    def scheffe(self) -> bool:
        return self.algorithm.startswith("scheffe-")

    @property
    def label(self) -> str:
        adv = self.adversary if isinstance(self.adversary, str) or \
            self.adversary is None else json.dumps(self.adversary, sort_keys=True)
        parts = [self.algorithm, self.instance if not self.scheffe
                 else f"planted n={self.n}", f"vs {adv}" if adv else "",
                 f"x{self.trials}"]
        return " ".join(p for p in parts if p)


# Trial counts set one pass to 0.2-0.27 s on a 2-core x86 box at the commit
# that defined the benchmark; see README.md for why each cell is here.
WORKLOADS = {
    # per-trial seeding, the harness loop and engine per-call overhead
    "small-n-many-trials": (
        Cell("q-select", "zeros:100", 100, "smaller-wins", 1000,
             checks=("zero-error",)),
        Cell("q-select", "zeros:1000", 1000, "smaller-wins", 400,
             checks=("zero-error",)),
        Cell("q-sort", "distinct:50", 50, "lower-index-wins", 160,
             checks=("zero-error",)),
        Cell("q-sort", "zeroone:50", 50, "smaller-wins", 100,
             checks=("zero-error",)),
    ),
    # per-trial dense n x n adversary rebuilds, plus one O(n) engine cell
    "large-n-few-trials": (
        Cell("ko-mod", "uniform01:1024", 1024, "smaller-wins", 4, epsilon=0.1),
        Cell("q-select", "zeros:1000", 1000, "random", 3,
             checks=("zero-error",)),
        Cell("ko-mod", "komodhard:2048", 2048, "construction", 2, epsilon=0.1),
        Cell("comb", "uniform01:2048", 2048, "smaller-wins", 1, epsilon=0.1),
        Cell("comb", "zeros:16384", 16384, "pivot-killer", 1, epsilon=0.1),
    ),
    # per-query Python through the comparator session and the Scheffe test
    "session-path": (
        Cell("seq", "seqhard:3,3", 27, "construction", 300, checks=("linear",)),
        Cell("seq", "lemma1:15", 15, "construction", 300, checks=("linear",)),
        Cell("q-select", "zeros:200", 200, MEMO_PIVOT_KILLER, 2,
             checks=("zero-error", "quadratic")),
        Cell("scheffe-quickselect", "planted", 50, trials=8),
        Cell("scheffe-tournament", "planted", 100, trials=1,
             checks=("binomial",)),
    ),
}


# ---- calibration ---------------------------------------------------------
#
# The CPU speed of a small shared box drifts by up to 1.8x over phases of
# seconds to minutes, so raw pass times of one run say as much about the
# neighbours as about advsel. Each workload therefore has a fixed kernel of
# plain Python and numpy work of the same kind as its cells. The runner times
# it between passes and rescales each pass time by the kernel's reference
# time over its time around the pass (see run.py). The kernels use no advsel
# code, so a change to advsel moves the pass time but not the kernel.


def _kernel_small_n() -> int:
    """Per-trial seeding and small-array pivot rounds, as in the engine's
    q-select on n = 100."""
    base = np.zeros(100)
    total = 0
    for t in range(40):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            entropy=7, spawn_key=(0, t, 2))))
        items = np.arange(100, dtype=np.int64)
        for _ in range(30):
            p = int(rng.integers(len(items)))
            others = np.delete(items, p)
            keep = others[base[others] >= base[items[p]] - 1.0]
            total += len(keep)
    return total


def _kernel_large_n() -> int:
    """A dense n x n orientation build at n = 1024 and O(n) pivot rounds at
    n = 16384, as in the dense adversaries and the matrix-free comb cell."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
    v = rng.integers(0, 2 ** 20 + 1, size=1024) / 2 ** 20
    diff = v[:, None] - v[None, :]
    forced = diff > 1.0
    free = (np.abs(diff) <= 1.0) & ~np.eye(1024, dtype=bool)
    matrix = forced | (free & (diff < 0))
    perm = rng.permutation(1024)
    shuffled = np.zeros_like(matrix)
    shuffled[np.ix_(perm, perm)] = matrix
    total = int(shuffled[perm[:512], perm[512:]].sum())
    values = np.zeros(16384)
    items = np.arange(16384, dtype=np.int64)
    for _ in range(40):
        p = int(rng.integers(len(items)))
        others = np.delete(items, p)
        total += int((values[others] >= values[items[p]] - 1.0).sum())
    return total


class _KernelSession:
    """A comparator answering one pair at a time in Python."""

    def __init__(self, n: int):
        self.values = [0.0] * n
        self.count = 0

    def query(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("same index")
        gap = self.values[i] - self.values[j]
        self.count += 1
        if gap > 1.0 or -gap > 1.0:
            return i if gap > 0 else j
        return min(i, j)


def _kernel_session_path() -> int:
    """Per-query Python through a session object, and Scheffe-style masked
    sums over a support of 20 with 10^4 samples."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
    session = _KernelSession(200)
    for _ in range(12):
        items = list(range(200))
        while len(items) > 1:
            pivot = items[int(rng.integers(len(items)))]
            items = [x for x in items
                     if x != pivot and session.query(pivot, x) == x] or [pivot]
    probs = rng.dirichlet(np.ones(SCHEFFE_SUPPORT), size=12)
    samples = rng.integers(0, SCHEFFE_SUPPORT, size=SCHEFFE_K)
    for a in range(12):
        for b in range(a + 1, 12):
            s_set = probs[a] > probs[b]
            session.count += abs(float(probs[a][s_set].sum())
                                 - float(s_set[samples].mean())) > 0.5
    return session.count


# kernel, and its median seconds in quiet phases on the 2-core x86 box that
# defined the benchmark (the unit the calibrated times are reported in)
CALIBRATION = {
    "small-n-many-trials": (_kernel_small_n, 0.0092),
    "large-n-few-trials": (_kernel_large_n, 0.0167),
    "session-path": (_kernel_session_path, 0.0033),
}


def cell_stream(index: int, variant: int) -> int:
    return 1000 * (index + 1) + variant


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


def load_golden(workload: str, seed: int, path: Path = GOLDEN_PATH):
    """Recorded digests for (workload, seed) as a list over variants of
    lists over cells, or None when that seed was not recorded."""
    with open(path, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    labels = [c.label for c in WORKLOADS[workload]]
    if table["variants"] != VARIANTS or table["cells"][workload] != labels:
        raise ValueError(f"{path.name} was recorded for other cells of {workload}")
    return table["digests"][workload].get(str(seed))


class Workload:
    """The cells of one workload for one seed, with their Scheffe inputs."""

    def __init__(self, name: str, seed: int, trials: Optional[int] = None):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of "
                             f"{sorted(WORKLOADS)}")
        self.name = name
        self.seed = seed
        # ``trials`` overrides every cell's trial count (self-tests only)
        self.cells = tuple(c if trials is None else replace(c, trials=trials)
                           for c in WORKLOADS[name])
        self._suites: dict = {}

    def _suite(self, index: int, variant: int):
        """(candidates, samples) per trial of a Scheffe cell, made from the
        seed before any timing and kept for later passes of the variant."""
        key = (index, variant)
        if key not in self._suites:
            cell = self.cells[index]
            root = RngSeed(self.seed, cell_stream(index, variant))
            suites = []
            for t in range(cell.trials):
                rng = root.generator(t, 0)
                p0, cands = scheffe.planted_suite(cell.n, SCHEFFE_SUPPORT,
                                                  SCHEFFE_RADIUS, rng)
                suites.append((cands, scheffe.sample(p0, SCHEFFE_K, rng)))
            self._suites[key] = suites
        return self._suites[key]

    def prepare(self, variant: int) -> list:
        """One zero-argument call per cell. Inputs and generators are built
        here, outside the timed region; the calls look up advsel functions
        at call time, so an installed tracer sees them."""
        calls = []
        for index, cell in enumerate(self.cells):
            stream = cell_stream(index, variant)
            if cell.scheffe:
                root = RngSeed(self.seed, stream)
                jobs = [(cands, smp, root.generator(t, 1)) for t, (cands, smp)
                        in enumerate(self._suite(index, variant))]
                method = cell.algorithm.removeprefix("scheffe-")
                calls.append(_scheffe_call(method, jobs))
            else:
                config = harness.TrialConfig(
                    algorithm=cell.algorithm, instance=cell.instance,
                    adversary=cell.adversary, t=2.0, epsilon=cell.epsilon,
                    trials=cell.trials, seed=self.seed, stream=stream)
                calls.append(_trials_call(config))
        return calls

    def outcome(self, results: list) -> tuple[list, list, int]:
        """Digests, bound verdicts and total queries of one pass."""
        digests, verdicts, queries = [], [], 0
        for cell, (errors, q) in zip(self.cells, results):
            digests.append(digest(errors, q))
            queries += int(q.sum())
            for check in cell.checks:
                verdicts.append((f"{cell.label}: {CHECKS[check]}",
                                 _holds(check, cell.n, errors, q)))
        return digests, verdicts, queries


def _trials_call(config):
    def call():
        data = harness.run_trials(config)
        return np.asarray(data.errors), np.asarray(data.queries)
    return call


def _scheffe_call(method: str, jobs: list):
    def call():
        select = getattr(scheffe, f"scheffe_{method}")
        picks = [select(cands, smp, rng) for cands, smp, rng in jobs]
        return (np.array([p.winner for p in picks]),
                np.array([p.tests for p in picks]))
    return call


def _holds(check: str, n: int, errors, queries) -> bool:
    if check == "zero-error":
        return not np.asarray(errors).any()
    want = {"quadratic": n * (n - 1) // 2, "linear": n - 1,
            "binomial": math.comb(n, 2)}[check]
    return bool((np.asarray(queries) == want).all())


class Checker:
    """Counts checks attempted and failed over a run (``fail_ratio``).
    ``golden`` maps a seed to its recorded digests; a seed missing from it
    falls back to the repeated-variant check."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def check_pass(self, workload: Workload, variant: int, digests: list,
                   verdicts: list) -> None:
        golden = self.golden.get(workload.seed)
        where = f"seed {workload.seed} variant {variant}"
        for index, (cell, got) in enumerate(zip(workload.cells, digests)):
            key = (workload.seed, variant, index)
            if golden is not None:
                want = golden[variant][index]
            elif key in self.first:
                want = self.first[key]
            else:
                self.first[key] = got  # nothing to compare yet
                continue
            self._record(got == want, f"{where} {cell.label}: digest "
                         f"{got} != {want}")
        for what, ok in verdicts:
            self._record(ok, f"{where} {what}")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
