"""Monte-Carlo experiment engine: runs seeded independent trials of any
algorithm against any instance/adversary config, estimates error rates with
Wilson intervals, collects query statistics, and checks the quick-select
concentration bound.

Reproducibility contract: identical config (seed included) gives bitwise
identical results regardless of worker count, because every trial derives its
own generators from (seed, stream, trial-index) seed sequences. A block of
trials derives those generator states together, bit-identical to seeding each
one through ``SeedSequence``.

Reuse rule: a block builds its first trial's instance and adversary, and
keeps a build for every later trial exactly when nothing drew from that
trial's generator, so the build is the same for every trial. Only graphs are
kept as adversaries, and only with a kept instance: strategies can hold
per-session state and are rebuilt for every trial. A q-select block whose
adversary is kept runs its trials as the lanes of ``algorithms.LaneBlock``s,
in lockstep, each lane drawing what its trial's own generator would.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .adversary import (ComparatorSession, RuleTournament, TournamentGraph,
                        adversary_from_spec, comparator_for, fits_dense_budget,
                        parse_adversary)
from .algorithms import (LaneBlock, combined_select, complete_tournament,
                         modified_knockout, quick_select, sequential_select)
from .core import (Instance, RngSeed, check_choice, check_keys, check_number,
                   is_t_sorted)
from .generators import parse_generator
from .sorting import complete_sort, quick_sort

__all__ = [
    "TrialConfig",
    "TrialSummary",
    "TrialData",
    "ALGORITHM_IDS",
    "build_instance",
    "run_algorithm",
    "estimate",
    "run_trials",
    "check_concentration",
    "wilson_interval",
    "CSV_HEADER",
    "csv_row",
]

SELECTORS = ("compl", "seq", "ko-mod", "q-select", "comb")
SORTERS = ("compl-sort", "q-sort")
ALGORITHM_IDS = SELECTORS + SORTERS


@dataclass(frozen=True)
class TrialConfig:
    """One Monte-Carlo experiment: algorithm, instance source, adversary spec,
    approximation slack, trial count, and the master seed."""

    algorithm: str
    instance: object           # generator string, {"file": ...}, or {"values": ...}
    adversary: object          # shorthand string or adversary spec object
    t: float = 2.0
    epsilon: Optional[float] = None
    trials: int = 1000
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        check_choice("algorithm", self.algorithm, ALGORITHM_IDS)
        for name in ("seed", "stream", "trials"):
            check_number(name, getattr(self, name))
        check_number("t", self.t, numbers.Real)
        if self.epsilon is not None:
            check_number("epsilon", self.epsilon, numbers.Real)
        if not 1 <= self.trials <= 2 ** 32:
            # a trial index is one 32-bit word of its generator's spawn key
            raise ValueError("trials must be between 1 and 2**32")
        if not self.t >= 0:   # NaN too
            raise ValueError(f"t must be >= 0, got {self.t!r}")
        parse_adversary(self.adversary)
        if self.algorithm in ("ko-mod", "comb") and self.epsilon is None:
            raise ValueError(f"{self.algorithm} needs epsilon")

    @classmethod
    def from_json(cls, text: str | dict) -> "TrialConfig":
        obj = json.loads(text) if isinstance(text, str) else dict(text)
        if "seed" not in obj:
            raise ValueError("trial config must carry an explicit seed")
        check_keys("trial config", obj, cls.__dataclass_fields__)
        return cls(**obj)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrialSummary:
    trials: int
    error_rate: float
    error_ci95: tuple[float, float]
    query_mean: float
    query_max: float
    query_quantiles: dict
    wall_time: float


@dataclass
class TrialData:
    """Raw per-trial outcomes (in trial order)."""

    errors: np.ndarray          # bool: output failed the t check
    queries: np.ndarray         # int per trial
    round_sizes: list           # per trial: comb's ``result.sizes`` (comb only)
    wall_time: float
    violations: int = 0         # forced answers the adversary got wrong, all trials
    n: int = 0                  # items of the instance

    def summary(self) -> TrialSummary:
        trials = len(self.errors)
        err = int(self.errors.sum())
        qs = self.queries.astype(np.float64)
        quantiles = dict(zip((0.5, 0.9, 0.99), np.quantile(qs, (0.5, 0.9, 0.99))))
        return TrialSummary(
            trials=trials,
            error_rate=err / trials,
            error_ci95=wilson_interval(err, trials),
            query_mean=float(qs.mean()),
            query_max=float(qs.max()),
            query_quantiles=quantiles,
            wall_time=self.wall_time,
        )


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054
                    ) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    # rounding can push a boundary just past p; the interval always contains p
    return (min(p, max(0.0, center - half)), max(p, min(1.0, center + half)))


def build_instance(source, rng) -> tuple[Instance, Optional[TournamentGraph]]:
    """The instance a source names, and the graph that comes with a named
    construction: a generator string, ``{"file": path}`` or ``{"values": ...}``."""
    if isinstance(source, str):
        return parse_generator(source, rng)
    if isinstance(source, dict) and set(source) == {"file"} \
            and isinstance(source["file"], str):
        with open(source["file"], "r", encoding="utf-8") as fh:
            return Instance.from_json(fh.read()), None
    if isinstance(source, dict) and "values" in source:
        return Instance.from_json(source), None
    raise ValueError(f"bad instance source {source!r}")


def _build_adversary(spec: dict, instance, construction_graph, rng):
    """A checked spec's adversary; a nameless construction is the instance's graph."""
    if spec["kind"] == "construction" and spec["name"] is None:
        if construction_graph is None:
            raise ValueError("adversary 'construction' needs a construction instance")
        return construction_graph
    return adversary_from_spec(spec, instance, rng)


# n below which a rule adversary built for a single trial answers a session's
# batches faster from a dense matrix: the matrix costs O(n^2) to build once,
# each on-demand batch a few numpy operations. q-sort asks about n batches
# per trial, the other algorithms O(log n) or one. Measured crossovers on a
# 2-core x86 box; see README.
DENSE_BELOW_N = {"q-sort": 512}
DENSE_BELOW_N_DEFAULT = 64


def _engine_form(adversary, kept: bool, algorithm: str):
    """The dense matrix of a rule adversary where that is cheaper: when the
    harness keeps it for every trial, or when n is small. Everything else
    is returned as it is."""
    if isinstance(adversary, RuleTournament) and fits_dense_budget(adversary.n) \
            and (kept or adversary.n < DENSE_BELOW_N.get(
                algorithm, DENSE_BELOW_N_DEFAULT)):
        return adversary.dense()
    return adversary


def run_algorithm(algorithm: str, session, rng, epsilon=None):
    """Run one algorithm, by id, on a session (or q-select on a
    ``LaneBlock``): its ``SelectionResult``, ``SortResult`` or
    ``LaneResult``. The algorithms are looked up in this module when called."""
    if algorithm == "ko-mod":
        return modified_knockout(session, epsilon, rng=rng)
    if algorithm == "comb":
        return combined_select(session, epsilon, rng=rng)
    run = {"compl": complete_tournament, "seq": sequential_select,
           "q-select": quick_select, "compl-sort": complete_sort,
           "q-sort": quick_sort}[check_choice("algorithm", algorithm, ALGORITHM_IDS)]
    return run(session, rng=rng)


# trials whose generator states are derived in one step
_SEED_CHUNK = 1024
# items a block of q-select lanes holds at once, so its arrays stay a few MB
_LANE_ITEMS = 1 << 17


class _TrialStreams:
    """The generators of one role for the trials of a block: one PCG64 and
    Generator, set to each trial's state in turn. The first trial's state is
    seeded alone, as a kept build needs no other; later states are derived
    ``_SEED_CHUNK`` trials at a time, so memory stays bounded."""

    def __init__(self, root: RngSeed, role: int, lo: int, hi: int):
        self.root, self.role, self.hi = root, role, hi
        self.first = lo
        self.states = [root.generator(lo, role).bit_generator.state]
        self.generator = np.random.Generator(np.random.PCG64(0))

    def at(self, t: int) -> np.random.Generator:
        k = t - self.first
        if not 0 <= k < len(self.states):
            self.first, k = t, 0
            self.states = self.root.pcg64_states(
                t, min(t + _SEED_CHUNK, self.hi), self.role)
        self.current = self.states[k]
        self.generator.bit_generator.state = self.current
        return self.generator

    def drew(self) -> bool:
        """Whether anything drew from the generator since ``at`` set it."""
        return self.generator.bit_generator.state != self.current


def _trial_block(config: TrialConfig, lo: int, hi: int) -> TrialData:
    """Run trials lo..hi-1 of a config: as lanes of ``quick_select`` blocks
    when the algorithm is q-select and the adversary is kept, else one by one."""
    start = time.perf_counter()
    adv_spec = parse_adversary(config.adversary)
    root = RngSeed(config.seed, config.stream)
    # (seed, stream, trial, role) streams
    instance_rngs, adversary_rngs = (_TrialStreams(root, role, lo, hi)
                                     for role in range(2))
    instance, cgraph = build_instance(config.instance, instance_rngs.at(lo))
    adversary = _build_adversary(adv_spec, instance, cgraph, adversary_rngs.at(lo))
    # a build that drew nothing is the same for every trial; strategies can
    # hold per-session state, so only graphs stay
    keep_instance = not instance_rngs.drew()
    keep_adversary = keep_instance and not adversary_rngs.drew() \
        and isinstance(adversary, TournamentGraph)
    if config.algorithm == "q-select" and keep_adversary \
            and comparator_for(instance, adversary) is adversary:
        errors, queries = _lane_trials(config, root, instance, adversary, lo, hi)
        return TrialData(errors=errors, queries=queries, round_sizes=[],
                         wall_time=time.perf_counter() - start, n=instance.n)
    adversary = _engine_form(adversary, keep_adversary, config.algorithm)

    is_sort = config.algorithm in SORTERS
    is_comb = config.algorithm == "comb"
    errors = np.zeros(hi - lo, dtype=bool)
    queries = np.zeros(hi - lo, dtype=np.int64)
    round_sizes: list = []
    violations = 0
    alg_rngs = _TrialStreams(root, 2, lo, hi)
    for t in range(lo, hi):
        if t > lo and not keep_instance:
            instance, cgraph = build_instance(config.instance, instance_rngs.at(t))
        if t > lo and not keep_adversary:
            adversary = _engine_form(
                _build_adversary(adv_spec, instance, cgraph, adversary_rngs.at(t)),
                False, config.algorithm)
        session = ComparatorSession(instance, adversary, record=False)
        result = run_algorithm(config.algorithm, session, alg_rngs.at(t),
                               config.epsilon)
        k = t - lo
        queries[k] = result.queries
        violations += session.violations
        if is_sort:
            errors[k] = not is_t_sorted(
                instance.values[list(result.order)].tolist(), config.t)
        else:
            errors[k] = instance.values[result.winner] < instance.max_value - config.t
            if is_comb:
                round_sizes.append(result.sizes)
    return TrialData(errors=errors, queries=queries, round_sizes=round_sizes,
                     wall_time=time.perf_counter() - start, violations=violations,
                     n=instance.n)


def _lane_trials(config: TrialConfig, root: RngSeed, instance: Instance, graph,
                 lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Errors and queries of q-select trials lo..hi-1 against a kept graph,
    run as the lanes of blocks of at most ``_SEED_CHUNK`` trials and about
    ``_LANE_ITEMS`` items."""
    chunk = max(1, min(_SEED_CHUNK, _LANE_ITEMS // instance.n))
    winners, queries = [], []
    for first in range(lo, hi, chunk):
        rng = root.pcg64_lanes(first, min(first + chunk, hi), 2)
        result = run_algorithm("q-select", LaneBlock(graph, instance.n, rng), None)
        winners.append(result.winners)
        queries.append(result.lane_queries)
    winners = np.concatenate(winners)
    errors = instance.values[winners] < instance.max_value - config.t
    return errors, np.concatenate(queries)


def _worker_count() -> int:
    """ADVSEL_THREADS, capped at the core count so no value can fork more
    processes than the machine runs at once."""
    raw = os.environ.get("ADVSEL_THREADS", "1")
    try:
        requested = int(raw)
    except ValueError:
        return 1
    return max(1, min(requested, os.cpu_count() or 1))


def run_trials(config: TrialConfig) -> TrialData:
    """Execute all trials of a config. Honors ADVSEL_THREADS for process
    parallelism; results are identical for any worker count."""
    start = time.perf_counter()
    workers = min(_worker_count(), config.trials)
    if workers <= 1 or config.trials < 4 * workers:
        parts = [_trial_block(config, 0, config.trials)]
    else:
        bounds = np.linspace(0, config.trials, workers + 1, dtype=int).tolist()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_trial_block, [config] * workers,
                                  bounds[:-1], bounds[1:]))
    return TrialData(errors=np.concatenate([p.errors for p in parts]),
                     queries=np.concatenate([p.queries for p in parts]),
                     round_sizes=[s for p in parts for s in p.round_sizes],
                     wall_time=time.perf_counter() - start,
                     violations=sum(p.violations for p in parts), n=parts[0].n)


def estimate(config: TrialConfig) -> TrialSummary:
    """Error rate (with Wilson 95% CI) and query statistics over independent
    seeded trials."""
    return run_trials(config).summary()


@dataclass(frozen=True)
class ConcentrationRow:
    k: float
    empirical: float
    bound: float
    stderr: float
    ok: bool


def check_concentration(n: int, k_values, trials: int, adversary_spec,
                        seed: int) -> list[ConcentrationRow]:
    """Empirical quick-select tail Pr(Q > kn) against the analytic bound
    e^{-(k-k') ln k'} with k' = max(e, k/2); flags any tail exceeding its
    bound by more than 3 binomial standard errors. Non-adaptive only."""
    # on zeros:n the one construction that builds is the adaptive pivot-killer
    if parse_adversary(adversary_spec)["kind"] == "construction":
        raise ValueError("the concentration bound holds for non-adaptive "
                         "adversaries only")
    config = TrialConfig(algorithm="q-select", instance=f"zeros:{n}",
                         adversary=adversary_spec, t=2.0, trials=trials, seed=seed)
    data = run_trials(config)
    rows = []
    for k in k_values:
        k = float(k)
        kp = max(math.e, k / 2.0)
        bound = math.exp(-(k - kp) * math.log(kp))
        empirical = float((data.queries > k * n).mean())
        stderr = math.sqrt(min(bound, 1.0) * max(1.0 - bound, 0.0) / trials)
        rows.append(ConcentrationRow(k=k, empirical=empirical, bound=bound,
                                     stderr=stderr,
                                     ok=empirical <= bound + 3 * stderr))
    return rows


CSV_HEADER = ("algorithm,adversary,n,t,epsilon,trials,error_rate,ci_lo,ci_hi,"
              "q_mean,q_p50,q_p90,q_p99,q_max,pass")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def csv_row(algorithm: str, adversary: str, n: int, t: float,
            epsilon: Optional[float], summary: TrialSummary, ok: bool) -> str:
    qq = summary.query_quantiles
    fields = [algorithm, adversary, n, t, epsilon, summary.trials,
              summary.error_rate, summary.error_ci95[0], summary.error_ci95[1],
              summary.query_mean, qq[0.5], qq[0.9], qq[0.99], summary.query_max,
              "true" if ok else "false"]
    return ",".join(_fmt(f) for f in fields)
