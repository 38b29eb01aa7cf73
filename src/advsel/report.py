"""Canned desk-scale reproduction of the headline guarantees: one row per
algorithm claim, each run as a seeded Monte-Carlo experiment and compared
against its stated bound. Emits a machine-readable CSV (deterministic for a
fixed seed, byte for byte) and a human-readable text table."""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Optional

from .core import MAX_INSTANCE_SIZE, check_number
from .harness import (CSV_HEADER, TrialConfig, TrialSummary, csv_row,
                      run_trials)
from .sorting import exact_expected_queries

__all__ = ["ReportRow", "BoundReport", "bound_report", "knockout_query_bound"]


def knockout_query_bound(n: int, epsilon: float) -> float:
    """Modified knock-out query bound n + (1/2) log2(n)^4 ceil((1/e)ln(1/e))^2."""
    return n + 0.5 * math.log2(n) ** 4 * math.ceil(
        (1.0 / epsilon) * math.log(1.0 / epsilon)) ** 2


def transitive_expected_queries(n: int) -> float:
    """Exact expected quick-select queries on the transitive tournament
    (in-degrees 0..n-1, the expectation-maximizing non-adaptive adversary):
    q_m = m - 1 + (1/m) sum_{r=1}^{m-1} q_r, always below 2(n-1)."""
    q = 0.0
    acc = 0.0  # q_1 + ... + q_{m-1}
    for m in range(2, n + 1):
        q = m - 1 + acc / m
        acc += q
    return q


@dataclass
class ReportRow:
    algorithm: str
    adversary: str
    n: int
    t: float
    epsilon: Optional[float]
    claim: str
    summary: TrialSummary
    ok: bool
    note: str = ""

    def csv(self) -> str:
        return csv_row(self.algorithm, self.adversary, self.n, self.t,
                       self.epsilon, self.summary, self.ok)


@dataclass
class BoundReport:
    rows: list
    csv_text: str
    text: str
    wall_time: float

    def write(self, out_dir: str) -> tuple[str, str]:
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, "bound_report.csv")
        txt_path = os.path.join(out_dir, "bound_report.txt")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(self.csv_text)
        with open(txt_path, "w", encoding="utf-8") as fh:
            fh.write(self.text)
        return csv_path, txt_path

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)


def _scaled(trials: int, scale: float) -> int:
    return max(10, int(round(trials * scale)))


def _largest_komod_n(cap: int) -> int:
    n = cap
    while (n - 2) % 3 != 0:
        n -= 1
    return n


def bound_report(seed: int = 0, out_dir: Optional[str] = None,
                 max_n: int = 2048, scale: float = 1.0) -> BoundReport:
    """Run the whole claim suite with sub-streams of ``seed``; one stream per
    row keeps rows independent and the CSV reproducible.

    ``max_n``, from 1 to ``MAX_INSTANCE_SIZE``, is the n of the last ko-mod
    hard-instance row (at least 512) and caps the n of the comb rows.
    ``scale`` multiplies every row's trial count. The statistical pass/fail
    columns are calibrated for the full desk scale (1.0); shrunken runs are
    for smoke-testing reproducibility and may show spurious failures.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be a finite number above 0, got {scale!r}")
    if not 1 <= check_number("max_n", max_n) <= MAX_INSTANCE_SIZE:
        raise ValueError(f"max_n must be between 1 and {MAX_INSTANCE_SIZE}, "
                         f"got {max_n}")
    t0 = time.perf_counter()
    rows: list[ReportRow] = []
    stream = iter(range(1000))

    def run(algorithm, instance, adversary, *, t, trials, epsilon=None):
        cfg = TrialConfig(algorithm=algorithm, instance=instance,
                          adversary=adversary, t=t, epsilon=epsilon,
                          trials=_scaled(trials, scale), seed=seed,
                          stream=next(stream))
        return run_trials(cfg)

    def add(algorithm, adversary, n, t, epsilon, claim, data, ok, note=""):
        rows.append(ReportRow(algorithm, adversary, n, t, epsilon, claim,
                              data.summary(), ok, note))

    # --- complete tournament: zero 2-approximation error, binom(n,2) queries
    n = 101
    data = run("compl", f"lemma2:{n}", "construction", t=2.0, trials=400)
    exact = n * (n - 1) // 2
    add("compl", "construction:lemma2", n, 2.0, None,
        "error(t=2) = 0, queries = n(n-1)/2",
        data, ok=(not data.errors.any()) and (data.queries == exact).all())
    n = 64
    data = run("compl", f"uniform01:{n}", "pivot-killer", t=2.0, trials=400)
    add("compl", "pivot-killer", n, 2.0, None,
        "error(t=2) = 0, queries = n(n-1)/2 (adaptive)",
        data, ok=(not data.errors.any()) and (data.queries == n * (n - 1) // 2).all())

    # --- sequential selection: cheap but inconsistent on the layered instance

    # (output is almost always a bottom-layer value; floor asserted, rate reported)
    n = 27
    data = run("seq", "seqhard:3,3", "construction", t=2.5, trials=20000)
    rate = float(data.errors.mean())
    add("seq", "construction:seq-hard", n, 2.5, None,
        "layered instance drives output far below the max (qualitative)",
        data, ok=rate > 0.25, note=f"measured rate {rate:.4f}")
    n = 15
    data = run("seq", f"lemma1:{n}", "construction", t=0.9, trials=20000)
    rate = float(data.errors.mean())
    expected = 1.0 - 1.0 / n
    band = 4 * math.sqrt(expected * (1 - expected) / len(data.errors))
    add("seq", "construction:lemma1", n, 0.9, None,
        "regular tournament makes any output a uniform guess: error ~ 1-1/n",
        data, ok=abs(rate - expected) <= band, note=f"expected {expected:.4f}")

    # --- modified knock-out: 3-approximation w.p. 1-eps, near-linear queries
    eps = 0.1
    n = 1024
    data = run("ko-mod", f"uniform01:{n}", "smaller-wins", t=3.0,
               epsilon=eps, trials=500)
    bound = knockout_query_bound(n, eps)
    add("ko-mod", "smaller-wins", n, 3.0, eps,
        "error(t=3) < eps and queries < n + log2(n)^4 ceil((1/e)ln(1/e))^2 / 2",
        data, ok=(data.summary().error_ci95[1] < eps) and
                 (data.queries.max() < bound))
    n = 1025
    data = run("ko-mod", f"komodhard:{n}", "construction", t=3.0,
               epsilon=eps, trials=500)
    bound = knockout_query_bound(n, eps)
    add("ko-mod", "construction:komod-hard", n, 3.0, eps,
        "error(t=3) < eps and query bound, on the hard instance",
        data, ok=(data.summary().error_ci95[1] < eps) and
                 (data.queries.max() < bound))
    n = _largest_komod_n(max(max_n, 512))
    data = run("ko-mod", f"komodhard:{n}", "construction", t=2.9,
               epsilon=eps, trials=300)
    rate = float(data.errors.mean())
    add("ko-mod", "construction:komod-hard", n, 2.9, eps,
        "hard instance keeps error below t=3 bounded away from zero",
        data, ok=rate > 0.02, note=f"measured rate {rate:.4f}")

    # --- quick-select: zero error at t=2; expected queries < 2n non-adaptive;
    #     exactly binom(n,2) against the pivot-killer
    n = 1000
    data = run("q-select", f"zeros:{n}", "smaller-wins", t=2.0, trials=4000)
    mean = data.queries.mean()
    se = data.queries.std(ddof=1) / math.sqrt(len(data.queries))
    # the transitive graph realized by this config has an exact expectation
    # oracle; its value sits below 2n and the measured mean must match it
    # (a direct mean-vs-2n test would need ~1e5 trials: the per-run std is
    # about 0.7n here)
    exact_mean = transitive_expected_queries(n)
    add("q-select", "smaller-wins", n, 2.0, None,
        "error(t=2) = 0 and mean queries < 2n (exact value 1985.03 at n=1000)",
        data, ok=(not data.errors.any()) and (exact_mean < 2 * n)
                 and (abs(mean - exact_mean) <= 3 * se),
        note=f"mean {mean:.1f} vs exact {exact_mean:.1f} < {2 * n}")
    data = run("q-select", f"zeros:{n}", "random", t=2.0, trials=2500)
    mean = data.queries.mean()
    se = data.queries.std(ddof=1) / math.sqrt(len(data.queries))
    add("q-select", "random", n, 2.0, None,
        "error(t=2) = 0 and mean queries < 2n",
        data, ok=(not data.errors.any()) and (mean + 3 * se < 2 * n),
        note=f"mean {mean:.1f} vs 2n = {2 * n}")
    n = 50
    data = run("q-select", f"zeros:{n}", "pivot-killer", t=2.0, trials=200)
    exact = n * (n - 1) // 2
    add("q-select", "pivot-killer", n, 2.0, None,
        "adaptive adversary forces exactly n(n-1)/2 queries, still error 0",
        data, ok=(not data.errors.any()) and (data.queries == exact).all())

    # --- combination: 2-approximation w.p. 1-eps with linear query scaling
    sizes = [s for s in (256, 512, 1024, 2048) if s <= max_n] or [max_n]
    for instance_kind, adv in (("zeros", "pivot-killer"),
                               ("uniform01", "smaller-wins")):
        group = []
        for n in sizes:
            data = run("comb", f"{instance_kind}:{n}", adv, t=2.0,
                       epsilon=eps, trials=40)
            group.append((n, data))
        ratios = [d.queries.mean() / n for n, d in group]
        scaling_ok = max(ratios) <= 2.0 * min(ratios)
        for (n, data), ratio in zip(group, ratios):
            add("comb", adv, n, 2.0, eps,
                "error(t=2) < eps and queries/n bounded across sizes",
                data, ok=(data.errors.mean() < eps) and scaling_ok,
                note=f"queries/n {ratio:.1f}")

    # --- sorting: zero 2-approximation sort error; quick-sort matches the
    #     noiseless expectation oracle
    n = 50
    data = run("q-sort", f"distinct:{n}", "lower-index-wins", t=2.0,
               trials=3000)
    f_n = exact_expected_queries(n)
    mean = data.queries.mean()
    se = data.queries.std(ddof=1) / math.sqrt(len(data.queries))
    add("q-sort", "lower-index-wins", n, 2.0, None,
        "sorted within t=2 always; noiseless mean queries = f(n)",
        data, ok=(not data.errors.any()) and (abs(mean - f_n) <= 3 * se),
        note=f"mean {mean:.2f} vs f({n}) = {f_n:.2f}")
    n = 101
    data = run("q-sort", f"lemma2:{n}", "construction", t=2.0, trials=500)
    add("q-sort", "construction:lemma2", n, 2.0, None,
        "sorted within t=2 against the regular hard tournament",
        data, ok=not data.errors.any())
    data = run("compl-sort", f"lemma2:{n}", "construction", t=2.0,
               trials=400)
    exact = n * (n - 1) // 2
    add("compl-sort", "construction:lemma2", n, 2.0, None,
        "sorted within t=2 always, n(n-1)/2 queries",
        data, ok=(not data.errors.any()) and (data.queries == exact).all())

    wall = time.perf_counter() - t0
    csv_text = CSV_HEADER + "\n" + "\n".join(r.csv() for r in rows) + "\n"
    text = _render_text(rows, wall)
    report = BoundReport(rows=rows, csv_text=csv_text, text=text, wall_time=wall)
    if out_dir is not None:
        report.write(out_dir)
    return report


def _render_text(rows, wall) -> str:
    lines = ["selection/sorting bound report", "=" * 78]
    for r in rows:
        s = r.summary
        status = "pass" if r.ok else "FAIL"
        lines.append(f"[{status}] {r.algorithm:10s} vs {r.adversary:26s} "
                     f"n={r.n:<5d} t={r.t:g}" +
                     (f" eps={r.epsilon:g}" if r.epsilon is not None else ""))
        lines.append(f"       claim: {r.claim}")
        lines.append(f"       error_rate={s.error_rate:.6g} "
                     f"ci95=({s.error_ci95[0]:.4g}, {s.error_ci95[1]:.4g}) "
                     f"q_mean={s.query_mean:.6g} q_max={s.query_max:g} "
                     f"trials={s.trials}")
        if r.note:
            lines.append(f"       note: {r.note}")
    n_ok = sum(r.ok for r in rows)
    lines.append("=" * 78)
    lines.append(f"{n_ok}/{len(rows)} rows pass; wall time {wall:.1f}s")
    return "\n".join(lines) + "\n"
