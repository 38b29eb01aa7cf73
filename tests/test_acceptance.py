"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Everything is seeded; the
whole suite is deterministic and takes roughly ten minutes on a laptop.
"""

import itertools
import math
import time

import numpy as np
import pytest

from advsel.adversary import (ComparatorSession, PivotKiller, TournamentGraph,
                              lemma_one_construction)
from advsel.algorithms import complete_tournament, quick_select
from advsel.core import Instance, RngSeed, is_t_sorted
from advsel.harness import TrialConfig, check_concentration, run_trials, wilson_interval
from advsel.report import bound_report, knockout_query_bound
from advsel.scheffe import (l1_distance, planted_suite, sample,
                            scheffe_quickselect, scheffe_tournament)
from advsel.sorting import complete_sort, exact_expected_queries, quick_sort

SEED = 20250810


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# --------------------------------------------------------------------------
# criterion 1: exhaustive zero-error 2-approximation for n <= 4
# --------------------------------------------------------------------------

def _valid_orientations(values, delta=1.0):
    n = len(values)
    free, forced = [], []
    for i in range(n):
        for j in range(i + 1, n):
            gap = values[i] - values[j]
            if gap > delta:
                forced.append((i, j, i))
            elif -gap > delta:
                forced.append((i, j, j))
            else:
                free.append((i, j))
    for bits in itertools.product((0, 1), repeat=len(free)):
        m = np.zeros((n, n), dtype=bool)
        for i, j, w in forced:
            m[w, j if w == i else i] = True
        for (i, j), b in zip(free, bits):
            m[(i, j) if b else (j, i)] = True
        yield m


def test_c01_exhaustive_two_approximation():
    t0 = time.perf_counter()
    instances = graphs = 0
    for n in range(1, 5):
        for values in itertools.product((0.0, 1.0, 2.0), repeat=n):
            instances += 1
            x_star = max(values)
            inst = Instance(values)
            for m in _valid_orientations(values):
                graphs += 1
                beats = m  # beats[a, b]: a beats b

                # quick-select: every pivot sequence, by DFS over states
                seen = set()
                stack = [tuple(range(n))]
                while stack:
                    state = stack.pop()
                    if state in seen:
                        continue
                    seen.add(state)
                    if len(state) == 1:
                        assert values[state[0]] >= x_star - 2
                        continue
                    for p in state:
                        surv = tuple(x for x in state if x != p and beats[x, p])
                        stack.append(surv if surv else (p,))

                # quick-sort: every pivot sequence, orders checked at t=2
                def qsort_orders(state):
                    if len(state) <= 1:
                        yield list(state)
                        return
                    for p in state:
                        win = tuple(x for x in state if x != p and beats[x, p])
                        lose = tuple(x for x in state if x != p and not beats[x, p])
                        for left in qsort_orders(win):
                            for right in qsort_orders(lose):
                                yield left + [p] + right

                for order in qsort_orders(tuple(range(n))):
                    assert is_t_sorted([values[i] for i in order], 2.0)

                # complete tournament: every max-wins item (covers every
                # tie-break draw); complete sort: every tie-consistent order
                wins = m.sum(axis=1)
                best = wins.max()
                for a in range(n):
                    if wins[a] == best:
                        assert values[a] >= x_star - 2
                    for b in range(n):
                        if a != b and wins[a] >= wins[b]:
                            assert values[b] - values[a] <= 2.0

                # tie the implementations to the enumeration on a few seeds
                if n >= 2 and graphs % 7 == 0:
                    g = TournamentGraph(m, check=False)
                    for s in range(4):
                        rng = RngSeed(SEED + s).generator()
                        sess = ComparatorSession(inst, g, record=False)
                        r = quick_select(sess, rng=rng)
                        assert values[r.winner] >= x_star - 2
                        sess = ComparatorSession(inst, g, record=False)
                        o = quick_sort(sess, rng=RngSeed(SEED + s).generator())
                        assert is_t_sorted([values[i] for i in o.order], 2.0)
                        sess = ComparatorSession(inst, g, record=False)
                        r = complete_tournament(sess, rng=RngSeed(s).generator())
                        assert values[r.winner] >= x_star - 2
                        sess = ComparatorSession(inst, g, record=False)
                        o = complete_sort(sess, rng=RngSeed(s).generator())
                        assert is_t_sorted([values[i] for i in o.order], 2.0)
    _line(1, True, f"exhaustive n<=4: {instances} instances, {graphs} valid "
                   f"graphs, all pivot orders 2-approx/2-sorted "
                   f"({time.perf_counter() - t0:.1f}s)")


# --------------------------------------------------------------------------
# criterion 2: pivot-killer forces exactly n(n-1)/2 quick-select queries
# --------------------------------------------------------------------------

def test_c02_pivot_killer_exact_query_count():
    counts = {}
    for n in (3, 10, 50):
        inst = Instance((0.0,) * n)
        for s in range(20):
            sess = ComparatorSession(inst, PivotKiller(), record=False)
            res = quick_select(sess, rng=RngSeed(SEED + s).generator())
            assert res.queries == n * (n - 1) // 2
            assert inst.values[res.winner] == 0.0
        counts[n] = n * (n - 1) // 2
    _line(2, counts == {3: 3, 10: 45, 50: 1225},
          f"quick-select vs pivot-killer query counts {counts} (exact)")


# --------------------------------------------------------------------------
# criterion 3: expected quick-select queries < 2n against non-adaptive graphs
# --------------------------------------------------------------------------

def test_c03_quick_select_below_2n():
    t0 = time.perf_counter()
    details = []
    ok = True
    # trial counts rise with n because the transitive worst case has query
    # standard deviation ~0.7n and the margin to 2n shrinks
    plan = {("smaller-wins", 100): 20_000, ("smaller-wins", 500): 50_000,
            ("smaller-wins", 1000): 100_000,
            ("random", 100): 10_000, ("random", 500): 10_000,
            ("random", 1000): 10_000}
    for (adv, n), trials in plan.items():
        cfg = TrialConfig(algorithm="q-select", instance=f"zeros:{n}",
                          adversary=adv, t=2.0, trials=trials,
                          seed=SEED, stream=30 + n // 100 + (0 if adv == "random" else 500))
        data = run_trials(cfg)
        mean = data.queries.mean()
        se = data.queries.std(ddof=1) / math.sqrt(trials)
        good = mean + 3 * se < 2 * n and not data.errors.any()
        ok &= good
        details.append(f"{adv} n={n}: {mean:.1f}+3*{se:.2f} < {2 * n}")
    _line(3, ok, "; ".join(details) + f" ({time.perf_counter() - t0:.0f}s)")


# --------------------------------------------------------------------------
# criterion 4: quick-select tail concentration at n=100
# --------------------------------------------------------------------------

def test_c04_concentration():
    t0 = time.perf_counter()
    rows = check_concentration(100, (6.0, 8.0, 10.0), trials=1_000_000,
                               adversary_spec="smaller-wins", seed=SEED)
    detail = "; ".join(
        f"k={r.k:g}: {r.empirical:.2e} <= {r.bound:.2e}+3se" for r in rows)
    _line(4, all(r.ok for r in rows),
          detail + f" (1e6 trials, {time.perf_counter() - t0:.0f}s)")


# --------------------------------------------------------------------------
# criterion 5: modified knock-out error < eps and query bound at n ~ 1024
# --------------------------------------------------------------------------

def test_c05_modified_knockout_theorem():
    t0 = time.perf_counter()
    eps = 0.1
    ok = True
    details = []
    # the hard construction needs n-2 divisible by 3; 1025 is the closest
    for instance, n, stream in (("uniform01:1024", 1024, 50),
                                ("komodhard:1025", 1025, 51)):
        adv = "smaller-wins" if instance.startswith("uniform") else "construction"
        cfg = TrialConfig(algorithm="ko-mod", instance=instance, adversary=adv,
                          t=3.0, epsilon=eps, trials=1000, seed=SEED,
                          stream=stream)
        data = run_trials(cfg)
        hi = wilson_interval(int(data.errors.sum()), len(data.errors))[1]
        bound = knockout_query_bound(n, eps)
        good = hi < eps and data.queries.max() < bound
        ok &= good
        details.append(f"{instance}: err_hi={hi:.4f} < {eps}, "
                       f"q_max={data.queries.max()} < {bound:.0f}")
    _line(5, ok, "; ".join(details) + f" ({time.perf_counter() - t0:.0f}s)")


# --------------------------------------------------------------------------
# criterion 6: the hard instance defeats any t < 3 with constant probability
# --------------------------------------------------------------------------

def test_c06_knockout_lower_bound():
    t0 = time.perf_counter()
    cfg = TrialConfig(algorithm="ko-mod", instance="komodhard:3002",
                      adversary="construction", t=2.9, epsilon=0.1,
                      trials=1000, seed=SEED, stream=60)
    data = run_trials(cfg)
    rate = data.errors.mean()
    _line(6, rate > 0.02,
          f"ko-mod on komod-hard n=3002: error(t=2.9) = {rate:.3f} > 0.02 "
          f"({time.perf_counter() - t0:.0f}s)")


# --------------------------------------------------------------------------
# criteria 7 + 8: combination algorithm scales linearly and shrinks by 1/3
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def comb_runs():
    eps = 0.1
    runs = {}
    stream = 70
    for inst_kind in ("zeros", "uniform01", "lemma2"):
        for adv in ("pivot-killer", "smaller-wins"):
            per_size = []
            for n in (256, 512, 1024, 2048):
                if inst_kind == "lemma2":
                    n = n - 1  # the construction multiset needs odd n
                cfg = TrialConfig(algorithm="comb", instance=f"{inst_kind}:{n}",
                                  adversary=adv, t=2.0, epsilon=eps, trials=40,
                                  seed=SEED, stream=stream)
                stream += 1
                per_size.append((n, run_trials(cfg, collect_sizes=True)))
            runs[(inst_kind, adv)] = per_size
    return runs


def test_c07_combined_select_error_and_scaling(comb_runs):
    t0 = time.perf_counter()
    ok = True
    details = []
    for (inst_kind, adv), per_size in comb_runs.items():
        ratios = [d.queries.mean() / n for n, d in per_size]
        err_ok = all(d.errors.mean() < 0.1 for _, d in per_size)
        scale_ok = max(ratios) <= 2.0 * min(ratios)
        ok &= err_ok and scale_ok
        details.append(f"{inst_kind}+{adv}: q/n {min(ratios):.0f}..{max(ratios):.0f}")
    _line(7, ok, "error<0.1 and linear scaling on all six configs: "
          + "; ".join(details))


def test_c08_round_shrink_invariant(comb_runs):
    rounds = 0
    for per_size in comb_runs.values():
        for _, data in per_size:
            for sizes in data.round_sizes:
                for a, b in zip(sizes, sizes[1:]):
                    assert b <= math.ceil(2 / 3 * a), sizes
                    rounds += 1
    _line(8, True, f"n_(i+1) <= ceil(2/3 n_i) in all {rounds} logged rounds (exact)")


# --------------------------------------------------------------------------
# criterion 9: quick-sort matches the noiseless expectation oracle
# --------------------------------------------------------------------------

def test_c09_quicksort_expectation():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n, stream in ((10, 90), (50, 91)):
        cfg = TrialConfig(algorithm="q-sort", instance=f"distinct:{n}",
                          adversary="lower-index-wins", t=2.0, trials=100_000,
                          seed=SEED, stream=stream)
        data = run_trials(cfg)
        f_n = exact_expected_queries(n)
        mean = data.queries.mean()
        se = data.queries.std(ddof=1) / math.sqrt(len(data.queries))
        good = abs(mean - f_n) <= 3 * se and not data.errors.any()
        ok &= good
        details.append(f"distinct n={n}: |{mean:.2f} - {f_n:.2f}| <= {3 * se:.2f}")
    for n, stream in ((10, 92), (50, 93)):
        cfg = TrialConfig(algorithm="q-sort", instance=f"zeroone:{n}",
                          adversary="smaller-wins", t=2.0, trials=100_000,
                          seed=SEED, stream=stream)
        data = run_trials(cfg)
        f_n = exact_expected_queries(n)
        mean = data.queries.mean()
        se = data.queries.std(ddof=1) / math.sqrt(len(data.queries))
        good = mean <= f_n + 3 * se and not data.errors.any()
        ok &= good
        details.append(f"zeroone n={n}: {mean:.2f} <= {f_n:.2f}+{3 * se:.2f}")
    _line(9, ok, "; ".join(details) + f" ({time.perf_counter() - t0:.0f}s)")


# --------------------------------------------------------------------------
# criterion 10: Scheffe factor-9, test budget, and quadratic-vs-linear cost
# --------------------------------------------------------------------------

def test_c10_scheffe():
    t0 = time.perf_counter()
    n_cand, support, radius, k, trials = 50, 20, 0.1, 10_000, 200
    additive = 4 * math.sqrt(10 * math.log(math.comb(n_cand, 2) / 0.05) / k)
    master = RngSeed(SEED, 100)
    violations = 0
    test_counts = []
    for t in range(trials):
        rng = master.generator(t)
        p0, cands = planted_suite(n_cand, support, radius, rng)
        dists = [l1_distance(c, p0) for c in cands]
        smp = sample(p0, k, rng)
        sel = scheffe_quickselect(cands, smp, rng)
        violations += dists[sel.winner] > 9 * min(dists) + additive
        test_counts.append(sel.tests)
    mean_tests = float(np.mean(test_counts))
    factor9_ok = violations / trials < 0.05
    budget_ok = mean_tests < 2 * n_cand

    # cost scaling: the tournament's test count is exactly binom(n,2), so
    # doubling n multiplies it by >= 4, and the wall clock follows; the wall
    # clock check keeps slack for timer noise while the count check is exact
    wall = {}
    counts = {}
    for n in (n_cand, 2 * n_cand):
        rng = master.generator(10_000 + n)
        p0, cands = planted_suite(n, support, radius, rng)
        smp = sample(p0, k, rng)
        tq = tt = float("inf")
        for _ in range(5):
            t1 = time.perf_counter()
            sel_t = scheffe_tournament(cands, smp, master.generator(1))
            tt = min(tt, time.perf_counter() - t1)
            t1 = time.perf_counter()
            scheffe_quickselect(cands, smp, master.generator(2))
            tq = min(tq, time.perf_counter() - t1)
        wall[n] = (tt, tq)
        counts[n] = sel_t.tests
    count_ratio = counts[2 * n_cand] / counts[n_cand]
    wall_t_ratio = wall[2 * n_cand][0] / wall[n_cand][0]
    wall_q_ratio = wall[2 * n_cand][1] / wall[n_cand][1]
    counts_ok = (counts[n_cand] == math.comb(n_cand, 2)
                 and counts[2 * n_cand] == math.comb(2 * n_cand, 2)
                 and count_ratio >= 4.0)
    timing_ok = wall_t_ratio >= 3.5 and wall_q_ratio <= 3.0

    ok = factor9_ok and budget_ok and counts_ok and timing_ok
    _line(10, ok,
          f"factor-9 violations {violations}/{trials} (<5%); mean tests "
          f"{mean_tests:.1f} < {2 * n_cand}; tournament tests x{count_ratio:.2f} "
          f"(exact binom), wall x{wall_t_ratio:.2f} vs quickselect wall "
          f"x{wall_q_ratio:.2f} ({time.perf_counter() - t0:.0f}s)")


# --------------------------------------------------------------------------
# criterion 11: regular-tournament construction validity + measured error
# --------------------------------------------------------------------------

def test_c11_lemma_one_validity():
    for n in range(3, 16, 2):
        inst, g = lemma_one_construction(n, seed=SEED)
        TournamentGraph(g.dense().matrix, check=True)
        assert (g.out_degrees() == (n - 1) // 2).all()
        g.validate_for(inst)
    # any index-symmetric algorithm is reduced to a uniform guess: measured
    # error at t < 1 should sit at 1 - 1/n (4-sigma band)
    rates = {}
    ok = True
    band = 4 * math.sqrt(0.8 * 0.2 / 20_000)
    for algo, stream in (("compl", 110), ("seq", 111), ("q-select", 112)):
        cfg = TrialConfig(algorithm=algo, instance="lemma1:5",
                          adversary="construction", t=0.9, trials=20_000,
                          seed=SEED, stream=stream)
        data = run_trials(cfg)
        rates[algo] = data.errors.mean()
        ok &= abs(rates[algo] - 0.8) <= band
    _line(11, ok, "out-degrees (n-1)/2 and model-valid for odd n in 3..15 "
          f"(exact); measured error at t=0.9 on n=5: "
          + ", ".join(f"{a}={r:.3f}" for a, r in rates.items())
          + " (expected 0.8)")


# --------------------------------------------------------------------------
# criterion 12: the full bound report is byte-for-byte reproducible
# --------------------------------------------------------------------------

def test_c12_report_reproducible(tmp_path):
    t0 = time.perf_counter()
    r1 = bound_report(seed=SEED, out_dir=str(tmp_path / "a"))
    r2 = bound_report(seed=SEED, out_dir=str(tmp_path / "b"))
    csv1 = (tmp_path / "a" / "bound_report.csv").read_bytes()
    csv2 = (tmp_path / "b" / "bound_report.csv").read_bytes()
    identical = csv1 == csv2
    rows_ok = r1.all_ok and r2.all_ok
    _line(12, identical and rows_ok,
          f"two full bound_report runs byte-identical ({len(csv1)} bytes), "
          f"all {len(r1.rows)} rows pass ({time.perf_counter() - t0:.0f}s)")
