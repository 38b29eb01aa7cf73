import hashlib
import math
import multiprocessing
import os

import numpy as np
import pytest

from advsel import harness
from advsel.adversary import ComparatorSession, PivotKiller, build_nonadaptive
from advsel.algorithms import combined_select, quick_select
from advsel.core import Instance, RngSeed
from advsel.generators import parse_generator
from advsel.harness import (CSV_HEADER, TrialConfig, check_concentration,
                            csv_row, estimate, run_trials, wilson_interval)
from advsel.report import bound_report


class TestWilson:
    def test_contains_point_estimate(self):
        for k, n in ((0, 10), (3, 10), (10, 10), (7, 200)):
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_known_value(self):
        lo, hi = wilson_interval(5, 10)
        assert abs(lo - 0.2366) < 2e-3 and abs(hi - 0.7634) < 2e-3

    def test_zero_successes_upper_bound(self):
        _, hi = wilson_interval(0, 1000)
        assert hi < 0.005


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(algorithm="nope", instance="zeros:4", adversary="random")
        with pytest.raises(ValueError):
            TrialConfig(algorithm="ko-mod", instance="zeros:4", adversary="random")
        with pytest.raises(ValueError):
            TrialConfig(algorithm="compl", instance="zeros:4", adversary="wat")
        with pytest.raises(ValueError):
            TrialConfig(algorithm="compl", instance="zeros:4",
                        adversary="random", trials=0)
        with pytest.raises(ValueError):  # a trial index past one 32-bit word
            TrialConfig(algorithm="compl", instance="zeros:4",
                        adversary="random", trials=2 ** 32 + 1)
        for bad in ({"seed": "1"}, {"seed": True}, {"stream": 1.0},
                    {"trials": 2.0}, {"t": "2"}, {"t": 10 ** 400},
                    {"epsilon": [0.1]}, {"epsilon": False}):
            with pytest.raises(ValueError):
                TrialConfig(algorithm="compl", instance="zeros:4",
                            adversary="random", **bad)

    def test_json_requires_seed(self):
        with pytest.raises(ValueError):
            TrialConfig.from_json('{"algorithm": "compl", "instance": "zeros:4", '
                                  '"adversary": "random"}')

    def test_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            TrialConfig.from_json('{"algorithm": "compl", "instance": "zeros:4", '
                                  '"adversary": "random", "seed": 1, "bogus": 2}')

    def test_round_trip(self):
        cfg = TrialConfig(algorithm="q-select", instance="zeros:10",
                          adversary="pivot-killer", trials=5, seed=3)
        import json as _json
        assert TrialConfig.from_json(_json.dumps(cfg.to_dict())) == cfg


class TestEstimate:
    def test_complete_tournament_zero_error(self):
        cfg = TrialConfig(algorithm="compl", instance="uniform01:24",
                          adversary="random", t=2.0, trials=150, seed=5)
        s = estimate(cfg)
        assert s.error_rate == 0.0
        assert s.query_mean == s.query_max == math.comb(24, 2)

    def test_pivot_killer_query_counts(self):
        cfg = TrialConfig(algorithm="q-select", instance="zeros:10",
                          adversary="pivot-killer", t=2.0, trials=60, seed=6)
        s = estimate(cfg)
        assert s.query_mean == s.query_max == 45.0
        assert s.query_quantiles[0.5] == 45.0

    def test_lemma1_uniform_guess(self):
        # regular tournament + value-blind dynamics: output is uniform over
        # the five inputs, so the miss rate at t=0.5 concentrates on 4/5
        cfg = TrialConfig(algorithm="seq", instance="lemma1:5",
                          adversary="construction", t=0.5, trials=12000, seed=7)
        s = estimate(cfg)
        lo, hi = s.error_ci95
        assert lo <= 0.8 <= hi

    def test_summary_invariants(self):
        cfg = TrialConfig(algorithm="q-select", instance="uniform01:40",
                          adversary="smaller-wins", t=2.0, trials=200, seed=8)
        s = estimate(cfg)
        assert s.error_ci95[0] <= s.error_rate <= s.error_ci95[1]
        assert s.query_max >= s.query_mean
        assert s.query_quantiles[0.5] <= s.query_quantiles[0.9] <= s.query_quantiles[0.99]

    def test_error_monotone_in_t(self):
        rates = []
        for t in (0.0, 0.5, 1.0, 2.0):
            cfg = TrialConfig(algorithm="seq", instance="lemma2:9",
                              adversary="construction", t=t, trials=800, seed=9)
            rates.append(estimate(cfg).error_rate)
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_quick_select_zeroone_mean_below_2n(self):
        cfg = TrialConfig(algorithm="q-select", instance="zeroone:100",
                          adversary="smaller-wins", t=2.0, trials=10_000,
                          seed=19)
        s = estimate(cfg)
        assert s.query_mean < 200
        assert s.error_rate == 0.0

    def test_sort_algorithms_supported(self):
        cfg = TrialConfig(algorithm="q-sort", instance="distinct:12",
                          adversary="lower-index-wins", t=0.0, trials=50, seed=10)
        s = estimate(cfg)
        assert s.error_rate == 0.0  # noiseless sort is exactly descending


class TestReproducibility:
    def test_identical_configs_identical_results(self):
        cfg = TrialConfig(algorithm="comb", instance="uniform01:64",
                          adversary="random", t=2.0, epsilon=0.2,
                          trials=120, seed=11)
        a, b = run_trials(cfg), run_trials(cfg)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.queries, b.queries)

    @pytest.mark.parametrize("algorithm,instance,epsilon", [
        ("q-select", "zeros:40", None), ("comb", "uniform01:64", 0.2),
    ], ids=["q-select", "comb"])
    def test_worker_count_does_not_change_results(self, monkeypatch, algorithm,
                                                  instance, epsilon):
        cfg = TrialConfig(algorithm=algorithm, instance=instance,
                          adversary="random", t=2.0, epsilon=epsilon, trials=64,
                          seed=13)
        monkeypatch.setenv("ADVSEL_THREADS", "1")
        serial = run_trials(cfg)
        monkeypatch.setenv("ADVSEL_THREADS", "2")
        parallel = run_trials(cfg)
        assert np.array_equal(serial.errors, parallel.errors)
        assert np.array_equal(serial.queries, parallel.queries)
        assert serial.round_sizes == parallel.round_sizes
        assert serial.violations == parallel.violations
        assert len(serial.round_sizes) == (64 if algorithm == "comb" else 0)

    @pytest.mark.parametrize("adversary", [
        {"kind": "nonadaptive"},
        {"kind": "nonadaptive", "policy": "random", "seed": None},
        "random", "smaller-wins",
    ], ids=["default-policy", "null-seed", "random", "smaller-wins"])
    def test_block_split_does_not_change_results(self, adversary):
        # what a worker runs: a block may start at any trial
        cfg = TrialConfig(algorithm="q-select", instance="zeros:30",
                          adversary=adversary, t=2.0, trials=40, seed=3)
        whole = harness._trial_block(cfg, 0, 40)
        parts = [harness._trial_block(cfg, 0, 17),
                 harness._trial_block(cfg, 17, 40)]
        for field in ("errors", "queries"):
            assert np.array_equal(getattr(whole, field), np.concatenate(
                [getattr(p, field) for p in parts]))

    def test_memoized_strategy_is_rebuilt_every_trial(self):
        # a memo shared across trials would answer later trials from the first
        cfg = TrialConfig(algorithm="q-select", instance="zeros:30",
                          adversary={"kind": "construction",
                                     "name": "pivot-killer",
                                     "params": {"memoized": True}},
                          trials=4, seed=3)
        assert run_trials(cfg).queries.tolist() == [math.comb(30, 2)] * 4

    def test_block_streams_match_per_trial_seeding(self, monkeypatch):
        # a chunk of 3 puts state-derivation boundaries inside the run
        monkeypatch.setattr(harness, "_SEED_CHUNK", 3)
        cfg = TrialConfig(algorithm="q-select", instance="uniform01:12",
                          adversary="random", t=0.0, trials=10, seed=2 ** 40,
                          stream=7)
        data = run_trials(cfg)
        root = RngSeed(cfg.seed, cfg.stream)
        for t in range(cfg.trials):
            inst, _ = parse_generator(cfg.instance, root.generator(t, 0))
            adv = build_nonadaptive(inst, "random", root.generator(t, 1))
            session = ComparatorSession(inst, adv, record=False)
            winner = quick_select(session, rng=root.generator(t, 2)).winner
            assert data.queries[t] == session.queries
            assert data.errors[t] == (inst.values[winner] < inst.max_value)

    @pytest.mark.parametrize("algorithm,instance,adversary", [
        ("q-select", "zeros:70", "random"),
        ("q-sort", "uniform01:70", "smaller-wins"),
        ("ko-mod", "komodhard:68", "construction"),
        ("comb", "seqhard:3,4", "construction"),
        ("compl-sort", "zeroone:70", "larger-wins"),
        ("q-sort", "lemma2:71", "construction"),
    ])
    def test_on_demand_and_dense_agree(self, monkeypatch, algorithm, instance,
                                       adversary):
        cfg = TrialConfig(algorithm=algorithm, instance=instance,
                          adversary=adversary, t=2.0, epsilon=0.2, trials=12,
                          seed=15)
        runs = []
        for below in (0, 10 ** 9):   # every rule on demand, then every one dense
            monkeypatch.setattr(harness, "DENSE_BELOW_N", {})
            monkeypatch.setattr(harness, "DENSE_BELOW_N_DEFAULT", below)
            runs.append(run_trials(cfg))
        assert np.array_equal(runs[0].errors, runs[1].errors)
        assert np.array_equal(runs[0].queries, runs[1].queries)

    def test_when_rules_stay_dense(self, monkeypatch):
        from advsel.adversary import RuleTournament, TournamentGraph
        small = build_nonadaptive(Instance((0.0,) * 10), "smaller-wins")
        large = build_nonadaptive(Instance((0.0,) * 600), "smaller-wins")

        def dense(adv, static, algorithm="q-select"):
            out = harness._engine_form(adv, static, algorithm)
            return not isinstance(out, RuleTournament) and \
                isinstance(out, TournamentGraph)

        assert dense(small, static=False)          # below the crossover
        assert not dense(large, static=False)       # per trial, large n
        assert dense(large, static=True)            # reused by every trial
        assert not dense(large, static=False, algorithm="q-sort")
        assert dense(build_nonadaptive(Instance((0.0,) * 300), "larger-wins"),
                     static=False, algorithm="q-sort")
        from advsel import adversary
        monkeypatch.setattr(adversary, "DENSE_CELL_BUDGET", 50)
        assert not dense(small, static=True)        # past the budget
        killer = PivotKiller()
        assert harness._engine_form(killer, True, "q-select") is killer

    def test_worker_count_capped_at_cores(self, monkeypatch):
        monkeypatch.setenv("ADVSEL_THREADS", "100000")
        assert harness._worker_count() == (os.cpu_count() or 1)
        monkeypatch.setenv("ADVSEL_THREADS", "0")
        assert harness._worker_count() == 1

    def test_round_sizes_collection(self, monkeypatch):
        results = []

        def comb(*args, **kwargs):
            results.append(combined_select(*args, **kwargs))
            return results[-1]

        monkeypatch.delenv("ADVSEL_THREADS", raising=False)
        monkeypatch.setattr(harness, "combined_select", comb)
        cfg = TrialConfig(algorithm="comb", instance="zeros:30",
                          adversary="pivot-killer", t=2.0, epsilon=0.2,
                          trials=10, seed=14)
        data = run_trials(cfg)
        assert len(data.round_sizes) == 10
        for sizes, result in zip(data.round_sizes, results, strict=True):
            assert sizes[0] == 30 and sizes[-1] == 1
            assert sizes == result.sizes and result.rounds == len(sizes) - 1
        q_select = TrialConfig(algorithm="q-select", instance="zeros:30",
                               adversary="pivot-killer", trials=10, seed=14)
        assert run_trials(q_select).round_sizes == []


class TestConcentration:
    def test_bound_arithmetic(self):
        rows = check_concentration(20, [2, 8, 10], trials=200,
                                   adversary_spec="smaller-wins", seed=15)
        by_k = {r.k: r for r in rows}
        assert abs(by_k[2].bound - math.exp(-(2 - math.e) * 1.0)) < 1e-12
        assert by_k[2].bound > 1.0  # vacuous
        assert abs(by_k[8].bound - 4.0 ** -4) < 1e-12
        assert abs(by_k[10].bound - 5.0 ** -5) < 1e-15

    def test_rejects_adaptive(self):
        with pytest.raises(ValueError):
            check_concentration(10, [8], 10, "pivot-killer", seed=16)

    def test_small_run_passes(self):
        rows = check_concentration(30, [6, 8], trials=3000,
                                   adversary_spec="smaller-wins", seed=17)
        assert all(r.ok for r in rows)


class TestCsv:
    def test_report_draw_contract(self):
        # every row's trials draw the same streams in the same order: the
        # CSV of a fixed seed is pinned byte for byte (numpy 2.4)
        csv = bound_report(seed=20250810, scale=0.001).csv_text
        assert hashlib.sha256(csv.encode()).hexdigest() == \
            "0a3cc4b1b3c184fa37aac8eafafd9ff2dc7a23410bd4cbb16e5b6b7042f54d45"

    def test_row_format_stable(self):
        cfg = TrialConfig(algorithm="compl", instance="zeros:6",
                          adversary="lower-index-wins", t=2.0, trials=20, seed=18)
        s = estimate(cfg)
        row = csv_row("compl", "lower-index-wins", 6, 2.0, None, s, True)
        fields = row.split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "compl" and fields[-1] == "true"
        assert fields[4] == ""  # no epsilon


class _Liar:
    """Answers every query with the lower index, forced or not."""

    def decide(self, instance, i, j, log, pivot):
        return min(i, j)


class TestViolations:
    @pytest.fixture()
    def liar(self, monkeypatch):
        monkeypatch.delenv("ADVSEL_THREADS", raising=False)
        monkeypatch.setattr(harness, "_build_adversary",
                            lambda spec, inst, g, rng: _Liar())
        return TrialConfig(algorithm="compl", instance="distinct:5",
                           adversary="lower-index-wins", trials=8, seed=3)

    def test_counted_over_all_trials(self, liar):
        inst, _ = parse_generator("distinct:5", RngSeed(3).generator(0, 0))
        session = ComparatorSession(inst, _Liar(), record=False)
        harness.complete_tournament(session)
        assert session.violations > 0
        assert run_trials(liar).violations == 8 * session.violations

    def test_clean_run_has_none(self):
        cfg = TrialConfig(algorithm="q-select", instance="zeros:20",
                          adversary="pivot-killer", trials=5, seed=3)
        assert run_trials(cfg).violations == 0

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched adversary only when forked")
    def test_merged_across_workers(self, liar, monkeypatch):
        serial = run_trials(liar).violations
        monkeypatch.setenv("ADVSEL_THREADS", "2")
        if harness._worker_count() < 2:
            pytest.skip("one core: the trials run in one block")
        assert run_trials(liar).violations == serial
