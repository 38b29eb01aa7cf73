import json
import math
import re
import warnings

import pytest

from advsel.adversary import lemma_one_construction
from advsel.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, main
from advsel.core import Instance, RngSeed
from advsel.scheffe import candidates_to_json, planted_suite


@pytest.fixture()
def fig1_file(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(Instance((2.0, 1.0, 0.0, 1.0)).to_json())
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_one_line_input_error(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1
    return err


# every pair of lemma1's n = 5 items, the lower index winning: all are free
LEMMA1_EDGES = [[i, j, i] for i in range(5) for j in range(i + 1, 5)]


class TestSelect:
    @pytest.mark.parametrize("seed", ["2", "3"])
    def test_pivot_killer_obeys_a_forced_pair_at_the_rounding_edge(
            self, capsys, tmp_path, seed):
        # gap 2 > delta 1, though 1e16 >= (1e16 + 2) - 1 once rounded
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"values": [10000000000000002, 10000000000000000]}))
        code, out = run_cli(capsys, "select", "--file", str(path), "--algo",
                            "q-select", "--adversary", "pivot-killer",
                            "--seed", seed, "--json")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert (rec["winner"], rec["violations"]) == (0, 0)

    @pytest.mark.parametrize("algo", ["ko-mod", "compl"])
    @pytest.mark.parametrize("adversary", ["smaller-wins", "random"])
    def test_wide_range_instance_warns_nothing(self, capsys, tmp_path, algo,
                                               adversary):
        # value gaps past the float range: 1e308 - -1e308 overflows
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"values": [1e308, -1e308, 0.0, 5e307]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["select", "--file", str(path), "--algo", algo,
                         "--adversary", adversary, "--seed", "1", "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_OK and captured.err == ""
        assert json.loads(captured.out)["winner"] == 0

    def test_pivot_killer_example(self, capsys):
        code, out = run_cli(capsys, "select", "--gen", "zeros:10",
                            "--algo", "q-select", "--adversary", "pivot-killer",
                            "--seed", "1", "--json")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["queries"] == 45
        assert rec["winner_value"] == 0.0

    def test_file_instance_compl(self, capsys, fig1_file):
        code, out = run_cli(capsys, "select", "--file", fig1_file,
                            "--algo", "compl", "--seed", "7", "--json")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["winner_value"] >= rec["max_value"] - 2

    def test_lemma1_generator(self, capsys):
        code, out = run_cli(capsys, "select", "--gen", "lemma1:5",
                            "--algo", "compl", "--seed", "3", "--json")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["gap"] <= 1.0
        assert rec["queries"] == 10

    def test_json_round_trip_identity(self, capsys):
        _, out = run_cli(capsys, "select", "--gen", "zeros:6",
                         "--algo", "q-select", "--adversary", "smaller-wins",
                         "--seed", "2", "--json")
        rec = json.loads(out)
        assert json.dumps(rec, sort_keys=True) == out.strip()

    def test_seed_echoed_when_omitted(self, capsys):
        code, out = run_cli(capsys, "select", "--gen", "zeros:4",
                            "--algo", "seq", "--json")
        rec = json.loads(out)
        assert code == EXIT_OK and isinstance(rec["seed"], int)

    def test_same_seed_same_output(self, capsys):
        args = ("select", "--gen", "uniform01:12", "--algo", "comb",
                "--adversary", "random", "--seed", "9", "--json")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_bad_instance_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run_cli(capsys, "select", "--file", str(bad),
                          "--algo", "compl", "--seed", "1")
        assert code == EXIT_INPUT

    def test_bad_generator(self, capsys):
        code, _ = run_cli(capsys, "select", "--gen", "nope:3",
                          "--algo", "compl", "--seed", "1")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("gen", ["zeros:", "uniform01:", "lemma1:",
                                     "komodhard:", "seqhard:3", "zeros:3,4"])
    def test_generator_arity_one_line_error(self, capsys, gen):
        assert_one_line_input_error(
            capsys, "select", "--algo", "q-select", "--gen", gen, "--seed", "1")

    def test_oversized_generator_one_line_error(self, capsys):
        assert_one_line_input_error(
            capsys, "select", "--algo", "q-select", "--gen", f"zeros:{10 ** 20}",
            "--seed", "1")

    def test_generator_size_checked_before_the_build(self, monkeypatch):
        from advsel import generators
        monkeypatch.setattr(generators, "MAX_INSTANCE_SIZE", 10)
        assert generators.parse_generator("distinct:10")[0].n == 10
        with pytest.raises(ValueError):
            generators.parse_generator("distinct:11")

    def test_non_array_values_one_line_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"values": 5}')
        assert_one_line_input_error(
            capsys, "select", "--file", str(bad), "--algo", "compl", "--seed", "1")

    def test_bad_algo(self, capsys):
        code, _ = run_cli(capsys, "select", "--gen", "zeros:3",
                          "--algo", "magic", "--seed", "1")
        assert code == EXIT_INPUT

    def test_invalid_explicit_adversary(self, capsys, tmp_path):
        inst = tmp_path / "i.json"
        inst.write_text('{"values": [2.0, 0.0]}')
        spec = '{"kind": "explicit", "edges": [[0, 1, 1]]}'
        code, _ = run_cli(capsys, "select", "--file", str(inst),
                          "--algo", "compl", "--adversary", spec, "--seed", "1")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("spec", [
        '{"kind": "explicit", "edges": 5}',
        '{"kind": "explicit", "edges": [[0, null, 1]]}',
        '{"kind": "explicit", "edges": [7]}',
        '{"kind": "explicit", "edges": [[0, Infinity, 1]]}',
        '{"kind": "nonadaptive", "policy": "random", "seed": [1]}',
        '{"kind": "construction", "name": "pivot-killer", "params": [1]}',
        '{"kind": "construction", "name": "lemma1", "params": {"n": "x"}}',
        '[1, 2]',
        '{"kind": "nonadaptive", "policy": "random", "seed": true}',
        '{"kind": "nonadaptive", "policy": "random", "seed": 2.7}',
        '{"kind": "nonadaptive", "policy": "random", "seed": "3"}',
        '{"kind": "construction", "name": "lemma1", "params": {"n": 5.9}}',
        '{"kind": "nonadaptive", "polcy": "smaller-wins"}',
        '{"kind": "construction", "name": "pivot-killer", "parms": {}}',
        '{"kind": "construction", "name": "lemma1"}',
        '{"kind": "construction", "name": "pivot-killer", '
        '"params": {"memoized": "no"}}',
        json.dumps({"kind": "explicit", "edges": LEMMA1_EDGES, "edge": []}),
    ])
    def test_malformed_adversary_one_line_error(self, capsys, tmp_path, spec):
        # lemma1's instance for n = 5, which a truncated n = 5.9 would rebuild
        path = tmp_path / "lemma1.json"
        path.write_text(lemma_one_construction(5)[0].to_json())
        err = assert_one_line_input_error(
            capsys, "select", "--file", str(path), "--algo", "compl",
            "--adversary", spec, "--seed", "1")
        # a sentence naming what is wrong, not the bare repr of a missing key
        assert not re.fullmatch(r"error: '\w*'\n", err)

    def test_overflowing_instance_one_line_error(self, capsys, tmp_path):
        for text in ('{"values": [1%s]}' % ("0" * 400),
                     '{"values": [1.0], "delta": 1%s}' % ("0" * 400),
                     '{"values": [0, 1.5, 3], "detla": 2}'):
            bad = tmp_path / "big.json"
            bad.write_text(text)
            assert_one_line_input_error(
                capsys, "select", "--file", str(bad), "--algo", "compl",
                "--seed", "1")

    @pytest.mark.parametrize("text", ['{"values": [true, false, 3]}',
                                      '{"values": [1, 2], "delta": 1e400}',
                                      '{"values": [1, 2], "delta": Infinity}'])
    def test_boolean_values_and_infinite_delta_one_line_error(self, capsys,
                                                              tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert_one_line_input_error(
            capsys, "select", "--file", str(bad), "--algo", "compl", "--seed", "1")

    def test_dense_budget_one_line_error(self, capsys, monkeypatch):
        from advsel import adversary
        monkeypatch.setattr(adversary, "DENSE_CELL_BUDGET", 30)
        # the random policy's coins are n x n
        assert_one_line_input_error(
            capsys, "select", "--gen", "zeros:6", "--algo", "q-select",
            "--adversary", "random", "--seed", "1")
        # a rule policy needs no matrix: the session asks it pair by pair
        code, out = run_cli(capsys, "select", "--gen", "zeros:6", "--algo",
                            "q-select", "--adversary", "smaller-wins",
                            "--seed", "1", "--json")
        assert code == EXIT_OK and json.loads(out)["queries"] >= 5

    def test_construction_past_the_dense_budget(self, capsys):
        # lemma2's graph is a rule: n = 9001 would need 81M dense cells
        code, out = run_cli(capsys, "select", "--gen", "lemma2:9001",
                            "--algo", "q-select", "--adversary", "construction",
                            "--seed", "4", "--json")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["n"] == 9001 and rec["violations"] == 0

    def test_violation_exit_code(self, capsys, monkeypatch):
        class Liar:
            def decide(self, instance, i, j, log, pivot):
                return min(i, j)

        import advsel.cli as cli_mod
        monkeypatch.setattr(cli_mod, "_build_adversary",
                            lambda spec, inst, g, rng: Liar())
        code, out = run_cli(capsys, "select", "--gen", "distinct:4",
                            "--algo", "compl", "--seed", "1", "--json")
        assert code == EXIT_VIOLATION
        assert json.loads(out)["violations"] > 0


class TestSort:
    def test_distinct_descending(self, capsys):
        code, out = run_cli(capsys, "sort", "--gen", "distinct:8",
                            "--algo", "q-sort", "--seed", "5", "--json")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["values_in_order"] == sorted(rec["values_in_order"], reverse=True)
        assert rec["sorted_within_2"] is True

    def test_compl_sort(self, capsys):
        code, out = run_cli(capsys, "sort", "--gen", "lemma2:7",
                            "--algo", "compl-sort", "--seed", "1", "--json")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["queries"] == 21
        assert sorted(rec["order"]) == list(range(7))


class TestBench:
    def test_writes_csv(self, capsys, tmp_path):
        cfg = {"algorithm": "compl", "instance": "zeros:8",
               "adversary": "lower-index-wins", "t": 2.0, "trials": 30,
               "seed": 4}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "out.csv"
        code, out = run_cli(capsys, "bench", "--config", str(cfg_path),
                            "--out", str(out_path), "--json")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["error_rate"] == 0.0 and rec["q_mean"] == 28.0
        assert rec["violations"] == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 2 and lines[0].startswith("algorithm,")
        assert lines[1].endswith(",true")

    def test_violation_exit_code(self, capsys, tmp_path, monkeypatch):
        class Liar:
            def decide(self, instance, i, j, log, pivot):
                return min(i, j)

        import advsel.harness as harness_mod
        monkeypatch.delenv("ADVSEL_THREADS", raising=False)
        monkeypatch.setattr(harness_mod, "_build_adversary",
                            lambda spec, inst, g, rng: Liar())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"algorithm": "compl",
                                        "instance": "distinct:4",
                                        "adversary": "lower-index-wins",
                                        "trials": 3, "seed": 1}))
        out_path = tmp_path / "row.csv"
        code, out = run_cli(capsys, "bench", "--config", str(cfg_path), "--json",
                            "--out", str(out_path))
        assert code == EXIT_VIOLATION
        assert json.loads(out)["violations"] > 0
        assert out_path.read_text().rstrip("\n").endswith(",false")

    def test_nan_t_rejected(self, capsys, tmp_path):
        # NaN fails every comparison: taken as t, each trial's output passed
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"algorithm": "q-select", "instance": "uniform01:50", '
                            '"adversary": "smaller-wins", "trials": 200, '
                            '"seed": 1, "t": NaN}')
        err = assert_one_line_input_error(capsys, "bench", "--config",
                                          str(cfg_path))
        assert "t must be >= 0" in err

    def test_seedless_config_rejected(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"algorithm": "compl",
                                        "instance": "zeros:4",
                                        "adversary": "random", "trials": 5}))
        code, _ = run_cli(capsys, "bench", "--config", str(cfg_path))
        assert code == EXIT_INPUT


# values whose shortest float repr is easy to change: a signed zero, a value
# near the bottom of the normal range, and one ulp above 3
PINNED_INSTANCE = {"values": [0.1, 2.5, -0.0, 1e-300, 3.0000000000000004],
                   "delta": 0.5}
PINNED_OUTPUT = {
    ("select", False): (
        "command: select\nalgorithm: compl\nn: 5\nwinner: 4\nwinner_value: 3\n"
        "max_value: 3\ngap: 0\nqueries: 10\nseed: 3\nviolations: 0\n"),
    ("select", True): (
        '{"algorithm": "compl", "command": "select", "gap": 0.0, '
        '"max_value": 3.0000000000000004, "n": 5, "queries": 10, "seed": 3, '
        '"violations": 0, "winner": 4, "winner_value": 3.0000000000000004}\n'),
    ("sort", False): (
        "command: sort\nalgorithm: q-sort\nn: 5\norder: [4, 1, 2, 3, 0]\n"
        "values_in_order: [3.0000000000000004, 2.5, -0.0, 1e-300, 0.1]\n"
        "queries: 7\nsorted_within_2: True\nseed: 3\nviolations: 0\n"),
    ("sort", True): (
        '{"algorithm": "q-sort", "command": "sort", "n": 5, '
        '"order": [4, 1, 2, 3, 0], "queries": 7, "seed": 3, '
        '"sorted_within_2": true, "values_in_order": '
        '[3.0000000000000004, 2.5, -0.0, 1e-300, 0.1], "violations": 0}\n'),
}


class TestOutputBytes:
    """Values reach the output as Python floats: the printed bytes are pinned."""

    @pytest.mark.parametrize("command,as_json", sorted(PINNED_OUTPUT))
    def test_single_run(self, capsys, tmp_path, command, as_json):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(PINNED_INSTANCE))
        algo = "compl" if command == "select" else "q-sort"
        code, out = run_cli(capsys, command, "--file", str(path), "--algo", algo,
                            "--adversary", "smaller-wins", "--seed", "3",
                            *(["--json"] if as_json else []))
        assert code == EXIT_OK
        assert out == PINNED_OUTPUT[command, as_json]
        assert "np.float64(" not in out

    def test_bench(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "algorithm": "q-sort", "instance": PINNED_INSTANCE,
            "adversary": "smaller-wins", "t": 2.0, "trials": 5, "seed": 3}))
        code, out = run_cli(capsys, "bench", "--config", str(cfg_path), "--json")
        assert code == EXIT_OK
        assert out == (
            '{"algorithm": "q-sort", "ci_hi": 0.43448246478317476, "ci_lo": 0.0, '
            '"command": "bench", "error_rate": 0.0, "instance": "custom", "n": 5, '
            '"q_max": 8.0, "q_mean": 7.6, "seed": 3, "trials": 5, "violations": 0}\n')
        assert "np.float64(" not in out


class TestScheffe:
    @pytest.fixture()
    def cands_file(self, tmp_path):
        p0, cands = planted_suite(12, 10, 0.1, RngSeed(2).generator())
        path = tmp_path / "cands.json"
        path.write_text(candidates_to_json(p0, cands))
        return str(path)

    @pytest.mark.parametrize("method", ["tournament", "quickselect"])
    def test_methods(self, capsys, cands_file, method):
        code, out = run_cli(capsys, "scheffe", "--file", cands_file,
                            "--k", "4000", "--method", method,
                            "--seed", "2", "--json")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["l1_to_p0"] <= 9 * rec["min_l1"] + 1.0
        if method == "tournament":
            assert rec["tests"] == math.comb(12, 2)

    def test_support_mismatch(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"support": 3, "p0": [0.5, 0.5],
                                    "candidates": [[1.0, 0.0]]}))
        code, _ = run_cli(capsys, "scheffe", "--file", str(path), "--k", "10")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("text", ["[]", '{"support": 2, "p0": [0.5, 0.5], '
                                      '"candidates": 5}'])
    def test_malformed_candidates_one_line_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert_one_line_input_error(capsys, "scheffe", "--file", str(path),
                                    "--k", "10")

    @pytest.mark.parametrize("k, seed, ratio", [("100", "1", 1.0), ("1", "3", 1.0),
                                               ("1", "1", None)])
    def test_p0_among_candidates_prints_valid_json(self, capsys, tmp_path, k,
                                                   seed, ratio):
        # min_l1 = 0: the ratio is 1 for a winner at p0, null for any other
        path = tmp_path / "cands.json"
        path.write_text(json.dumps({"support": 3, "p0": [0.5, 0.3, 0.2],
                                    "candidates": [[0.1, 0.1, 0.8], [0.5, 0.3, 0.2],
                                                   [0.3, 0.3, 0.4]]}))
        code, out = run_cli(capsys, "scheffe", "--file", str(path), "--k", k,
                            "--seed", seed, "--json")

        def no_constant(name):
            raise ValueError(f"not JSON: {name}")

        rec = json.loads(out, parse_constant=no_constant)
        assert code == EXIT_OK and rec["min_l1"] == 0.0
        assert rec["ratio"] == ratio
        assert (rec["winner"] == 1) == (ratio == 1.0)

    @pytest.mark.parametrize("method", ["tournament", "quickselect"])
    def test_zero_samples_one_line_error(self, capsys, cands_file, method):
        err = assert_one_line_input_error(capsys, "scheffe", "--file", cands_file,
                                          "--k", "0", "--method", method)
        assert "at least one sample" in err

    def test_oversized_k_one_line_error(self, capsys, cands_file):
        # checked before the samples are allocated: 745 GiB of uniforms
        assert_one_line_input_error(capsys, "scheffe", "--file", cands_file,
                                    "--k", str(10 ** 11))


class TestReport:
    def test_small_scale_report_reproducible(self, capsys, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code, _ = run_cli(capsys, "report", "--seed", "3",
                              "--out", str(out), "--max-n", "256",
                              "--scale", "0.05")
            assert code == EXIT_OK
        csv1 = (out1 / "bound_report.csv").read_bytes()
        csv2 = (out2 / "bound_report.csv").read_bytes()
        assert csv1 == csv2
        header = csv1.decode().split("\n")[0]
        assert header.startswith("algorithm,adversary,n,t,epsilon,trials,")

    def test_seed_required(self, capsys):
        code, _ = run_cli(capsys, "report")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
    def test_bad_scale_one_line_error(self, capsys, scale):
        err = assert_one_line_input_error(capsys, "report", "--seed", "3",
                                          "--scale", scale)
        assert "scale" in err

    @pytest.mark.parametrize("max_n", ["0", "-5", "100000000"])
    def test_bad_max_n_one_line_error(self, capsys, monkeypatch, max_n):
        import advsel.report as report_mod
        rows = []
        run_trials = report_mod.run_trials

        def counted(*args, **kwargs):
            rows.append(args)
            return run_trials(*args, **kwargs)

        monkeypatch.setattr(report_mod, "run_trials", counted)
        err = assert_one_line_input_error(capsys, "report", "--seed", "1",
                                          "--scale", "0.001", "--max-n", max_n)
        assert "max_n" in err and rows == []
