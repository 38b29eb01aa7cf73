"""Fuzzing of the CLI's inputs: generator specs, instance JSON, adversary
JSON, bench configs and Scheffe candidates JSON. Whatever the input,
``advsel select``/``sort``/``bench`` ends with exit code 0, 2 or 3,
``advsel scheffe`` with 0 or 2, and none with an uncaught exception. Sizes
and trial counts stay small and every run is in this process, so no example
can allocate much or start workers."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from advsel.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, main
from advsel.generators import GENERATOR_NAMES

SELECTORS = ("compl", "seq", "ko-mod", "q-select", "comb")
SORTERS = ("compl-sort", "q-sort")

small_int = st.integers(-3, 40)
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.just(10 ** 400), st.lists(small_int, max_size=3))

# mostly well-formed specs, so the adversary gets parsed too
well_formed = st.sampled_from(GENERATOR_NAMES).flatmap(
    lambda name: st.lists(st.integers(1, 14), min_size=1 + (name == "seqhard"),
                          max_size=1 + (name == "seqhard")).map(
        lambda args: f"{name}:{','.join(map(str, args))}"))
gen_arg = st.one_of(small_int.map(str), st.text(alphabet=",:-x1 ", max_size=4))
gen_spec = st.one_of(well_formed, well_formed, st.builds(
    lambda name, args, colon: name + (":" if colon else "") + ",".join(args),
    st.one_of(st.sampled_from(GENERATOR_NAMES), st.text(max_size=5)),
    st.lists(gen_arg, max_size=3), st.booleans()))

number = st.one_of(st.integers(-3, 3), st.floats(-4, 4), st.just(10 ** 400),
                   st.floats(allow_nan=True, allow_infinity=True))
instance_json = st.one_of(
    st.fixed_dictionaries({"values": st.lists(st.integers(0, 3), min_size=1,
                                              max_size=12)}),
    st.fixed_dictionaries(
        {"values": st.one_of(st.lists(number, max_size=12), junk)},
        optional={"delta": st.one_of(number, junk)}),
    junk)

index = st.integers(-1, 12)
spec_object = st.fixed_dictionaries(
    {"kind": st.sampled_from(["nonadaptive", "construction", "explicit",
                              "other"])},
    optional={
        "policy": st.one_of(st.sampled_from(
            ["random", "seeded-random", "smaller-wins", "chaos"]), junk),
        "seed": st.one_of(small_int, junk),
        "name": st.one_of(st.sampled_from(
            ["lemma1", "lemma2", "seq-hard", "komod-hard",
             "pivot-killer", "nope"]), junk),
        "params": st.one_of(st.dictionaries(
            st.sampled_from(["n", "seed", "r", "s", "memoized"]),
            st.one_of(small_int, junk), max_size=4), junk),
        "edges": st.one_of(st.lists(st.one_of(
            st.lists(index, min_size=3, max_size=3), junk), max_size=6),
            junk),
    })
adversary_json = st.one_of(
    st.sampled_from(["smaller-wins", "larger-wins", "lower-index-wins",
                     "random", "pivot-killer", "construction", "chaos"]),
    spec_object, spec_object, spec_object, st.lists(small_int, max_size=2))


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def adversary_arg(adv) -> str:
    return adv if isinstance(adv, str) else json.dumps(adv)


def assert_clean(argv):
    code, err = run_cli(argv)
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_VIOLATION), (argv, code)
    assert "Traceback" not in err, argv
    if code == EXIT_INPUT:
        assert err.startswith("error:") and err.count("\n") == 1, err


@given(gen_spec, st.one_of(st.none(), adversary_json),
       st.sampled_from(SELECTORS + SORTERS))
@settings(max_examples=150, deadline=None)
def test_generator_and_adversary_specs(spec, adversary, algo):
    command = "sort" if algo in SORTERS else "select"
    # --flag=value: a value may start with "-"
    argv = [command, f"--gen={spec}", "--algo", algo, "--seed", "3"]
    if adversary is not None:
        argv.append(f"--adversary={adversary_arg(adversary)}")
    assert_clean(argv)


@given(instance_json, st.one_of(st.none(), adversary_json),
       st.sampled_from(SELECTORS + SORTERS))
@settings(max_examples=150, deadline=None)
def test_instance_and_adversary_json(instance, adversary, algo):
    command = "sort" if algo in SORTERS else "select"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(instance, fh)
        argv = [command, "--file", path, "--algo", algo, "--seed", "4"]
        if adversary is not None:
            argv.append(f"--adversary={adversary_arg(adversary)}")
        assert_clean(argv)


BENCH_BASE = {"algorithm": "ko-mod", "instance": "zeros:6",
              "adversary": "smaller-wins", "t": 2.0, "epsilon": 0.1,
              "trials": 3, "seed": 1, "stream": 0}


@given(st.sampled_from(sorted(BENCH_BASE)), junk)
@settings(max_examples=150, deadline=None)
def test_bench_config_fields(field, value):
    config = dict(BENCH_BASE, **{field: value})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        assert_clean(["bench", "--config", path])


def test_bench_config_wrong_types_exit_2():
    for field, value in (("epsilon", "0.1"), ("epsilon", [0.1]), ("seed", "1"),
                         ("seed", True), ("trials", 2.0), ("t", None)):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dict(BENCH_BASE, **{field: value}), fh)
            code, err = run_cli(["bench", "--config", path])
        assert code == EXIT_INPUT, (field, value)
        assert err.startswith("error:") and err.count("\n") == 1, err


valid_probs = st.sampled_from([[1.0], [0.5, 0.5], [0.25] * 4])
probs = st.one_of(valid_probs, valid_probs, st.lists(number, max_size=4),
                  st.lists(st.just({}), min_size=1, max_size=1), junk)
candidates_json = st.one_of(
    st.fixed_dictionaries(
        {"support": st.one_of(st.integers(1, 4), st.integers(1, 4), junk),
         "p0": probs,
         "candidates": st.one_of(st.lists(probs, max_size=4),
                                 st.lists(probs, max_size=4), junk)}),
    st.lists(probs, max_size=2), junk)


@given(candidates_json, st.integers(-2, 50),
       st.sampled_from(["tournament", "quickselect"]))
@settings(max_examples=150, deadline=None)
def test_scheffe_candidates_json(candidates, k, method):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "candidates.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(candidates, fh)
        code, err = run_cli(["scheffe", "--file", path, "--k", str(k),
                             "--method", method, "--seed", "5"])
    assert code in (EXIT_OK, EXIT_INPUT), (candidates, code)
    assert "Traceback" not in err, candidates
    if code == EXIT_INPUT:
        assert err.startswith("error:") and err.count("\n") == 1, err
