"""Fuzzing of the CLI's inputs: generator specs, instance JSON and adversary
JSON. Whatever the input, ``advsel select``/``sort`` ends with exit code 0, 2
or 3 and never with an uncaught exception. Sizes stay small and every run is
in this process, so no example can allocate much or start workers."""

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
