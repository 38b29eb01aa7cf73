"""Command-line front end: select / sort / bench / scheffe / report.

Exit codes: 0 success, 2 input or config error, 3 model violation detected
during the run (an adversary contradicted a forced comparison).
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from typing import Optional

from .adversary import SHORTHAND, ComparatorSession, parse_adversary
from .core import RngSeed, check_choice, is_t_sorted
from .generators import GENERATOR_NAMES
from .harness import (CSV_HEADER, SELECTORS, SORTERS, TrialConfig,
                      build_instance, csv_row, run_algorithm, run_trials,
                      _build_adversary)
from .report import bound_report
from .scheffe import (candidates_from_json, l1_distance, sample,
                      scheffe_quickselect, scheffe_tournament)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VIOLATION = 3


def _emit(record: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(record, sort_keys=True))
        return
    for key, val in record.items():
        if isinstance(val, float):
            val = format(val, "g")
        print(f"{key}: {val}")


def _resolve_seed(args) -> int:
    return args.seed if args.seed is not None else secrets.randbits(62)


def _load_instance(args, rng):
    if args.file:
        try:
            return build_instance({"file": args.file}, rng)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            raise ValueError(f"cannot load instance {args.file}: {exc}") from exc
    if args.gen:
        return build_instance(args.gen, rng)
    raise ValueError("need --file or --gen")


def _adversary_spec(raw: Optional[str], have_construction: bool) -> dict:
    """The checked spec of --adversary: a shorthand, inline JSON or a .json path."""
    if raw is None:  # the construction's own graph, or the default policy
        return parse_adversary({"kind": "construction" if have_construction
                                else "nonadaptive"})
    raw = raw.strip()
    if raw.startswith("{"):
        raw = json.loads(raw)
    elif raw.endswith(".json"):
        with open(raw, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    return parse_adversary(raw)


def _run_single(args) -> int:
    check_choice("--algo", args.algo, args.algorithms)
    sorting = args.command == "sort"
    seed = _resolve_seed(args)
    root = RngSeed(seed)
    instance, cgraph = _load_instance(args, root.generator(0))
    spec = _adversary_spec(args.adversary, cgraph is not None)
    adversary = _build_adversary(spec, instance, cgraph, root.generator(1))
    # the output reads counts only, so no query record is kept
    session = ComparatorSession(instance, adversary, record=False)
    result = run_algorithm(args.algo, session, root.generator(2),
                           getattr(args, "epsilon", None))
    if sorting:
        order = list(result.order)
        values = instance.values[order].tolist()
        record = {
            "command": "sort", "algorithm": args.algo, "n": instance.n,
            "order": order, "values_in_order": values,
            "queries": result.queries,
            "sorted_within_2": is_t_sorted(values, 2.0),
            "seed": seed, "violations": session.violations,
        }
    else:
        value = float(instance.values[result.winner])
        record = {
            "command": "select", "algorithm": args.algo, "n": instance.n,
            "winner": result.winner, "winner_value": value,
            "max_value": instance.max_value,
            "gap": instance.max_value - value,
            "queries": result.queries,
            "seed": seed, "violations": session.violations,
        }
    _emit(record, args.json)
    return EXIT_VIOLATION if session.violations else EXIT_OK


def _cmd_bench(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = TrialConfig.from_json(fh.read())
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        raise ValueError(f"bad trial config: {exc}") from exc
    data = run_trials(config)
    summary = data.summary()
    adv = config.adversary if isinstance(config.adversary, str) \
        else json.dumps(config.adversary, sort_keys=True)
    inst_label = config.instance if isinstance(config.instance, str) else "custom"
    row = csv_row(config.algorithm, adv, data.n, config.t, config.epsilon, summary,
                  data.violations == 0)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n" + row + "\n")
    record = {
        "command": "bench", "algorithm": config.algorithm, "instance": inst_label,
        "n": data.n, "trials": summary.trials, "error_rate": summary.error_rate,
        "ci_lo": summary.error_ci95[0], "ci_hi": summary.error_ci95[1],
        "q_mean": summary.query_mean, "q_max": summary.query_max,
        "seed": config.seed, "violations": data.violations,
    }
    _emit(record, args.json)
    return EXIT_VIOLATION if data.violations else EXIT_OK


def _cmd_scheffe(args) -> int:
    seed = _resolve_seed(args)
    root = RngSeed(seed)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            p0, candidates = candidates_from_json(fh.read())
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ValueError(f"cannot load candidates {args.file}: {exc}") from exc
    samples = sample(p0, args.k, root.generator(0))
    select = scheffe_tournament if args.method == "tournament" else scheffe_quickselect
    sel = select(candidates, samples, root.generator(1))
    dists = [l1_distance(c, p0) for c in candidates]
    chosen = dists[sel.winner]
    best = min(dists)
    # no ratio to a best of 0 unless the winner is at 0 too: JSON has no infinity
    ratio = 1.0 if chosen == best else chosen / best if best > 0 else None
    record = {
        "command": "scheffe", "method": args.method, "n": len(candidates),
        "k": args.k, "winner": sel.winner, "l1_to_p0": chosen,
        "min_l1": best, "ratio": ratio,
        "tests": sel.tests, "seed": seed,
    }
    _emit(record, args.json)
    return EXIT_OK


def _cmd_report(args) -> int:
    report = bound_report(seed=args.seed, out_dir=args.out, max_n=args.max_n,
                          scale=args.scale)
    print(report.text, end="")
    if args.out:
        print(f"written: {args.out}/bound_report.csv, {args.out}/bound_report.txt")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advsel",
        description="maximum selection and sorting with adversarial comparators")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, what, algorithms in (("select", "one maximum-selection", SELECTORS),
                                      ("sort", "one sort", SORTERS)):
        p = sub.add_parser(command, help=f"run {what}")
        p.add_argument("--file", help="instance JSON file")
        p.add_argument("--gen", help="generator spec NAME:N[,N], NAME one of "
                       + " | ".join(GENERATOR_NAMES))
        p.add_argument("--adversary", help=" | ".join(SHORTHAND)
                       + " | inline JSON | path to a .json spec (default: the "
                       "construction's graph, or random)")
        p.add_argument("--seed", type=int, help="master seed (echoed; random if omitted)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--algo", required=True, help=" | ".join(algorithms))
        if command == "select":
            p.add_argument("--epsilon", type=float, default=0.1,
                           help="error budget for ko-mod/comb (default 0.1)")
        p.set_defaults(func=_run_single, algorithms=algorithms)

    p = sub.add_parser("bench", help="Monte-Carlo trials from a config file")
    p.add_argument("--config", required=True, help="TrialConfig JSON (seed required)")
    p.add_argument("--out", help="write a one-row CSV here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("scheffe", help="density-estimation selection")
    p.add_argument("--file", required=True, help="candidates JSON "
                   '({"support": m, "candidates": [[...]], "p0": [...]})')
    p.add_argument("--k", type=int, required=True, help="sample count")
    p.add_argument("--method", choices=("tournament", "quickselect"),
                   default="quickselect")
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_scheffe)

    p = sub.add_parser("report", help="reproduce the bound table")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="directory for bound_report.{csv,txt}")
    p.add_argument("--max-n", type=int, default=2048,
                   help="largest n of the ko-mod hard-instance and comb rows, "
                   "1 to 2**24 (default 2048)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="trial-count multiplier (1.0 = full desk scale)")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
