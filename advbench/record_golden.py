#!/usr/bin/env python3
"""Record the golden per-cell digests that the benchmark checks against.

    python3 advbench/record_golden.py

Run it only at a commit whose draws are the reference: the digests pin the
draw contract, so every later commit must reproduce them. It records every
variant of every seed in ``workloads.GOLDEN_SEEDS`` and rewrites
``golden.json`` as a whole.
"""

from __future__ import annotations

import json
import sys

from run import _import_workloads


def main() -> int:
    workloads = _import_workloads()
    seeds = workloads.GOLDEN_SEEDS
    table = {"variants": workloads.VARIANTS, "seeds": list(seeds),
             "cells": {}, "digests": {}}
    for name, cells in workloads.WORKLOADS.items():
        table["cells"][name] = [c.label for c in cells]
        table["digests"][name] = {}
        for seed in seeds:
            workload = workloads.Workload(name, seed)
            rows = []
            for variant in range(workloads.VARIANTS):
                results = [call() for call in workload.prepare(variant)]
                digests, verdicts, _ = workload.outcome(results)
                broken = [what for what, ok in verdicts if not ok]
                if broken:
                    print(f"{name} seed {seed} variant {variant}: bound broken: "
                          f"{broken}", file=sys.stderr)
                    return 1
                rows.append(digests)
            table["digests"][name][str(seed)] = rows
            print(f"{name} seed {seed}: recorded", file=sys.stderr)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
