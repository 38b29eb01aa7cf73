"""The desk report's words and the oracles its rows lean on.

The CSV pins in ``test_harness.py`` see each row's numbers and pass column,
not its claim or note; the pin here hashes those too. The oracle tests check
by exhaustive search that the transitive tournament is the non-adaptive
adversary that maximizes the expected queries of quick-select and quick-sort,
which the q-select and q-sort rows take as their exact values."""

import hashlib
import itertools

import pytest

from advsel.report import bound_report, transitive_expected_queries
from advsel.sorting import exact_expected_queries


@pytest.mark.parametrize("max_n, digest", [
    (2048, "3c5b966c854b77d5897a6eff359976994bcf52ab98785d2d8a108d4407d49399"),
    (100, "01cbeb876752f2be5ea6e99356d7bf4ebdf6dffc1ae13c0c4d61db2364714928"),
])
def test_report_words_pinned(max_n, digest):
    # every row's config, claim, note and verdict, in row order; max_n moves
    # the comb sizes and the last ko-mod hard instance
    rows = bound_report(seed=20250810, scale=0.001, max_n=max_n).rows
    words = "\n".join(repr((r.algorithm, r.adversary, r.n, r.t, r.epsilon,
                            r.claim, r.note, bool(r.ok))) for r in rows)
    assert hashlib.sha256(words.encode()).hexdigest() == digest


def test_text_shows_each_rows_wall_time_and_the_csv_none():
    report = bound_report(seed=1, scale=0.001, max_n=100)
    walls = [f" wall={r.summary.wall_time:.3f}s\n" for r in report.rows]
    assert all(w in report.text for w in walls)
    assert report.text.count(" wall=") == len(report.rows)
    assert "wall" not in report.csv_text


def _tournaments(n):
    """Every tournament on n items, as ``beaten[p]``: the bitmask of the
    items that beat p."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        beaten = [0] * n
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                beaten[j] |= 1 << i
            else:
                beaten[i] |= 1 << j
        yield beaten


def _expected_queries(n, beaten, sort):
    """E(S) over every subset S of the n items, by a DP in subset order:
    a round picks a pivot p of S uniformly and asks its |S| - 1 pairs.
    Selection goes on with W_p, the items of S that beat p, or stops at p
    when W_p is empty; sorting goes on with both sides of the partition."""
    e = [0.0] * (1 << n)
    for s in range(1, 1 << n):
        members = [p for p in range(n) if s >> p & 1]
        size = len(members)
        if size < 2:
            continue
        rest = 0.0
        for p in members:
            won = s & beaten[p]
            rest += e[won]
            if sort:
                rest += e[s & ~won & ~(1 << p)]
        e[s] = size - 1 + rest / size
    return e[-1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_transitive_tournament_maximizes_expected_queries(n):
    select = max(_expected_queries(n, b, False) for b in _tournaments(n))
    sort = max(_expected_queries(n, b, True) for b in _tournaments(n))
    assert select == pytest.approx(transitive_expected_queries(n), abs=1e-12)
    assert sort == pytest.approx(exact_expected_queries(n), abs=1e-12)
