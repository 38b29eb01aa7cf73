"""Outside-in tracer for the advsel benchmark.

Nothing in advsel is edited. While installed, the tracer replaces public
functions in the module namespaces where ``harness``, ``engine`` and
``scheffe`` look them up at call time, and ``uninstall`` puts the originals
back. Each replaced function records a span (id, parent id, name, start,
end). Spans stay in memory until the benchmark writes them out at the end.

Layer time is self time: a span's duration minus the part of it covered by
child spans. Without that, ``modified_knockout_fast`` calling the wrapped
``complete_tournament_fast`` would count the round-robin twice.

Calls made once per query (``scheffe_test``) and numpy seeding inside the
harness are leaves. They are counted and timed but get no span, because a
span per call would cost more than the call. ``ComparatorSession.query`` is
not wrapped at all; session query totals come from the algorithms' results.

Every listed point must exist. When a later version of advsel moves or
renames one, ``install`` raises ``MissingTracePoint`` naming it, rather than
let its layer read 0 and its time show up in the caller's layer.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager

ENGINE_FAST = ("complete_tournament_fast", "modified_knockout_fast",
               "quick_select_fast", "combined_select_fast",
               "complete_sort_fast", "quick_sort_fast")
SESSION_ALGORITHMS = ("complete_tournament", "sequential_select",
                      "modified_knockout", "quick_select", "combined_select",
                      "complete_sort", "quick_sort")


def _dense_cells(graph) -> int:
    matrix = getattr(graph, "matrix", None)
    shape = getattr(matrix, "shape", ())
    return shape[0] * shape[1] if len(shape) == 2 else 0


def _count_generator(tracer, result, parent):
    if isinstance(result, tuple) and len(result) == 2:
        tracer.counts["generators.dense_cells"] += _dense_cells(result[1])


def _count_adversary(tracer, result, parent):
    tracer.counts["adversary.dense_cells"] += _dense_cells(result)


def _count_engine(tracer, result, parent):
    # only the outermost engine call: nested ones are part of its total
    if (isinstance(result, tuple) and len(result) == 2
            and (parent is None or parent[1] != "engine")):
        tracer.counts["engine.queries"] += int(result[1])


def _count_session(tracer, result, parent):
    queries = getattr(result, "queries", None)
    if queries is not None and (parent is None or parent[1] != "session"):
        tracer.counts["session.queries"] += int(queries)


# (module, attribute, span name, layer, count hook)
SPAN_POINTS = (
    [("advsel.harness", "run_trials", "run_trials", "harness", None),
     ("advsel.harness", "parse_generator", "parse_generator", "generators",
      _count_generator),
     ("advsel.harness", "adversary_from_spec", "adversary_from_spec",
      "adversary", _count_adversary),
     ("advsel.harness", "is_t_sorted", "is_t_sorted", "core", None),
     ("advsel.engine", "comparator_for", "comparator_for", "engine", None)]
    + [("advsel.engine", f, f, "engine", _count_engine) for f in ENGINE_FAST]
    + [("advsel.harness", f, f, "session", _count_session)
       for f in SESSION_ALGORITHMS]
    + [("advsel.scheffe", "quick_select", "quick_select", "session",
        _count_session),
       ("advsel.scheffe", "scheffe_quickselect", "scheffe_quickselect",
        "scheffe", None),
       ("advsel.scheffe", "scheffe_tournament", "scheffe_tournament",
        "scheffe", None)])

# (module, attribute, layer, counter): per-query calls, timed without a span
LEAF_POINTS = (("advsel.scheffe", "scheffe_test", "scheffe", "scheffe.tests"),)

# numpy seeding as the harness reaches it: np.random.<name> inside harness
SEED_POINTS = (("SeedSequence", "harness.seed_calls"), ("PCG64", None),
               ("Generator", None))


class MissingTracePoint(LookupError):
    """A function the tracer wraps is not where the tracer looks for it."""


class _Proxy:
    """Stands in for a module: the given attributes, everything else from
    the real module."""

    def __init__(self, real, **attrs):
        self._real = real
        self.__dict__.update(attrs)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Spans, per-layer self time and exact counts for traced calls."""

    def __init__(self):
        self.spans: list[tuple] = []          # (id, parent id, name, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []          # open spans: [id, layer, child s]
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    # ---- spans -----------------------------------------------------------

    def _open(self, layer):
        frame = [next(self._ids), layer, 0.0]
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        self.counts[f"{layer}.calls"] += 1
        return frame, parent

    def _close(self, frame, parent, name, start, end):
        self._stack.pop()
        dur = end - start
        self.self_s[frame[1]] += dur - frame[2]
        if parent is not None:
            parent[2] += dur
        self.spans.append((frame[0], parent[0] if parent else None, name,
                           start, end))

    @contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself."""
        frame, parent = self._open(layer)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, parent, name, start, time.perf_counter())

    def _wrap_span(self, fn, name, layer, hook):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame, parent = self._open(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, parent, name, start, clock())
            if hook is not None:
                hook(self, result, parent)
            return result

        return traced

    def _wrap_leaf(self, fn, layer, counter):
        clock = time.perf_counter
        self_s, stack, counts = self.self_s, self._stack, self.counts

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                self_s[layer] += dur
                if stack:
                    stack[-1][2] += dur
                if counter is not None:
                    counts[counter] += 1

        return timed

    # ---- install / uninstall ---------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        missing = _missing_points()
        if missing:
            raise MissingTracePoint("trace points not found in advsel: "
                                    + ", ".join(missing))
        for module, attr, name, layer, hook in SPAN_POINTS:
            owner = _module(module)
            self._replace(owner, attr, self._wrap_span(
                getattr(owner, attr), name, layer, hook))
        for module, attr, layer, counter in LEAF_POINTS:
            owner = _module(module)
            self._replace(owner, attr, self._wrap_leaf(
                getattr(owner, attr), layer, counter))
        harness = _module("advsel.harness")
        real_np = harness.np
        seeding = {name: self._wrap_leaf(getattr(real_np.random, name),
                                         "seed", counter)
                   for name, counter in SEED_POINTS}
        self._replace(harness, "np", _Proxy(
            real_np, random=_Proxy(real_np.random, **seeding)))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _missing_points() -> list:
    missing = [f"{m}.{a}" for m, a, *_ in [*SPAN_POINTS, *LEAF_POINTS]
               if not callable(getattr(_module(m), a, None))]
    harness_np = getattr(_module("advsel.harness"), "np", None)
    random = getattr(harness_np, "random", None)
    missing += [f"advsel.harness.np.random.{name}" for name, _ in SEED_POINTS
                if not callable(getattr(random, name, None))]
    return missing


def _module(name):
    return importlib.import_module(name)
