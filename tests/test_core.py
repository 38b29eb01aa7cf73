import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from advsel.core import (Instance, InvalidQueryError, QueryLog, QueryRecord,
                         RngSeed, forced_winner, is_t_approx, is_t_sorted,
                         validate_log)


class TestInstance:
    def test_basic(self):
        inst = Instance((2.0, 0.0, 1.0))
        assert inst.n == 3
        assert inst.max_value == 2.0
        assert inst.delta == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Instance(())

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            Instance((1.0,), delta=0.0)
        with pytest.raises(ValueError):
            Instance((1.0,), delta=-1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Instance((1.0, float("inf")))
        with pytest.raises(ValueError):
            Instance((float("nan"),))

    def test_duplicates_allowed(self):
        assert Instance((5.0, 5.0)).n == 2

    def test_json_round_trip(self):
        inst = Instance((0.5, 1.25, -3.0), delta=2.0)
        again = Instance.from_json(inst.to_json())
        assert again.values.tobytes() == inst.values.tobytes()
        assert again.delta == inst.delta
        parsed = json.loads(inst.to_json())
        assert parsed["values"] == [0.5, 1.25, -3.0]
        assert parsed["delta"] == 2.0

    def test_json_default_delta(self):
        assert Instance.from_json('{"values": [1, 2]}').delta == 1.0

    @pytest.mark.parametrize("text", ['{"values": 5}', '{"values": "12"}',
                                      '{"values": [1, null]}', '{"values": [[1]]}',
                                      '{"values": [1], "delta": null}',
                                      '{"values": [true, false, 3]}',
                                      '{"values": [1, 2], "delta": 1e400}',
                                      '{"values": [1, 2], "delta": Infinity}',
                                      '{"values": [1, 2], "delta": NaN}'])
    def test_json_wrong_types_rejected(self, text):
        with pytest.raises(ValueError):
            Instance.from_json(text)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                    | st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e308, -1e308]),
                    min_size=1, max_size=30),
           st.floats(min_value=1e-300, max_value=1e300))
    def test_contract(self, values, delta):
        source = np.array(values)
        inst = Instance(source, delta=delta)
        assert inst.values.dtype == np.float64 and inst.values.ndim == 1
        assert inst.to_json() == json.dumps(
            {"values": [float(x) for x in values], "delta": delta})
        again = Instance.from_json(inst.to_json())
        assert again.values.tobytes() == inst.values.tobytes()
        with pytest.raises(ValueError):
            inst.values[0] = 1
        source[0] = 1.0 if source[0] != 1.0 else 2.0
        assert inst.values.tobytes() == np.array(values).tobytes()
        assert inst.max_value == max(values)

    @pytest.mark.parametrize("values", [[[1.0, 2.0]], np.zeros((2, 2)), [],
                                        np.zeros(0), 3.0])
    def test_rejects_shapes_other_than_one_nonempty_row(self, values):
        with pytest.raises(ValueError):
            Instance(values)

    def test_compares_by_identity(self):
        inst = Instance((1.0, 2.0))
        assert inst == inst and inst != Instance((1.0, 2.0))


class TestForcedWinner:
    def test_forced_above_threshold(self):
        assert forced_winner(Instance((2.0, 0.0)), 0, 1) == 0

    def test_tie_is_free(self):
        assert forced_winner(Instance((5.0, 5.0)), 0, 1) is None

    def test_gap_just_above(self):
        assert forced_winner(Instance((1.5, 0.4)), 0, 1) == 0

    def test_gap_exactly_delta_is_free(self):
        assert forced_winner(Instance((1.0, 0.0)), 0, 1) is None

    def test_symmetric(self):
        inst = Instance((0.0, 3.0))
        assert forced_winner(inst, 0, 1) == 1
        assert forced_winner(inst, 1, 0) == 1

    def test_self_pair_rejected(self):
        with pytest.raises(InvalidQueryError):
            forced_winner(Instance((1.0, 2.0)), 1, 1)

    def test_bad_index_rejected(self):
        with pytest.raises(InvalidQueryError):
            forced_winner(Instance((1.0, 2.0)), 0, 2)

    @pytest.mark.parametrize("i, j", [(True, 0), (0, False), (0.0, 1.0),
                                      ("0", 1), (np.float64(1), 0),
                                      (np.bool_(False), 1)])
    def test_non_integer_index_rejected(self, i, j):
        with pytest.raises(InvalidQueryError, match="is not an integer"):
            forced_winner(Instance((1.0, 5.0)), i, j)

    def test_numpy_integer_taken_as_int(self):
        winner = forced_winner(Instance((1.0, 5.0)), np.int64(0), np.uint16(1))
        assert type(winner) is int and winner == 1

    @given(st.lists(st.integers(0, 6), min_size=2, max_size=6))
    def test_gap_rule(self, values):
        inst = Instance(tuple(float(v) for v in values))
        for i in range(inst.n):
            for j in range(inst.n):
                if i == j:
                    continue
                w = forced_winner(inst, i, j)
                if abs(values[i] - values[j]) > 1:
                    assert w == (i if values[i] > values[j] else j)
                else:
                    assert w is None


class TestApprox:
    def test_examples(self):
        assert is_t_approx(1.0, Instance((0.0, 1.0, 1.0, 2.0)), 2.0)
        assert not is_t_approx(0.0, Instance((0.0, 1.0, 2.0)), 1.5)
        assert is_t_approx(2.0, Instance((0.0, 1.0, 2.0)), 0.0)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=8),
           st.floats(0, 10), st.floats(0, 10))
    def test_monotone_in_t(self, values, t1, t2):
        inst = Instance(tuple(float(v) for v in values))
        lo, hi = min(t1, t2), max(t1, t2)
        for v in values:
            if is_t_approx(v, inst, lo):
                assert is_t_approx(v, inst, hi)

    def test_negative_t_rejected(self):
        for t in (-0.1, float("nan")):
            with pytest.raises(ValueError):
                is_t_approx(0.0, Instance((1.0,)), t)


class TestSorted:
    def test_examples(self):
        assert is_t_sorted((2, 1, 1, 0), 0)
        assert is_t_sorted((1, 2, 0), 2)
        assert not is_t_sorted((1, 2, 0), 0.5)
        assert not is_t_sorted((0, 3), 2)

    def test_singleton(self):
        assert is_t_sorted((7,), 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_t_sorted((), 1)

    def test_negative_or_nan_t_rejected(self):
        # NaN fails every comparison: taken as t, any order passed
        for t in (-0.5, float("nan")):
            with pytest.raises(ValueError):
                is_t_sorted((0, 3), t)

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=10),
           st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]))
    def test_matches_quadratic_brute_force(self, seq, t):
        brute = all(seq[j] - seq[i] <= t
                    for i in range(len(seq)) for j in range(i + 1, len(seq)))
        assert is_t_sorted(seq, t) == brute


    @given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 9),
           t=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 5e-324]),
                       st.floats(0, 1e6)))
    def test_rows_match_the_sequence_form(self, data, rows, cols, t):
        # each later value is free or lies within an ulp of the prefix
        # minimum plus t, where one rounding would flip the verdict
        values = st.floats(-1e6, 1e6, allow_nan=False)
        table = []
        for _ in range(rows):
            row = [data.draw(values)]
            for _ in range(cols - 1):
                edge = min(row) + t
                row.append(data.draw(st.one_of(values, st.sampled_from(
                    [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]))))
            table.append(row)
        got = is_t_sorted(np.array(table), t)
        assert got.dtype == bool and got.shape == (rows,)
        assert got.tolist() == [is_t_sorted(row, t) for row in table]

    def test_rows_reject_nan_or_negative_t_and_empty_rows(self):
        for t in (-0.5, float("nan")):
            with pytest.raises(ValueError):
                is_t_sorted(np.zeros((3, 4)), t)
        with pytest.raises(ValueError):
            is_t_sorted(np.zeros((3, 0)), 1.0)


_INDEX = st.integers(-1, 4)   # an instance of 4 items, and one index past each end


@st.composite
def _batch(draw):
    """One append, or one extend whose left is a single index or an array:
    (kind, the single left, the entries); a winner is one of its pair or any
    index."""
    kind = draw(st.sampled_from(["append", "extend-scalar", "extend-array"]))
    shared = draw(_INDEX)
    entries = []
    for _ in range(1 if kind == "append" else draw(st.integers(0, 4))):
        left = shared if kind == "extend-scalar" else draw(_INDEX)
        right = draw(_INDEX)
        entries.append((left, right,
                        draw(st.sampled_from([left, right, draw(_INDEX)]))))
    return kind, shared, entries


def _first_violation(inst, entries):
    """What validate_log should raise for these entries, checked one by one:
    (exception type, message), or None when every entry obeys the model."""
    for k, (left, right, winner) in enumerate(entries):
        if winner not in (left, right):
            return ValueError, (f"record {k}: winner {winner} is not in the "
                                f"pair ({left}, {right})")
        try:
            want = forced_winner(inst, left, right)
        except InvalidQueryError as err:
            return InvalidQueryError, str(err)
        if want is not None and want != winner:
            return ValueError, (f"record {k}: pair ({left}, {right}) is forced "
                                f"toward {want} but {winner} won")
    return None


class TestQueryLog:
    def test_record_invariants(self):
        with pytest.raises(InvalidQueryError):
            QueryRecord(1, 1, 1, 0)
        with pytest.raises(ValueError):
            QueryRecord(0, 1, 2, 0)

    def test_ordinals(self):
        log = QueryLog()
        log.append(0, 1, 0)
        log.append(2, 1, 1)
        assert log.count == 2
        assert [r.ordinal for r in log] == [0, 1]

    def test_logged_records_match_constructed_ones(self):
        log = QueryLog()
        log.append(3, 1, 1)
        log.extend(2, np.array([0, 4]), np.array([2, 4]))
        want = [QueryRecord(3, 1, 1, 0), QueryRecord(2, 0, 2, 1),
                QueryRecord(2, 4, 4, 2)]
        assert log.records == want
        assert [hash(r) for r in log] == [hash(r) for r in want]
        assert [repr(r) for r in log] == [repr(r) for r in want]
        with pytest.raises(dataclasses.FrozenInstanceError):
            log.records[0].winner = 3

    def test_append_and_extend_trust_their_caller(self):
        # bad pairs are stored as given; validate_log rejects them afterwards
        inst = Instance((0.0, 0.0, 0.0))
        for left, right, winner in ((0, 1, 7), (2, 2, 2)):
            for log_pair in (QueryLog.append, lambda log, a, b, w:
                             log.extend(a, np.array([b]), w)):
                log = QueryLog()
                log_pair(log, left, right, winner)
                assert (log.left[0], log.right[0], log.winner[0]) == (
                    left, right, winner)
                with pytest.raises(ValueError):
                    validate_log(inst, log)

    @pytest.mark.parametrize("bad, error, message", [
        ((0, 1, 0), ValueError, "record 1: pair (0, 1) is forced toward 1 but 0 won"),
        ((2, 0, 5), ValueError, "record 1: winner 5 is not in the pair (2, 0)"),
        ((2, 3, 3), InvalidQueryError, "indices (2, 3) out of range for n=3"),
        ((1, 1, 1), InvalidQueryError, "cannot compare an index with itself"),
    ])
    def test_validate_log_names_the_first_bad_record(self, bad, error, message):
        inst = Instance((0.0, 5.0, 0.5))
        log = QueryLog()
        for left, right, winner in ((0, 2, 0), bad, (1, 0, 0)):
            log.append(left, right, winner)
        with pytest.raises(error) as raised:
            validate_log(inst, log)
        assert type(raised.value) is error and str(raised.value) == message

    @given(st.lists(st.integers(0, 3), min_size=4, max_size=4),
           st.lists(_batch(), max_size=8))
    def test_columns_records_and_validation_match_references(self, values,
                                                             batches):
        inst = Instance(tuple(map(float, values)))
        log, want = QueryLog(), []
        for kind, shared, entries in batches:
            right, winner = (np.array([e[k] for e in entries], dtype=np.int64)
                             for k in (1, 2))
            if kind == "append":
                log.append(*entries[0])
            elif kind == "extend-scalar":
                log.extend(shared, right, winner)
            else:
                log.extend(np.array([e[0] for e in entries], dtype=np.int64),
                           right, winner)
            want.extend(entries)
        assert (log.left, log.right, log.winner) == tuple(
            [e[k] for e in want] for k in range(3))
        assert all(type(x) is int for x in log.left + log.right + log.winner)
        assert log.count == len(log) == len(want)
        # records are built on read, so reading a bad entry raises
        first_bad = next((k for k, (a, b, w) in enumerate(want)
                          if a == b or w not in (a, b)), len(want))
        assert list(itertools.islice(log, first_bad)) == [
            QueryRecord(a, b, w, k) for k, (a, b, w) in enumerate(want[:first_bad])]
        if first_bad < len(want):
            with pytest.raises(ValueError):
                log.records
        expected = _first_violation(inst, want)
        if expected is None:
            validate_log(inst, log)
            return
        with pytest.raises(expected[0]) as raised:
            validate_log(inst, log)
        assert type(raised.value) is expected[0]
        assert str(raised.value) == expected[1]

    def test_count_only_mode(self):
        log = QueryLog(recording=False)
        log.append(0, 1, 0)
        assert log.count == 1
        assert log.records == []


class TestRngSeed:
    def test_determinism(self):
        a = RngSeed(42, 1).generator(3).integers(2 ** 63)
        b = RngSeed(42, 1).generator(3).integers(2 ** 63)
        assert a == b

    def test_streams_differ(self):
        vals = {int(RngSeed(42, s).generator().integers(2 ** 63)) for s in range(6)}
        assert len(vals) == 6

    def test_keys_differ(self):
        vals = {int(RngSeed(42).generator(k).integers(2 ** 63)) for k in range(6)}
        assert len(vals) == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RngSeed(-1)


def _spawned(seed, stream, t, role):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(stream, t, role))))


_KEY_RNG = np.random.default_rng(2016)
# (seed, stream, first trial, block length)
SEED_KEYS = [(0, 0, 0, 6), (0, 0, 7, 1), (2 ** 32, 0, 0, 3),
             (2 ** 32 - 1, 2 ** 32, 5, 4), (2 ** 62 - 1, 2 ** 40 + 3, 1000, 5),
             (2 ** 62 - 1, 0, 2 ** 32 - 3, 3), (2 ** 130 + 9, 2 ** 64 + 1, 9, 2),
             (5, 1, 3, 0)] + [
    (int(_KEY_RNG.integers(2 ** 62)), int(_KEY_RNG.integers(2 ** 34)),
     int(_KEY_RNG.integers(10 ** 6)), int(_KEY_RNG.integers(1, 9)))
    for _ in range(12)]


class TestBlockSeeding:
    @pytest.mark.parametrize("key", SEED_KEYS)
    def test_matches_seed_sequence(self, key):
        seed, stream, lo, count = key
        for role in (0, 1, 2):
            states = RngSeed(seed, stream).pcg64_states(lo, lo + count, role)
            assert len(states) == count
            gen = np.random.Generator(np.random.PCG64(0))
            for t, state in zip(range(lo, lo + count), states):
                gen.bit_generator.state = state
                want = _spawned(seed, stream, t, role)
                assert gen.bit_generator.state == want.bit_generator.state
                assert np.array_equal(gen.integers(0, 1000, size=6),
                                      want.integers(0, 1000, size=6))
                assert np.array_equal(gen.permutation(12), want.permutation(12))

    def test_trial_beyond_one_word_rejected(self):
        with pytest.raises(ValueError):
            RngSeed(1).pcg64_states(2 ** 32 - 1, 2 ** 32 + 1, 0)
        with pytest.raises(ValueError):
            RngSeed(1).pcg64_states(3, 2, 0)
