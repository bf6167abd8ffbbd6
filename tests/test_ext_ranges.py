"""Key-range scheduling extension."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.ext.ranges import (
    RangeRequest,
    RangeSS2PLProtocol,
    brute_force_qualified,
    make_range_tables,
)
from repro.model.request import Operation

from tests.conftest import empty_history_table, empty_requests_table


def rr(rid, ta, intrata, op, lo=-1, hi=None):
    return RangeRequest(
        rid, ta, intrata, Operation.from_code(op), lo,
        lo if hi is None else hi,
    )


def schedule_ids(pending, history):
    requests, history_table = make_range_tables()
    for r in pending:
        requests.insert(r.as_row())
    for r in history:
        history_table.insert(r.as_row())
    decision = RangeSS2PLProtocol().schedule(requests, history_table)
    return sorted(r.id for r in decision.qualified)


class TestRangeRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            RangeRequest(1, 1, 0, Operation.READ, 5, 3)
        with pytest.raises(ValueError):
            RangeRequest(1, 1, 0, Operation.WRITE, -1, -1)

    def test_overlap(self):
        a = rr(1, 1, 0, "w", 10, 20)
        assert a.overlaps(rr(2, 2, 0, "r", 20, 30))
        assert a.overlaps(rr(3, 2, 0, "r", 5, 10))
        assert not a.overlaps(rr(4, 2, 0, "r", 21, 30))

    def test_conflict_needs_write_and_other_ta(self):
        a = rr(1, 1, 0, "r", 10, 20)
        assert not a.conflicts_with(rr(2, 2, 0, "r", 15, 25))
        assert a.conflicts_with(rr(3, 2, 0, "w", 15, 25))
        assert not a.conflicts_with(rr(4, 1, 1, "w", 15, 25))  # same ta

    def test_row_roundtrip(self):
        original = rr(7, 3, 2, "w", 10, 40)
        assert RangeRequest.from_row(original.as_row()) == original

    def test_str(self):
        assert str(rr(1, 3, 0, "w", 10, 40)) == "w3[10..40]"
        assert str(rr(2, 3, 1, "c")) == "c3"


class TestRangeProtocol:
    def test_overlapping_write_lock_blocks(self):
        history = [rr(1, 1, 0, "w", 10, 20)]
        assert schedule_ids([rr(2, 2, 0, "r", 15, 30)], history) == []
        assert schedule_ids([rr(3, 2, 0, "r", 21, 30)], history) == [3]

    def test_read_lock_blocks_overlapping_write_only(self):
        history = [rr(1, 1, 0, "r", 10, 20)]
        assert schedule_ids([rr(2, 2, 0, "w", 5, 10)], history) == []
        assert schedule_ids([rr(3, 2, 0, "r", 5, 10)], history) == [3]

    def test_commit_releases_range_locks(self):
        history = [rr(1, 1, 0, "w", 10, 20), rr(2, 1, 1, "c")]
        assert schedule_ids([rr(3, 2, 0, "w", 10, 20)], history) == [3]

    def test_intra_batch_overlap(self):
        pending = [rr(1, 1, 0, "w", 10, 20), rr(2, 2, 0, "w", 15, 30)]
        assert schedule_ids(pending, []) == [1]

    def test_disjoint_ranges_coexist(self):
        pending = [rr(1, 1, 0, "w", 10, 20), rr(2, 2, 0, "w", 21, 30)]
        assert schedule_ids(pending, []) == [1, 2]

    def test_point_ranges_match_listing1(self):
        """On lo==hi workloads, ranges degenerate to Listing 1."""
        rng = random.Random(3)
        reference = api.make_protocol("ss2pl-listing1")
        for __ in range(10):
            point_requests = empty_requests_table()
            point_history = empty_history_table()
            range_requests, range_history = make_range_tables()
            rid = 1
            for ta in range(1, rng.randint(2, 8)):
                for intrata in range(rng.randint(1, 3)):
                    op = rng.choice(["r", "w"])
                    obj = rng.randrange(6)
                    point_history.insert((rid, ta, intrata, op, obj))
                    range_history.insert((rid, ta, intrata, op, obj, obj))
                    rid += 1
                if rng.random() < 0.3:
                    point_history.insert((rid, ta, 9, "c", -1))
                    range_history.insert((rid, ta, 9, "c", -1, -1))
                    rid += 1
            for k in range(rng.randint(1, 10)):
                ta = 100 + k
                op = rng.choice(["r", "w"])
                obj = rng.randrange(6)
                point_requests.insert((rid, ta, 0, op, obj))
                range_requests.insert((rid, ta, 0, op, obj, obj))
                rid += 1
            expected = sorted(
                r.id
                for r in reference.schedule(point_requests, point_history).qualified
            )
            actual = sorted(
                r.id
                for r in RangeSS2PLProtocol()
                .schedule(range_requests, range_history)
                .qualified
            )
            assert actual == expected


@st.composite
def range_instance(draw):
    keys = 12
    pending, history = [], []
    rid = 1
    for ta in range(1, draw(st.integers(0, 4)) + 1):
        for intrata in range(draw(st.integers(1, 2))):
            lo = draw(st.integers(0, keys - 1))
            hi = draw(st.integers(lo, keys - 1))
            history.append(
                rr(rid, ta, intrata, draw(st.sampled_from(["r", "w"])), lo, hi)
            )
            rid += 1
        if draw(st.booleans()):
            history.append(rr(rid, ta, 9, draw(st.sampled_from(["c", "a"]))))
            rid += 1
    for k in range(draw(st.integers(1, 6))):
        lo = draw(st.integers(0, keys - 1))
        hi = draw(st.integers(lo, keys - 1))
        pending.append(
            rr(rid, 100 + k, 0, draw(st.sampled_from(["r", "w"])), lo, hi)
        )
        rid += 1
    return pending, history


class TestRangeProperty:
    @given(range_instance())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, instance):
        pending, history = instance
        assert schedule_ids(pending, history) == brute_force_qualified(
            pending, history
        )

    @given(range_instance())
    @settings(max_examples=60, deadline=None)
    def test_qualified_set_internally_conflict_free(self, instance):
        pending, history = instance
        requests, history_table = make_range_tables()
        for r in pending:
            requests.insert(r.as_row())
        for r in history:
            history_table.insert(r.as_row())
        qualified = RangeSS2PLProtocol().schedule(
            requests, history_table
        ).qualified
        for i, a in enumerate(qualified):
            for b in qualified[i + 1:]:
                assert not a.conflicts_with(b)
