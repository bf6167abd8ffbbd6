"""Cross-backend equivalence: five SS2PL implementations, one semantics.

The paper's central artifact is the SS2PL-as-query formulation.  We
ship it five ways (relalg/Listing 1, Datalog, SDL, sqlite3 SQL, and the
hand-coded imperative baseline); on every random instance all five must
qualify exactly the same requests.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.baselines.imperative import ImperativeSS2PLScheduler
from repro.lang.protocol import SDLProtocol, SDL_SS2PL
from repro.model.history import HistoryView
from repro.model.request import Request

from tests.conftest import (
    empty_history_table,
    empty_requests_table,
    random_scheduling_instance,
)

BACKENDS = [
    api.make_protocol("ss2pl-listing1"),
    api.make_protocol("ss2pl-listing1", "datalog"),
    SDLProtocol(SDL_SS2PL),
    api.make_protocol("ss2pl-listing1", "sqlite"),
    ImperativeSS2PLScheduler(),
]


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_all_backends_agree(self, seed):
        rng = random.Random(seed)
        requests, history = random_scheduling_instance(
            rng,
            pending=rng.randint(1, 25),
            history_transactions=rng.randint(1, 15),
            objects=rng.randint(5, 40),
        )
        results = {
            p.name: sorted(r.id for r in p.schedule(requests, history).qualified)
            for p in BACKENDS
        }
        reference = results[BACKENDS[0].name]
        for name, ids in results.items():
            assert ids == reference, f"{name} diverged: {ids} vs {reference}"

    @pytest.mark.parametrize("seed", range(6))
    def test_multi_op_pending_transactions(self, seed):
        rng = random.Random(1000 + seed)
        requests, history = random_scheduling_instance(
            rng, pending=8, history_transactions=6, objects=10,
            pending_ops_per_txn=3,
        )
        reference = None
        for protocol in BACKENDS:
            ids = sorted(
                r.id for r in protocol.schedule(requests, history).qualified
            )
            if reference is None:
                reference = ids
            assert ids == reference, protocol.name


@st.composite
def instance(draw):
    objects = draw(st.integers(2, 8))
    requests = empty_requests_table()
    history = empty_history_table()
    rid = 1
    for ta in range(1, draw(st.integers(0, 5)) + 1):
        for intrata in range(draw(st.integers(1, 3))):
            requests_row = (
                rid, ta + 100, intrata,
                draw(st.sampled_from(["r", "w"])),
                draw(st.integers(0, objects - 1)),
            )
            requests.insert(requests_row)
            rid += 1
    for ta in range(1, draw(st.integers(0, 4)) + 1):
        count = draw(st.integers(1, 3))
        for intrata in range(count):
            history.insert(
                (rid, ta, intrata, draw(st.sampled_from(["r", "w"])),
                 draw(st.integers(0, objects - 1)))
            )
            rid += 1
        if draw(st.booleans()):
            history.insert((rid, ta, count, draw(st.sampled_from(["c", "a"])), -1))
            rid += 1
    return requests, history


class TestQualifiedSetInvariants:
    """Semantic invariants of any correct SS2PL qualification."""

    @given(instance())
    @settings(max_examples=60, deadline=None)
    def test_qualified_never_conflicts_with_held_locks(self, tables):
        requests, history = tables
        view = HistoryView(Request.from_row(row) for row in history.rows)
        decision = api.make_protocol("ss2pl-listing1").schedule(
            requests, history
        )
        for qualified in decision.qualified:
            assert not view.would_conflict(qualified), (
                f"{qualified} conflicts with history locks"
            )

    @given(instance())
    @settings(max_examples=60, deadline=None)
    def test_qualified_set_is_internally_conflict_free(self, tables):
        requests, history = tables
        decision = api.make_protocol("ss2pl-listing1").schedule(
            requests, history
        )
        qualified = decision.qualified
        for i, a in enumerate(qualified):
            for b in qualified[i + 1:]:
                assert not a.conflicts_with(b), f"{a} vs {b}"

    @given(instance())
    @settings(max_examples=60, deadline=None)
    def test_backends_agree_property(self, tables):
        requests, history = tables
        listing1 = api.make_protocol("ss2pl-listing1")
        reference = sorted(
            r.id for r in listing1.schedule(requests, history).qualified
        )
        for protocol in (
            api.make_protocol("ss2pl-listing1", "datalog"),
            ImperativeSS2PLScheduler(),
        ):
            ids = sorted(
                r.id for r in protocol.schedule(requests, history).qualified
            )
            assert ids == reference, protocol.name
