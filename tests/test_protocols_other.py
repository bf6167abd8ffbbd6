"""FCFS, C2PL, relaxed, SLA, EDF, oversell, adaptive protocols."""

import pytest

import repro.api as api
from repro.core.stores import HistoryStore, PendingStore
from repro.model.request import Operation, Request, RequestAttributes
from repro.protocols.adaptive import AdaptiveConsistencyProtocol
from repro.protocols.library import make_bounded_oversell_spec
from repro.protocols.sla import (
    EarliestDeadlineFirstProtocol,
    SLAOrderingProtocol,
)

from tests.conftest import (
    empty_history_table,
    empty_requests_table,
    request,
)


def tables(pending, history=()):
    requests_table = empty_requests_table()
    history_table = empty_history_table()
    for r in pending:
        requests_table.insert(r.as_row())
    for r in history:
        history_table.insert(r.as_row())
    return requests_table, history_table


class TestFCFS:
    def test_admits_everything_in_id_order(self):
        requests_table, history_table = tables(
            [request(3, 2, 0, "w", 5), request(1, 1, 0, "w", 5)]
        )
        decision = api.make_protocol("fcfs").schedule(
            requests_table, history_table
        )
        assert [r.id for r in decision.qualified] == [1, 3]


class TestC2PL:
    def test_new_transaction_with_conflicting_claim_denied_entirely(self):
        # T2 wants objects 5 and 6; 5 is write-locked -> neither admitted.
        history = [request(1, 1, 0, "w", 5)]
        pending = [request(2, 2, 0, "r", 5), request(3, 2, 1, "w", 6)]
        requests_table, history_table = tables(pending, history)
        decision = api.make_protocol("c2pl").schedule(
            requests_table, history_table
        )
        assert decision.qualified == []

    def test_admitted_transaction_keeps_running(self):
        # T1 is already admitted (has history, not finished); its next
        # request qualifies even against another claim.
        history = [request(1, 1, 0, "w", 5)]
        pending = [request(2, 1, 1, "w", 6)]
        requests_table, history_table = tables(pending, history)
        decision = api.make_protocol("c2pl").schedule(
            requests_table, history_table
        )
        assert [r.id for r in decision.qualified] == [2]

    def test_claim_conflict_between_new_transactions(self):
        pending = [
            request(1, 1, 0, "w", 5),
            request(2, 2, 0, "w", 5),
        ]
        requests_table, history_table = tables(pending)
        decision = api.make_protocol("c2pl").schedule(
            requests_table, history_table
        )
        # Earlier TA wins the claim; later one waits entirely.
        assert [r.id for r in decision.qualified] == [1]

    def test_disjoint_claims_coexist(self):
        pending = [request(1, 1, 0, "w", 5), request(2, 2, 0, "w", 6)]
        requests_table, history_table = tables(pending)
        decision = api.make_protocol("c2pl").schedule(
            requests_table, history_table
        )
        assert [r.id for r in decision.qualified] == [1, 2]


class TestReadCommitted:
    def test_reads_never_blocked(self):
        history = [request(1, 1, 0, "w", 5)]
        requests_table, history_table = tables(
            [request(2, 2, 0, "r", 5)], history
        )
        decision = api.make_protocol("read-committed", "datalog").schedule(
            requests_table, history_table
        )
        assert [r.id for r in decision.qualified] == [2]

    def test_write_write_still_blocks(self):
        history = [request(1, 1, 0, "w", 5)]
        requests_table, history_table = tables(
            [request(2, 2, 0, "w", 5)], history
        )
        decision = api.make_protocol("read-committed", "datalog").schedule(
            requests_table, history_table
        )
        assert decision.qualified == []

    def test_intra_batch_write_write(self):
        requests_table, history_table = tables(
            [request(1, 1, 0, "w", 5), request(2, 2, 0, "w", 5)]
        )
        decision = api.make_protocol("read-committed", "datalog").schedule(
            requests_table, history_table
        )
        assert [r.id for r in decision.qualified] == [1]


class TestSLAOrdering:
    def _pending_with_priorities(self):
        store = PendingStore()
        store.insert_batch(
            [
                Request(1, 1, 0, Operation.READ, 5,
                        attrs=RequestAttributes(priority=1, sla_class="free")),
                Request(2, 2, 0, Operation.READ, 6,
                        attrs=RequestAttributes(priority=9, sla_class="premium")),
                Request(3, 3, 0, Operation.READ, 7,
                        attrs=RequestAttributes(priority=1, sla_class="free")),
            ]
        )
        return store

    def test_priority_order(self):
        store = self._pending_with_priorities()
        protocol = SLAOrderingProtocol(api.make_protocol("fcfs"))
        decision = protocol.schedule(store.table, HistoryStore().table)
        assert [r.id for r in decision.qualified] == [2, 1, 3]

    def test_reserve_share_caps_low_tier(self):
        store = self._pending_with_priorities()
        protocol = SLAOrderingProtocol(
            api.make_protocol("fcfs"), reserve_share=0.4
        )
        decision = protocol.schedule(store.table, HistoryStore().table)
        # cap = max(1, 3*0.4) = 1 low-tier request per batch.
        assert [r.id for r in decision.qualified] == [2, 1]

    def test_invalid_reserve_share(self):
        with pytest.raises(ValueError):
            SLAOrderingProtocol(api.make_protocol("fcfs"), reserve_share=0.0)

    def test_consistency_preserved_under_sla(self):
        store = PendingStore()
        store.insert_batch(
            [
                Request(1, 1, 0, Operation.WRITE, 5,
                        attrs=RequestAttributes(priority=1)),
                Request(2, 2, 0, Operation.WRITE, 5,
                        attrs=RequestAttributes(priority=9)),
            ]
        )
        protocol = SLAOrderingProtocol(api.make_protocol("ss2pl"))
        decision = protocol.schedule(store.table, HistoryStore().table)
        # The SLA layer only reorders what the inner protocol allowed:
        # T2's write still conflicts and must not be smuggled in.
        assert [r.id for r in decision.qualified] == [1]


class TestEDF:
    def test_deadline_order(self):
        store = PendingStore()
        store.insert_batch(
            [
                Request(1, 1, 0, Operation.READ, 5,
                        attrs=RequestAttributes(deadline=9.0)),
                Request(2, 2, 0, Operation.READ, 6,
                        attrs=RequestAttributes(deadline=1.0)),
                Request(3, 3, 0, Operation.READ, 7),  # no deadline: last
            ]
        )
        protocol = EarliestDeadlineFirstProtocol(api.make_protocol("fcfs"))
        decision = protocol.schedule(store.table, HistoryStore().table)
        assert [r.id for r in decision.qualified] == [2, 1, 3]


class TestBoundedOversell:
    def test_allowance_enforced_against_history(self):
        history = [
            request(1, 1, 0, "w", 5),
            request(2, 2, 0, "w", 5),
        ]
        requests_table, history_table = tables(
            [request(3, 3, 0, "w", 5)], history
        )
        decision = api.make_protocol(make_bounded_oversell_spec(2)).schedule(
            requests_table, history_table
        )
        assert decision.qualified == []
        assert 3 in decision.denials

    def test_intra_batch_budget(self):
        requests_table, history_table = tables(
            [request(i, i, 0, "w", 5) for i in range(1, 6)]
        )
        decision = api.make_protocol(make_bounded_oversell_spec(3)).schedule(
            requests_table, history_table
        )
        assert [r.id for r in decision.qualified] == [1, 2, 3]
        assert set(decision.denials) == {4, 5}

    def test_reads_unaffected(self):
        history = [request(i, i, 0, "w", 5) for i in range(1, 4)]
        requests_table, history_table = tables(
            [request(10, 10, 0, "r", 5)], history
        )
        decision = api.make_protocol(make_bounded_oversell_spec(3)).schedule(
            requests_table, history_table
        )
        assert [r.id for r in decision.qualified] == [10]

    def test_commit_frees_slot(self):
        history = [
            request(1, 1, 0, "w", 5),
            request(2, 2, 0, "w", 5),
            request(3, 1, 1, "c"),
        ]
        requests_table, history_table = tables(
            [request(4, 3, 0, "w", 5)], history
        )
        decision = api.make_protocol(make_bounded_oversell_spec(2)).schedule(
            requests_table, history_table
        )
        assert [r.id for r in decision.qualified] == [4]

    def test_invalid_allowance(self):
        with pytest.raises(ValueError):
            api.make_protocol(make_bounded_oversell_spec(0))


class TestAdaptive:
    def _protocol(self, high=4, low=2):
        return AdaptiveConsistencyProtocol(
            strict=api.make_protocol("ss2pl"),
            relaxed=api.make_protocol("read-committed", "datalog"),
            high_watermark=high,
            low_watermark=low,
        )

    def test_strict_below_watermark(self):
        protocol = self._protocol()
        history = [request(1, 1, 0, "w", 5)]
        requests_table, history_table = tables(
            [request(2, 2, 0, "r", 5)], history
        )
        decision = protocol.schedule(requests_table, history_table)
        assert decision.qualified == []  # strict arm blocks the read
        assert protocol.active_arm is protocol.strict

    def test_degrades_above_watermark(self):
        protocol = self._protocol(high=2, low=1)
        history = [request(1, 1, 0, "w", 5)]
        pending = [request(i + 10, i + 10, 0, "r", 5) for i in range(3)]
        requests_table, history_table = tables(pending, history)
        decision = protocol.schedule(requests_table, history_table)
        assert len(decision.qualified) == 3  # relaxed arm admits reads
        assert protocol.active_arm is protocol.relaxed
        assert protocol.switches == 1

    def test_hysteresis(self):
        protocol = self._protocol(high=3, low=2)
        # Degrade at 4 pending.
        requests_table, history_table = tables(
            [request(i, i, 0, "r", i) for i in range(1, 5)]
        )
        protocol.schedule(requests_table, history_table)
        assert protocol.active_arm is protocol.relaxed
        # 3 pending is between the watermarks: stays relaxed.
        requests_table, __ = tables(
            [request(i, i, 0, "r", i) for i in range(1, 4)]
        )
        protocol.schedule(requests_table, history_table)
        assert protocol.active_arm is protocol.relaxed
        # 1 pending: back to strict.
        requests_table, __ = tables([request(1, 1, 0, "r", 1)])
        protocol.schedule(requests_table, history_table)
        assert protocol.active_arm is protocol.strict
        assert protocol.switches == 2

    def test_reset(self):
        protocol = self._protocol(high=1, low=0)
        with pytest.raises(ValueError):
            AdaptiveConsistencyProtocol(
                api.make_protocol("ss2pl"),
                api.make_protocol("read-committed", "datalog"),
                high_watermark=2, low_watermark=2,
            )
        requests_table, history_table = tables(
            [request(1, 1, 0, "r", 1), request(2, 2, 0, "r", 2)]
        )
        protocol.schedule(requests_table, history_table)
        assert protocol.switches == 1
        protocol.reset()
        assert protocol.switches == 0
        assert protocol.active_arm is protocol.strict

