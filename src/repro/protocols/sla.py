"""SLA protocols: tier ordering and deadlines on top of consistency.

The paper's constraint class (2): schedules must respect service-level
agreements, "e.g. for premium vs. free customers" (Section 1).  SLA
concerns are *orthogonal* to consistency, so these protocols are
decorators: an inner protocol decides which requests are safe, the SLA
layer decides their order (and optionally holds back low-priority work).

Ordering keys come from the request side-car attributes
(:class:`repro.model.request.RequestAttributes`), which the middleware
stores alongside the Table 2 columns.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.model.request import Request
from repro.protocols.base import (
    Capabilities,
    Protocol,
    ProtocolDecision,
)
from repro.relalg.table import Table


def rehydrate_attrs(decision: ProtocolDecision, requests: Table) -> None:
    """Re-attach side-car attributes to the qualified requests.

    Inner protocols reconstruct requests from Table 2 rows, which carry
    no SLA attributes; the stores stash them on the table object as
    ``attrs_by_id`` (see :mod:`repro.core.stores`).
    """
    attrs_by_id = getattr(requests, "attrs_by_id", None)
    if not attrs_by_id:
        return
    decision.qualified = [
        dataclasses.replace(request, attrs=attrs_by_id[request.id])
        if request.id in attrs_by_id
        else request
        for request in decision.qualified
    ]


class _OrderingDecorator(Protocol):
    """A protocol that reorders what ``inner`` qualifies.

    Everything but ``schedule`` is ``inner``'s: a stateful inner
    backend must see history change through the decorator exactly as it
    would bare, or its maintained views go stale and it grants
    conflicting locks.
    """

    inner: Protocol

    def reset(self) -> None:
        self.inner.reset()

    def observe_executed(self, batch: Sequence[Request]) -> None:
        self.inner.observe_executed(batch)

    def observe_pruned(self, transactions: set[int]) -> None:
        self.inner.observe_pruned(transactions)

    def maintenance_stats(self) -> Optional[dict]:
        return self.inner.maintenance_stats()


SLA_ORDER_RULES = """\
rank(Id, P) :- qualified(Id, _, _, _, _), priority(Id, P).
emit(Id) :- rank(Id, P)  ordered by P desc, Id asc.
"""


class SLAOrderingProtocol(_OrderingDecorator):
    """Order an inner protocol's qualified set by SLA priority.

    Higher ``attrs.priority`` goes first; ties break by arrival (id).
    With ``reserve_share`` set (0..1), at most that fraction of each
    batch may be taken by the *lowest* tier when higher-tier requests
    are waiting — a simple starvation-free premium lane.
    """

    capabilities = Capabilities(
        performance=True, qos=True, declarative=True, flexible=True,
        high_scalability=True,
    )
    declarative_source = SLA_ORDER_RULES

    def __init__(
        self,
        inner: Protocol,
        reserve_share: Optional[float] = None,
    ) -> None:
        if reserve_share is not None and not 0 < reserve_share <= 1:
            raise ValueError("reserve_share must be in (0, 1]")
        self.inner = inner
        self.reserve_share = reserve_share
        self.name = f"sla({inner.name})"
        self.description = f"SLA priority ordering over {inner.name}"

    def schedule(self, requests: Table, history: Table) -> ProtocolDecision:
        decision = self.inner.schedule(requests, history)
        rehydrate_attrs(decision, requests)
        ordered = sorted(
            decision.qualified,
            key=lambda r: (-r.attrs.priority, r.id),
        )
        if self.reserve_share is not None and ordered:
            ordered = self._apply_reservation(ordered)
        decision.qualified = ordered
        return decision

    def _apply_reservation(self, ordered: list[Request]) -> list[Request]:
        priorities = {r.attrs.priority for r in ordered}
        if len(priorities) <= 1:
            return ordered
        lowest = min(priorities)
        cap = max(1, int(len(ordered) * self.reserve_share))
        kept: list[Request] = []
        low_taken = 0
        for request in ordered:
            if request.attrs.priority == lowest:
                if low_taken >= cap:
                    continue
                low_taken += 1
            kept.append(request)
        return kept


class EarliestDeadlineFirstProtocol(_OrderingDecorator):
    """Order an inner protocol's qualified set by deadline (EDF).

    Requests without a deadline sort last, then by priority and arrival.
    """

    capabilities = Capabilities(
        performance=True, qos=True, declarative=True, flexible=True,
        high_scalability=True,
    )
    declarative_source = """\
emit(Id) :- qualified(Id, _, _, _, _), deadline(Id, D)
            ordered by D asc, Id asc.
"""

    def __init__(self, inner: Protocol) -> None:
        self.inner = inner
        self.name = f"edf({inner.name})"
        self.description = f"earliest-deadline-first over {inner.name}"

    def schedule(self, requests: Table, history: Table) -> ProtocolDecision:
        decision = self.inner.schedule(requests, history)
        rehydrate_attrs(decision, requests)
        decision.qualified = sorted(
            decision.qualified,
            key=lambda r: (
                r.attrs.deadline if r.attrs.deadline is not None else float("inf"),
                -r.attrs.priority,
                r.id,
            ),
        )
        return decision
