"""Adaptive consistency: switch protocols with load.

The paper's closing direction (Section 5): "One possibility is an
adaptive consistency scheduler which varies the applied consistency
protocols based on metadata and business application requirements", in
the spirit of Consistency Rationing [15] and of Section 1's "reduced
consistency criteria may be used during times of high load".

:class:`AdaptiveConsistencyProtocol` wraps two protocols — a strict one
and a relaxed one — and chooses per batch based on the pending-queue
length, with hysteresis so the scheduler does not flap at the
threshold.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.model.request import Request
from repro.protocols.base import (
    Capabilities,
    Protocol,
    ProtocolDecision,
)
from repro.relalg.table import Table


class AdaptiveConsistencyProtocol(Protocol):
    """Strict protocol below the load threshold, relaxed above.

    Parameters
    ----------
    strict, relaxed:
        The two consistency arms (e.g. SS2PL and read-committed).
    high_watermark:
        Pending-set size at which the scheduler degrades to *relaxed*.
    low_watermark:
        Pending-set size at which it returns to *strict*; must be
        strictly below ``high_watermark`` (hysteresis band).
    """

    capabilities = Capabilities(
        performance=True, qos=True, declarative=True, flexible=True,
        high_scalability=True,
    )

    def __init__(
        self,
        strict: Protocol,
        relaxed: Protocol,
        high_watermark: int = 200,
        low_watermark: int = 100,
    ) -> None:
        if low_watermark >= high_watermark:
            raise ValueError("low_watermark must be below high_watermark")
        self.strict = strict
        self.relaxed = relaxed
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self._degraded = False
        self.switches = 0
        self.name = f"adaptive({strict.name}|{relaxed.name})"
        self.description = (
            f"{strict.name} under normal load, {relaxed.name} beyond "
            f"{high_watermark} pending requests (back below {low_watermark})"
        )
        self.declarative_source = (
            (strict.declarative_source or "")
            + f"% switch to relaxed arm when pending > {high_watermark}:\n"
            + (relaxed.declarative_source or "")
        )

    @property
    def active_arm(self) -> Protocol:
        return self.relaxed if self._degraded else self.strict

    def reset(self) -> None:
        self._degraded = False
        self.switches = 0
        self.strict.reset()
        self.relaxed.reset()

    # Both arms see every history change: the idle arm's maintained
    # views must be current the step the watermark switches to it.

    def observe_executed(self, batch: Sequence[Request]) -> None:
        self.strict.observe_executed(batch)
        self.relaxed.observe_executed(batch)

    def observe_pruned(self, transactions: set[int]) -> None:
        self.strict.observe_pruned(transactions)
        self.relaxed.observe_pruned(transactions)

    def maintenance_stats(self) -> Optional[dict]:
        return self.active_arm.maintenance_stats()

    def schedule(self, requests: Table, history: Table) -> ProtocolDecision:
        pending = len(requests)
        if not self._degraded and pending > self.high_watermark:
            self._degraded = True
            self.switches += 1
        elif self._degraded and pending < self.low_watermark:
            self._degraded = False
            self.switches += 1
        return self.active_arm.schedule(requests, history)
