"""Protocol abstraction: a declarative rule set the scheduler evaluates.

A protocol's job (paper Section 3.3, step 3): given the pending-request
table and the history table, produce "an ordered schedule of the next
requests qualified for execution".  The scheduler core is generic; all
policy lives in protocol objects.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.model.request import Request
from repro.relalg.table import Table


@dataclass(frozen=True, slots=True)
class Capabilities:
    """Capability vector in the dimensions of the paper's Table 1.

    P = improves/ensures performance, QoS = quality-of-service support,
    D = declarative protocol definition, F = flexibility (changeable
    protocols), HS = targets high scalability.
    """

    performance: bool = False
    qos: bool = False
    declarative: bool = False
    flexible: bool = False
    high_scalability: bool = False

    def as_row(self) -> tuple[str, str, str, str, str]:
        def mark(flag: bool) -> str:
            return "+" if flag else "-"

        return (
            mark(self.performance),
            mark(self.qos),
            mark(self.declarative),
            mark(self.flexible),
            mark(self.high_scalability),
        )


@dataclass
class ProtocolDecision:
    """Result of one protocol evaluation over the pending set."""

    qualified: list[Request] = field(default_factory=list)
    #: Optional explanations for denied requests (request id -> reason),
    #: filled by protocols that can attribute denials cheaply.
    denials: dict[int, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.qualified)


class Protocol(abc.ABC):
    """A scheduling protocol evaluated set-at-a-time.

    Concrete protocols implement :meth:`schedule`.  ``requests`` and
    ``history`` use the paper's Table 2 schema
    ``(id, ta, intrata, operation, object)``.
    """

    #: Short machine name (used by registries and reports).
    name: str = "abstract"
    #: Human description of the rule set.
    description: str = ""
    #: Table 1 capability vector for this protocol/the system running it.
    capabilities: Capabilities = Capabilities()
    #: Lines of declarative specification, for the productivity study
    #: (E9).  Protocols backed by a rule text override this.
    declarative_source: Optional[str] = None

    @abc.abstractmethod
    def schedule(self, requests: Table, history: Table) -> ProtocolDecision:
        """Return the ordered qualified requests for this batch."""

    def reset(self) -> None:
        """Clear any protocol-internal state (default: stateless)."""

    # -- incremental-maintenance hooks (optional) ---------------------------
    #
    # Stateless protocols re-derive everything from the history table each
    # step.  Stateful (incrementally maintained) protocols override these;
    # the scheduler calls them after moving qualified requests to history
    # and after pruning finished transactions, so the protocol's view
    # stays synchronized without rescanning (the paper's research
    # question 4: "How can the performance of declaratively programmed
    # schedulers be improved?").

    def observe_executed(self, batch: Sequence[Request]) -> None:
        """Called after *batch* was moved from pending to history."""

    def observe_pruned(self, transactions: set[int]) -> None:
        """Called after the listed transactions' rows were pruned from
        the history store."""

    def maintenance_stats(self) -> Optional[dict]:
        """Delta/cache maintenance counters of a protocol that keeps
        incrementally maintained state (default: None)."""
        return None

    def spec_line_count(self) -> int:
        """Number of non-empty lines in the declarative specification."""
        if not self.declarative_source:
            return 0
        return sum(
            1 for line in self.declarative_source.splitlines() if line.strip()
        )


def requests_from_relation(rows: Sequence[Sequence]) -> list[Request]:
    """Convert Table 2-schema rows back into :class:`Request` objects."""
    return [Request.from_row(row) for row in rows]
