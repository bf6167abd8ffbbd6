"""Executable sketches of the related approaches in the paper's Table 1.

Each entry implements the *defining* scheduling/admission idea of the
cited system as a small policy over our middleware primitives, declares
the capability vector the paper assigns it, and cites the paper's
characterization.  Table 1 (bench E1) is regenerated from these vectors;
the policies themselves serve as running comparators in the SLA bench.

The policies operate on a simple shared interface: given the list of
queued requests (with SLA attributes) and a capacity for this dispatch
round, return the requests to send, in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.model.request import Request
from repro.protocols.base import Capabilities


@dataclass(frozen=True)
class RelatedApproach:
    """One row of Table 1: a named approach with its capability vector
    and an executable dispatch policy."""

    name: str
    citation: str
    capabilities: Capabilities
    #: (queued requests, capacity) -> dispatched requests (ordered).
    policy: Callable[[Sequence[Request], int], list[Request]]
    summary: str = ""


# -- policies -----------------------------------------------------------------


def _fifo(queue: Sequence[Request], capacity: int) -> list[Request]:
    return list(queue)[:capacity]


def _eqms_policy(queue: Sequence[Request], capacity: int) -> list[Request]:
    """EQMS (Schroeder et al. [20][21]): external queue + MPL cap +
    priority classes.  Dispatch highest-priority first, never exceeding
    the (externally tuned) MPL — here the capacity stands for the MPL."""
    ordered = sorted(queue, key=lambda r: (-r.attrs.priority, r.id))
    return ordered[:capacity]


def _ganymed_policy(queue: Sequence[Request], capacity: int) -> list[Request]:
    """Ganymed (Plattner/Alonso [19]): separate update from read-only
    work — updates go to the master (dispatch first, serialized),
    read-only transactions scale out over replicas (fill the rest)."""
    updates = [r for r in queue if r.is_write]
    reads = [r for r in queue if not r.is_write]
    return (updates + reads)[:capacity]


def _wlms_policy(queue: Sequence[Request], capacity: int) -> list[Request]:
    """WLMS (Krompass et al. [16]): classify queries and penalize
    problem queries depending on SLA conformance.  Long/expensive work
    (here: writes, as the costlier class) is penalized when the queue is
    congested."""
    congested = len(queue) > capacity
    def key(r: Request):
        penalty = 1 if (congested and r.is_write) else 0
        return (penalty, -r.attrs.priority, r.id)
    return sorted(queue, key=key)[:capacity]


def _cjdbc_policy(queue: Sequence[Request], capacity: int) -> list[Request]:
    """C-JDBC (Cecchet et al. [4]): RAIDb clustering — balance requests
    round-robin across backends for availability/performance; no
    request differentiation.  Round-robin here = plain FIFO dispatch."""
    return _fifo(queue, capacity)


def _gatekeeper_policy(queue: Sequence[Request], capacity: int) -> list[Request]:
    """Gatekeeper proxy (Elnikety et al. [7]): admission control — under
    overload, *admit nothing new beyond capacity* and shed the excess
    (we model shedding as leaving it queued), SJF-style ordering for
    admitted requests."""
    ordered = sorted(queue, key=lambda r: (0 if not r.is_write else 1, r.id))
    return ordered[:capacity]


def _webqos_policy(queue: Sequence[Request], capacity: int) -> list[Request]:
    """WebQoS (Bhatti/Friedrich [2]): tiered services — premium requests
    are admitted preferentially; basic requests are dropped first under
    overload (here: left queued)."""
    ordered = sorted(queue, key=lambda r: (-r.attrs.priority, r.id))
    return ordered[:capacity]


def _qshuffler_policy(queue: Sequence[Request], capacity: int) -> list[Request]:
    """QShuffler (Ahmad et al. [1]): order a batch to minimize total
    completion time by exploiting query interactions — approximated by
    grouping requests touching the same object together (shared work)."""
    ordered = sorted(queue, key=lambda r: (r.obj, r.id))
    return ordered[:capacity]


# -- the Table 1 catalogue -------------------------------------------------------

RELATED_APPROACHES: tuple[RelatedApproach, ...] = (
    RelatedApproach(
        name="EQMS",
        citation="Schroeder et al., ICDE 2006 [20][21]",
        capabilities=Capabilities(performance=True, qos=True),
        policy=_eqms_policy,
        summary="external queue management + MPL tuning + prioritization",
    ),
    RelatedApproach(
        name="Ganymed",
        citation="Plattner & Alonso, Middleware 2004 [19]",
        capabilities=Capabilities(performance=True, high_scalability=True),
        policy=_ganymed_policy,
        summary="replication middleware separating updates from reads",
    ),
    RelatedApproach(
        name="WLMS",
        citation="Krompass et al., VLDB 2007 [16]",
        capabilities=Capabilities(performance=True, qos=True),
        policy=_wlms_policy,
        summary="SLO-aware workload management, problem-query penalties",
    ),
    RelatedApproach(
        name="C-JDBC",
        citation="Cecchet et al., USENIX ATEC 2004 [4]",
        capabilities=Capabilities(performance=True, high_scalability=True),
        policy=_cjdbc_policy,
        summary="RAIDb database clustering behind a single view",
    ),
    RelatedApproach(
        name="GP",
        citation="Elnikety et al., WWW 2004 [7]",
        capabilities=Capabilities(performance=True),
        policy=_gatekeeper_policy,
        summary="gatekeeper proxy: admission control + scheduling",
    ),
    RelatedApproach(
        name="WebQoS",
        citation="Bhatti & Friedrich, IEEE Network 1999 [2]",
        capabilities=Capabilities(performance=True, qos=True, flexible=True),
        policy=_webqos_policy,
        summary="tiered web server QoS with policy-based scheduling",
    ),
    RelatedApproach(
        name="QShuffler",
        citation="Ahmad et al., CIKM 2008 [1]",
        capabilities=Capabilities(performance=True),
        policy=_qshuffler_policy,
        summary="batch query ordering exploiting query interactions",
    ),
)

#: The paper's published Table 1 values, for the bench's paper-vs-
#: measured check (P, QoS, D, F, HS).
PAPER_TABLE1 = {
    "EQMS": ("+", "+", "-", "-", "-"),
    "Ganymed": ("+", "-", "-", "-", "+"),
    "WLMS": ("+", "+", "-", "-", "-"),
    "C-JDBC": ("+", "-", "-", "-", "+"),
    "GP": ("+", "-", "-", "-", "-"),
    "WebQoS": ("+", "+", "-", "+", "-"),
    "QShuffler": ("+", "-", "-", "-", "-"),
}


def table1_rows(include_ours: bool = True) -> list[tuple[str, str, str, str, str, str]]:
    """Regenerate Table 1 from the implemented capability vectors.

    Returns rows of (Approach, P, QoS, D, F, HS); with ``include_ours``
    a final row for this system's declarative scheduler is appended
    (the paper's implicit last row: all plus)."""
    rows = [
        (approach.name, *approach.capabilities.as_row())
        for approach in RELATED_APPROACHES
    ]
    if include_ours:
        from repro.protocols.spec import get_spec

        ours = get_spec("ss2pl").capabilities
        rows.append(("Declarative scheduler (this work)", *ours.as_row()))
    return rows
