"""Declaratively specified scheduling protocols.

This package is the paper's deliverable: scheduling protocols defined as
declarative rules over the ``requests`` (pending) and ``history`` tables
rather than as hand-coded imperative schedulers.  Since the
specification/execution split, it is layered:

* :mod:`repro.protocols.spec` — :class:`ProtocolSpec`, the declarative
  description of a protocol (queries in several dialects, batch policy,
  metadata) with zero execution logic, plus the spec registry;
* :mod:`repro.protocols.library` — the shipped specs: SS2PL (the
  paper's Listing 1, published and program-order-gated), C2PL, FCFS,
  read committed, exclusive-only 2PL, priority ceiling, and the
  bounded-oversell app-consistency family;
* :mod:`repro.backends` — pluggable execution backends; any spec runs
  on any backend that can lower one of its dialects
  (``api.make_protocol("ss2pl", "datalog")`` — :mod:`repro.api` is
  the one construction surface; there is no class per pairing);
* :mod:`repro.protocols.sla` / :mod:`repro.protocols.adaptive` provide
  protocol *combinators* (SLA ordering, EDF, adaptive consistency)
  that wrap any bound protocol.
"""

from repro.protocols.base import (
    Capabilities,
    Protocol,
    ProtocolDecision,
)
from repro.protocols.spec import (
    LockModel,
    ProtocolSpec,
    SPEC_REGISTRY,
    get_spec,
    register_spec,
    spec_names,
)
from repro.protocols import library  # noqa: F401  (registers the specs)
from repro.protocols.library import (
    SS2PL_DATALOG_RULES,
    make_bounded_oversell_spec,
)
from repro.protocols.sla import SLAOrderingProtocol, EarliestDeadlineFirstProtocol
from repro.protocols.adaptive import AdaptiveConsistencyProtocol

__all__ = [
    "Capabilities",
    "Protocol",
    "ProtocolDecision",
    "LockModel",
    "ProtocolSpec",
    "SPEC_REGISTRY",
    "get_spec",
    "register_spec",
    "spec_names",
    "make_bounded_oversell_spec",
    "SS2PL_DATALOG_RULES",
    "SLAOrderingProtocol",
    "EarliestDeadlineFirstProtocol",
    "AdaptiveConsistencyProtocol",
]
