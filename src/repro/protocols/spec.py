"""Declarative protocol specifications, decoupled from execution.

The paper's thesis is that a scheduling protocol is a *query* over the
pending-request and history relations, so "optimization techniques from
declarative query processing can be used to improve scheduler
performance without affecting the scheduler specification".  This
module is that separation made structural:

* :class:`ProtocolSpec` captures **what** a protocol is — its
  qualification query in one or more declarative dialects (SQL text,
  Datalog rules, a lock-conflict model), an optional batch
  post-processing policy, and metadata.  The SQL text is the one
  relational statement of the rule: every relational engine plans it.
  A spec contains **zero execution logic**: nothing in it knows how to
  scan a table, probe an index, or cache a plan.
* :mod:`repro.backends` holds the **how**: pluggable
  :class:`~repro.backends.base.ExecutionBackend` adapters, each of
  which knows how to lower a spec dialect it understands into something
  it can evaluate per scheduler step.

Any registered spec runs on any backend that supports one of its
dialects; the protocol × backend matrix is swept by the equivalence
test suite and by the E14 bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Optional

from repro.protocols.base import Capabilities, ProtocolDecision
from repro.relalg.table import Table


@dataclass(frozen=True, slots=True)
class LockModel:
    """A protocol's conflict rules as a tiny declarative lock matrix.

    This is the dialect consumed by the *imperative* and *incremental*
    backends: both walk/maintain lock tables, and the four flags say
    which lock acquisitions and conflict checks the protocol performs.
    SS2PL is the all-default model; read committed drops read locks
    entirely; FCFS checks nothing; an exclusive-only 2PL treats reads
    as writes.
    """

    #: Reads acquire shared locks (and register intra-batch read claims).
    reads_take_locks: bool = True
    #: Reads are blocked by foreign write locks.
    reads_check_writers: bool = True
    #: Writes are blocked by foreign read locks.
    writes_check_readers: bool = True
    #: Writes are blocked by foreign write locks.
    writes_check_writers: bool = True
    #: Treat every read as a write (exclusive-only locking).
    reads_are_writes: bool = False


#: The lock models of the shipped specs, named for reuse.
SS2PL_LOCKS = LockModel()
READ_COMMITTED_LOCKS = LockModel(
    reads_take_locks=False,
    reads_check_writers=False,
    writes_check_readers=False,
)
NO_LOCKS = LockModel(
    reads_take_locks=False,
    reads_check_writers=False,
    writes_check_readers=False,
    writes_check_writers=False,
)
EXCLUSIVE_LOCKS = LockModel(reads_are_writes=True)


@dataclass(frozen=True)
class ProtocolSpec:
    """A declarative scheduling protocol: queries, policy, metadata.

    Every optional field is a *dialect* — an equivalent formulation of
    the same qualification rule.  A backend supports a spec when the
    spec carries a dialect the backend can lower (see
    :meth:`repro.backends.base.ExecutionBackend.supports`); all
    dialects of one spec must qualify identical request sets, which the
    cross-backend matrix test asserts on randomized workloads.
    """

    name: str
    description: str = ""
    capabilities: Capabilities = Capabilities()

    # -- query dialects ---------------------------------------------------
    #: SQL text over ``requests``/``history`` (Table 2 schema); the
    #: relational engines plan it through
    #: :class:`~repro.relalg.sql.SqlPlanner`.
    sql: Optional[str] = None
    #: sqlite-compatible rendition of :attr:`sql` when the primary text
    #: uses constructs sqlite parses differently; defaults to ``sql``.
    sqlite_sql: Optional[str] = None
    #: Datalog rules deriving ``qualified(Id, Ta, I, Op, Obj)``.
    datalog: Optional[str] = None
    #: Lock-conflict matrix (imperative + incremental backends).
    lock_model: Optional[LockModel] = None
    #: Hand-written set-at-a-time fallback ``(requests, history) ->
    #: ProtocolDecision`` for protocols whose rule needs more than a
    #: lock matrix (counting, admission).  Policy, not execution: it may
    #: only read the two tables.
    imperative: Optional[Callable[[Table, Table], ProtocolDecision]] = None

    # -- policy -----------------------------------------------------------
    #: Batch post-processing applied to the backend's qualified set
    #: (id-ordered) before dispatch — e.g. program-order gating or an
    #: admission budget.  Runs identically on every backend.
    post_process: Optional[
        Callable[[ProtocolDecision, Table, Table], ProtocolDecision]
    ] = None

    # -- metadata ---------------------------------------------------------
    #: The formulation of record for productivity accounting (E9).
    declarative_source: Optional[str] = None
    #: Backend used when none is requested.
    default_backend: str = "compiled"
    metadata: Mapping[str, object] = field(default_factory=dict)

    def dialects(self) -> frozenset[str]:
        """Names of the query dialects this spec provides."""
        present = set()
        if self.sql is not None:
            present.add("sql")
        if self.sqlite_sql is not None or self.sql is not None:
            present.add("sqlite-sql")
        if self.datalog is not None:
            present.add("datalog")
        if self.lock_model is not None:
            present.add("lock-model")
        if self.imperative is not None:
            present.add("imperative")
        return frozenset(present)

    def sqlite_text(self) -> Optional[str]:
        return self.sqlite_sql if self.sqlite_sql is not None else self.sql

    def with_(self, **changes) -> "ProtocolSpec":
        """A copy of this spec with the given fields replaced."""
        return replace(self, **changes)

    def spec_line_count(self) -> int:
        """Non-empty lines of the declarative source of record."""
        if not self.declarative_source:
            return 0
        return sum(
            1
            for line in self.declarative_source.splitlines()
            if line.strip()
        )


#: name -> spec; populated by :func:`register_spec`.
SPEC_REGISTRY: Dict[str, ProtocolSpec] = {}


def register_spec(spec: ProtocolSpec) -> ProtocolSpec:
    """Register *spec* under its name (idempotent for identical names)."""
    SPEC_REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> ProtocolSpec:
    try:
        return SPEC_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol spec {name!r}; "
            f"registered: {', '.join(spec_names())}"
        ) from None


def spec_names() -> list[str]:
    return sorted(SPEC_REGISTRY)
