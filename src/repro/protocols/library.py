"""The protocol spec library: every shipped protocol, declaratively.

This module is the single home of protocol *query logic*.  Each
protocol is one :class:`~repro.protocols.spec.ProtocolSpec` carrying
every dialect we can state it in — a relalg logical-plan builder, SQL
text, Datalog rules, a lock model, and (where the rule needs counting
or admission) a hand-written set-at-a-time callable.  Execution lives
entirely in :mod:`repro.backends`: SS2PL on sqlite, on the SQL
frontend, as Datalog or on maintained lock views is the single
``ss2pl-listing1`` spec plus backend selection.

Shipped specs (8, the protocol side of the protocol × backend matrix):

====================  ===================================================
ss2pl-listing1        the paper's Listing 1, published semantics
ss2pl                 Listing 1 + program-order/termination gating
fcfs                  first-come-first-served (no consistency)
read-committed        write-write blocking only
exclusive             2PL with exclusive-only locks (reads lock as writes)
priority-ceiling      object ceiling: oldest claimant wins the object
c2pl                  conservative 2PL (all-or-nothing admission)
bounded-oversell      app-specific: bounded concurrent reservations
====================  ===================================================
"""

from __future__ import annotations

from repro.model.request import Request
from repro.protocols.base import Capabilities, ProtocolDecision
from repro.protocols.spec import (
    EXCLUSIVE_LOCKS,
    NO_LOCKS,
    READ_COMMITTED_LOCKS,
    SS2PL_LOCKS,
    ProtocolSpec,
    register_spec,
)
from repro.relalg.expressions import col, is_null, lit, or_
from repro.relalg.query import Pipeline, Query, cte
from repro.relalg.table import Table
from repro.sqlbridge.bridge import LISTING1_SQLITE

#: Capability row shared by the declarative consistency specs.
_FULL_CAPS = Capabilities(
    performance=True, qos=True, declarative=True, flexible=True,
    high_scalability=True,
)
_NO_QOS_CAPS = Capabilities(
    performance=True, declarative=True, flexible=True, high_scalability=True
)


# ---------------------------------------------------------------------------
# SS2PL — the paper's Listing 1, in four dialects.
# ---------------------------------------------------------------------------

#: The literal SQL of the paper's Listing 1 (the protocol's declarative
#: source of record; executed verbatim by the sqlite backend through its
#: sqlite-compatible rendition).
LISTING1_SQL = """\
WITH RLockedObjects AS
 (SELECT a.object, a.ta, a.operation
  FROM history a
  WHERE NOT EXISTS
   (SELECT * FROM history b
    WHERE (a.ta=b.ta AND a.object=b.object AND b.operation='w')
       OR (a.ta=b.ta AND (b.operation='a' OR b.operation='c')))),
WLockedObjects AS
 (SELECT DISTINCT a.object, a.ta, a.operation
  FROM history a LEFT JOIN
   (SELECT ta FROM history
    WHERE operation='a' OR operation='c') AS finishedTAs
   ON a.ta = finishedTAs.ta
  WHERE a.operation='w' AND finishedTAs.ta IS NULL),
OperationsOnWLockedObjects AS
 (SELECT r.ta, r.intrata
  FROM requests r, WLockedObjects wlo
  WHERE r.object=wlo.object AND r.ta<>wlo.ta),
OperationsOnRLockedObjects AS
 (SELECT wOpsOnRLObj.ta, wOpsOnRLObj.intrata
  FROM requests wOpsOnRLObj, RLockedObjects rl
  WHERE wOpsOnRLObj.object=rl.object
    AND wOpsOnRLObj.operation='w'
    AND wOpsOnRLObj.ta<>rl.ta),
OpsOnSameObjAsPriorSelectOps AS
 (SELECT r2.ta, r2.intrata
  FROM requests r2, requests r1
  WHERE r2.object=r1.object AND r2.ta>r1.ta
    AND ((r1.operation='w') OR (r2.operation='w'))),
QualifiedSS2PLOps AS
 ((SELECT ta, intrata FROM requests)
  EXCEPT (
   (SELECT * FROM OperationsOnWLockedObjects)
   UNION ALL
   (SELECT * FROM OpsOnSameObjAsPriorSelectOps)
   UNION ALL
   (SELECT * FROM OperationsOnRLockedObjects)))
SELECT r2.*
FROM requests r2, QualifiedSS2PLOps ss2PL
WHERE r2.ta=ss2PL.ta AND r2.intrata=ss2PL.intrata
"""

#: SS2PL as a dozen Datalog rules — the succinct-language formulation
#: (paper Section 5), predicate by predicate equivalent to Listing 1.
SS2PL_DATALOG_RULES = """\
finished(Ta) :- history(_, Ta, _, "c", _).
finished(Ta) :- history(_, Ta, _, "a", _).
wlocked(Obj, Ta) :- history(_, Ta, _, "w", Obj), not finished(Ta).
rlocked(Obj, Ta) :- history(_, Ta, _, "r", Obj), not finished(Ta),
                    not wlocked(Obj, Ta).
denied(Id) :- requests(Id, Ta, _, _, Obj), wlocked(Obj, Ta2), Ta != Ta2.
denied(Id) :- requests(Id, Ta, _, "w", Obj), rlocked(Obj, Ta2), Ta != Ta2.
denied(Id2) :- requests(Id2, Ta2, _, Op2, Obj), requests(_, Ta1, _, Op1, Obj),
               Ta2 > Ta1, conflictops(Op1, Op2).
conflictops("w", "w").
conflictops("w", "r").
conflictops("r", "w").
qualified(Id, Ta, I, Op, Obj) :- requests(Id, Ta, I, Op, Obj),
                                 not denied(Id).
"""


def listing1_pipeline(requests: Table, history: Table) -> Pipeline:
    """Evaluate Listing 1 on the relalg engine, one CTE per step.

    Returns the finished :class:`Pipeline`; the final step is named
    ``qualified_requests`` and has the full Table 2 schema.  This is
    the paper's "naive" eager evaluation — each CTE materializes before
    the next starts, and nothing survives to the next scheduler step.
    """
    p = Pipeline()
    p.add_table("requests", requests, alias="r")
    p.add_table("history", history, alias="h")

    # RLockedObjects: history rows `a` such that no row `b` of the same
    # transaction writes the same object or terminates the transaction —
    # i.e. read locks held by still-active transactions.
    history_a = Query.from_(history, alias="a")
    history_b = Query.from_(history, alias="b")
    writes_same_obj = history_b.where(col("b.operation") == lit("w")).select(
        "b.ta", "b.object"
    )
    finished = (
        Query.from_(history, alias="b")
        .where(or_(col("b.operation") == lit("a"), col("b.operation") == lit("c")))
        .select("b.ta")
        .distinct()
    )
    r_locked = (
        history_a.anti_join(
            Query.from_(writes_same_obj.execute(), alias="wso"),
            on=(col("a.ta") == col("wso.ta")) & (col("a.object") == col("wso.object")),
        )
        .anti_join(
            Query.from_(finished.execute(), alias="fin"),
            on=col("a.ta") == col("fin.ta"),
        )
        .select("a.object", "a.ta", "a.operation")
    )
    p.add("RLockedObjects", r_locked)

    # WLockedObjects: DISTINCT writes of transactions with no commit/abort
    # (the paper uses LEFT JOIN ... IS NULL; we keep that shape).
    finished_tas = (
        Query.from_(history, alias="f")
        .where(or_(col("f.operation") == lit("a"), col("f.operation") == lit("c")))
        .select("f.ta")
        .distinct()
    )
    w_locked = (
        Query.from_(history, alias="a")
        .left_join(
            Query.from_(finished_tas.execute(), alias="finishedTAs"),
            on=col("a.ta") == col("finishedTAs.ta"),
        )
        .where(
            (col("a.operation") == lit("w")) & is_null(col("finishedTAs.ta"))
        )
        .select("a.object", "a.ta", "a.operation")
        .distinct()
    )
    p.add("WLockedObjects", w_locked)

    # OperationsOnWLockedObjects: pending ops touching a write-locked
    # object of another transaction.
    ops_on_w = (
        p.ref("requests")
        .join(
            Query.from_(p["WLockedObjects"], alias="wlo"),
            on=(col("r.object") == col("wlo.object"))
            & (col("r.ta") != col("wlo.ta")),
        )
        .select("r.ta", "r.intrata")
    )
    p.add("OperationsOnWLockedObjects", ops_on_w)

    # OperationsOnRLockedObjects: pending WRITES touching a read-locked
    # object of another transaction.
    ops_on_r = (
        p.ref("requests")
        .where(col("r.operation") == lit("w"))
        .join(
            Query.from_(p["RLockedObjects"], alias="rl"),
            on=(col("r.object") == col("rl.object")) & (col("r.ta") != col("rl.ta")),
        )
        .select("r.ta", "r.intrata")
    )
    p.add("OperationsOnRLockedObjects", ops_on_r)

    # OpsOnSameObjAsPriorSelectOps: intra-batch conflicts — a pending op
    # of a *later* transaction conflicting with a pending op of an
    # earlier one (at least one of the two writes).
    intra_batch = (
        Query.from_(requests, alias="r2")
        .join(
            Query.from_(requests, alias="r1"),
            on=(col("r2.object") == col("r1.object")) & (col("r2.ta") > col("r1.ta")),
        )
        .where(
            or_(
                col("r1.operation") == lit("w"),
                col("r2.operation") == lit("w"),
            )
        )
        .select("r2.ta", "r2.intrata")
    )
    p.add("OpsOnSameObjAsPriorSelectOps", intra_batch)

    # QualifiedSS2PLOps: all pending (ta, intrata) EXCEPT the union of
    # the three denial sets (set semantics, as SQL EXCEPT).
    all_ops = p.ref("requests").select("r.ta", "r.intrata")
    denials = (
        p.ref("OperationsOnWLockedObjects")
        .union_all(p.ref("OpsOnSameObjAsPriorSelectOps"))
        .union_all(p.ref("OperationsOnRLockedObjects"))
    )
    qualified_keys = all_ops.except_(denials)
    p.add("QualifiedSS2PLOps", qualified_keys)

    # Final join back to the full request rows.
    qualified = (
        Query.from_(requests, alias="r2")
        .join(
            Query.from_(p["QualifiedSS2PLOps"], alias="q"),
            on=(col("r2.ta") == col("q.ta")) & (col("r2.intrata") == col("q.intrata")),
        )
        .select("r2.id", "r2.ta", "r2.intrata", "r2.operation", "r2.object")
        .order_by("id")
    )
    p.add("qualified_requests", qualified)
    return p


def listing1_query(requests: Table, history: Table) -> Query:
    """Listing 1 as one *deferred* plan DAG over live tables.

    Where :func:`listing1_pipeline` materializes each CTE eagerly (and
    therefore must be rebuilt per scheduler step), this form contains no
    snapshots: compiled once via :meth:`Query.compile`, the resulting
    plan is re-executable against the tables' current contents every
    step.  Shared CTEs (``FinishedTAs`` feeds both lock views) are
    single nodes, computed at most once per execution.
    """
    # Read locks: history rows `a` whose transaction neither wrote the
    # same object nor terminated.
    writes_same_obj = cte(
        Query.from_(history, alias="b")
        .where(col("b.operation") == lit("w"))
        .select("b.ta", "b.object"),
        "WritesSameObject",
    )
    finished = cte(
        Query.from_(history, alias="f")
        .where(or_(col("f.operation") == lit("a"), col("f.operation") == lit("c")))
        .select("f.ta")
        .distinct(),
        "FinishedTAs",
    )
    r_locked = cte(
        Query.from_(history, alias="a")
        .anti_join(
            Query.from_(writes_same_obj, alias="wso"),
            on=(col("a.ta") == col("wso.ta")) & (col("a.object") == col("wso.object")),
        )
        .anti_join(
            Query.from_(finished, alias="fin"),
            on=col("a.ta") == col("fin.ta"),
        )
        .select("a.object", "a.ta", "a.operation"),
        "RLockedObjects",
    )
    # Write locks: DISTINCT writes of unfinished transactions (the
    # paper's LEFT JOIN ... IS NULL shape).
    w_locked = cte(
        Query.from_(history, alias="a")
        .left_join(
            Query.from_(finished, alias="finishedTAs"),
            on=col("a.ta") == col("finishedTAs.ta"),
        )
        .where((col("a.operation") == lit("w")) & is_null(col("finishedTAs.ta")))
        .select("a.object", "a.ta", "a.operation")
        .distinct(),
        "WLockedObjects",
    )

    ops_on_w = (
        Query.from_(requests, alias="r")
        .join(
            Query.from_(w_locked, alias="wlo"),
            on=(col("r.object") == col("wlo.object")) & (col("r.ta") != col("wlo.ta")),
        )
        .select("r.ta", "r.intrata")
    )
    ops_on_r = (
        Query.from_(requests, alias="r")
        .where(col("r.operation") == lit("w"))
        .join(
            Query.from_(r_locked, alias="rl"),
            on=(col("r.object") == col("rl.object")) & (col("r.ta") != col("rl.ta")),
        )
        .select("r.ta", "r.intrata")
    )
    intra_batch = (
        Query.from_(requests, alias="r2")
        .join(
            Query.from_(requests, alias="r1"),
            on=(col("r2.object") == col("r1.object")) & (col("r2.ta") > col("r1.ta")),
        )
        .where(
            or_(
                col("r1.operation") == lit("w"),
                col("r2.operation") == lit("w"),
            )
        )
        .select("r2.ta", "r2.intrata")
    )

    all_ops = Query.from_(requests, alias="r").select("r.ta", "r.intrata")
    denials = ops_on_w.union_all(intra_batch).union_all(ops_on_r)
    qualified_keys = cte(all_ops.except_(denials), "QualifiedSS2PLOps")
    return (
        Query.from_(requests, alias="r2")
        .join(
            Query.from_(qualified_keys, alias="q"),
            on=(col("r2.ta") == col("q.ta")) & (col("r2.intrata") == col("q.intrata")),
        )
        .select("r2.id", "r2.ta", "r2.intrata", "r2.operation", "r2.object")
        .order_by("id")
    )


def _listing1_pipeline_rows(requests: Table, history: Table) -> list[tuple]:
    return listing1_pipeline(requests, history)["qualified_requests"].rows


LISTING1_SPEC = register_spec(
    ProtocolSpec(
        name="ss2pl-listing1",
        description="SS2PL via the paper's Listing 1 query",
        capabilities=_FULL_CAPS,
        relalg=listing1_query,
        relalg_pipeline=_listing1_pipeline_rows,
        sql=LISTING1_SQL,
        sqlite_sql=LISTING1_SQLITE,
        datalog=SS2PL_DATALOG_RULES,
        lock_model=SS2PL_LOCKS,
        declarative_source=LISTING1_SQL,
    )
)


#: (intrata, executed) -> the gate's denial text.  Under contention
#: nearly every lock-free candidate is out of order on every step and
#: the distinct texts number (transaction length)² at most, so each is
#: formatted once.
_OUT_OF_ORDER: dict[tuple[int, int], str] = {}


def gate_program_order(
    decision: ProtocolDecision, requests: Table, history: Table
) -> ProtocolDecision:
    """Program-order and termination gating over a qualified set.

    The two rules a *running* (rather than trace-replaying) scheduler
    needs on top of Listing 1's published semantics:

    * program order — a request qualifies only when every earlier
      request of its transaction (lower INTRATA) has already executed;
    * termination gating — a commit/abort qualifies only when all of
      its transaction's data accesses have executed.

    Pure batch policy: runs identically on every backend's candidates
    (which arrive id-ordered).  One pass over them; the denials are
    added to the incoming decision's own ``denials`` dict.
    """
    if not decision.qualified:
        return decision

    # Executed-count per transaction, read from history the first time a
    # candidate of that transaction is met — the gate never reads any
    # other ta, and touching every history bucket would cost
    # O(|history tas|) per step (at 10^5+ preloaded rows that dwarfs the
    # delta-maintained query itself).  The stores maintain a hash index
    # on ta; bare tables are counted in one scan.
    progress: dict[int, int] = {}
    ta_index = history.index_on("ta")
    if ta_index is not None:
        buckets = ta_index.buckets
    else:
        buckets = {}
        history_ta_pos = history.schema.resolve("ta")
        for row in history.rows:
            ta = row[history_ta_pos]
            progress[ta] = progress.get(ta, 0) + 1

    denials = decision.denials
    texts = _OUT_OF_ORDER
    gated: list[Request] = []
    for request in decision.qualified:
        ta = request.ta
        done = progress.get(ta)
        if done is None:
            done = progress[ta] = len(buckets.get((ta,), ()))
        intrata = request.intrata
        if intrata != done:
            text = texts.get((intrata, done))
            if text is None:
                text = texts[(intrata, done)] = (
                    f"out of program order: intrata {intrata}, "
                    f"executed {done}"
                )
            denials[request.id] = text
            continue
        operation = request.operation
        if operation.is_termination or operation.is_data_access:
            gated.append(request)
            progress[ta] = done + 1
    return ProtocolDecision(qualified=gated, denials=denials)


SS2PL_SPEC = register_spec(
    LISTING1_SPEC.with_(
        name="ss2pl",
        description="SS2PL (Listing 1 + program order)",
        post_process=gate_program_order,
    )
)


# ---------------------------------------------------------------------------
# FCFS — the no-consistency baseline.
# ---------------------------------------------------------------------------

FCFS_RULES = """\
qualified(Id, Ta, I, Op, Obj) :- requests(Id, Ta, I, Op, Obj).
"""

FCFS_SQL = """\
SELECT id, ta, intrata, operation, object FROM requests
"""


def _fcfs_query(requests: Table, history: Table) -> Query:
    return Query.from_(requests).order_by("id")


FCFS_SPEC = register_spec(
    ProtocolSpec(
        name="fcfs",
        description="first-come-first-served, no consistency constraints",
        capabilities=_NO_QOS_CAPS,
        relalg=_fcfs_query,
        sql=FCFS_SQL,
        datalog=FCFS_RULES,
        lock_model=NO_LOCKS,
        declarative_source=FCFS_RULES,
    )
)


# ---------------------------------------------------------------------------
# Read committed — relaxed consistency, write-write blocking only.
# ---------------------------------------------------------------------------

READ_COMMITTED_RULES = """\
finished(Ta) :- history(_, Ta, _, "c", _).
finished(Ta) :- history(_, Ta, _, "a", _).
wlocked(Obj, Ta) :- history(_, Ta, _, "w", Obj), not finished(Ta).
denied(Id) :- requests(Id, Ta, _, "w", Obj), wlocked(Obj, Ta2), Ta != Ta2.
denied(Id2) :- requests(Id2, Ta2, _, "w", Obj), requests(_, Ta1, _, "w", Obj),
               Ta2 > Ta1.
qualified(Id, Ta, I, Op, Obj) :- requests(Id, Ta, I, Op, Obj),
                                 not denied(Id).
"""

READ_COMMITTED_SQL = """\
WITH FinishedTAs AS
 (SELECT ta FROM history WHERE operation='a' OR operation='c'),
WLockedObjects AS
 (SELECT DISTINCT a.object AS object, a.ta AS ta
  FROM history a LEFT JOIN FinishedTAs f ON a.ta = f.ta
  WHERE a.operation='w' AND f.ta IS NULL),
DeniedOps AS
 (SELECT r.ta AS ta, r.intrata AS intrata
  FROM requests r, WLockedObjects w
  WHERE r.operation='w' AND r.object=w.object AND r.ta<>w.ta
  UNION ALL
  SELECT r2.ta AS ta, r2.intrata AS intrata
  FROM requests r2, requests r1
  WHERE r2.operation='w' AND r1.operation='w'
    AND r2.object=r1.object AND r2.ta>r1.ta),
QualifiedOps AS
 (SELECT ta, intrata FROM requests
  EXCEPT
  SELECT ta, intrata FROM DeniedOps)
SELECT r.id, r.ta, r.intrata, r.operation, r.object
FROM requests r, QualifiedOps q
WHERE r.ta=q.ta AND r.intrata=q.intrata
"""


def read_committed_query(requests: Table, history: Table) -> Query:
    """Write-write blocking only, as a deferred relalg plan."""
    finished = cte(
        Query.from_(history, alias="f")
        .where(or_(col("f.operation") == lit("a"), col("f.operation") == lit("c")))
        .select("f.ta")
        .distinct(),
        "FinishedTAs",
    )
    w_locked = cte(
        Query.from_(history, alias="a")
        .where(col("a.operation") == lit("w"))
        .anti_join(
            Query.from_(finished, alias="fin"),
            on=col("a.ta") == col("fin.ta"),
        )
        .select("a.object", "a.ta")
        .distinct(),
        "WLockedObjects",
    )
    ops_on_w = (
        Query.from_(requests, alias="r")
        .where(col("r.operation") == lit("w"))
        .join(
            Query.from_(w_locked, alias="wlo"),
            on=(col("r.object") == col("wlo.object")) & (col("r.ta") != col("wlo.ta")),
        )
        .select("r.ta", "r.intrata")
    )
    intra_batch = (
        Query.from_(requests, alias="r2")
        .where(col("r2.operation") == lit("w"))
        .join(
            Query.from_(requests, alias="r1"),
            on=(col("r2.object") == col("r1.object")) & (col("r2.ta") > col("r1.ta")),
        )
        .where(col("r1.operation") == lit("w"))
        .select("r2.ta", "r2.intrata")
    )
    all_ops = Query.from_(requests, alias="r").select("r.ta", "r.intrata")
    qualified_keys = cte(
        all_ops.except_(ops_on_w.union_all(intra_batch)), "QualifiedOps"
    )
    return (
        Query.from_(requests, alias="r2")
        .join(
            Query.from_(qualified_keys, alias="q"),
            on=(col("r2.ta") == col("q.ta")) & (col("r2.intrata") == col("q.intrata")),
        )
        .select("r2.id", "r2.ta", "r2.intrata", "r2.operation", "r2.object")
        .order_by("id")
    )


READ_COMMITTED_SPEC = register_spec(
    ProtocolSpec(
        name="read-committed",
        description="relaxed consistency: only write-write conflicts block",
        capabilities=_NO_QOS_CAPS,
        relalg=read_committed_query,
        sql=READ_COMMITTED_SQL,
        datalog=READ_COMMITTED_RULES,
        lock_model=READ_COMMITTED_LOCKS,
        declarative_source=READ_COMMITTED_RULES,
    )
)


# ---------------------------------------------------------------------------
# Exclusive-only 2PL — reads lock like writes.
# ---------------------------------------------------------------------------

EXCLUSIVE_RULES = """\
finished(Ta) :- history(_, Ta, _, "c", _).
finished(Ta) :- history(_, Ta, _, "a", _).
locked(Obj, Ta) :- history(_, Ta, _, "w", Obj), not finished(Ta).
locked(Obj, Ta) :- history(_, Ta, _, "r", Obj), not finished(Ta).
dataop("r").
dataop("w").
denied(Id) :- requests(Id, Ta, _, Op, Obj), dataop(Op),
              locked(Obj, Ta2), Ta != Ta2.
denied(Id2) :- requests(Id2, Ta2, _, Op2, Obj), dataop(Op2),
               requests(_, Ta1, _, Op1, Obj), dataop(Op1), Ta2 > Ta1.
qualified(Id, Ta, I, Op, Obj) :- requests(Id, Ta, I, Op, Obj),
                                 not denied(Id).
"""

EXCLUSIVE_SQL = """\
WITH FinishedTAs AS
 (SELECT ta FROM history WHERE operation='a' OR operation='c'),
LockedObjects AS
 (SELECT DISTINCT a.object AS object, a.ta AS ta
  FROM history a LEFT JOIN FinishedTAs f ON a.ta = f.ta
  WHERE (a.operation='r' OR a.operation='w') AND f.ta IS NULL),
DeniedOps AS
 (SELECT r.ta AS ta, r.intrata AS intrata
  FROM requests r, LockedObjects l
  WHERE (r.operation='r' OR r.operation='w')
    AND r.object=l.object AND r.ta<>l.ta
  UNION ALL
  SELECT r2.ta AS ta, r2.intrata AS intrata
  FROM requests r2, requests r1
  WHERE (r2.operation='r' OR r2.operation='w')
    AND (r1.operation='r' OR r1.operation='w')
    AND r2.object=r1.object AND r2.ta>r1.ta),
QualifiedOps AS
 (SELECT ta, intrata FROM requests
  EXCEPT
  SELECT ta, intrata FROM DeniedOps)
SELECT r.id, r.ta, r.intrata, r.operation, r.object
FROM requests r, QualifiedOps q
WHERE r.ta=q.ta AND r.intrata=q.intrata
"""


def exclusive_query(requests: Table, history: Table) -> Query:
    """Exclusive-only locking as a deferred relalg plan."""
    data_op = lambda c: or_(c == lit("r"), c == lit("w"))  # noqa: E731
    finished = cte(
        Query.from_(history, alias="f")
        .where(or_(col("f.operation") == lit("a"), col("f.operation") == lit("c")))
        .select("f.ta")
        .distinct(),
        "FinishedTAs",
    )
    locked = cte(
        Query.from_(history, alias="a")
        .where(data_op(col("a.operation")))
        .anti_join(
            Query.from_(finished, alias="fin"),
            on=col("a.ta") == col("fin.ta"),
        )
        .select("a.object", "a.ta")
        .distinct(),
        "LockedObjects",
    )
    ops_on_locked = (
        Query.from_(requests, alias="r")
        .where(data_op(col("r.operation")))
        .join(
            Query.from_(locked, alias="l"),
            on=(col("r.object") == col("l.object")) & (col("r.ta") != col("l.ta")),
        )
        .select("r.ta", "r.intrata")
    )
    intra_batch = (
        Query.from_(requests, alias="r2")
        .where(data_op(col("r2.operation")))
        .join(
            Query.from_(requests, alias="r1"),
            on=(col("r2.object") == col("r1.object")) & (col("r2.ta") > col("r1.ta")),
        )
        .where(data_op(col("r1.operation")))
        .select("r2.ta", "r2.intrata")
    )
    all_ops = Query.from_(requests, alias="r").select("r.ta", "r.intrata")
    qualified_keys = cte(
        all_ops.except_(ops_on_locked.union_all(intra_batch)), "QualifiedOps"
    )
    return (
        Query.from_(requests, alias="r2")
        .join(
            Query.from_(qualified_keys, alias="q"),
            on=(col("r2.ta") == col("q.ta")) & (col("r2.intrata") == col("q.intrata")),
        )
        .select("r2.id", "r2.ta", "r2.intrata", "r2.operation", "r2.object")
        .order_by("id")
    )


EXCLUSIVE_SPEC = register_spec(
    ProtocolSpec(
        name="exclusive",
        description="2PL with exclusive-only locks: reads lock like writes",
        capabilities=_NO_QOS_CAPS,
        relalg=exclusive_query,
        sql=EXCLUSIVE_SQL,
        datalog=EXCLUSIVE_RULES,
        lock_model=EXCLUSIVE_LOCKS,
        declarative_source=EXCLUSIVE_RULES,
    )
)


# ---------------------------------------------------------------------------
# Priority ceiling — oldest claimant owns the object.
# ---------------------------------------------------------------------------

PRIORITY_CEILING_RULES = """\
finished(Ta) :- history(_, Ta, _, "c", _).
finished(Ta) :- history(_, Ta, _, "a", _).
dataop("r").
dataop("w").
locked(Obj, Ta) :- history(_, Ta, _, Op, Obj), dataop(Op), not finished(Ta).
denied(Id) :- requests(Id, Ta, _, Op, Obj), dataop(Op),
              locked(Obj, Ta2), Ta != Ta2.
denied(Id) :- requests(Id, Ta, _, Op, Obj), dataop(Op),
              requests(_, Ta1, _, Op1, Obj), dataop(Op1), Ta1 < Ta.
qualified(Id, Ta, I, Op, Obj) :- requests(Id, Ta, I, Op, Obj),
                                 not denied(Id).
"""

PRIORITY_CEILING_SQL = """\
WITH FinishedTAs AS
 (SELECT ta FROM history WHERE operation='a' OR operation='c'),
LockedObjects AS
 (SELECT DISTINCT a.object AS object, a.ta AS ta
  FROM history a LEFT JOIN FinishedTAs f ON a.ta = f.ta
  WHERE (a.operation='r' OR a.operation='w') AND f.ta IS NULL),
DeniedOps AS
 (SELECT r.ta AS ta, r.intrata AS intrata
  FROM requests r, LockedObjects l
  WHERE (r.operation='r' OR r.operation='w')
    AND r.object=l.object AND r.ta<>l.ta
  UNION ALL
  SELECT r2.ta AS ta, r2.intrata AS intrata
  FROM requests r2, requests r1
  WHERE (r2.operation='r' OR r2.operation='w')
    AND (r1.operation='r' OR r1.operation='w')
    AND r2.object=r1.object AND r1.ta<r2.ta),
QualifiedOps AS
 (SELECT ta, intrata FROM requests
  EXCEPT
  SELECT ta, intrata FROM DeniedOps)
SELECT r.id, r.ta, r.intrata, r.operation, r.object
FROM requests r, QualifiedOps q
WHERE r.ta=q.ta AND r.intrata=q.intrata
"""


def _priority_ceiling_imperative(
    requests: Table, history: Table
) -> ProtocolDecision:
    """Reference evaluation of the priority-ceiling rules."""
    ta_pos = history.schema.resolve("ta")
    op_pos = history.schema.resolve("operation")
    obj_pos = history.schema.resolve("object")
    finished = {
        row[ta_pos] for row in history.rows if row[op_pos] in ("c", "a")
    }
    locked: dict[int, set[int]] = {}
    for row in history.rows:
        if row[ta_pos] in finished or row[op_pos] not in ("r", "w"):
            continue
        locked.setdefault(row[obj_pos], set()).add(row[ta_pos])

    r_ta = requests.schema.resolve("ta")
    r_op = requests.schema.resolve("operation")
    r_obj = requests.schema.resolve("object")
    oldest_claimant: dict[int, int] = {}
    for row in requests.rows:
        if row[r_op] not in ("r", "w"):
            continue
        obj, ta = row[r_obj], row[r_ta]
        if obj not in oldest_claimant or ta < oldest_claimant[obj]:
            oldest_claimant[obj] = ta

    decision = ProtocolDecision()
    for row in requests.rows:
        request = Request.from_row(row)
        if row[r_op] not in ("r", "w"):
            decision.qualified.append(request)
            continue
        obj, ta = row[r_obj], row[r_ta]
        if locked.get(obj, set()) - {ta}:
            decision.denials[request.id] = "object held by active transaction"
        elif oldest_claimant.get(obj, ta) < ta:
            decision.denials[request.id] = "older claimant below the ceiling"
        else:
            decision.qualified.append(request)
    decision.qualified.sort(key=lambda r: r.id)
    return decision


PRIORITY_CEILING_SPEC = register_spec(
    ProtocolSpec(
        name="priority-ceiling",
        description="object ceiling: the oldest claimant owns the object",
        capabilities=_FULL_CAPS,
        sql=PRIORITY_CEILING_SQL,
        datalog=PRIORITY_CEILING_RULES,
        imperative=_priority_ceiling_imperative,
        declarative_source=PRIORITY_CEILING_RULES,
        default_backend="datalog",
    )
)


# ---------------------------------------------------------------------------
# Conservative 2PL — all-or-nothing transaction admission.
# ---------------------------------------------------------------------------

C2PL_DATALOG_RULES = """\
finished(Ta) :- history(_, Ta, _, "c", _).
finished(Ta) :- history(_, Ta, _, "a", _).
admitted(Ta) :- history(_, Ta, _, _, _), not finished(Ta).
locked(Obj, Ta, Op) :- history(_, Ta, _, Op, Obj), not finished(Ta).
claims(Obj, Ta, Op) :- requests(_, Ta, _, Op, Obj), not admitted(Ta).
claimconflict(Ta) :- claims(Obj, Ta, _), locked(Obj, Ta2, "w"), Ta != Ta2.
claimconflict(Ta) :- claims(Obj, Ta, "w"), locked(Obj, Ta2, "r"), Ta != Ta2.
claimconflict(Ta) :- claims(Obj, Ta, Op2), claims(Obj, Ta1, Op1), Ta > Ta1,
                     conflictops(Op1, Op2).
conflictops("w", "w").
conflictops("w", "r").
conflictops("r", "w").
qualified(Id, Ta, I, Op, Obj) :- requests(Id, Ta, I, Op, Obj), admitted(Ta).
qualified(Id, Ta, I, Op, Obj) :- requests(Id, Ta, I, Op, Obj),
                                 not admitted(Ta), not claimconflict(Ta).
"""


def _ops_conflict(op1: str, op2: str) -> bool:
    return {op1, op2} <= {"r", "w"} and "w" in (op1, op2)


def _c2pl_imperative(requests: Table, history: Table) -> ProtocolDecision:
    """Reference evaluation of the C2PL admission rules."""
    ta_pos = history.schema.resolve("ta")
    op_pos = history.schema.resolve("operation")
    obj_pos = history.schema.resolve("object")
    finished = {
        row[ta_pos] for row in history.rows if row[op_pos] in ("c", "a")
    }
    admitted: set[int] = set()
    locked_w: dict[int, set[int]] = {}
    locked_r: dict[int, set[int]] = {}
    for row in history.rows:
        ta = row[ta_pos]
        if ta in finished:
            continue
        admitted.add(ta)
        if row[op_pos] == "w":
            locked_w.setdefault(row[obj_pos], set()).add(ta)
        elif row[op_pos] == "r":
            locked_r.setdefault(row[obj_pos], set()).add(ta)

    r_ta = requests.schema.resolve("ta")
    r_op = requests.schema.resolve("operation")
    r_obj = requests.schema.resolve("object")
    claims_by_obj: dict[int, list[tuple[int, str]]] = {}
    claims_by_ta: dict[int, list[tuple[int, str]]] = {}
    for row in requests.rows:
        ta = row[r_ta]
        if ta in admitted:
            continue
        claims_by_obj.setdefault(row[r_obj], []).append((ta, row[r_op]))
        claims_by_ta.setdefault(ta, []).append((row[r_obj], row[r_op]))

    conflicted: set[int] = set()
    for ta, claims in claims_by_ta.items():
        for obj, op in claims:
            if locked_w.get(obj, set()) - {ta}:
                conflicted.add(ta)
                break
            if op == "w" and locked_r.get(obj, set()) - {ta}:
                conflicted.add(ta)
                break
            if any(
                ta1 < ta and _ops_conflict(op1, op)
                for ta1, op1 in claims_by_obj.get(obj, ())
            ):
                conflicted.add(ta)
                break

    decision = ProtocolDecision()
    for row in requests.rows:
        request = Request.from_row(row)
        ta = row[r_ta]
        if ta in admitted or ta not in conflicted:
            decision.qualified.append(request)
        else:
            decision.denials[request.id] = "claim conflict: admission denied"
    decision.qualified.sort(key=lambda r: r.id)
    return decision


C2PL_SPEC = register_spec(
    ProtocolSpec(
        name="c2pl",
        description="conservative 2PL: all-or-nothing transaction admission",
        capabilities=_NO_QOS_CAPS,
        datalog=C2PL_DATALOG_RULES,
        imperative=_c2pl_imperative,
        declarative_source=C2PL_DATALOG_RULES,
        default_backend="datalog",
    )
)


# ---------------------------------------------------------------------------
# Bounded oversell — application-specific consistency.
# ---------------------------------------------------------------------------

BOUNDED_OVERSELL_RULES = """\
finished(Ta) :- history(_, Ta, _, "c", _).
finished(Ta) :- history(_, Ta, _, "a", _).
pendingres(Obj, Ta) :- history(_, Ta, _, "w", Obj), not finished(Ta).
rescount(Obj, count(Ta)) :- pendingres(Obj, Ta).
full(Obj) :- rescount(Obj, N), N >= {allowance}.
denied(Id) :- requests(Id, _, _, "w", Obj), full(Obj).
qualified(Id, Ta, I, Op, Obj) :- requests(Id, Ta, I, Op, Obj),
                                 not denied(Id).
"""


def _admit_all(requests: Table, history: Table) -> ProtocolDecision:
    """Everything is a candidate; the budget policy does the work."""
    return ProtocolDecision(
        qualified=[Request.from_row(row) for row in requests.rows]
    )


def _oversell_budget(allowance: int):
    """Post-process: cap concurrent uncommitted reservations per object.

    Counts distinct uncommitted reserving transactions per object from
    history, then admits candidate writes in arrival order while slots
    remain — so the invariant holds *exactly*, not merely between
    batches, on every backend.
    """

    def post(
        decision: ProtocolDecision, requests: Table, history: Table
    ) -> ProtocolDecision:
        ta_pos = history.schema.resolve("ta")
        op_pos = history.schema.resolve("operation")
        obj_pos = history.schema.resolve("object")
        finished = {
            row[ta_pos] for row in history.rows if row[op_pos] in ("c", "a")
        }
        reservations: set[tuple[int, int]] = {
            (row[obj_pos], row[ta_pos])
            for row in history.rows
            if row[op_pos] == "w" and row[ta_pos] not in finished
        }
        uncommitted: dict[int, int] = {}
        for obj, __ta in reservations:
            uncommitted[obj] = uncommitted.get(obj, 0) + 1

        gated = ProtocolDecision(denials=dict(decision.denials))
        budget: dict[int, int] = {}
        for request in decision.qualified:
            if request.is_write:
                remaining = budget.setdefault(
                    request.obj,
                    allowance - uncommitted.get(request.obj, 0),
                )
                if remaining <= 0:
                    gated.denials[request.id] = (
                        "batch would exceed oversell allowance"
                    )
                    continue
                budget[request.obj] = remaining - 1
            gated.qualified.append(request)
        return gated

    return post


def make_bounded_oversell_spec(allowance: int = 3) -> ProtocolSpec:
    """Parameterized app-consistency spec: at most *allowance*
    concurrent uncommitted reservations per object."""
    if allowance < 1:
        raise ValueError("allowance must be at least 1")
    rules = BOUNDED_OVERSELL_RULES.format(allowance=allowance)
    return ProtocolSpec(
        name=f"bounded-oversell({allowance})",
        description=(
            f"app-specific consistency: <= {allowance} concurrent "
            "uncommitted reservations per object"
        ),
        capabilities=_FULL_CAPS,
        datalog=rules,
        imperative=_admit_all,
        post_process=_oversell_budget(allowance),
        declarative_source=rules,
        default_backend="datalog",
    )


BOUNDED_OVERSELL_SPEC = register_spec(
    make_bounded_oversell_spec(3).with_(name="bounded-oversell")
)
