"""Compiled-delta backend: incrementally maintained physical plans.

The ``compiled`` backend removed per-step *analysis*; this backend
removes per-step *recomputation*.  A spec's query is lowered once to a
:class:`~repro.relalg.delta.DeltaPlan` — every operator materializes
per-node state and maintains it from the base tables' delta journals —
so each scheduler step costs O(|delta|) instead of O(|history|).

Plans are cached **globally**, keyed by (spec, table pair) in the
single-pass-compile idiom of SQL statement caches: every scheduler,
bench harness, and scenario cell running the same spec against the same
stores shares one maintained plan, and the per-evaluator hit/miss
counters surface cache behaviour in scenario reports.  Entries hold
strong references (ids cannot be recycled underneath the cache) and are
LRU-bounded.

Support is *exact*: :meth:`CompiledDeltaBackend.supports` trial-lowers
the spec against empty Table-2-schema stores and refuses — rather than
silently recomputing — when any operator lacks an incremental lowering
(``LIMIT``, keyless outer joins).  The spec×backend matrix test asserts
declared support equals lowerability, so a delta-lowering gap can never
masquerade as a slow fallback.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.backends.base import (
    BackendError,
    ExecutionBackend,
    SpecEvaluator,
    register_backend,
)
from repro.core.stores import REQUEST_COLUMNS
from repro.model.request import Request
from repro.protocols.base import ProtocolDecision
from repro.protocols.spec import ProtocolSpec
from repro.relalg.delta import DeltaPlan, lower_delta_plan
from repro.relalg.sql import SqlPlanner
from repro.relalg.table import Table


def _spec_builder(spec: ProtocolSpec) -> Callable[[Table, Table], Any]:
    """The spec's relalg builder, or its SQL text planned on demand."""
    if spec.relalg is not None:
        return spec.relalg

    def builder(requests: Table, history: Table):
        planner = SqlPlanner({"requests": requests, "history": history})
        return planner.plan(spec.sql, defer_ctes=True)

    return builder


class DeltaPlanCache:
    """Global (spec, table pair) -> maintained :class:`DeltaPlan`.

    Strong references and LRU eviction, like
    :class:`~repro.relalg.plan.PlanCache`, but process-wide: the plan
    *is* the materialized state, so sharing it across evaluators of the
    same spec and stores shares the maintenance work too (a second
    refresh in the same step sees an empty journal delta and is free).
    The decoded candidates live with the plan for the same reason: a
    result row becomes a :class:`~repro.model.request.Request` once per
    stay in the result, whichever evaluator read it first.
    """

    def __init__(self, capacity: int = 32) -> None:
        self._capacity = capacity
        self._entries: dict[tuple[int, int, int], tuple] = {}
        self.hits = 0
        self.misses = 0

    def get(
        self,
        spec: ProtocolSpec,
        requests: Table,
        history: Table,
    ) -> tuple[DeltaPlan, bool]:
        """(plan, was_hit); lowers and caches on miss."""
        key = (id(spec), id(requests), id(history))
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._entries[key] = entry  # most recently used
            self.hits += 1
            return entry[3], True
        self.misses += 1
        built = _spec_builder(spec)(requests, history)
        plan = lower_delta_plan(built)
        plan.decode_with(Request.from_row)
        self._entries[key] = (spec, requests, history, plan)
        while len(self._entries) > self._capacity:
            self._entries.pop(next(iter(self._entries)))
        return plan, False

    def evict_spec(self, spec: ProtocolSpec) -> None:
        for key in [k for k in self._entries if k[0] == id(spec)]:
            del self._entries[key]

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide plan cache (the "statement cache" of this backend).
GLOBAL_DELTA_PLANS = DeltaPlanCache()

#: spec identity -> (spec, lowerable?) — supports() is called per
#: matrix cell and trial lowering is not free, so memoize per spec.
_SUPPORT_CACHE: dict[int, tuple[ProtocolSpec, bool]] = {}


def _lowerable(spec: ProtocolSpec) -> bool:
    cached = _SUPPORT_CACHE.get(id(spec))
    if cached is not None and cached[0] is spec:
        return cached[1]
    try:
        requests = Table("requests", list(REQUEST_COLUMNS))
        history = Table("history", list(REQUEST_COLUMNS))
        lower_delta_plan(_spec_builder(spec)(requests, history))
    except Exception:
        ok = False
    else:
        ok = True
    _SUPPORT_CACHE[id(spec)] = (spec, ok)
    return ok


class DeltaPlanEvaluator(SpecEvaluator):
    """One spec on maintained delta plans, with maintenance telemetry."""

    def __init__(self, spec: ProtocolSpec) -> None:
        self._spec = spec
        if spec.relalg is None:
            self.source = spec.sql
        self._stats: dict[str, Any] = {
            "steps": 0,
            "rebuilds": 0,
            "inserts": 0,
            "retracts": 0,
            "maintain_s": 0.0,
            "cache_hits": 0,
            "cache_misses": 0,
            "operator_s": {},
        }
        self._last: dict[str, Any] = {}

    def evaluate(self, requests: Table, history: Table) -> ProtocolDecision:
        plan, hit = GLOBAL_DELTA_PLANS.get(self._spec, requests, history)
        plan.refresh()
        stats = self._stats
        last = plan.last
        stats["steps"] += 1
        stats["cache_hits" if hit else "cache_misses"] += 1
        stats["rebuilds"] += 1 if last.get("rebuild") else 0
        stats["inserts"] += last.get("inserts", 0)
        stats["retracts"] += last.get("retracts", 0)
        stats["maintain_s"] += last.get("maintain_s", 0.0)
        operator_s = stats["operator_s"]
        for label, seconds in last.get("operator_s", {}).items():
            operator_s[label] = operator_s.get(label, 0.0) + seconds
        self._last = dict(last)
        return ProtocolDecision(qualified=plan.decoded_rows())

    def reset(self) -> None:
        GLOBAL_DELTA_PLANS.evict_spec(self._spec)

    def maintenance_stats(self) -> dict[str, Any]:
        """Cumulative delta/cache counters for reports and benches."""
        stats = dict(self._stats)
        stats["operator_s"] = dict(self._stats["operator_s"])
        stats["last"] = dict(self._last)
        return stats


class CompiledDeltaBackend(ExecutionBackend):
    name = "compiled-delta"
    description = "relalg engine, incrementally maintained delta plans"
    consumes = ("relalg", "sql")

    def supports(self, spec: ProtocolSpec) -> bool:
        # Dialect intersection is necessary but not sufficient: the
        # matrix contract says supports() must *exactly* predict
        # whether evaluator() lowers, so trial-lower once per spec.
        return super().supports(spec) and _lowerable(spec)

    def _reject(self, spec: ProtocolSpec) -> BackendError:
        if not super().supports(spec):
            # Plain dialect mismatch; the base message says what's
            # missing.
            return super()._reject(spec)
        # The dialects intersect but the plan refused to lower: cite the
        # static analyzer's operator-path diagnosis (which operator, in
        # which dialect) instead of an opaque refusal.
        from repro.analysis.lowerability import explain_refusal

        diagnosis = explain_refusal(spec)
        reason = (
            diagnosis
            or "the plan has no incremental lowering (trial-lowering failed)"
        )
        return BackendError(
            f"backend {self.name!r} cannot run spec {spec.name!r}: {reason}"
        )

    def evaluator(self, spec: ProtocolSpec, **options) -> SpecEvaluator:
        if not self.supports(spec):
            raise self._reject(spec)
        return DeltaPlanEvaluator(spec)


@register_backend
def _make_compiled_delta() -> CompiledDeltaBackend:
    return CompiledDeltaBackend()
