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
the spec against empty Table-2-schema stores (:func:`trial_lowering`,
once per spec per process) and refuses — rather than silently
recomputing — when any operator lacks an incremental lowering
(``LIMIT``, keyless outer joins).  That one trial is also the whole of
the static lowerability analysis: :mod:`repro.analysis.lowerability`
converts its :class:`~repro.relalg.delta.LoweringRefusal` into a
diagnostic, and the refusal message below prints it, so the analyzer,
``supports()`` and the :class:`BackendError` text cannot disagree.  The
spec×backend matrix test pins which specs lower, by name, so a
delta-lowering gap can never masquerade as a slow fallback.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.backends.base import (
    BackendError,
    ExecutionBackend,
    SpecEvaluator,
    plan_dialect,
    register_backend,
    spec_plan,
)
from repro.core.stores import empty_table2_stores
from repro.model.request import Request
from repro.protocols.base import ProtocolDecision
from repro.protocols.spec import ProtocolSpec
from repro.relalg.delta import DeltaPlan, LoweringRefusal, lower_delta_plan
from repro.relalg.table import Table


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
        plan = lower_delta_plan(spec_plan(spec, requests, history))
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

#: spec identity -> (spec, refusal or None) — supports() is called per
#: matrix cell and trial lowering is not free, so memoize per spec.
_TRIALS: dict[int, tuple[ProtocolSpec, Optional[LoweringRefusal]]] = {}


def trial_lowering(spec: ProtocolSpec) -> Optional[LoweringRefusal]:
    """Lower *spec* against empty Table 2 stores; None when it lowers.

    Otherwise the refusal: whatever building the plan or the real
    lowering raised, with its rule and operator path.
    """
    cached = _TRIALS.get(id(spec))
    if cached is not None and cached[0] is spec:
        return cached[1]
    refusal = None
    try:
        lower_delta_plan(spec_plan(spec, *empty_table2_stores()))
    except Exception as error:
        dialect = plan_dialect(spec)
        subject = f"{spec.name}/{dialect}" if dialect else spec.name
        refusal = LoweringRefusal.of(error, subject)
    _TRIALS[id(spec)] = (spec, refusal)
    return refusal


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
        return super().supports(spec) and trial_lowering(spec) is None

    def _reject(self, spec: ProtocolSpec) -> BackendError:
        if not super().supports(spec):
            # Plain dialect mismatch; the base message says what's
            # missing.
            return super()._reject(spec)
        # The dialects intersect but the plan refused to lower: cite
        # what the lowering raised — which operator, in which dialect.
        return BackendError(
            f"backend {self.name!r} cannot run spec {spec.name!r}: "
            f"{trial_lowering(spec)}"
        )

    def evaluator(self, spec: ProtocolSpec, **options) -> SpecEvaluator:
        if not self.supports(spec):
            raise self._reject(spec)
        return DeltaPlanEvaluator(spec)


@register_backend
def _make_compiled_delta() -> CompiledDeltaBackend:
    return CompiledDeltaBackend()
