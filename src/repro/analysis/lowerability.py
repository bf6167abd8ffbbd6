"""Delta-lowerability: why ``compiled-delta`` accepts or refuses a plan.

There is one lowering.  :class:`~repro.relalg.delta._Lowering` is both
the code that builds the maintained operator DAG and the lowerability
analysis: every refusal it raises names its rule, and the walk records
the operator path of whatever went wrong.  This module only converts
that result — a :class:`~repro.relalg.delta.LoweringRefusal` — into a
:class:`~repro.analysis.diagnostics.Diagnostic`:

====  ==============================================================
D101  ``LIMIT`` (order-dependent, no incremental form)
D102  unlowerable join shape (key-less outer join, predicate-less
      semi/anti join)
D103  an operator class with no delta lowering at all
D104  an unknown aggregate function
D105  set-operation arity mismatch
D106  the plan fails to build, optimize or resolve against the
      Table 2 schema (planner errors, unknown columns — any exception
      that is not one of the refusals above, cited by type)
====  ==============================================================

Each refusal carries the operator path from the plan root to the
offending node (``CTE(x) > Join[left](...) > Limit(3)``).  For a spec
the trial is :func:`repro.backends.delta.trial_lowering` — the same
memoized call :meth:`CompiledDeltaBackend.supports` answers from and
its :class:`~repro.backends.base.BackendError` prints — so the static
verdict *is* the dynamic one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.diagnostics import Diagnostic
from repro.backends.delta import trial_lowering
from repro.protocols.spec import ProtocolSpec
from repro.relalg.delta import LoweringRefusal, lower_delta_plan
from repro.relalg.query import PlanNode

__all__ = [
    "LoweringPrediction",
    "predict_plan_lowerability",
    "predict_delta_lowerability",
    "explain_refusal",
]


@dataclass(frozen=True, slots=True)
class LoweringPrediction:
    """Verdict for one plan (or one spec) on ``compiled-delta``."""

    lowerable: bool
    #: The D1xx refusal when not lowerable (the first failure the
    #: lowering hit); None when lowerable.
    refusal: Optional[Diagnostic] = None

    @property
    def reason(self) -> str:
        return self.refusal.render() if self.refusal else ""


def _prediction(refusal: Optional[LoweringRefusal]) -> LoweringPrediction:
    if refusal is None:
        return LoweringPrediction(True)
    return LoweringPrediction(
        False,
        Diagnostic(
            refusal.rule,
            refusal.subject,
            refusal.message,
            location=refusal.path,
        ),
    )


def predict_plan_lowerability(
    root: PlanNode, subject: str = "<plan>", optimize: bool = True
) -> LoweringPrediction:
    """Does *root* delta-lower?  Asks the real lowering.

    With ``optimize=True`` (the default) the plan first goes through the
    rewrite :class:`~repro.relalg.delta.DeltaPlan` always applies, so
    the verdict is the backend's — e.g. Listing 1's key-less ``LEFT
    JOIN ... IS NULL`` only lowers *because* the outer-join reduction
    rewrote it to an anti join.
    """
    try:
        lower_delta_plan(root, optimize=optimize)
    except Exception as error:
        return _prediction(LoweringRefusal.of(error, subject))
    return LoweringPrediction(True)


def predict_delta_lowerability(spec: ProtocolSpec) -> LoweringPrediction:
    """The trial behind :meth:`CompiledDeltaBackend.supports`, as a
    diagnostic.  A spec with neither a relalg nor a sql dialect is
    refused with D106 like any other plan that cannot be built."""
    return _prediction(trial_lowering(spec))


def explain_refusal(spec: ProtocolSpec) -> str:
    """One-line operator-path diagnosis of a compiled-delta refusal.

    Empty string when the spec lowers (a refusal must then come from
    the dialect contract, which the backend reports itself).
    """
    refusal = trial_lowering(spec)
    return str(refusal) if refusal is not None else ""
