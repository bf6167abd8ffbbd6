"""Deterministic fault injection, recovery, and invariant monitoring.

The robustness layer of the middleware reproduction: declarative
:class:`FaultSpec`/:class:`FaultPlan` descriptions, a seed-driven
:class:`FaultInjector` (replayable — every decision comes from named
:class:`~repro.sim.rng.RandomStreams` streams), scheduler-side
:class:`RecoveryPolicy` (timeout aborts with backoff, retry budgets,
orphan reaping) and :class:`AdmissionPolicy` (bounded pending table
with shed-on-overload), plus runtime :class:`InvariantMonitor` checks
with structured, replayable :class:`InvariantViolation` errors.
"""

from repro.faults.spec import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    clock_jump,
    crash,
    drop,
    stall,
    step_exception,
)
from repro.faults.injector import FaultInjector, InjectedStepFault
from repro.faults.recovery import RESTART_ON_TIMEOUT, RecoveryPolicy
from repro.faults.admission import AdmissionPolicy
from repro.faults.invariants import (
    InvariantMonitor,
    InvariantViolation,
    lock_model_of,
)

__all__ = [
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "clock_jump",
    "crash",
    "drop",
    "stall",
    "step_exception",
    "FaultInjector",
    "InjectedStepFault",
    "RecoveryPolicy",
    "RESTART_ON_TIMEOUT",
    "AdmissionPolicy",
    "InvariantMonitor",
    "InvariantViolation",
    "lock_model_of",
]
