"""Declarative scenario specifications and their registry.

A :class:`ScenarioSpec` is the full recipe of one closed-loop
middleware experiment: workload shape + client population + trigger
policy + protocol/backend pairing + cost models + duration/seed.  Every
piece is data (no live objects), so a spec can be registered once,
listed from the CLI, serialized into a trace header, and re-built
bit-identically for record/replay.

A spec holds one or more *cells* — (protocol, backend, trigger)
pairings all sharing the spec's workload, population and seed — so a
single scenario can be a lone run ("zipf-hotspot") or a sweep
("matrix-sweep" runs protocol × backend × trigger on one workload).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.triggers import (
    FillLevelTrigger,
    HybridTrigger,
    TimeLapseTrigger,
    TriggerPolicy,
)
from repro.faults.admission import AdmissionPolicy
from repro.faults.recovery import RESTART_ON_TIMEOUT, RecoveryPolicy
from repro.faults.spec import FaultPlan
from repro.workload.spec import WorkloadSpec

#: Client-population kinds understood by the runner.
POPULATIONS = ("uniform", "sla-tiers")


@dataclass(frozen=True, slots=True)
class TriggerSpec:
    """Declarative trigger description (build one fresh per run —
    trigger policies are stateful)."""

    kind: str  # "time" | "fill" | "hybrid"
    interval: Optional[float] = None
    threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("time", "fill", "hybrid"):
            raise ValueError(f"unknown trigger kind {self.kind!r}")
        if self.kind in ("time", "hybrid") and not self.interval:
            raise ValueError(f"trigger kind {self.kind!r} needs an interval")
        if self.kind in ("fill", "hybrid") and not self.threshold:
            raise ValueError(f"trigger kind {self.kind!r} needs a threshold")

    def build(self) -> TriggerPolicy:
        if self.kind == "time":
            return TimeLapseTrigger(self.interval)
        if self.kind == "fill":
            return FillLevelTrigger(self.threshold)
        return HybridTrigger(self.interval, self.threshold)

    @property
    def label(self) -> str:
        return self.build().name


@dataclass(frozen=True, slots=True)
class ScenarioCell:
    """One protocol × backend × trigger pairing inside a scenario.

    ``protocol`` is a registered spec name (``ss2pl-listing1``, ``fcfs``,
    …) or one of the wrapper forms the runner knows how to build:
    ``sla:<spec>`` (SLA priority ordering over the inner spec) and
    ``adaptive:<strict-spec>,<relaxed-spec>`` (load-adaptive switching
    with watermarks derived from the client count).
    """

    label: str
    protocol: str = "ss2pl-listing1"
    backend: Optional[str] = None
    trigger: TriggerSpec = TriggerSpec("hybrid", interval=0.02, threshold=20)
    max_batch: Optional[int] = None


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """The declarative recipe of one deterministic closed-loop run."""

    name: str
    description: str
    workload: WorkloadSpec
    cells: Tuple[ScenarioCell, ...]
    clients: int = 40
    duration: float = 5.0
    seed: int = 0
    population: str = "uniform"
    #: Bursty open arrivals: clients join in waves of ``burst_size``
    #: every ``burst_gap`` virtual seconds (``None`` = all at t=0).
    burst_size: Optional[int] = None
    burst_gap: float = 0.0
    #: Chaos side of the scenario: deterministic fault injection plus
    #: the recovery/admission policies that are supposed to absorb it.
    #: All pure data (frozen), so faulted scenarios stay replayable.
    #: Every scenario has a recovery policy: it owns the deadlock
    #: timeout of fault-free runs too.
    faults: Optional[FaultPlan] = None
    recovery: RecoveryPolicy = RESTART_ON_TIMEOUT
    admission: Optional[AdmissionPolicy] = None

    @property
    def is_chaos(self) -> bool:
        """True when the scenario injects faults."""
        return self.faults is not None

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("a scenario needs at least one cell")
        if self.clients <= 0:
            raise ValueError("clients must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.population not in POPULATIONS:
            raise ValueError(
                f"unknown population {self.population!r}; "
                f"known: {', '.join(POPULATIONS)}"
            )
        if self.burst_size is not None and (
            self.burst_size <= 0 or self.burst_gap <= 0
        ):
            raise ValueError("bursty arrivals need burst_size/burst_gap > 0")
        labels = [cell.label for cell in self.cells]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate cell labels in {self.name}: {labels}")

    def with_(self, **overrides) -> "ScenarioSpec":
        """A copy with the given fields replaced (CLI overrides)."""
        return dataclasses.replace(self, **overrides)

    def start_delay(self, client_index: int) -> float:
        """Virtual start time of a client under the burst pattern."""
        if self.burst_size is None:
            return 0.0
        return (client_index // self.burst_size) * self.burst_gap


def trigger_spec_of(trigger) -> TriggerSpec:
    """Coerce a live :class:`TriggerPolicy` (or a ready spec) into a
    :class:`TriggerSpec` — lets callers that built policy objects (the
    historical bench signatures) feed the declarative runner."""
    if isinstance(trigger, TriggerSpec):
        return trigger
    if isinstance(trigger, HybridTrigger):
        return TriggerSpec(
            "hybrid", interval=trigger.interval, threshold=trigger.threshold
        )
    if isinstance(trigger, TimeLapseTrigger):
        return TriggerSpec("time", interval=trigger.interval)
    if isinstance(trigger, FillLevelTrigger):
        return TriggerSpec("fill", threshold=trigger.threshold)
    raise TypeError(f"cannot describe trigger {trigger!r} declaratively")


# -- registry --------------------------------------------------------------

SCENARIO_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    if spec.name in SCENARIO_REGISTRY:
        raise ValueError(f"scenario {spec.name!r} already registered")
    SCENARIO_REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIO_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; "
            f"registered: {', '.join(scenario_names())}"
        ) from None


def scenario_names() -> list[str]:
    return sorted(SCENARIO_REGISTRY)
