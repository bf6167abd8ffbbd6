"""The one closed-loop scenario runner.

Every registered scenario runs through the same wiring — workload
generator → incoming queue → trigger → declarative scheduler →
simulated batch server → metrics — under the virtual clock, so two
invocations with the same spec and seed produce bit-identical results
(and bit-identical trace files when recording).

The bench modules that used to duplicate this setup (`triggers_ablation`,
`sla_adaptive`, …) are now thin spec + report layers over
:func:`run_scenario`; record/replay lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import repro.api as api
from repro.core.scheduler import SchedulerConfig, SchedulerCostModel
from repro.core.simulation import MiddlewareResult, MiddlewareSimulation
from repro.faults.invariants import InvariantViolation
from repro.protocols.base import Protocol
from repro.scenarios.spec import ScenarioCell, ScenarioSpec, get_scenario
from repro.server.costmodel import CostModel, PAPER_CALIBRATION
from repro.workload.clients import ClientPopulation, SLA_TIERS
from repro.workload.traces import (
    canonical_entries,
    read_trace_file,
    write_trace_file,
)


@dataclass
class CellResult:
    """One cell's outcome: the built protocol plus its middleware run."""

    cell: ScenarioCell
    protocol: Protocol
    result: MiddlewareResult


@dataclass
class ScenarioResult:
    """All cell results of one scenario run."""

    spec: ScenarioSpec
    seed: int
    duration: float
    clients: int
    #: Backend override applied to every cell (None = each cell's own).
    backend: Optional[str] = None
    #: Trigger override applied to every cell (CLI spelling, e.g.
    #: ``"fill:20"``; None = each cell's own).
    trigger: Optional[str] = None
    cells: list[CellResult] = field(default_factory=list)

    def cell(self, label: str) -> CellResult:
        for entry in self.cells:
            if entry.cell.label == label:
                return entry
        raise KeyError(f"no cell labelled {label!r} in {self.spec.name}")

    def traces(self) -> list[tuple[str, "object"]]:
        return [
            (entry.cell.label, entry.result.trace)
            for entry in self.cells
            if entry.result.trace is not None
        ]


def build_cell_protocol(
    cell: ScenarioCell, clients: int, backend: Optional[str] = None
) -> Protocol:
    """Resolve a cell's protocol string into a live Protocol object.

    ``backend`` (the CLI ``--backend`` flag) overrides the cell's own
    backend choice, so any scenario can be re-run on a different
    execution engine — byte-identical traces are the cross-backend
    equivalence check.
    """
    resolved = backend if backend is not None else cell.backend
    return api.make_protocol(cell.protocol, resolved, clients=clients)


def run_scenario(
    spec: ScenarioSpec,
    *,
    seed: Optional[int] = None,
    duration: Optional[float] = None,
    clients: Optional[int] = None,
    record: bool = False,
    cost_model: CostModel = PAPER_CALIBRATION,
    scheduler_cost: SchedulerCostModel = SchedulerCostModel(),
    check_invariants: bool = False,
    backend: Optional[str] = None,
    trigger: Optional[str] = None,
) -> ScenarioResult:
    """Run every cell of *spec* under the virtual clock.

    ``seed``/``duration``/``clients`` override the spec's defaults (the
    CLI flags); all cells share them, so sweep cells see the identical
    workload draw.  ``backend`` overrides every cell's execution
    backend and ``trigger`` every cell's trigger policy (the
    ``--backend``/``--trigger`` flags, same spellings as
    :func:`repro.api.make_trigger`); the recorded trace header carries
    both so replays re-run on the same engine and pacing.

    With ``check_invariants``, every cell runs under an
    :class:`~repro.faults.invariants.InvariantMonitor`; a violation
    raises :class:`~repro.faults.invariants.InvariantViolation` with the
    scenario context (name/seed/duration/clients/cell) attached, so its
    trace file replays through :func:`replay_scenario`.
    """
    seed = spec.seed if seed is None else seed
    duration = spec.duration if duration is None else duration
    clients = spec.clients if clients is None else clients
    if duration <= 0:
        raise ValueError("duration must be positive")
    if clients <= 0:
        raise ValueError("clients must be positive")

    attrs_for_client = None
    if spec.population == "sla-tiers":
        attrs_for_client = ClientPopulation(SLA_TIERS).attributes_for
    start_delay = (
        spec.start_delay if spec.burst_size is not None else None
    )

    outcome = ScenarioResult(
        spec=spec,
        seed=seed,
        duration=duration,
        clients=clients,
        backend=backend,
        trigger=trigger,
    )
    for cell in spec.cells:
        protocol = build_cell_protocol(cell, clients, backend=backend)
        # The override builds one fresh (stateful) policy per cell.
        cell_trigger = (
            api.make_trigger(trigger)
            if trigger is not None
            else cell.trigger.build()
        )
        simulation = MiddlewareSimulation(
            protocol=protocol,
            trigger=cell_trigger,
            spec=spec.workload,
            clients=clients,
            seed=seed,
            cost_model=cost_model,
            scheduler_cost=scheduler_cost,
            attrs_for_client=attrs_for_client,
            scheduler_config=SchedulerConfig(max_batch=cell.max_batch),
            record_trace=record,
            start_delay_for_client=start_delay,
            faults=spec.faults,
            recovery=spec.recovery,
            admission=spec.admission,
            check_invariants=check_invariants,
        )
        try:
            cell_result = simulation.run(duration)
        except InvariantViolation as violation:
            raise violation.attach_context(
                scenario=spec.name,
                seed=seed,
                duration=duration,
                clients=clients,
                cell=cell.label,
            )
        outcome.cells.append(
            CellResult(cell=cell, protocol=protocol, result=cell_result)
        )
    return outcome


# -- record / replay -------------------------------------------------------


def record_scenario(
    spec: ScenarioSpec,
    path,
    *,
    seed: Optional[int] = None,
    duration: Optional[float] = None,
    clients: Optional[int] = None,
    check_invariants: bool = False,
    backend: Optional[str] = None,
    trigger: Optional[str] = None,
) -> ScenarioResult:
    """Run with trace recording on and persist the dispatch log plus the
    header needed to re-run it (:func:`replay_scenario`)."""
    outcome = run_scenario(
        spec,
        seed=seed,
        duration=duration,
        clients=clients,
        record=True,
        check_invariants=check_invariants,
        backend=backend,
        trigger=trigger,
    )
    header = {
        "scenario": spec.name,
        "seed": outcome.seed,
        "duration": outcome.duration,
        "clients": outcome.clients,
    }
    if backend is not None:
        header["backend"] = backend
    if trigger is not None:
        header["trigger"] = trigger
    write_trace_file(path, outcome.traces(), header=header)
    return outcome


@dataclass
class ReplayOutcome:
    """Result of re-running a recorded scenario against its trace."""

    scenario: str
    matches: bool
    entries: int
    mismatch: str = ""
    result: Optional[ScenarioResult] = None


def replay_scenario(path) -> ReplayOutcome:
    """Re-run the scenario named in a trace file's header (same seed,
    duration and client count) and compare the produced dispatch log
    entry-by-entry against the recorded one.

    Trace files whose header carries ``prefix: true`` (invariant-
    violation traces, cut off at the failing step) are verified against
    the stretch of the produced log that starts at the header's
    ``offset`` (0, a true prefix, unless the monitor's bounded window
    had dropped the oldest dispatches) instead of requiring full
    equality."""
    header, recorded = read_trace_file(path)
    name = header.get("scenario")
    if not name:
        raise ValueError(f"trace {path} has no scenario in its header")
    prefix = bool(header.get("prefix"))
    offset = int(header.get("offset", 0)) if prefix else 0
    spec = get_scenario(name)
    outcome = run_scenario(
        spec,
        seed=int(header["seed"]),
        duration=float(header["duration"]),
        clients=int(header["clients"]),
        record=True,
        backend=header.get("backend") or None,
        trigger=header.get("trigger") or None,
    )
    produced = {label: trace for label, trace in outcome.traces()}
    recorded_map = {label: trace for label, trace in recorded}
    entries = sum(len(trace) for trace in recorded_map.values())

    produced_labels = [
        entry.cell.label
        for entry in outcome.cells
        if len(entry.result.trace or ()) > 0
    ]
    if prefix:
        # A violation trace covers a single cell, cut off mid-run; the
        # other cells of the scenario may legitimately be absent.
        missing = sorted(set(recorded_map) - set(produced_labels))
        if missing:
            return ReplayOutcome(
                scenario=name,
                matches=False,
                entries=entries,
                mismatch=f"recorded cells missing from replay: {missing}",
                result=outcome,
            )
    elif sorted(recorded_map) != sorted(produced_labels):
        return ReplayOutcome(
            scenario=name,
            matches=False,
            entries=entries,
            mismatch=(
                f"cell labels differ: recorded {sorted(recorded_map)}, "
                f"produced {sorted(produced_labels)}"
            ),
            result=outcome,
        )
    for label, trace in recorded_map.items():
        want = canonical_entries(trace)
        got = canonical_entries(produced[label])
        if prefix:
            got = got[offset : offset + len(want)]
        if want != got:
            detail = f"{len(want)} vs {len(got)} entries"
            for index, (a, b) in enumerate(zip(want, got), start=offset):
                if a != b:
                    detail = f"first divergence at entry {index}: {a} != {b}"
                    break
            return ReplayOutcome(
                scenario=name,
                matches=False,
                entries=entries,
                mismatch=f"cell {label!r}: {detail}",
                result=outcome,
            )
    return ReplayOutcome(
        scenario=name, matches=True, entries=entries, result=outcome
    )
