"""Command-line interface.

Usage::

    python -m repro list                 # experiments and protocols
    python -m repro protocols            # registered protocol specs
    python -m repro backends             # registered execution backends
    python -m repro run E1 [E2 ...]      # regenerate paper artefacts
    python -m repro run all --quick      # everything, scaled down
    python -m repro run E13 --backend compiled-delta
    python -m repro bench --protocol ss2pl --backend datalog
    python -m repro scenario list        # registered deterministic scenarios
    python -m repro scenario run zipf-hotspot --seed 7
    python -m repro scenario run smoke --record smoke.trace
    python -m repro scenario run smoke --backend compiled-delta
    python -m repro scenario run smoke --trigger fill:20
    python -m repro scenario replay smoke.trace
    python -m repro scenario compare trigger-sweep matrix-sweep
    python -m repro serve --backend compiled-delta   # asyncio serving layer
    python -m repro demo                 # the quickstart scenario
    python -m repro sql "SELECT ..."     # ad-hoc SQL over demo tables
    python -m repro analyze --strict     # static spec verifier + repo lint

Every experiment id maps to the corresponding ``repro.bench.run_*``
function; ``--quick`` substitutes scaled-down parameters so the whole
suite finishes in well under a minute.

The ``--protocol`` / ``--backend`` / ``--trigger`` flags are spelled,
defaulted and validated identically on every subcommand that takes them
(shared argparse parent parsers); all construction funnels through
:mod:`repro.api`, so a spec × backend pairing a backend declares
unsupported fails fast with the declared reason instead of falling
back silently.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.bench import (
    run_adaptive_bench,
    run_backend_matrix,
    run_crossover,
    run_declarative_overhead,
    run_figure2,
    run_incremental_ablation,
    run_language_ablation,
    run_mpl_ablation,
    run_productivity,
    run_scheduler_step_bench,
    render_scheduler_step_report,
    run_sla_bench,
    run_table1,
    run_table2,
    run_trigger_ablation,
)


@dataclass(frozen=True)
class RunOptions:
    """The normalized cross-cutting flags handed to experiment runners."""

    protocol: Optional[str] = None
    backend: Optional[str] = None
    trigger: Optional[str] = None


#: Experiment ids whose runners honour ``--backend``.
BACKEND_AWARE = frozenset({"E13", "E14"})
#: Experiment ids whose runners honour ``--protocol``.
PROTOCOL_AWARE = frozenset({"E13", "E14"})
#: Experiment ids whose runners honour ``--trigger``.
TRIGGER_AWARE = frozenset({"E14"})
#: The spec a backend-aware experiment drives when ``--protocol`` is
#: not given — what ``--backend`` must support (fail-fast pairing).
DEFAULT_SPEC_OF = {"E13": "ss2pl"}

#: experiment id -> (description, full-scale runner, quick runner).
#: Runners take a :class:`RunOptions` (ignored unless the id is in the
#: ``*_AWARE`` sets above).
EXPERIMENTS: Dict[
    str, tuple[str, Callable[[RunOptions], str], Callable[[RunOptions], str]]
] = {
    "E1": (
        "Table 1: related-approach feature matrix",
        lambda opts: run_table1(),
        lambda opts: run_table1(),
    ),
    "E2": (
        "Table 2: request/history/rte schema",
        lambda opts: run_table2(),
        lambda opts: run_table2(),
    ),
    "E3": (
        "Figure 2: MU/SU ratio vs clients (native scheduler)",
        lambda opts: run_figure2(duration=240.0),
        lambda opts: run_figure2(client_counts=(1, 300, 500), duration=240.0),
    ),
    "E5": (
        "Section 4.3.2: declarative scheduling overhead",
        lambda opts: run_declarative_overhead(include_compiled_comparison=True),
        lambda opts: run_declarative_overhead(
            client_counts=(300, 500),
            repetitions=1,
            include_compiled_comparison=True,
        ),
    ),
    "E6": (
        "Section 4.4: native-vs-declarative crossover",
        lambda opts: run_crossover(),
        lambda opts: run_crossover(client_counts=(300, 500), duration=240.0),
    ),
    "E7": (
        "Ablation: trigger policies",
        lambda opts: run_trigger_ablation(),
        lambda opts: run_trigger_ablation(clients=20, duration=2.0),
    ),
    "E8": (
        "Ablation: declarative language backends",
        lambda opts: run_language_ablation(),
        lambda opts: run_language_ablation(client_counts=(300,), repetitions=1),
    ),
    "E9": (
        "Productivity: declarative vs imperative spec size",
        lambda opts: run_productivity(),
        lambda opts: run_productivity(),
    ),
    "E10": (
        "SLA tiers + adaptive consistency",
        lambda opts: run_sla_bench() + "\n\n" + run_adaptive_bench(),
        lambda opts: run_sla_bench(clients=20, duration=2.0)
        + "\n\n"
        + run_adaptive_bench(clients=30, duration=2.0),
    ),
    "E11": (
        "Ablation: incremental view maintenance",
        lambda opts: run_incremental_ablation(),
        lambda opts: run_incremental_ablation(clients=80, steps=10),
    ),
    "E12": (
        "Ablation: external MPL admission control",
        lambda opts: run_mpl_ablation(),
        lambda opts: run_mpl_ablation(duration=60.0, caps=(None, 300)),
    ),
    "E13": (
        "Ablation: interpreted (eager CTEs) vs compiled query plan",
        lambda opts: render_scheduler_step_report(
            run_scheduler_step_bench(
                protocol=opts.protocol or "ss2pl",
                backend=opts.backend or "compiled",
            )
        ),
        lambda opts: render_scheduler_step_report(
            run_scheduler_step_bench(
                client_counts=(100, 300), steps=6,
                protocol=opts.protocol or "ss2pl",
                backend=opts.backend or "compiled",
            )
        ),
    ),
    "E14": (
        "Protocol × backend matrix: per-step cost, identical batches",
        lambda opts: run_backend_matrix(
            backends=[opts.backend] if opts.backend else None,
            specs=[opts.protocol] if opts.protocol else None,
            trigger=opts.trigger,
        ),
        lambda opts: run_backend_matrix(
            clients=15, steps=6,
            backends=[opts.backend] if opts.backend else None,
            specs=[opts.protocol] if opts.protocol else None,
            trigger=opts.trigger,
        ),
    ),
}


def _experiment_order(key: str) -> int:
    return int(key.lstrip("E"))


# -- shared flag parents & validators ---------------------------------------
#
# One parent parser per cross-cutting flag, so --protocol/--backend/
# --trigger are spelled, documented and validated identically on every
# subcommand that takes them (run, bench, scenario run, serve, demo).


class _UsageError(Exception):
    """Validation failure already printed to stderr; main() exits 2."""


def _protocol_parent(default: Optional[str] = None) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--protocol",
        default=default,
        help="protocol spec name (see `repro protocols`); combinators: "
        "sla:<spec>, adaptive:<strict>,<relaxed>"
        + (f" (default: {default})" if default else ""),
    )
    return parent


def _backend_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--backend",
        help="execution backend (default: the spec's own; "
        "see `repro backends`)",
    )
    return parent


def _trigger_parent(default: Optional[str] = None) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trigger",
        default=default,
        help="trigger policy: fill:<count>, time:<seconds>, or "
        "hybrid:<seconds>,<count>"
        + (f" (default: {default})" if default else ""),
    )
    return parent


def _check_backend(backend: Optional[str]) -> Optional[str]:
    """Exit code 2 with the valid choices on a bad backend name."""
    if backend is None:
        return None
    from repro.backends import BACKEND_REGISTRY, backend_names

    if backend not in BACKEND_REGISTRY:
        print(
            f"unknown backend {backend!r}; "
            f"valid backends: {', '.join(backend_names())}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return backend


def _check_protocol(protocol: Optional[str]) -> Optional[str]:
    """Exit code 2 with the registered specs on a bad protocol name.

    Combinator spellings (``sla:<spec>``, ``adaptive:<a>,<b>``) are
    validated by their inner spec names.
    """
    if protocol is None:
        return None
    from repro.protocols.spec import SPEC_REGISTRY, spec_names

    if ":" in protocol:
        inner = protocol.split(":", 1)[1].split(",")
    else:
        inner = [protocol]
    unknown = [name for name in inner if name not in SPEC_REGISTRY]
    if unknown:
        print(
            f"unknown protocol {protocol!r}; "
            f"registered specs: {', '.join(spec_names())}",
            file=sys.stderr,
        )
        raise _UsageError
    return protocol


def _check_trigger(trigger: Optional[str]) -> Optional[str]:
    """Exit code 2 with the accepted spellings on a bad trigger."""
    if trigger is None:
        return None
    import repro.api as api

    try:
        api.make_trigger(trigger)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        raise _UsageError from error
    return trigger


def _check_pairing(protocol: Optional[str], backend: Optional[str]) -> None:
    """Exit code 2 with the backend's declared skip reason when it
    cannot run the chosen spec — never fall back silently — or when the
    ``sla:`` / ``adaptive:`` spelling is malformed."""
    if protocol is None:
        return
    import repro.api as api
    from repro.backends import BackendError

    try:
        api.validate_pairing(protocol, backend)
    except (BackendError, ValueError) as error:
        print(str(error), file=sys.stderr)
        raise _UsageError from error


# -- subcommands ------------------------------------------------------------


def _cmd_list() -> int:
    print("experiments:")
    for key in sorted(EXPERIMENTS, key=_experiment_order):
        description = EXPERIMENTS[key][0]
        print(f"  {key:4s} {description}")
    from repro.protocols.spec import get_spec, spec_names

    print("\nregistered protocols:")
    for name in spec_names():
        print(f"  {name:20s} {get_spec(name).description}")
    print(
        "\n(see `repro protocols` / `repro backends` for the "
        "spec × backend matrix)"
    )
    return 0


def _cmd_protocols() -> int:
    """The spec registry: every protocol and where it can run."""
    from repro.backends import supported_backends
    from repro.protocols.spec import SPEC_REGISTRY

    print("registered protocol specs:")
    for name in sorted(SPEC_REGISTRY):
        spec = SPEC_REGISTRY[name]
        backends = ", ".join(supported_backends(spec)) or "(none)"
        print(f"  {name:18s} {spec.description}")
        print(f"  {'':18s}   dialects: {', '.join(sorted(spec.dialects()))}")
        print(f"  {'':18s}   backends: {backends} "
              f"(default: {spec.default_backend})")
    return 0


def _cmd_backends() -> int:
    """The backend registry: every execution strategy."""
    from repro.backends import BACKEND_REGISTRY
    from repro.protocols.spec import SPEC_REGISTRY

    print("registered execution backends:")
    for name in sorted(BACKEND_REGISTRY):
        backend = BACKEND_REGISTRY[name]()
        supported = [
            spec_name
            for spec_name in sorted(SPEC_REGISTRY)
            if backend.supports(SPEC_REGISTRY[spec_name])
        ]
        print(f"  {name:12s} {backend.description}")
        print(f"  {'':12s}   consumes: {', '.join(backend.consumes)}")
        print(f"  {'':12s}   runs: {', '.join(supported)}")
    return 0


def _cmd_run(ids: Sequence[str], quick: bool, opts: RunOptions) -> int:
    _check_backend(opts.backend)
    _check_protocol(opts.protocol)
    # Spelling only: whether --backend applies is per experiment, below.
    _check_pairing(opts.protocol, None)
    _check_trigger(opts.trigger)
    wanted = list(ids)
    if len(wanted) == 1 and wanted[0].lower() == "all":
        wanted = sorted(EXPERIMENTS, key=_experiment_order)
    unknown = [i for i in wanted if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    if opts.backend is not None:
        # Fail fast before any experiment runs: a backend that declares
        # the driven spec unsupported exits here with the declared
        # reason, instead of a silent fallback (or a mid-run crash).
        for experiment_id in wanted:
            if experiment_id not in BACKEND_AWARE:
                continue
            spec = opts.protocol or DEFAULT_SPEC_OF.get(experiment_id)
            _check_pairing(spec, opts.backend)
    for experiment_id in wanted:
        description, full, fast = EXPERIMENTS[experiment_id]
        print("=" * 78)
        print(f"{experiment_id} — {description}")
        print("=" * 78)
        runner = fast if quick else full
        for flag, value, aware in (
            ("--protocol", opts.protocol, PROTOCOL_AWARE),
            ("--backend", opts.backend, BACKEND_AWARE),
            ("--trigger", opts.trigger, TRIGGER_AWARE),
        ):
            if value is not None and experiment_id not in aware:
                print(f"({flag} {value} has no effect on {experiment_id})")
        print(runner(opts))
        print()
    return 0


def _cmd_bench(
    protocol: str,
    backend: Optional[str],
    trigger: Optional[str],
    clients: int,
    steps: int,
) -> int:
    """Drive one protocol × backend pairing through the live scheduler."""
    _check_protocol(protocol)
    _check_backend(backend)
    _check_pairing(protocol, backend)
    _check_trigger(trigger)
    import repro.api as api
    from repro.backends import BackendError
    from repro.bench.incremental_ablation import drive_steps

    try:
        bound = api.make_protocol(protocol, backend, clients=clients)
    except BackendError as error:
        print(str(error), file=sys.stderr)
        return 2
    result = drive_steps(
        bound, clients=clients, steps=steps,
        trigger=api.make_trigger(trigger) if trigger else None,
    )
    print(
        f"{bound.name}: {result.steps} steps, {clients} clients -> "
        f"{result.total_qualified} qualified, "
        f"{result.per_step_ms:.3f} ms/step"
    )
    return 0


def _cmd_scenario(args) -> int:
    """The deterministic scenario subsystem (`scenario list|run|replay|compare`)."""
    from repro.scenarios import (
        SCENARIO_REGISTRY,
        get_scenario,
        record_scenario,
        render_scenario_comparison,
        render_scenario_report,
        replay_scenario,
        run_scenario,
        scenario_names,
    )

    if args.scenario_command == "list":
        print("registered scenarios:")
        for name in scenario_names():
            spec = SCENARIO_REGISTRY[name]
            print(f"  {name:18s} {spec.description}")
            print(
                f"  {'':18s}   cells: {len(spec.cells)}, "
                f"clients: {spec.clients}, duration: {spec.duration:g}s, "
                f"seed: {spec.seed}"
            )
        return 0

    if args.scenario_command in ("run", "compare"):
        names = (
            [args.name]
            if args.scenario_command == "run"
            else list(args.names)
        )
        try:
            specs = [get_scenario(name) for name in names]
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
        overrides = dict(
            seed=args.seed, duration=args.duration, clients=args.clients
        )
        # `scenario compare` has no --backend/--trigger; only `run` does.
        backend = _check_backend(getattr(args, "backend", None))
        trigger = _check_trigger(getattr(args, "trigger", None))
        try:
            if args.scenario_command == "run":
                from repro.backends import BackendError
                from repro.faults import InvariantViolation

                try:
                    if args.record:
                        outcome = record_scenario(
                            specs[0],
                            args.record,
                            check_invariants=args.check_invariants,
                            backend=backend,
                            trigger=trigger,
                            **overrides,
                        )
                    else:
                        outcome = run_scenario(
                            specs[0],
                            check_invariants=args.check_invariants,
                            backend=backend,
                            trigger=trigger,
                            **overrides,
                        )
                    print(render_scenario_report(outcome))
                    if args.check_invariants:
                        checks = sum(
                            entry.result.invariant_checks
                            for entry in outcome.cells
                        )
                        print(
                            f"\ninvariants OK: {checks} checks, 0 violations"
                        )
                    if args.record:
                        print(f"\ntrace recorded to {args.record}")
                except BackendError as error:
                    print(str(error), file=sys.stderr)
                    return 2
                except InvariantViolation as violation:
                    print(f"INVARIANT VIOLATION: {violation}", file=sys.stderr)
                    trace_path = f"{specs[0].name}.violation.trace"
                    entries = violation.write_trace(trace_path)
                    print(
                        f"violation trace ({entries} dispatches) written to "
                        f"{trace_path}; inspect or re-verify with "
                        f"`repro scenario replay {trace_path}`",
                        file=sys.stderr,
                    )
                    return 1
                return 0
            outcomes = [run_scenario(spec, **overrides) for spec in specs]
            print(render_scenario_comparison(outcomes))
            return 0
        except OSError as error:
            print(f"cannot record trace: {error}", file=sys.stderr)
            return 2
        except ValueError as error:
            print(f"invalid scenario parameters: {error}", file=sys.stderr)
            return 2

    if args.scenario_command == "replay":
        try:
            outcome = replay_scenario(args.trace)
        except (OSError, ValueError, KeyError) as error:
            message = error.args[0] if error.args else str(error)
            print(f"replay failed: {message}", file=sys.stderr)
            return 2
        if outcome.result is not None:
            print(render_scenario_report(outcome.result))
        if outcome.matches:
            print(
                f"\nreplay OK: {outcome.scenario} reproduced all "
                f"{outcome.entries} recorded dispatches exactly"
            )
            return 0
        print(
            f"\nreplay MISMATCH for {outcome.scenario}: {outcome.mismatch}",
            file=sys.stderr,
        )
        return 1
    return 2  # pragma: no cover


def _cmd_serve(args) -> int:
    """Run the asyncio serving layer over a seeded scenario workload."""
    import asyncio
    import dataclasses
    import json
    import random

    import repro.api as api
    from repro.backends import BackendError
    from repro.faults import InvariantViolation
    from repro.scenarios import get_scenario
    from repro.serve import drive_workload
    from repro.workload.generator import TransactionFactory

    protocol = _check_protocol(args.protocol)
    backend = _check_backend(args.backend)
    _check_pairing(protocol, backend)
    trigger = _check_trigger(args.trigger)
    try:
        scenario = get_scenario(args.workload)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    if min(args.requests, args.sessions, args.pipeline) <= 0:
        print(
            "--requests/--sessions/--pipeline must be positive",
            file=sys.stderr,
        )
        return 2
    if args.shards is not None and args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2

    workload = scenario.workload
    # Seeded sizing: enough transactions that statements + commits
    # reach the requested request count (the same draw drive_workload
    # replays, so the run stays fully determined by (workload, seed)).
    factory = TransactionFactory(workload, random.Random(args.seed))
    transactions = 0
    planned_requests = 0
    while planned_requests < args.requests:
        planned_requests += len(factory.next_profile()) + 1
        transactions += 1

    admission = (
        api.AdmissionPolicy(max_pending=args.max_pending)
        if args.max_pending
        else None
    )
    try:
        service = api.open_service(
            protocol,
            backend,
            trigger=trigger,
            admission=admission,
            max_sessions=args.sessions,
            max_pipeline=args.pipeline,
            check_invariants=args.check_invariants,
            shards=args.shards,
        )
    except (BackendError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2

    async def _serve():
        async with service:
            report = await drive_workload(
                service,
                workload,
                transactions=transactions,
                sessions=args.sessions,
                seed=args.seed,
            )
            final = service.final_check()
        return report, final

    sharding = f", {args.shards} shards" if args.shards is not None else ""
    print(
        f"serving workload {args.workload!r} via {protocol}"
        f"{' on ' + backend if backend else ''}: "
        f"{transactions} transactions (~{planned_requests} requests), "
        f"{args.sessions} sessions × pipeline {args.pipeline}"
        f"{', trigger ' + trigger if trigger else ''}{sharding}"
    )
    try:
        report, final = asyncio.run(_serve())
    except InvariantViolation as violation:
        print(f"INVARIANT VIOLATION: {violation}", file=sys.stderr)
        return 1
    stats = service.stats()
    rejected = stats["rejected"]
    latency = stats["grant_latency_s"]
    print(
        f"submitted {stats['submitted']}, granted {stats['granted']}, "
        f"rejected {sum(rejected.values())} "
        f"(timeout {rejected.get('timeout', 0)}, "
        f"orphan {rejected.get('orphan', 0)}, shed {rejected.get('shed', 0)})"
    )
    print(
        f"transactions: {report.committed} committed, "
        f"{report.aborted} aborted of {report.transactions}"
    )
    print(
        f"throughput: {stats['grants_per_s']:.0f} grants/s over "
        f"{stats['duration_s']:.3f}s ({stats['steps']} scheduler steps)"
    )
    print(
        "grant latency ms: "
        f"p50 {latency['p50'] * 1e3:.3f}, p99 {latency['p99'] * 1e3:.3f}, "
        f"p99.9 {latency['p99.9'] * 1e3:.3f}, max {latency['max'] * 1e3:.3f}"
    )
    if args.check_invariants:
        summary = ", ".join(
            f"{state}: {count}" for state, count in sorted(final.items())
        )
        print(f"invariants OK: no lost requests ({summary})")
    if args.json:
        payload = {
            "workload": args.workload,
            "protocol": protocol,
            "backend": backend,
            "trigger": trigger,
            "seed": args.seed,
            "sessions": args.sessions,
            "pipeline": args.pipeline,
            "transactions": transactions,
            "requests_target": args.requests,
            "report": dataclasses.asdict(report),
            "stats": stats,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"stats written to {args.json}")
    return 0


def _cmd_demo(protocol: str, backend: Optional[str]) -> int:
    _check_protocol(protocol)
    _check_backend(backend)
    _check_pairing(protocol, backend)
    import repro.api as api
    from repro import (
        Schedule,
        is_conflict_serializable,
        is_strict,
        make_transaction,
    )
    from repro.backends import BackendError

    try:
        scheduler = api.make_scheduler(protocol, backend)
    except BackendError as error:
        print(str(error), file=sys.stderr)
        return 2
    for txn in (
        make_transaction(1, [("r", 10), ("w", 10)], start_id=1),
        make_transaction(2, [("w", 10), ("w", 20)], start_id=100),
        make_transaction(3, [("r", 30)], start_id=200),
    ):
        for request in txn:
            scheduler.submit(request)
    emitted = Schedule()
    step = 0
    while len(scheduler.incoming) or len(scheduler.pending):
        step += 1
        batch = scheduler.step(now=float(step)).qualified
        emitted.extend(batch)
        print(f"step {step}: {' '.join(map(str, batch)) or '(blocked)'}")
    print(f"\nschedule: {emitted}")
    print(f"conflict serializable: {is_conflict_serializable(emitted)}")
    print(f"strict:                {is_strict(emitted)}")
    return 0


def _cmd_analyze(args) -> int:
    """Static analysis: spec/plan verifier + repo determinism lint."""
    import json

    from repro.analysis import RULES, run_analysis

    run_specs = not args.skip_specs
    run_repo = not args.skip_repo
    if not (run_specs or run_repo):
        print("--skip-specs and --skip-repo exclude everything", file=sys.stderr)
        return 2
    report = run_analysis(specs=run_specs, repo=run_repo)

    if report.findings:
        by_rule: Dict[str, list] = {}
        for finding in report.findings:
            by_rule.setdefault(finding.rule, []).append(finding)
        for rule in sorted(by_rule):
            severity, title = RULES[rule]
            print(f"{rule} ({severity}): {title}")
            for finding in by_rule[rule]:
                where = f"  [{finding.location}]" if finding.location else ""
                print(f"  {finding.subject}: {finding.message}{where}")
    if report.matrix:
        supported = sum(
            1 for row in report.matrix.values() for ok in row.values() if ok
        )
        pairs = sum(len(row) for row in report.matrix.values())
        print(f"spec × backend matrix: {supported}/{pairs} pairs supported")
    errors, warnings = len(report.errors), len(report.warnings)
    print(f"analyze: {errors} error(s), {warnings} warning(s)")

    if args.json:
        payload = report.as_dict()
        payload["strict"] = args.strict
        payload["ok"] = report.ok(strict=args.strict)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.json}")
    return 0 if report.ok(strict=args.strict) else 1


def _cmd_sql(query: str) -> int:
    from repro.bench.declarative_overhead import paper_snapshot
    from repro.core.stores import HistoryStore, PendingStore
    from repro.relalg.sql import SqlError, execute_sql

    incoming, history = paper_snapshot(20)
    pending_store = PendingStore()
    history_store = HistoryStore()
    pending_store.insert_batch(incoming)
    history_store.record_batch(history)
    try:
        relation = execute_sql(
            query,
            {"requests": pending_store.table, "history": history_store.table},
        )
    except SqlError as error:
        print(f"SQL error: {error}", file=sys.stderr)
        return 1
    print("  ".join(c.qualified_name for c in relation.schema))
    for row in relation.rows[:50]:
        print("  ".join(str(v) for v in row))
    if len(relation) > 50:
        print(f"... {len(relation) - 50} more rows")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Declarative Scheduling in Highly Scalable Systems — "
        "reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list experiments and protocols")
    subparsers.add_parser(
        "protocols", help="list registered protocol specs and their backends"
    )
    subparsers.add_parser(
        "backends", help="list registered execution backends"
    )
    run_parser = subparsers.add_parser(
        "run",
        help="run experiments",
        parents=[_protocol_parent(), _backend_parent(), _trigger_parent()],
    )
    run_parser.add_argument("ids", nargs="+", help="experiment ids or 'all'")
    run_parser.add_argument(
        "--quick", action="store_true", help="scaled-down parameters"
    )
    bench_parser = subparsers.add_parser(
        "bench",
        help="drive one protocol × backend pairing",
        parents=[
            _protocol_parent("ss2pl"),
            _backend_parent(),
            _trigger_parent(),
        ],
    )
    bench_parser.add_argument("--clients", type=int, default=100)
    bench_parser.add_argument("--steps", type=int, default=20)
    scenario_parser = subparsers.add_parser(
        "scenario", help="deterministic scenario subsystem"
    )
    scenario_sub = scenario_parser.add_subparsers(
        dest="scenario_command", required=True
    )
    scenario_sub.add_parser("list", help="list registered scenarios")

    def _scenario_overrides(sub) -> None:
        sub.add_argument("--seed", type=int, help="override the spec's seed")
        sub.add_argument(
            "--duration", type=float, help="override virtual duration (s)"
        )
        sub.add_argument(
            "--clients", type=int, help="override the client count"
        )

    scenario_run = scenario_sub.add_parser(
        "run",
        help="run one scenario deterministically",
        parents=[_backend_parent(), _trigger_parent()],
    )
    scenario_run.add_argument("name", help="registered scenario name")
    _scenario_overrides(scenario_run)
    scenario_run.add_argument(
        "--record", metavar="PATH", help="record the dispatch trace to PATH"
    )
    scenario_run.add_argument(
        "--check-invariants",
        action="store_true",
        help="assert scheduler safety invariants after every step "
        "(exit 1 with a replayable trace on any violation)",
    )
    scenario_replay = scenario_sub.add_parser(
        "replay", help="re-run a recorded trace and verify it reproduces"
    )
    scenario_replay.add_argument("trace", help="trace file from `scenario run --record`")
    scenario_compare = scenario_sub.add_parser(
        "compare", help="run several scenarios and compare their cells"
    )
    scenario_compare.add_argument("names", nargs="+", help="scenario names")
    _scenario_overrides(scenario_compare)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the asyncio serving layer over a scenario workload",
        parents=[
            # The gated ss2pl spec, NOT raw ss2pl-listing1: pipelined
            # sessions need program-order gating (see DESIGN.md §6).
            _protocol_parent("ss2pl"),
            _backend_parent(),
            _trigger_parent("hybrid:0.005,16"),
        ],
    )
    serve_parser.add_argument(
        "--workload",
        default="zipf-hotspot",
        help="scenario whose workload spec to serve "
        "(default: zipf-hotspot; see `repro scenario list`)",
    )
    serve_parser.add_argument(
        "--requests", type=int, default=1000,
        help="approximate total requests to drive (default: 1000)",
    )
    serve_parser.add_argument(
        "--sessions", type=int, default=8,
        help="session-pool size / concurrent clients (default: 8)",
    )
    serve_parser.add_argument(
        "--pipeline", type=int, default=8,
        help="per-session in-flight request cap (default: 8)",
    )
    serve_parser.add_argument(
        "--seed", type=int, default=17, help="workload seed (default: 17)"
    )
    serve_parser.add_argument(
        "--max-pending", type=int, default=None,
        help="admission cap: submit blocks (and the scheduler sheds) "
        "beyond this many undispatched requests",
    )
    serve_parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="attach the invariant monitor and assert zero lost "
        "requests at shutdown",
    )
    serve_parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="serve from N hash-partitioned scheduler shards instead "
        "of one (multi-object requests take the two-phase "
        "reserve/commit path)",
    )
    serve_parser.add_argument(
        "--json", metavar="PATH", help="write the run's stats as JSON"
    )

    subparsers.add_parser(
        "demo",
        help="run the quickstart scenario",
        parents=[_protocol_parent("ss2pl"), _backend_parent()],
    )
    sql_parser = subparsers.add_parser(
        "sql", help="run ad-hoc SQL over a demo requests/history instance"
    )
    sql_parser.add_argument("query")
    analyze_parser = subparsers.add_parser(
        "analyze",
        help="static spec/plan verifier + repo determinism lint",
    )
    analyze_parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on warnings too, not just errors (the CI gate)",
    )
    analyze_parser.add_argument(
        "--json", metavar="PATH", help="write the full report as JSON"
    )
    analyze_parser.add_argument(
        "--skip-specs",
        action="store_true",
        help="skip the spec/plan verifier half",
    )
    analyze_parser.add_argument(
        "--skip-repo",
        action="store_true",
        help="skip the repo determinism lint half",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "protocols":
            return _cmd_protocols()
        if args.command == "backends":
            return _cmd_backends()
        if args.command == "run":
            return _cmd_run(
                args.ids,
                args.quick,
                RunOptions(
                    protocol=args.protocol,
                    backend=args.backend,
                    trigger=args.trigger,
                ),
            )
        if args.command == "bench":
            return _cmd_bench(
                args.protocol,
                args.backend,
                args.trigger,
                args.clients,
                args.steps,
            )
        if args.command == "scenario":
            return _cmd_scenario(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "demo":
            return _cmd_demo(args.protocol, args.backend)
        if args.command == "sql":
            return _cmd_sql(args.query)
        if args.command == "analyze":
            return _cmd_analyze(args)
    except _UsageError:
        return 2
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
