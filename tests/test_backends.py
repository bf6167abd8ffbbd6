"""The backend registry and the SpecProtocol adapter."""

import random

import pytest

import repro.api as api
from repro.backends import (
    BACKEND_REGISTRY,
    BackendError,
    SpecProtocol,
    build_protocol,
    resolve_backend,
    supported_backends,
)
from repro.bench.incremental_ablation import drive_steps
from repro.protocols.adaptive import AdaptiveConsistencyProtocol
from repro.protocols.base import Protocol
from repro.protocols.sla import EarliestDeadlineFirstProtocol
from repro.protocols.spec import (
    ProtocolSpec,
    SPEC_REGISTRY,
    get_spec,
    register_spec,
)

from tests.conftest import (
    empty_history_table,
    empty_requests_table,
    random_scheduling_instance,
    request,
)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {
            "interpreted", "compiled", "sqlite",
            "datalog", "imperative", "incremental",
        } <= set(BACKEND_REGISTRY)

    def test_resolve_by_name_and_instance(self):
        backend = resolve_backend("compiled")
        assert backend.name == "compiled"
        assert resolve_backend(backend) is backend

    def test_resolve_unknown_lists_choices(self):
        with pytest.raises(BackendError, match="valid backends"):
            resolve_backend("postgres")

    def test_factories_produce_fresh_instances(self):
        assert resolve_backend("datalog") is not resolve_backend("datalog")


class TestSpecProtocolAdapter:
    def test_is_a_protocol(self):
        assert isinstance(build_protocol("ss2pl"), Protocol)

    def test_default_backend_keeps_spec_name(self):
        assert build_protocol("ss2pl").name == "ss2pl"
        assert build_protocol("c2pl").name == "c2pl"

    def test_non_default_backend_tags_name(self):
        assert build_protocol("ss2pl", "datalog").name == "ss2pl@datalog"

    def test_unsupported_pairing_raises(self):
        with pytest.raises(BackendError, match="cannot run spec"):
            SpecProtocol(get_spec("c2pl"), backend="incremental")

    def test_declarative_source_reflects_consumed_dialect(self):
        # The datalog backend runs the rules; the compiled backend runs
        # the relalg plan but reports the spec's source of record (SQL).
        datalog = build_protocol("ss2pl-listing1", "datalog")
        compiled = build_protocol("ss2pl-listing1", "compiled")
        assert "denied(" in datalog.declarative_source
        assert "WITH RLockedObjects" in compiled.declarative_source
        assert datalog.spec_line_count() < compiled.spec_line_count()

    def test_post_process_runs_on_every_backend(self):
        # Program order: intrata 1 before intrata 0 must be gated no
        # matter which engine qualified it.
        for backend in supported_backends(SPEC_REGISTRY["ss2pl"]):
            protocol = build_protocol("ss2pl", backend)
            requests = empty_requests_table()
            requests.insert(request(1, 1, 1, "r", 5).as_row())
            decision = protocol.schedule(requests, empty_history_table())
            assert decision.qualified == [], backend
            assert 1 in decision.denials, backend

    def test_make_scheduler_resolves_names(self):
        scheduler = api.make_scheduler("ss2pl", "imperative")
        scheduler.submit(request(1, 1, 0, "r", 5))
        result = scheduler.step()
        assert [r.id for r in result.qualified] == [1]
        with pytest.raises(BackendError):
            api.make_scheduler("ss2pl", "bogus")
        with pytest.raises(KeyError):
            api.make_scheduler("bogus")


class TestSharedDeltaPlan:
    """Two compiled-delta protocols bound to one spec and one pair of
    stores share one maintained plan — and its decoded candidates."""

    @pytest.mark.parametrize("second_goes_first", [False, True])
    def test_same_step_evaluations_agree_with_compiled(self, second_goes_first):
        rng = random.Random(7)
        requests, history = random_scheduling_instance(rng, pending=12)
        first = build_protocol("ss2pl", "compiled-delta")
        second = build_protocol("ss2pl", "compiled-delta")
        reference = build_protocol("ss2pl", "compiled")
        order = (second, first) if second_goes_first else (first, second)
        next_id = 1_000
        try:
            for step in range(40):
                if step == 20:
                    # Dropping the shared plan mid-run must leave
                    # nothing stale behind for either evaluator.
                    first.reset()
                leader, follower = (
                    d.qualified
                    for d in [p.schedule(requests, history) for p in order]
                )
                want = reference.schedule(requests, history).qualified
                assert leader == follower == want, f"step {step}"
                # One plan: the follower's refresh saw an empty delta.
                assert order[1].maintenance_stats()["last"]["inserts"] == 0
                # Dispatch the batch the way the scheduler does, let
                # most of the granted transactions commit (releasing
                # their locks), and admit new arrivals.
                rows = [r.as_row() for r in want]
                requests.delete_rows(rows)
                history.insert_many(rows)
                for r in want:
                    if rng.random() < 0.6:
                        next_id += 1
                        history.insert((next_id, r.ta, r.intrata + 1, "c", -1))
                for __ in range(rng.randrange(4)):
                    next_id += 1
                    requests.insert(
                        (next_id, next_id, 0, rng.choice("rw"), rng.randrange(30))
                    )
            hits = second.maintenance_stats()["cache_hits"]
            assert hits >= 38  # at most one miss per plan built
        finally:
            first.reset()


WRAPPER_BACKENDS = ("compiled", "compiled-delta", "imperative", "incremental")

WRAPPERS = {
    "sla:ss2pl": lambda backend: api.make_protocol("sla:ss2pl", backend),
    "edf(ss2pl)": lambda backend: EarliestDeadlineFirstProtocol(
        build_protocol("ss2pl", backend)
    ),
    "adaptive:ss2pl,read-committed": lambda backend: api.make_protocol(
        "adaptive:ss2pl,read-committed", backend
    ),
}


class TestWrappersForwardHistory:
    """``sla:`` / EDF / ``adaptive:`` are transparent to a stateful
    inner backend: it sees every executed batch and every prune, so the
    wrapped protocol decides what the bare one would on every backend
    (regression: ``incremental`` under a wrapper never saw history
    change and granted two write locks on one object)."""

    @pytest.mark.parametrize("backend", WRAPPER_BACKENDS)
    @pytest.mark.parametrize("wrapper", WRAPPERS)
    def test_second_writer_on_one_object_is_blocked(self, wrapper, backend):
        scheduler = api.make_scheduler(WRAPPERS[wrapper](backend))
        scheduler.submit(request(1, 1, 0, "w", 5))
        assert [r.id for r in scheduler.step().qualified] == [1]
        scheduler.submit(request(2, 2, 0, "w", 5))
        assert scheduler.step().qualified == []

    @pytest.mark.parametrize("wrapper", WRAPPERS)
    def test_same_batches_on_every_backend(self, wrapper):
        # A closed population over 80 rows with pruning on: lock waits,
        # commits and prunes every few steps.
        batches = {
            backend: drive_steps(
                WRAPPERS[wrapper](backend),
                clients=16, steps=40, ops_per_txn=4, table_rows=80, seed=5,
            ).batches
            for backend in WRAPPER_BACKENDS
        }
        assert any(batches["compiled"])
        for backend in WRAPPER_BACKENDS:
            assert batches[backend] == batches["compiled"], backend

    @pytest.mark.parametrize("backend", WRAPPER_BACKENDS)
    def test_adaptive_idle_arm_tracks_history(self, backend):
        """Each arm must know the locks granted, and the transactions
        pruned, while the other arm was deciding."""
        protocol = AdaptiveConsistencyProtocol(
            build_protocol("ss2pl", backend),
            build_protocol("read-committed", backend),
            high_watermark=3,
            low_watermark=2,
        )
        scheduler = api.make_scheduler(protocol)
        waves = [
            [request(1, 1, 0, "w", 5)],  # strict grants w(5) to ta 1
            [  # 4 pending: relaxed decides, and must block ta 2 on w(5)
                request(2, 2, 0, "w", 5), request(3, 3, 0, "w", 6),
                request(4, 4, 0, "w", 7), request(5, 5, 0, "r", 8),
            ],
            [request(6, 1, 1, "c")],  # relaxed commits ta 1; it is pruned
            [],  # 1 pending: strict again, must see w(5) released
            [request(7, 6, 0, "w", 6)],  # ...and ta 3's w(6) still held
        ]
        batches = []
        for wave in waves:
            for r in wave:
                scheduler.submit(r)
            batches.append([r.id for r in scheduler.step().qualified])
        assert batches == [[1], [3, 4, 5], [6], [2], []]
        assert protocol.switches == 2

    @pytest.mark.parametrize("wrapper", WRAPPERS)
    def test_wrapped_compiled_delta_reports_maintenance(self, wrapper):
        scheduler = api.make_scheduler(WRAPPERS[wrapper]("compiled-delta"))
        scheduler.submit(request(1, 1, 0, "w", 5))
        scheduler.step()
        assert scheduler.protocol.maintenance_stats()["steps"] == 1


class TestCustomSpec:
    def test_user_spec_runs_on_stock_backends(self):
        """The extension path from DESIGN.md: registering a new spec is
        enough for every dialect-compatible backend to run it."""
        spec = ProtocolSpec(
            name="writes-only-test",
            description="qualify only writes (toy)",
            datalog=(
                'qualified(Id, Ta, I, "w", Obj) :- '
                'requests(Id, Ta, I, "w", Obj).\n'
            ),
            default_backend="datalog",
        )
        register_spec(spec)
        try:
            assert supported_backends(spec) == ["datalog"]
            protocol = build_protocol("writes-only-test")
            requests = empty_requests_table()
            requests.insert(request(1, 1, 0, "r", 5).as_row())
            requests.insert(request(2, 2, 0, "w", 6).as_row())
            decision = protocol.schedule(requests, empty_history_table())
            assert [r.id for r in decision.qualified] == [2]
        finally:
            SPEC_REGISTRY.pop("writes-only-test", None)


class TestCompiledEvaluator:
    def test_explain_and_plan_cache_through_evaluator(self):
        requests = empty_requests_table()
        history = empty_history_table()
        protocol = api.make_protocol("ss2pl-listing1", "compiled")
        plan_text = protocol.evaluator.explain(requests, history)
        assert "AntiJoin" in plan_text
        assert len(protocol.evaluator.plans) == 1
        protocol.reset()
        assert len(protocol.evaluator.plans) == 0
