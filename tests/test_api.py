"""Tests of :mod:`repro.api`, the public construction surface."""

import asyncio

import pytest

import repro.api as api
from repro.backends import BackendError
from repro.core.triggers import (
    FillLevelTrigger,
    HybridTrigger,
    TimeLapseTrigger,
)
from repro.faults import RecoveryPolicy
from repro.model import make_transaction
from repro.protocols.base import Protocol


class TestMakeTrigger:
    def test_none_passes_through(self):
        assert api.make_trigger(None) is None

    def test_instance_passes_through(self):
        trigger = FillLevelTrigger(5)
        assert api.make_trigger(trigger) is trigger

    def test_string_spellings(self):
        fill = api.make_trigger("fill:20")
        assert isinstance(fill, FillLevelTrigger)
        timed = api.make_trigger("time:0.02")
        assert isinstance(timed, TimeLapseTrigger)
        hybrid = api.make_trigger("hybrid:0.02,20")
        assert isinstance(hybrid, HybridTrigger)

    def test_duck_typed_spec_builds(self):
        from repro.scenarios.spec import TriggerSpec

        built = api.make_trigger(TriggerSpec(kind="fill", threshold=7))
        assert isinstance(built, FillLevelTrigger)

    @pytest.mark.parametrize(
        "text", ["bogus", "fill:x", "time:abc", "hybrid:1", "hybrid:a,b"]
    )
    def test_bad_spellings_raise_value_error(self, text):
        with pytest.raises(ValueError) as excinfo:
            api.make_trigger(text)
        assert "trigger" in str(excinfo.value)


class TestMakeProtocol:
    def test_spec_name_builds(self):
        protocol = api.make_protocol("ss2pl-listing1", "compiled-delta")
        assert isinstance(protocol, Protocol)

    def test_instance_passes_through(self):
        protocol = api.make_protocol("fcfs")
        assert api.make_protocol(protocol) is protocol

    def test_sla_wrapper(self):
        protocol = api.make_protocol("sla:ss2pl")
        assert "sla" in protocol.name.lower()

    def test_adaptive_wrapper(self):
        protocol = api.make_protocol("adaptive:ss2pl,read-committed")
        assert "adaptive" in protocol.name.lower()

    def test_adaptive_missing_relaxed_raises(self):
        with pytest.raises(ValueError):
            api.make_protocol("adaptive:ss2pl")

    def test_unknown_spec_raises(self):
        with pytest.raises(Exception):
            api.make_protocol("definitely-not-a-spec")


class TestValidatePairing:
    def test_supported_pairing_passes(self):
        api.validate_pairing("ss2pl", "compiled-delta")
        api.validate_pairing("read-committed", "datalog")

    def test_none_protocol_checks_backend_name(self):
        api.validate_pairing(None, "compiled")
        with pytest.raises(Exception):
            api.validate_pairing(None, "bogus-backend")

    def test_unsupported_pairing_raises_declared_reason(self):
        with pytest.raises(BackendError) as excinfo:
            api.validate_pairing("c2pl", "compiled")
        assert "cannot run spec" in str(excinfo.value)

    def test_wrapper_prefixes_validate_inner_specs(self):
        api.validate_pairing("sla:ss2pl", "compiled")
        with pytest.raises(BackendError):
            api.validate_pairing("sla:c2pl", "compiled")
        with pytest.raises(BackendError):
            api.validate_pairing("adaptive:ss2pl,c2pl", "compiled")

    def test_malformed_adaptive_spelling_raises(self):
        # One parser: what make_protocol refuses, validation refuses.
        with pytest.raises(ValueError, match="adaptive:<strict>,<relaxed>"):
            api.validate_pairing("adaptive:ss2pl", None)


class TestMakeScheduler:
    def test_scheduler_runs_quickstart(self):
        scheduler = api.make_scheduler("ss2pl", trigger="fill:1")
        for request in make_transaction(
            1, [("r", 10), ("w", 10)], start_id=1
        ):
            scheduler.submit(request)
        batch = scheduler.step().qualified
        assert [str(r) for r in batch] == ["r1[10]", "w1[10]", "c1"]

    def test_trigger_string_is_wired(self):
        scheduler = api.make_scheduler("ss2pl", trigger="hybrid:0.5,32")
        assert isinstance(scheduler.trigger, HybridTrigger)

    def test_admission_and_recovery_are_wired(self):
        scheduler = api.make_scheduler(
            "ss2pl",
            recovery=RecoveryPolicy(request_timeout=1.0),
            admission=api.AdmissionPolicy(max_pending=10),
        )
        assert scheduler.admission.max_pending == 10


class TestOpenService:
    def test_open_service_defaults_recovery(self):
        service = api.open_service("ss2pl", "compiled-delta")
        assert service.scheduler.recovery is not None
        assert isinstance(service.scheduler.recovery, RecoveryPolicy)

    def test_open_service_round_trip(self):
        async def scenario():
            async with api.open_service(
                "ss2pl", "compiled-delta", trigger="fill:1", max_sessions=2
            ) as service:
                async with service.pool.session() as session:
                    ticket = await session.request("w", 7)
                    await service.await_grant(ticket)
                    service.release(ticket)
                    commit = await session.request("c")
                    await service.await_grant(commit)
                    service.release(commit)
            return service.stats()

        stats = asyncio.run(scenario())
        assert stats["granted"] == 2

    def test_unsupported_pairing_raises_at_construction(self):
        with pytest.raises(BackendError):
            api.open_service("c2pl", "compiled")


class TestDeprecatedShims:
    def test_package_import_stays_warning_free(self):
        # The deprecation stubs are gone; nothing on the normal import
        # surface (package, api, bench, cli) may bring one back.
        import subprocess
        import sys

        result = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::DeprecationWarning",
                "-c",
                "import repro, repro.api, repro.bench, repro.cli",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr


def test_no_class_per_pairing():
    # A protocol is spec × backend, built by api.make_protocol; a
    # SpecProtocol subclass is a pairing restated as a class.
    import repro.bench  # noqa: F401
    import repro.cli  # noqa: F401
    from repro.backends import SpecProtocol

    assert SpecProtocol.__subclasses__() == []


def test_api_is_reexported_from_package():
    import repro

    assert repro.api is api
    assert "api" in repro.__all__
