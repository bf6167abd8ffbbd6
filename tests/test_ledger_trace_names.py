"""The names the perf ledger's tracer patches still exist.

``benchmarks/ledger/ledger_trace.py`` records its spans from outside,
by wrapping instance attributes of the scheduler, its stores, its
protocol, its monitor and the service in front of it.  Renaming one of
those methods breaks the traced benchmark run, not any unit test.
This is the cheap form of CI's traced ledger runs: ``install`` is run
for real on freshly built object graphs, and every attribute it asks
for — read from the module as it asks, not listed here — must be a
method of the object it is asked of.
"""

from __future__ import annotations

import importlib
import pathlib

import pytest

from repro import api
from repro.faults.invariants import InvariantMonitor, lock_model_of
from repro.model.request import Operation, Request
from repro.relalg import delta

LEDGER = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "ledger"


@pytest.fixture
def ledger(monkeypatch):
    """(ledger_trace, ledger_drivers), importable as the ledger's own
    files import each other."""
    monkeypatch.syspath_prepend(str(LEDGER))
    return (
        importlib.import_module("ledger_trace"),
        importlib.import_module("ledger_drivers"),
    )


def _install_recording(ledger_trace, monkeypatch, *args, **kwargs):
    """Run ``ledger_trace.install`` with a tracer that notes every
    (owner, attribute) it is asked to wrap, then wraps it."""
    asked: list[tuple[object, str]] = []

    class Recording(ledger_trace.Tracer):
        def busy(self, owner, attribute, name):
            asked.append((owner, attribute))
            super().busy(owner, attribute, name)

        def wait(self, owner, attribute, name):
            asked.append((owner, attribute))
            super().wait(owner, attribute, name)

        def step(self, scheduler, name):
            asked.append((scheduler, "step"))
            super().step(scheduler, name)

        def service_submit(self, service):
            asked.append((service, "submit"))
            super().service_submit(service)

    monkeypatch.setattr(ledger_trace, "Tracer", Recording)
    ledger_trace.install(*args, **kwargs)
    assert asked
    for owner, attribute in asked:
        method = getattr(type(owner), attribute, None)
        assert callable(method), f"{type(owner).__name__}.{attribute} is gone"
    return {(type(owner).__name__, attribute) for owner, attribute in asked}


def _sync_scheduler(shards=None):
    scheduler = api.make_scheduler(
        "ss2pl", "compiled-delta", shards=shards, recovery=api.RecoveryPolicy()
    )
    scheduler.monitor = InvariantMonitor(lock_model_of(scheduler.protocol))
    return scheduler


@pytest.mark.parametrize("shards", [None, 2], ids=["unsharded", "sharded"])
def test_sync_graph_has_every_wrapped_name(ledger, monkeypatch, shards):
    ledger_trace, ledger_drivers = ledger
    scheduler = _sync_scheduler(shards)
    driver = ledger_drivers.SyncDriver(scheduler, profiles=[], clients=1)
    names = _install_recording(ledger_trace, monkeypatch, scheduler, driver=driver)
    assert ("DeclarativeScheduler", "step") in names
    assert ("PendingStore", "remove") in names


def test_served_graph_has_every_wrapped_name(ledger, monkeypatch):
    ledger_trace, __ = ledger
    service = api.open_service("ss2pl", "compiled-delta", check_invariants=True)
    names = _install_recording(
        ledger_trace, monkeypatch, service.scheduler, service=service
    )
    assert ("SchedulerService", "await_grant") in names


def test_maintenance_stats_carry_what_the_ledger_reads(ledger):
    ledger_trace, __ = ledger
    scheduler = _sync_scheduler()
    scheduler.submit(Request(1, 1, 0, Operation.WRITE, 7))
    scheduler.step(0.0)
    stats = scheduler.protocol.maintenance_stats()
    scheduler.protocol.reset()
    assert set(ledger_trace._MAINTENANCE_KEYS) <= set(stats)
    assert stats["steps"] == 1 and stats["operator_s"]
    labels = {node.label for node in delta.DeltaNode.__subclasses__()}
    assert set(stats["operator_s"]) <= set(ledger_trace._OPERATORS) <= labels
