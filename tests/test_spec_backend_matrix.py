"""The protocol × backend matrix: one spec, every engine, same batches.

The specification/execution split's core contract: a registered
:class:`~repro.protocols.spec.ProtocolSpec` must produce byte-identical
batch sequences on every backend that declares support for it, and a
backend that does *not* declare support must refuse to lower the spec
(no silent wrong answers).  The randomized sweep drives the live
scheduler — so stateful backends (incremental view maintenance) are
exercised through the observe hooks exactly as in production — over the
same 50-workload distribution as the plan-compilation equivalence test,
rotating specs so every supported (spec, backend) pairing is driven
several times.
"""

import random

import pytest

from repro.backends import (
    BACKEND_REGISTRY,
    BackendError,
    build_protocol,
    supported_backends,
)
from repro.bench.incremental_ablation import drive_steps
from repro.protocols.spec import SPEC_REGISTRY, spec_names

from tests.conftest import random_scheduling_instance

ALL_SPECS = spec_names()
ALL_BACKENDS = sorted(BACKEND_REGISTRY)


class TestDeclaredSupportIsExact:
    """The skip list is exactly what the backends declare."""

    @pytest.mark.parametrize("spec_name", ALL_SPECS)
    def test_every_backend_either_lowers_or_refuses(self, spec_name):
        spec = SPEC_REGISTRY[spec_name]
        declared = set(supported_backends(spec))
        actually_lowered = set()
        for backend_name in ALL_BACKENDS:
            try:
                build_protocol(spec_name, backend_name)
            except BackendError:
                continue
            actually_lowered.add(backend_name)
        assert actually_lowered == declared, (
            f"{spec_name}: declared support {sorted(declared)} != "
            f"lowerable {sorted(actually_lowered)}"
        )

    def test_compiled_delta_support_is_pinned(self):
        # One lowering answers both supports() and the analyzer, so
        # agreement between them proves nothing; what must not move
        # silently is *which* specs lower.  A lowering regression that
        # drops a spec, or a new spec landing in the wrong bucket,
        # fails here by name.
        from repro.analysis import explain_refusal, predict_delta_lowerability

        lowered = {
            name
            for name in ALL_SPECS
            if "compiled-delta" in supported_backends(SPEC_REGISTRY[name])
        }
        assert lowered == {
            "exclusive",
            "fcfs",
            "priority-ceiling",
            "read-committed",
            "ss2pl",
            "ss2pl-listing1",
        }
        assert set(ALL_SPECS) - lowered == {"bounded-oversell", "c2pl"}
        for name in ("bounded-oversell", "c2pl"):
            spec = SPEC_REGISTRY[name]
            assert predict_delta_lowerability(spec).refusal.rule == "D106"
            assert "(D106)" in explain_refusal(spec)

    def test_matrix_is_wide(self):
        # The refactor's acceptance floor: >= 8 specs, and the flagship
        # specs run on >= 4 backends each.
        assert len(ALL_SPECS) >= 8
        wide = [
            name
            for name in ALL_SPECS
            if len(supported_backends(SPEC_REGISTRY[name])) >= 4
        ]
        assert len(wide) >= 6, f"only {wide} run on >= 4 backends"

    def test_unknown_backend_error_names_choices(self):
        with pytest.raises(BackendError, match="valid backends"):
            build_protocol("ss2pl", "no-such-backend")

    def test_unknown_spec_error_names_choices(self):
        with pytest.raises(KeyError, match="registered"):
            build_protocol("no-such-spec", "compiled")


class TestMatrixEquivalence:
    """Byte-identical batch sequences across the full matrix."""

    def test_fifty_random_workloads_sweep_matrix(self):
        rng = random.Random(2026)
        for trial in range(50):
            clients = rng.randrange(3, 10)
            steps = rng.randrange(4, 9)
            ops_per_txn = rng.randrange(2, 6)
            table_rows = rng.choice([4, 10, 50])
            seed = rng.randrange(10_000)
            kwargs = dict(
                clients=clients,
                steps=steps,
                ops_per_txn=ops_per_txn,
                table_rows=table_rows,
                seed=seed,
            )
            spec_name = ALL_SPECS[trial % len(ALL_SPECS)]
            backends = supported_backends(SPEC_REGISTRY[spec_name])
            assert backends, f"{spec_name} runs nowhere"
            reference = None
            reference_backend = None
            for backend_name in backends:
                result = drive_steps(
                    build_protocol(spec_name, backend_name), **kwargs
                )
                if reference is None:
                    reference = result.batches
                    reference_backend = backend_name
                else:
                    assert result.batches == reference, (
                        f"trial {trial}: {spec_name} on {backend_name} "
                        f"diverged from {reference_backend} ({kwargs})"
                    )

    @pytest.mark.parametrize("spec_name", ALL_SPECS)
    def test_one_shot_agreement_per_spec(self, spec_name):
        """Static (requests, history) instances: every backend's
        qualified id set matches, with stateful evaluators resynced the
        documented way."""
        backends = supported_backends(SPEC_REGISTRY[spec_name])
        rng = random.Random(hash(spec_name) % 100_000)
        for __ in range(10):
            requests, history = random_scheduling_instance(
                rng,
                pending=rng.randint(1, 20),
                history_transactions=rng.randint(1, 12),
                objects=rng.randint(4, 30),
                pending_ops_per_txn=rng.choice([1, 2, 3]),
            )
            reference = None
            for backend_name in backends:
                protocol = build_protocol(spec_name, backend_name)
                evaluator = protocol.evaluator
                if hasattr(evaluator, "resync"):
                    evaluator.resync(history)
                ids = [
                    r.id
                    for r in protocol.schedule(requests, history).qualified
                ]
                if reference is None:
                    reference = ids
                else:
                    assert ids == reference, (
                        f"{spec_name} on {backend_name}: {ids} != {reference}"
                    )
