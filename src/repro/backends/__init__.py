"""Pluggable execution backends for declarative protocol specs.

One :class:`~repro.protocols.spec.ProtocolSpec`, many engines — the
registry mirrors the driver-adapter pattern of multi-database query
mappers.  Importing this package registers the built-in backends:

============== ======================================================
interpreted    the spec's SQL on our engine, CTEs materialized eagerly
               and re-planned every step (the paper's naive evaluation)
compiled       the spec's SQL on our engine, compile-once cached
               physical plans
compiled-delta the spec's SQL on our engine, incrementally maintained
               delta plans (O(|delta|)/step)
sqlite         the spec's SQL executed by in-memory sqlite3
datalog        the spec's Datalog rules on the stratified engine
imperative     reference lock-table walk (or the spec's own callable)
incremental    incrementally maintained lock views (O(batch)/step)
============== ======================================================

Use :func:`build_protocol` (or :class:`SpecProtocol` directly) to pair
a registered spec with a backend behind the ordinary
:class:`~repro.protocols.base.Protocol` interface.
"""

from repro.backends.base import (
    BACKEND_REGISTRY,
    BackendError,
    ExecutionBackend,
    SpecEvaluator,
    SpecProtocol,
    backend_names,
    register_backend,
    resolve_backend,
    supported_backends,
)

# Importing the implementations populates the registry.
from repro.backends import relalg as _relalg  # noqa: F401
from repro.backends import delta as _delta  # noqa: F401
from repro.backends import sqlitebridge as _sqlitebridge  # noqa: F401
from repro.backends import datalog as _datalog  # noqa: F401
from repro.backends import imperative as _imperative  # noqa: F401
from repro.backends import incremental as _incremental  # noqa: F401


def build_protocol(
    spec: "str | object",
    backend: "str | None" = None,
    **backend_options,
) -> SpecProtocol:
    """Bind a spec (by name or instance) to a backend (by name).

    Raises :class:`KeyError` for an unknown spec name and
    :class:`BackendError` for an unknown/unsupported backend, each
    naming the valid choices.
    """
    from repro.protocols.spec import ProtocolSpec, get_spec

    if not isinstance(spec, ProtocolSpec):
        spec = get_spec(spec)
    return SpecProtocol(spec, backend=backend, **backend_options)


__all__ = [
    "BACKEND_REGISTRY",
    "BackendError",
    "ExecutionBackend",
    "SpecEvaluator",
    "SpecProtocol",
    "backend_names",
    "build_protocol",
    "register_backend",
    "resolve_backend",
    "supported_backends",
]
