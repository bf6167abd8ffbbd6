"""repro — Declarative Scheduling in Highly Scalable Systems.

A complete reproduction of Tilgner's EDBT 2010 workshop paper: a
middleware scheduler programmed with declarative rules, where pending
and historical requests are data and scheduling protocols are queries.

Quickstart
----------
>>> import repro.api as api
>>> from repro import make_transaction
>>> scheduler = api.make_scheduler("ss2pl")
>>> for request in make_transaction(1, [("r", 10), ("w", 10)], start_id=1):
...     scheduler.submit(request)
>>> batch = scheduler.step().qualified
>>> [str(r) for r in batch]
['r1[10]', 'w1[10]', 'c1']

:mod:`repro.api` is the documented construction surface — protocols,
triggers, schedulers, and the asyncio serving layer all build through
it (``api.open_service("ss2pl", "compiled-delta")``); a protocol is a
spec name × a backend name, never a class of its own.

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.api` — the public construction surface
- :mod:`repro.core` — the middleware scheduler (Figure 1)
- :mod:`repro.protocols` — declarative protocols (SS2PL/Listing 1, 2PL
  variants, SLA, relaxed, application-specific, adaptive)
- :mod:`repro.backends` — the execution backends a spec can be
  bound to, over the engines in :mod:`repro.relalg`,
  :mod:`repro.datalog` and :mod:`repro.sqlbridge`; :mod:`repro.lang`
  is the SDL front-end
- :mod:`repro.serve` — the asyncio serving layer (pooled sessions)
- :mod:`repro.shard` — sharded multi-scheduler scale-out
- :mod:`repro.server` — the simulated DBMS with its native scheduler
- :mod:`repro.workload`, :mod:`repro.sim`, :mod:`repro.metrics` —
  workloads, virtual time, measurement
- :mod:`repro.bench` — one experiment module per paper table/figure
"""

from repro.model import (
    Operation,
    Request,
    RequestAttributes,
    Schedule,
    Transaction,
    is_conflict_serializable,
    is_strict,
    make_transaction,
)
from repro.core import (
    DeclarativeScheduler,
    FillLevelTrigger,
    HybridTrigger,
    MiddlewareSimulation,
    PassthroughScheduler,
    SchedulerConfig,
    TimeLapseTrigger,
)
from repro.protocols import (
    AdaptiveConsistencyProtocol,
    EarliestDeadlineFirstProtocol,
    Protocol,
    SLAOrderingProtocol,
)
from repro.lang import SDLProtocol, SDL_SS2PL, SDL_READ_COMMITTED
from repro.server import BatchServer, CostModel, SimulatedDBMS
from repro.workload import PAPER_WORKLOAD, WorkloadSpec
from repro import api

__version__ = "1.0.0"

__all__ = [
    "api",
    "Operation",
    "Request",
    "RequestAttributes",
    "Schedule",
    "Transaction",
    "is_conflict_serializable",
    "is_strict",
    "make_transaction",
    "DeclarativeScheduler",
    "PassthroughScheduler",
    "SchedulerConfig",
    "TimeLapseTrigger",
    "FillLevelTrigger",
    "HybridTrigger",
    "MiddlewareSimulation",
    "Protocol",
    "SLAOrderingProtocol",
    "EarliestDeadlineFirstProtocol",
    "AdaptiveConsistencyProtocol",
    "SDLProtocol",
    "SDL_SS2PL",
    "SDL_READ_COMMITTED",
    "SimulatedDBMS",
    "BatchServer",
    "CostModel",
    "WorkloadSpec",
    "PAPER_WORKLOAD",
    "__version__",
]
