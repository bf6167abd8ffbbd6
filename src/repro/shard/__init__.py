"""Sharded multi-scheduler scale-out (ROADMAP item 3).

Partitions the request stream by object-id hash into N independent
:class:`~repro.core.scheduler.DeclarativeScheduler` shards behind a
facade that still looks like one scheduler — see
:mod:`repro.shard.scheduler` for the two-phase reserve/commit design and
:mod:`repro.shard.partition` for the ownership map.  Build one through
``repro.api.make_scheduler(..., shards=N)`` or serve traffic with
``repro.api.open_service(..., shards=N)`` / ``repro serve --shards N``.
"""

from repro.shard.partition import HashPartitioner, shard_of_object
from repro.shard.scheduler import CrossShardPolicy, ShardedScheduler

__all__ = [
    "CrossShardPolicy",
    "HashPartitioner",
    "ShardedScheduler",
    "shard_of_object",
]
