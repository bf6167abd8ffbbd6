"""Recovery policy: abort-and-retry semantics for the scheduler.

A :class:`RecoveryPolicy` tells the
:class:`~repro.core.scheduler.DeclarativeScheduler` when to abort a
transaction and its driver how to go on afterwards:

* **Timeout aborts** — a transaction whose request has been pending
  longer than its current timeout is aborted (an ``a`` request is
  synthesized into history, releasing its logical locks).  Each retry
  of the same client widens the timeout by ``backoff_factor``, so a
  repeatedly colliding transaction waits longer before being shot
  again instead of thrashing.
* **Retry budget** — the driver (client) retries an aborted
  transaction at most ``max_retries`` times, with exponentially backed
  off restart delays; after that the work is abandoned (terminal state
  ``aborted``) and the client moves on.
* **Orphan reaping** — a crashed client's granted-but-never-released
  requests are reaped ``orphan_lease`` seconds after the crash: its
  active transactions are aborted so their locks cannot block the rest
  of the system forever.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class RecoveryPolicy:
    """Knobs of the scheduler's abort/retry recovery."""

    #: Base pending-age timeout (seconds) before a transaction is
    #: aborted (the deadlock timeout).
    request_timeout: float = 0.5
    #: Multiplier applied per prior retry of the same client, both to
    #: its timeout and to the driver's restart delay.
    backoff_factor: float = 2.0
    #: Retries of one transaction before the driver abandons it.
    max_retries: int = 3
    #: Cap on the backoff exponent (bounds the widest timeout).
    max_backoff_exponent: int = 4
    #: Seconds after a client crash before its transactions are reaped.
    orphan_lease: float = 0.8
    #: Base driver-side delay before resubmitting after an abort/drop.
    retry_delay: float = 0.05

    def __post_init__(self) -> None:
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.max_backoff_exponent < 0:
            raise ValueError("max_backoff_exponent must be non-negative")
        if self.orphan_lease <= 0:
            raise ValueError("orphan_lease must be positive")
        if self.retry_delay <= 0:
            raise ValueError("retry_delay must be positive")

    def timeout_for(self, retries: int) -> float:
        """Pending-age timeout for a client with *retries* prior aborts."""
        exponent = min(retries, self.max_backoff_exponent)
        return self.request_timeout * self.backoff_factor**exponent

    def restart_delay_for(self, attempt: int, base_delay: float) -> float:
        """Driver-side backoff before retry *attempt* (1-based)."""
        exponent = min(max(attempt - 1, 0), self.max_backoff_exponent)
        return max(base_delay, self.retry_delay) * self.backoff_factor**exponent


#: The closed-loop simulation's default: a fixed deadlock timeout.  A
#: transaction pending longer than 0.5 s (or whose submission is
#: dropped) is aborted, and its client starts a fresh profile after the
#: cost model's ``restart_delay``.
RESTART_ON_TIMEOUT = RecoveryPolicy(backoff_factor=1.0, max_retries=0)
