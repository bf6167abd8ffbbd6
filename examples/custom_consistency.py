#!/usr/bin/env python3
"""Application-specific consistency: a ticket shop with bounded oversell.

The paper's Section 2 argues hotel/flight reservation systems and web
shops need *application-specific* consistency rather than full ACID.
Here a ticket shop allows at most 3 concurrent uncommitted reservations
per event (overbooking allowance) — one declarative rule, not a custom
scheduler.  We submit a burst of reservations against two hot events
and watch the protocol throttle exactly the overfull one.

Run:  python examples/custom_consistency.py
"""

import repro.api as api
from repro import SchedulerConfig
from repro.model.request import Operation, Request
from repro.protocols import make_bounded_oversell_spec

EVENT_ROCK_CONCERT = 1
EVENT_POETRY_NIGHT = 2


def reservation(request_id: int, ta: int, event: int) -> Request:
    return Request(request_id, ta, 0, Operation.WRITE, event)


def main() -> None:
    protocol = api.make_protocol(make_bounded_oversell_spec(allowance=3))
    print("protocol rules:\n" + protocol.declarative_source)

    # Custom protocol instances route through the same public surface
    # as registry names.
    scheduler = api.make_scheduler(
        protocol, config=SchedulerConfig(prune_history=False)
    )

    # 6 customers race for the rock concert, 2 for poetry night.
    rid = 1
    for ta in range(1, 7):
        scheduler.submit(reservation(rid, ta, EVENT_ROCK_CONCERT))
        rid += 1
    for ta in range(7, 9):
        scheduler.submit(reservation(rid, ta, EVENT_POETRY_NIGHT))
        rid += 1

    first = scheduler.step()
    granted = [r.ta for r in first.qualified if r.obj == EVENT_ROCK_CONCERT]
    print(f"\nburst of 6 rock-concert reservations -> granted now: {granted}")
    assert len(granted) == 3, "allowance of 3 must cap the burst"
    print(f"denied (queued for later): {sorted(first.denials)}")
    print(
        "poetry night unaffected: "
        f"{[r.ta for r in first.qualified if r.obj == EVENT_POETRY_NIGHT]}"
    )

    # One rock-concert holder commits; once the commit has executed, a
    # seat frees up for the queued reservations in the following round.
    committed = granted[0]
    scheduler.submit(Request(rid, committed, 1, Operation.COMMIT))
    scheduler.step()  # the commit itself executes in this round
    third = scheduler.step()
    newly = [
        r.ta
        for r in third.qualified
        if r.obj == EVENT_ROCK_CONCERT and r.operation is Operation.WRITE
    ]
    print(f"\nafter customer {committed} commits -> newly granted: {newly}")
    assert len(newly) == 1
    print(
        "\nthe oversell bound held throughout: never more than 3 "
        "uncommitted reservations per event, from one aggregate rule."
    )


if __name__ == "__main__":
    main()
