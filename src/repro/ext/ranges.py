"""Key-range request scheduling (paper Section 5 / reference [17]).

A :class:`RangeRequest` touches the closed key interval ``[lo, hi]``
instead of a single object.  Two range accesses conflict when their
intervals overlap and at least one writes — so the declarative SS2PL
rule is Listing 1's with the object-equality join replaced by two
comparisons (``Lo1 <= Hi2 AND Lo2 <= Hi1``).  The schema extends the
paper's Table 2 by splitting ``Object`` into ``lo``/``hi``; a
single-object request is the degenerate ``lo == hi`` case, and on such
workloads the range protocol provably coincides with Listing 1 (tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.backends.datalog import evaluate_rules
from repro.datalog.program import Program
from repro.model.request import Operation
from repro.protocols.base import Capabilities, Protocol, ProtocolDecision
from repro.relalg.table import Table

#: Extended Table 2 schema for range requests.
RANGE_COLUMNS = ("id", "ta", "intrata", "operation", "lo", "hi")

RANGE_SS2PL_RULES = """\
finished(Ta) :- history(_, Ta, _, "c", _, _).
finished(Ta) :- history(_, Ta, _, "a", _, _).
wlocked(Lo, Hi, Ta) :- history(_, Ta, _, "w", Lo, Hi), not finished(Ta).
rlocked(Lo, Hi, Ta) :- history(_, Ta, _, "r", Lo, Hi), not finished(Ta).
denied(Id) :- requests(Id, Ta, _, _, Lo, Hi),
              wlocked(Lo2, Hi2, Ta2), Ta != Ta2, Lo <= Hi2, Lo2 <= Hi.
denied(Id) :- requests(Id, Ta, _, "w", Lo, Hi),
              rlocked(Lo2, Hi2, Ta2), Ta != Ta2, Lo <= Hi2, Lo2 <= Hi.
denied(Id2) :- requests(Id2, Ta2, _, Op2, Lo2, Hi2),
               requests(_, Ta1, _, Op1, Lo1, Hi1), Ta2 > Ta1,
               conflictops(Op1, Op2), Lo1 <= Hi2, Lo2 <= Hi1.
conflictops("w", "w").
conflictops("w", "r").
conflictops("r", "w").
qualified(Id, Ta, I, Op, Lo, Hi) :- requests(Id, Ta, I, Op, Lo, Hi),
                                    not denied(Id).
"""


@dataclass(frozen=True, slots=True)
class RangeRequest:
    """One range request — a row of the extended schema."""

    id: int
    ta: int
    intrata: int
    operation: Operation
    lo: int = -1
    hi: int = -1

    def __post_init__(self) -> None:
        if self.operation.is_data_access:
            if self.lo < 0 or self.hi < self.lo:
                raise ValueError(
                    f"data access needs a valid range, got [{self.lo}, {self.hi}]"
                )

    @property
    def is_write(self) -> bool:
        return self.operation is Operation.WRITE

    def overlaps(self, other: "RangeRequest") -> bool:
        if not (self.operation.is_data_access and other.operation.is_data_access):
            return False
        return self.lo <= other.hi and other.lo <= self.hi

    def conflicts_with(self, other: "RangeRequest") -> bool:
        if self.ta == other.ta or not self.overlaps(other):
            return False
        return self.is_write or other.is_write

    def as_row(self) -> tuple:
        return (
            self.id, self.ta, self.intrata, self.operation.value,
            self.lo, self.hi,
        )

    @classmethod
    def from_row(cls, row: Sequence) -> "RangeRequest":
        rid, ta, intrata, op, lo, hi = row[:6]
        return cls(
            int(rid), int(ta), int(intrata),
            Operation.from_code(str(op)), int(lo), int(hi),
        )

    def __str__(self) -> str:
        code = self.operation.value
        if self.operation.is_data_access:
            return f"{code}{self.ta}[{self.lo}..{self.hi}]"
        return f"{code}{self.ta}"


def make_range_tables() -> tuple[Table, Table]:
    """Fresh (requests, history) tables in the extended schema."""
    return (
        Table("requests", list(RANGE_COLUMNS)),
        Table("history", list(RANGE_COLUMNS)),
    )


class RangeSS2PLProtocol(Protocol):
    """SS2PL over key-range requests, as the Datalog rules above."""

    name = "ss2pl-ranges"
    description = "SS2PL for key-range statements (interval overlap locks)"
    capabilities = Capabilities(
        performance=True, qos=True, declarative=True, flexible=True,
        high_scalability=True,
    )
    declarative_source = RANGE_SS2PL_RULES

    def __init__(self) -> None:
        self._program = Program.parse(RANGE_SS2PL_RULES)

    def schedule(self, requests: Table, history: Table) -> ProtocolDecision:
        decision, __ = evaluate_rules(
            self._program, requests, history, RangeRequest.from_row,
            "range conflict",
        )
        return decision


def brute_force_qualified(
    pending: Iterable[RangeRequest], executed: Iterable[RangeRequest]
) -> list[int]:
    """Reference implementation for tests: ids of pending requests an
    SS2PL range scheduler may admit, by direct rule application."""
    executed = list(executed)
    finished = {
        r.ta for r in executed if r.operation.is_termination
    }
    active = [r for r in executed if r.ta not in finished]
    pending = sorted(pending, key=lambda r: (r.ta, r.intrata))
    qualified: list[int] = []
    for request in pending:
        if not request.operation.is_data_access:
            qualified.append(request.id)
            continue
        blocked = any(
            held.operation.is_data_access
            and request.conflicts_with(held)
            and (held.is_write or request.is_write)
            for held in active
        )
        if not blocked:
            # Intra-batch: any earlier-TA pending request that conflicts.
            blocked = any(
                other.ta < request.ta and request.conflicts_with(other)
                for other in pending
                if other.operation.is_data_access
            )
        if not blocked:
            qualified.append(request.id)
    return sorted(qualified)
