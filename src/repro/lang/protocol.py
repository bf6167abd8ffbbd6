"""Protocol adapter: run a compiled SDL spec as a scheduler protocol."""

from __future__ import annotations

from repro.backends.datalog import evaluate_rules
from repro.lang.compiler import compile_spec
from repro.lang.parser import parse_sdl
from repro.model.request import Request
from repro.protocols.base import (
    Capabilities,
    Protocol,
    ProtocolDecision,
)
from repro.relalg.table import Table

#: SS2PL in SDL — the succinctness headline (compare LISTING1_SQL).
SDL_SS2PL = """\
protocol ss2pl {
    deny any   when write_locked_by_other;
    deny write when read_locked_by_other;
    deny any   when batch_conflict;
}
"""

#: Read committed in SDL.
SDL_READ_COMMITTED = """\
protocol read_committed {
    deny write when write_locked_by_other;
    deny write when batch_write_conflict;
}
"""


class SDLProtocol(Protocol):
    """A protocol defined by SDL source text.

    >>> p = SDLProtocol(SDL_SS2PL)
    >>> p.name
    'sdl:ss2pl'
    """

    capabilities = Capabilities(
        performance=True, qos=True, declarative=True, flexible=True,
        high_scalability=True,
    )

    def __init__(self, source: str) -> None:
        self.spec = parse_sdl(source)
        self._program, self.compiled_datalog = compile_spec(self.spec)
        self.name = f"sdl:{self.spec.name}"
        self.description = f"SDL protocol {self.spec.name}"
        self.declarative_source = source

    def schedule(self, requests: Table, history: Table) -> ProtocolDecision:
        decision, __ = evaluate_rules(
            self._program, requests, history, Request.from_row,
            "denied by SDL rule",
        )
        decision.qualified = self._apply_order(decision.qualified, requests)
        return decision

    def _apply_order(
        self, qualified: list[Request], requests: Table
    ) -> list[Request]:
        order = self.spec.order
        if order is None or order.key == "arrival":
            ordered = sorted(qualified, key=lambda r: r.id)
            if order is not None and order.descending:
                ordered.reverse()
            return ordered
        attrs_by_id = getattr(requests, "attrs_by_id", {})

        def attr_key(request: Request):
            attrs = attrs_by_id.get(request.id, request.attrs)
            if order.key == "priority":
                return (attrs.priority, request.id)
            if order.key == "deadline":
                deadline = (
                    attrs.deadline if attrs.deadline is not None else float("inf")
                )
                return (deadline, request.id)
            return (request.ta, request.intrata)

        return sorted(qualified, key=attr_key, reverse=order.descending)
