"""E9 — the productivity comparison (Section 3.4's study, measurable part).

The paper planned a user study comparing "function points as well as
lines of code" of declarative vs imperative protocol definitions.  The
study was never run; the measurable artifact is spec size.  This bench
counts non-empty specification lines for every formulation of SS2PL we
ship, plus the imperative baseline's code size, and the same for the
relaxed and application-specific protocols.
"""

from __future__ import annotations

import inspect

import repro.api as api
from repro.baselines.imperative import ImperativeSS2PLScheduler
from repro.lang.protocol import SDLProtocol, SDL_SS2PL, SDL_READ_COMMITTED
from repro.metrics.reporting import render_table
from repro.protocols.library import make_bounded_oversell_spec


def _code_lines(obj) -> int:
    """Logical code lines of an implementation (comments/blank stripped)."""
    source = inspect.getsource(obj)
    count = 0
    in_docstring = False
    for line in source.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        quotes = stripped.count('"""') + stripped.count("'''")
        if in_docstring:
            if quotes:
                in_docstring = False
            continue
        if stripped.startswith(('"""', "'''")):
            if quotes != 2:
                in_docstring = True
            continue
        count += 1
    return count


def run_productivity() -> str:
    ss2pl_rows = [
        (
            "SS2PL",
            "SQL (paper Listing 1)",
            api.make_protocol("ss2pl-listing1").spec_line_count(),
        ),
        (
            "SS2PL",
            "Datalog",
            api.make_protocol("ss2pl-listing1", "datalog").spec_line_count(),
        ),
        ("SS2PL", "SDL (this work's language)", SDLProtocol(SDL_SS2PL).spec_line_count()),
        (
            "SS2PL",
            "imperative Python (hand-coded)",
            _code_lines(ImperativeSS2PLScheduler),
        ),
    ]
    other_rows = [
        (
            "read committed",
            "Datalog",
            api.make_protocol("read-committed", "datalog").spec_line_count(),
        ),
        (
            "read committed",
            "SDL",
            SDLProtocol(SDL_READ_COMMITTED).spec_line_count(),
        ),
        (
            "bounded oversell (app-specific)",
            "Datalog",
            api.make_protocol(make_bounded_oversell_spec(3)).spec_line_count(),
        ),
    ]
    table = render_table(
        ["protocol", "formulation", "spec lines"],
        ss2pl_rows + other_rows,
        title=(
            "Productivity (Section 3.4 stand-in): specification size per "
            "formulation — the declarative forms are a fraction of the "
            "imperative scheduler, and SDL is the most succinct"
        ),
    )
    sdl = ss2pl_rows[2][2]
    imperative = ss2pl_rows[3][2]
    ratio = imperative / sdl if sdl else float("inf")
    return table + (
        f"\n\nSS2PL: imperative/SDL size ratio = {ratio:.1f}x "
        f"({imperative} vs {sdl} lines)"
    )
