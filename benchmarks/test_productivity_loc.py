"""E9 — productivity: declarative vs imperative specification size."""

import repro.api as api
from repro.bench.productivity import run_productivity
from repro.baselines.imperative import ImperativeSS2PLScheduler
from repro.bench.productivity import _code_lines
from repro.lang.protocol import SDLProtocol, SDL_SS2PL

from benchmarks.conftest import emit


def test_productivity_report(benchmark):
    report = benchmark.pedantic(run_productivity, rounds=1, iterations=1)
    emit(report)
    assert "SQL (paper Listing 1)" in report
    assert "imperative" in report


def test_declarative_forms_strictly_smaller():
    sql = api.make_protocol("ss2pl-listing1").spec_line_count()
    datalog = api.make_protocol("ss2pl-listing1", "datalog").spec_line_count()
    sdl = SDLProtocol(SDL_SS2PL).spec_line_count()
    imperative = _code_lines(ImperativeSS2PLScheduler)
    # The paper's succinctness ladder: SDL < Datalog < SQL < imperative.
    assert sdl < datalog < sql < imperative
    # And the headline claim: an order of magnitude vs hand-coding.
    assert imperative / sdl >= 10
