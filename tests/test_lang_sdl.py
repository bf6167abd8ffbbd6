"""SDL: parser, compiler, and protocol semantics."""

import random

import pytest

import repro.api as api
from repro.lang.ast import Condition, DenyRule, OrderBy
from repro.lang.compiler import compile_spec
from repro.lang.parser import SDLSyntaxError, parse_sdl
from repro.lang.protocol import SDL_READ_COMMITTED, SDL_SS2PL, SDLProtocol

from tests.conftest import random_scheduling_instance


class TestParser:
    def test_ss2pl_spec_parses(self):
        spec = parse_sdl(SDL_SS2PL)
        assert spec.name == "ss2pl"
        assert len(spec.rules) == 3
        assert spec.rules[0] == DenyRule(
            "any", [Condition("write_locked_by_other")]
        )

    def test_order_clause(self):
        spec = parse_sdl(
            "protocol p { deny any when batch_conflict; order by priority desc; }"
        )
        assert spec.order == OrderBy("priority", descending=True)

    def test_condition_argument(self):
        spec = parse_sdl(
            "protocol p { deny write when uncommitted_writers_at_least(5); }"
        )
        assert spec.rules[0].conditions[0].argument == 5

    def test_and_chains_conditions(self):
        spec = parse_sdl(
            "protocol p { deny write when write_locked_by_other and "
            "batch_write_conflict; }"
        )
        assert len(spec.rules[0].conditions) == 2

    def test_comments_ignored(self):
        spec = parse_sdl(
            """
            protocol p {
                // a comment
                deny any when batch_conflict;  # trailing comment
            }
            """
        )
        assert len(spec.rules) == 1

    def test_unknown_condition_rejected(self):
        with pytest.raises(SDLSyntaxError, match="unknown condition"):
            parse_sdl("protocol p { deny any when made_up_thing; }")

    def test_unknown_scope_rejected(self):
        with pytest.raises(SDLSyntaxError, match="unknown scope"):
            parse_sdl("protocol p { deny everything when batch_conflict; }")

    def test_missing_semicolon(self):
        with pytest.raises(SDLSyntaxError):
            parse_sdl("protocol p { deny any when batch_conflict }")

    def test_duplicate_order_rejected(self):
        with pytest.raises(SDLSyntaxError, match="duplicate order"):
            parse_sdl(
                "protocol p { order by arrival; order by priority; "
                "deny any when batch_conflict; }"
            )

    def test_argument_required_for_threshold_condition(self):
        with pytest.raises(SDLSyntaxError, match="requires an integer"):
            parse_sdl("protocol p { deny write when uncommitted_writers_at_least; }")

    def test_spec_str_reparses(self):
        spec = parse_sdl(SDL_SS2PL)
        assert parse_sdl(str(spec)) == spec


class TestCompiler:
    def test_emits_only_needed_preamble(self):
        spec = parse_sdl("protocol p { deny write when batch_write_conflict; }")
        __, source = compile_spec(spec)
        assert "wlocked" not in source
        assert "denied" in source

    def test_scope_restricts_operation(self):
        spec = parse_sdl("protocol p { deny write when write_locked_by_other; }")
        __, source = compile_spec(spec)
        assert 'Op = "w"' in source

    def test_empty_protocol_admits_everything(self):
        spec = parse_sdl("protocol open { }")
        program, source = compile_spec(spec)
        assert "denied" not in source
        assert program.rules[-1].head.pred == "qualified"

    def test_threshold_condition_compiles_aggregate(self):
        spec = parse_sdl(
            "protocol p { deny write when uncommitted_writers_at_least(3); }"
        )
        __, source = compile_spec(spec)
        assert "wcount" in source and "N >= 3" in source


class TestProtocolEquivalence:
    def test_sdl_ss2pl_equals_listing1(self, rng):
        reference = api.make_protocol("ss2pl-listing1")
        sdl = SDLProtocol(SDL_SS2PL)
        for __ in range(25):
            requests, history = random_scheduling_instance(rng)
            expected = sorted(r.id for r in reference.schedule(requests, history).qualified)
            actual = sorted(r.id for r in sdl.schedule(requests, history).qualified)
            assert actual == expected

    def test_sdl_read_committed_equals_datalog_variant(self, rng):
        reference = api.make_protocol("read-committed", "datalog")
        sdl = SDLProtocol(SDL_READ_COMMITTED)
        for __ in range(25):
            requests, history = random_scheduling_instance(rng)
            expected = sorted(r.id for r in reference.schedule(requests, history).qualified)
            actual = sorted(r.id for r in sdl.schedule(requests, history).qualified)
            assert actual == expected

    def test_denials_reported(self, rng):
        sdl = SDLProtocol(SDL_SS2PL)
        requests, history = random_scheduling_instance(
            rng, pending=20, history_transactions=15, objects=5
        )
        decision = sdl.schedule(requests, history)
        qualified_ids = {r.id for r in decision.qualified}
        assert set(decision.denials).isdisjoint(qualified_ids)
        assert len(qualified_ids) + len(decision.denials) == len(requests)


class TestOrdering:
    def test_order_by_priority(self):
        from repro.core.stores import PendingStore
        from repro.model.request import Operation, Request, RequestAttributes

        store = PendingStore()
        low = Request(
            1, 1, 0, Operation.READ, 5,
            attrs=RequestAttributes(priority=1),
        )
        high = Request(
            2, 2, 0, Operation.READ, 6,
            attrs=RequestAttributes(priority=9),
        )
        store.insert_batch([low, high])
        protocol = SDLProtocol(
            "protocol p { deny any when batch_conflict; order by priority desc; }"
        )
        decision = protocol.schedule(store.table, PendingStore().table)
        assert [r.id for r in decision.qualified] == [2, 1]
