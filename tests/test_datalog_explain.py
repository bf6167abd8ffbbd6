"""Derivation explanations (why-provenance)."""

import pytest

from repro.datalog.engine import Database, evaluate
from repro.datalog.explain import Derivation, ExplainError, explain
from repro.datalog.program import Program


def evaluated(source: str, facts: dict[str, list[tuple]]):
    program = Program.parse(source)
    db = Database()
    for pred, rows in facts.items():
        db.add_facts(pred, rows)
    evaluate(program, db)
    return program, db


class TestBasics:
    def test_extensional_fact_is_a_leaf(self):
        program, db = evaluated("p(X) :- q(X).", {"q": [(1,)]})
        node = explain(program, db, "q", (1,))
        assert node.is_extensional
        assert "[given]" in node.format()

    def test_single_rule_derivation(self):
        program, db = evaluated("p(X) :- q(X).", {"q": [(1,)]})
        node = explain(program, db, "p", (1,))
        assert node.rule is not None
        assert len(node.children) == 1
        assert node.children[0].pred == "q"

    def test_missing_fact_rejected(self):
        program, db = evaluated("p(X) :- q(X).", {"q": [(1,)]})
        with pytest.raises(ExplainError):
            explain(program, db, "p", (99,))

    def test_join_derivation_lists_both_facts(self):
        program, db = evaluated(
            "gp(X, Z) :- parent(X, Y), parent(Y, Z).",
            {"parent": [("a", "b"), ("b", "c")]},
        )
        node = explain(program, db, "gp", ("a", "c"))
        facts = {(c.pred, c.fact) for c in node.children}
        assert facts == {("parent", ("a", "b")), ("parent", ("b", "c"))}

    def test_recursive_derivation(self):
        program, db = evaluated(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            """,
            {"edge": [(1, 2), (2, 3)]},
        )
        node = explain(program, db, "path", (1, 3))
        rendered = node.format()
        assert "path(1, 3)" in rendered
        assert "edge" in rendered

    def test_negation_recorded_as_absence(self):
        program, db = evaluated(
            "orphan(X) :- node(X), not parent(_, X).",
            {"node": [(1,), (2,)], "parent": [(1, 2)]},
        )
        node = explain(program, db, "orphan", (1,))
        assert any("parent" in note for note in node.absent)

    def test_comparisons_recorded(self):
        program, db = evaluated(
            "big(X) :- val(X, V), V > 10.", {"val": [(1, 11)]}
        )
        node = explain(program, db, "big", (1,))
        assert any(">" in check for check in node.checks)

    def test_anonymous_variables_in_positive_body(self):
        program, db = evaluated(
            'finished(Ta) :- history(_, Ta, _, "c", _).',
            {"history": [(9, 7, 3, "c", -1)]},
        )
        node = explain(program, db, "finished", (7,))
        assert node.children[0].fact == (9, 7, 3, "c", -1)

    def test_aggregate_derivation_cites_contributors(self):
        program, db = evaluated(
            "n(G, count(X)) :- item(G, X).",
            {"item": [("a", 1), ("a", 2)]},
        )
        node = explain(program, db, "n", ("a", 2))
        assert node.rule is not None
        assert len(node.children) >= 1


class TestSchedulingDenials:
    def test_explaining_a_denial(self):
        """The operator-facing use case: why was request 4 denied?"""
        from repro.protocols.library import SS2PL_DATALOG_RULES

        program = Program.parse(SS2PL_DATALOG_RULES)
        db = Database()
        db.add_facts("history", [(1, 1, 0, "w", 5)])
        db.add_facts("requests", [(4, 2, 0, "r", 5)])
        evaluate(program, db)
        node = explain(program, db, "denied", (4,))
        rendered = node.format()
        assert "wlocked" in rendered
        assert "(1, 1, 0, 'w', 5)" in rendered  # the lock-holding write
        assert "no fact finished" in rendered  # the holder is active

    def test_str_is_format(self):
        program, db = evaluated("p(X) :- q(X).", {"q": [(1,)]})
        node = explain(program, db, "p", (1,))
        assert str(node) == node.format()
