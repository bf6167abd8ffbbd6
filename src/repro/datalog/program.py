"""Program-level validation: safety and stratification.

*Safety*: every variable appearing in a rule head, a negated literal or a
comparison must also appear in some positive body literal — otherwise the
rule would denote an infinite relation.

*Stratification*: negation and aggregation must not occur inside a
recursive cycle.  We build the predicate dependency graph, mark edges
through ``not`` (and through aggregate heads) as negative, reject
programs with a negative edge inside a strongly connected component, and
otherwise emit strata in evaluation order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.datalog.ast import Aggregate, Atom, Comparison, Literal, Rule, Var


class SafetyError(Exception):
    """A rule uses a variable not bound by any positive literal."""


class StratificationError(Exception):
    """Negation/aggregation through recursion — no stratification exists."""


def check_rule_safety(rule: Rule) -> None:
    bound: set[Var] = set()
    for literal in rule.positive_literals:
        bound |= literal.variables
    head_vars = {
        t for t in rule.head.terms if isinstance(t, Var) and not t.is_anonymous
    }
    head_vars |= {
        agg.var for agg in rule.head.aggregates if not agg.var.is_anonymous
    }
    unbound_head = head_vars - bound
    if unbound_head:
        raise SafetyError(
            f"head variables {sorted(v.name for v in unbound_head)} of rule "
            f"{rule} are not bound by any positive body literal"
        )
    for literal in rule.negative_literals:
        unbound = literal.variables - bound
        if unbound:
            raise SafetyError(
                f"negated literal {literal} in rule {rule} uses unbound "
                f"variables {sorted(v.name for v in unbound)}"
            )
    for comparison in rule.comparisons:
        unbound = comparison.variables - bound
        if unbound:
            raise SafetyError(
                f"comparison {comparison} in rule {rule} uses unbound "
                f"variables {sorted(v.name for v in unbound)}"
            )
    # Aggregates may only appear in heads; Atom construction in bodies
    # goes through term() which cannot produce Aggregate, but programs
    # can also be built programmatically — check defensively.
    for literal in rule.positive_literals + rule.negative_literals:
        if any(isinstance(t, Aggregate) for t in literal.atom.terms):
            raise SafetyError(f"aggregate term in body literal {literal}")


class Program:
    """A validated, stratified Datalog program.

    >>> p = Program.parse('''
    ...     finished(Ta) :- history(_, Ta, _, "c", _).
    ...     active(Ta)   :- history(_, Ta, _, _, _), not finished(Ta).
    ... ''')
    >>> [sorted(s) for s in p.strata]
    [['finished'], ['active']]
    """

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules = list(rules)
        for rule in self.rules:
            check_rule_safety(rule)
        self.idb: set[str] = {rule.head.pred for rule in self.rules}
        self.strata: list[set[str]] = self._stratify()

    @classmethod
    def parse(cls, source: str) -> "Program":
        from repro.datalog.parser import parse_program

        return cls(parse_program(source))

    def rules_for(self, preds: Iterable[str]) -> list[Rule]:
        wanted = set(preds)
        return [rule for rule in self.rules if rule.head.pred in wanted]

    @property
    def edb_predicates(self) -> set[str]:
        """Predicates referenced in bodies but never defined by a rule —
        these must be supplied as extensional facts."""
        referenced: set[str] = set()
        for rule in self.rules:
            for item in rule.body:
                if isinstance(item, Literal):
                    referenced.add(item.atom.pred)
        return referenced - self.idb

    def _stratify(self) -> list[set[str]]:
        # Imported where a graph is built: networkx is ~20 MB resident
        # and only programs that are stratified pay for it.
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.idb)
        negative_edges: set[tuple[str, str]] = set()
        for rule in self.rules:
            head = rule.head.pred
            # A rule with head aggregates depends on its entire body as if
            # negatively: the aggregate needs the body relation complete.
            aggregating = rule.has_aggregates
            for item in rule.body:
                if not isinstance(item, Literal):
                    continue
                dep = item.atom.pred
                if dep not in self.idb:
                    continue
                graph.add_edge(dep, head)
                if item.negated or aggregating:
                    negative_edges.add((dep, head))
        # Reject negative edges within a strongly connected component.
        for component in nx.strongly_connected_components(graph):
            if len(component) == 1:
                node = next(iter(component))
                if (node, node) in negative_edges:
                    raise StratificationError(
                        f"predicate {node!r} depends negatively on itself"
                    )
                continue
            for dep, head in negative_edges:
                if dep in component and head in component:
                    raise StratificationError(
                        f"negation/aggregation inside recursive component "
                        f"{sorted(component)} (edge {dep} -> {head})"
                    )
        # Build the condensation and emit strata in topological order,
        # greedily merging components connected only by positive edges.
        condensation = nx.condensation(graph)
        order = list(nx.topological_sort(condensation))
        stratum_of: dict[str, int] = {}
        current = 0
        for comp_id in order:
            members = condensation.nodes[comp_id]["members"]
            level = 0
            for member in members:
                for dep, __head in (
                    (d, h) for d, h in graph.in_edges(member)
                ):
                    if dep in stratum_of:
                        dep_level = stratum_of[dep]
                        negative = (dep, member) in negative_edges
                        required = dep_level + 1 if negative else dep_level
                        level = max(level, required)
            for member in members:
                stratum_of[member] = level
            current = max(current, level)
        strata: list[set[str]] = [set() for __ in range(current + 1)]
        for pred, level in stratum_of.items():
            strata[level].add(pred)
        return [s for s in strata if s]

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)
