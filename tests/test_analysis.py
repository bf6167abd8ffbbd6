"""The static analyzer: inference, lowerability, spec checks, repo lint.

Three layers of coverage:

* **property tests** (hypothesis) — randomized relalg trees assert that
  (a) schema/type inference reproduces the executor's own
  ``output_schema()`` with zero findings on well-formed plans, and
  (b) the delta lowering refuses exactly the generated plans that
  contain a refusable construct (a ``LIMIT``, a key-less outer join),
  each with its own rule, and lowers every other one;
* **per-rule fixtures** — one positive (finding fires) and one negative
  (it does not) case for every rule in the catalogue;
* **the live registry and CLI** — ``check_registry()`` and
  ``repro analyze --strict`` are clean on the shipped repo, which is
  the CI gate's contract.
"""

from __future__ import annotations

import json
import random
import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AnalysisReport,
    RULES,
    check_registry,
    check_spec,
    explain_refusal,
    infer_plan,
    lint_source,
    predict_delta_lowerability,
    predict_plan_lowerability,
    run_analysis,
)
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.inference import TABLE2_TYPES
from repro.core.stores import REQUEST_COLUMNS
from repro.protocols.spec import NO_LOCKS, SS2PL_LOCKS, ProtocolSpec
from repro.relalg.expressions import col, lit
from repro.relalg.query import PlanNode, Query, SetOpNode
from repro.relalg.schema import Column, Schema
from repro.relalg.table import Table


def _tables() -> tuple[Table, Table]:
    return (
        Table("requests", list(REQUEST_COLUMNS)),
        Table("history", list(REQUEST_COLUMNS)),
    )


def _rules_of(findings) -> set[str]:
    return {finding.rule for finding in findings}


# ---------------------------------------------------------------------------
# Randomized plan generator (shared by both property tests).
# ---------------------------------------------------------------------------

_CODES = ("r", "w", "a", "c")


def _random_query(rng: random.Random) -> tuple[Query, set[str]]:
    """A well-formed random plan over the Table 2 stores, plus the
    refusable constructs it contains (``"limit"``, ``"left-theta"``).

    Always type-correct and name-resolvable; may or may not be
    delta-lowerable (LIMIT and key-less outer joins are generated on
    purpose, so the lowerability property exercises both verdicts).
    """
    requests, history = _tables()
    refusable: set[str] = set()
    if rng.random() < 0.5:
        q = Query.from_(requests)
    else:
        left = Query.from_(requests, alias="l")
        right = Query.from_(history, alias="h")
        equi = col("l.object") == col("h.object")
        theta = col("l.id") < col("h.id")
        shape = rng.choice(
            ["inner-equi", "inner-theta", "left-equi", "left-theta",
             "semi", "anti"]
        )
        on = theta if shape.endswith("theta") else equi
        if shape == "left-theta":
            refusable.add(shape)
        if shape.startswith("inner"):
            q = left.join(right, on=on)
        elif shape.startswith("left"):
            q = left.left_join(right, on=on)
        elif shape == "semi":
            q = left.semi_join(right, on=on)
        else:
            q = left.anti_join(right, on=on)
        q = q.select(*[f"l.{name}" for name in REQUEST_COLUMNS])
    columns: dict[str, str] = dict(TABLE2_TYPES)

    fresh = 0
    for __ in range(rng.randrange(5)):
        op = rng.choice(
            ["where", "select", "extend", "distinct", "order_by",
             "limit", "aggregate", "union_all"]
        )
        names = list(columns)
        if op == "where":
            name = rng.choice(names)
            if columns[name] == "str":
                q = q.where(col(name) == lit(rng.choice(_CODES)))
            else:
                q = q.where(col(name) <= lit(rng.randrange(5)))
        elif op == "select":
            keep = sorted(
                rng.sample(names, rng.randrange(1, len(names) + 1)),
                key=names.index,
            )
            q = q.select(*keep)
            columns = {name: columns[name] for name in keep}
        elif op == "extend":
            numeric = [n for n in names if columns[n] == "int"]
            if numeric:
                fresh += 1
                q = q.extend(f"x{fresh}", col(rng.choice(numeric)) + lit(1))
                columns[f"x{fresh}"] = "int"
        elif op == "distinct":
            q = q.distinct()
        elif op == "order_by":
            q = q.order_by(rng.choice(names))
        elif op == "limit":
            q = q.limit(1 + rng.randrange(3))
            refusable.add("limit")
        elif op == "aggregate":
            group = rng.choice(names)
            fresh += 1
            q = q.aggregate([group], [("count", "*", f"agg{fresh}")])
            columns = {group: columns[group], f"agg{fresh}": "int"}
        else:
            q = q.union_all(q)
    return q, refusable


class TestInferenceProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_inference_matches_executor_schema(self, seed):
        q, __ = _random_query(random.Random(seed))
        inference = infer_plan(q.plan)
        assert inference.ok, [d.render() for d in inference.diagnostics]
        assert inference.schema.names == q.plan.output_schema().names
        assert len(inference.typed.types) == inference.schema.arity

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_static_lowerability_agrees_with_dynamic(self, seed):
        # The oracle is the generator, not a second lowering: it knows
        # which refusable constructs it emitted.  Every LIMIT sits above
        # the join, and the walk refuses a LIMIT before descending, so
        # D101 wins when a plan has both.
        q, refusable = _random_query(random.Random(seed))
        prediction = predict_plan_lowerability(q.plan)
        expected = (
            "D101"
            if "limit" in refusable
            else "D102" if "left-theta" in refusable else None
        )
        actual = prediction.refusal.rule if prediction.refusal else None
        assert actual == expected and prediction.lowerable == (
            expected is None
        ), (
            f"expected {expected or 'lowerable'}, got "
            f"{prediction.reason or 'lowerable'} for\n{q.plan.explain()}"
        )
        if expected is not None:
            refusing = prediction.refusal.location.rsplit(" > ", 1)[-1]
            assert refusing.startswith(
                "Limit(" if expected == "D101" else "Join[left]("
            )


# ---------------------------------------------------------------------------
# Spec verifier rules (S0xx).
# ---------------------------------------------------------------------------


class TestSpecRules:
    def test_s001_fires_on_wrong_projection(self):
        spec = ProtocolSpec(
            name="bad-projection",
            sql="SELECT id, ta FROM requests",
        )
        assert "S001" in _rules_of(check_spec(spec))

    def test_s001_silent_on_table2_projection(self):
        spec = ProtocolSpec(
            name="good-projection",
            sql=f"SELECT {', '.join(REQUEST_COLUMNS)} FROM requests",
        )
        assert "S001" not in _rules_of(check_spec(spec))

    def test_s002_fires_on_wrong_arity(self):
        spec = ProtocolSpec(
            name="bad-datalog",
            datalog='qualified(Id, Ta) :- requests(Id, Ta, _, _, _).\n',
        )
        assert "S002" in _rules_of(check_spec(spec))

    def test_s002_silent_on_qualified_slash_5(self):
        spec = ProtocolSpec(
            name="good-datalog",
            datalog=(
                "qualified(Id, Ta, I, Op, Obj) :- "
                "requests(Id, Ta, I, Op, Obj).\n"
            ),
        )
        assert "S002" not in _rules_of(check_spec(spec))

    def test_s003_fires_when_checking_model_tests_no_codes(self):
        spec = ProtocolSpec(
            name="missing-codes",
            sql="SELECT * FROM requests",
            lock_model=SS2PL_LOCKS,
        )
        findings = [f for f in check_spec(spec) if f.rule == "S003"]
        assert findings and "missing" in findings[0].message

    def test_s003_fires_when_no_locks_model_branches_on_codes(self):
        spec = ProtocolSpec(
            name="surplus-codes",
            sql="SELECT * FROM requests WHERE operation = 'w'",
            lock_model=NO_LOCKS,
        )
        assert "S003" in _rules_of(check_spec(spec))

    def test_s003_silent_on_consistent_spec(self):
        spec = ProtocolSpec(
            name="consistent",
            sql="SELECT * FROM requests",
            lock_model=NO_LOCKS,
        )
        assert "S003" not in _rules_of(check_spec(spec))

    def test_s004_fires_on_unknown_column(self):
        requests, __ = _tables()
        plan = Query.from_(requests).where(col("nope") == lit(1)).plan
        inference = infer_plan(plan)
        assert "S004" in _rules_of(inference.diagnostics)
        # The finding names the operator path, not just the column.
        finding = inference.diagnostics[0]
        assert "Filter" in finding.location

    def test_s004_silent_on_resolvable_plan(self):
        requests, __ = _tables()
        plan = Query.from_(requests).where(col("id") >= lit(1)).plan
        assert infer_plan(plan).ok

    def test_s005_fires_on_impossible_comparison(self):
        requests, __ = _tables()
        plan = Query.from_(requests).where(col("operation") == lit(3)).plan
        assert "S005" in _rules_of(infer_plan(plan).diagnostics)

    def test_s005_fires_on_string_arithmetic(self):
        requests, __ = _tables()
        plan = Query.from_(requests).extend(
            "x", col("operation") + lit(1)
        ).plan
        assert "S005" in _rules_of(infer_plan(plan).diagnostics)

    def test_s005_fires_on_disjoint_in_set(self):
        from repro.relalg.expressions import InSet

        requests, __ = _tables()
        plan = Query.from_(requests).where(
            InSet(col("id"), frozenset({"a", "b"}))
        ).plan
        assert "S005" in _rules_of(infer_plan(plan).diagnostics)

    def test_s005_silent_on_typed_comparison(self):
        requests, __ = _tables()
        plan = Query.from_(requests).where(
            col("operation") == lit("w")
        ).plan
        assert infer_plan(plan).ok


# ---------------------------------------------------------------------------
# Delta-lowerability rules (D1xx).
# ---------------------------------------------------------------------------


class TestLowerabilityRules:
    def test_d101_fires_on_limit(self):
        requests, __ = _tables()
        prediction = predict_plan_lowerability(
            Query.from_(requests).limit(3).plan
        )
        assert not prediction.lowerable
        assert prediction.refusal.rule == "D101"
        assert "Limit(3)" in prediction.refusal.location

    def test_d101_silent_without_limit(self):
        requests, __ = _tables()
        assert predict_plan_lowerability(Query.from_(requests).plan).lowerable

    def test_d102_fires_on_keyless_left_join(self):
        requests, history = _tables()
        q = Query.from_(requests, alias="l").left_join(
            Query.from_(history, alias="h"), on=col("l.id") < col("h.id")
        )
        prediction = predict_plan_lowerability(q.plan)
        assert not prediction.lowerable
        assert prediction.refusal.rule == "D102"

    def test_d102_silent_on_equi_left_join(self):
        requests, history = _tables()
        q = Query.from_(requests, alias="l").left_join(
            Query.from_(history, alias="h"),
            on=col("l.object") == col("h.object"),
        )
        assert predict_plan_lowerability(q.plan).lowerable

    def test_d103_fires_on_unknown_operator(self):
        class FakeNode(PlanNode):
            def output_schema(self):
                return Schema([Column("id")])

            def children(self):
                return []

            def _describe(self):
                return "Fake()"

        prediction = predict_plan_lowerability(FakeNode(), optimize=False)
        assert not prediction.lowerable
        assert prediction.refusal.rule == "D103"
        assert "FakeNode" in prediction.refusal.message

    def test_d104_fires_on_unknown_aggregate(self):
        requests, __ = _tables()
        q = Query.from_(requests).aggregate(
            ["ta"], [("median", "id", "m")]
        )
        prediction = predict_plan_lowerability(q.plan, optimize=False)
        assert not prediction.lowerable
        assert prediction.refusal.rule == "D104"

    def test_d104_silent_on_known_aggregate(self):
        requests, __ = _tables()
        q = Query.from_(requests).aggregate(["ta"], [("count", "*", "n")])
        assert predict_plan_lowerability(q.plan).lowerable

    def test_d105_fires_on_arity_mismatch(self):
        requests, __ = _tables()
        node = SetOpNode(
            "union_all",
            Query.from_(requests).select("id").plan,
            Query.from_(requests).select("id", "ta").plan,
        )
        prediction = predict_plan_lowerability(node, optimize=False)
        assert not prediction.lowerable
        assert prediction.refusal.rule == "D105"

    def test_d106_fires_on_unplannable_sql(self):
        spec = ProtocolSpec(name="broken-sql", sql="SELECT FROM nonsense")
        prediction = predict_delta_lowerability(spec)
        assert not prediction.lowerable
        assert prediction.refusal.rule == "D106"

    def test_d106_fires_without_any_query_dialect(self):
        spec = ProtocolSpec(name="no-dialect", lock_model=NO_LOCKS)
        prediction = predict_delta_lowerability(spec)
        assert not prediction.lowerable
        assert prediction.refusal.rule == "D106"
        assert prediction.refusal.subject == "no-dialect"

    def test_explain_refusal_cites_rule_and_path(self):
        spec = ProtocolSpec(
            name="keyless",
            sql=(
                "SELECT r.id, r.ta, r.intrata, r.operation, r.object "
                "FROM requests r LEFT JOIN history h ON r.id < h.id"
            ),
        )
        reason = explain_refusal(spec)
        assert "(D102)" in reason and "keyless/sql" in reason
        assert explain_refusal(
            ProtocolSpec(name="fine", sql="SELECT * FROM requests")
        ) == ""

    def test_d106_names_the_exception_planning_raised(self):
        import pytest

        from repro.backends import BackendError, build_protocol

        spec = ProtocolSpec(
            name="broken-sql", sql="SELECT id FROM no_such_table"
        )
        prediction = predict_delta_lowerability(spec)
        assert not prediction.lowerable
        assert prediction.refusal.rule == "D106"
        assert prediction.refusal.subject == "broken-sql/sql"
        with pytest.raises(BackendError) as refused:
            build_protocol(spec, "compiled-delta")
        text = str(refused.value)
        assert "SqlError" in text and "no_such_table" in text
        assert "(D106)" in text

    def test_d106_carries_the_path_of_a_failed_resolution(self):
        requests, __ = _tables()
        q = Query.from_(requests).where(col("nope") == lit(1)).distinct()
        prediction = predict_plan_lowerability(q.plan, optimize=False)
        assert prediction.refusal.rule == "D106"
        assert "SchemaError" in prediction.refusal.message
        assert prediction.refusal.location.startswith("DistinctNode > Filter(")


# ---------------------------------------------------------------------------
# Plan lints (P2xx).
# ---------------------------------------------------------------------------


class TestPlanLints:
    def test_p201_fires_on_unused_cte(self):
        spec = ProtocolSpec(
            name="dead-cte",
            sql=(
                "WITH dead AS (SELECT id FROM requests) "
                "SELECT id, ta, intrata, operation, object FROM requests"
            ),
        )
        findings = [f for f in check_spec(spec) if f.rule == "P201"]
        assert findings and "'dead'" in findings[0].message

    def test_p201_silent_on_referenced_cte(self):
        spec = ProtocolSpec(
            name="live-cte",
            sql=(
                "WITH live AS (SELECT id, ta, intrata, operation, object "
                "FROM requests) SELECT * FROM live"
            ),
        )
        assert "P201" not in _rules_of(check_spec(spec))

    def test_p202_fires_on_self_comparison(self):
        spec = ProtocolSpec(
            name="dead-filter",
            sql="SELECT * FROM requests WHERE id = id",
        )
        assert "P202" in _rules_of(check_spec(spec))

    def test_p202_fires_on_constant_predicate(self):
        # SQL has no bare TRUE: lint a hand-built constant filter.
        from repro.analysis.speccheck import _lint_dead_filters
        from repro.core.stores import empty_table2_stores

        requests, __ = empty_table2_stores()
        plan = Query.from_(requests).where(lit(True)).plan
        assert "P202" in _rules_of(_lint_dead_filters("const-filter/sql", plan))

    def test_p202_silent_on_live_filter(self):
        spec = ProtocolSpec(
            name="live-filter",
            sql="SELECT * FROM requests WHERE id > 0",
        )
        assert "P202" not in _rules_of(check_spec(spec))

    def test_p203_fires_on_nested_loop_join(self):
        spec = ProtocolSpec(
            name="theta-join",
            sql="SELECT * FROM requests l, history x WHERE l.id < x.id",
        )
        assert "P203" in _rules_of(check_spec(spec))

    def test_p203_silent_on_equi_join(self):
        spec = ProtocolSpec(
            name="equi-join",
            sql=(
                "SELECT * FROM requests l, history x "
                "WHERE l.object = x.object"
            ),
        )
        assert "P203" not in _rules_of(check_spec(spec))


# ---------------------------------------------------------------------------
# Repo determinism lints (R3xx).
# ---------------------------------------------------------------------------


def _lint(source: str, path: str) -> set[str]:
    return _rules_of(lint_source(textwrap.dedent(source), path))


class TestRepoLints:
    def test_r301_fires_on_wall_clock_in_core(self):
        src = '"""m."""\nimport time\n\n\ndef f():\n    return time.time()\n'
        assert "R301" in _lint(src, "repro/sim/clocky.py")

    def test_r301_fires_on_aliased_import(self):
        src = (
            '"""m."""\nimport time as _time\n\n\ndef f():\n'
            "    return _time.time_ns()\n"
        )
        assert "R301" in _lint(src, "repro/core/x.py")

    def test_r301_fires_on_datetime_now(self):
        src = (
            '"""m."""\nfrom datetime import datetime\n\n\ndef f():\n'
            "    return datetime.now()\n"
        )
        assert "R301" in _lint(src, "repro/core/x.py")

    def test_r301_allows_perf_counter_and_other_dirs(self):
        src = '"""m."""\nimport time\n\n\ndef f():\n    return time.perf_counter()\n'
        assert "R301" not in _lint(src, "repro/sim/clocky.py")
        wall = '"""m."""\nimport time\n\n\ndef f():\n    return time.time()\n'
        assert "R301" not in _lint(wall, "repro/bench/x.py")

    def test_r302_fires_on_global_rng_in_core(self):
        src = '"""m."""\nimport random\n\n\ndef f():\n    return random.random()\n'
        assert "R302" in _lint(src, "repro/core/x.py")

    def test_r302_allows_seeded_streams(self):
        src = '"""m."""\nimport random\n\n\ndef f():\n    return random.Random(7)\n'
        assert "R302" not in _lint(src, "repro/core/x.py")

    def test_r303_fires_on_set_iteration(self):
        src = '"""m."""\n\n\ndef f(xs):\n    return [x for x in {1, 2, 3}]\n'
        assert "R303" in _lint(src, "repro/relalg/x.py")

    def test_r303_allows_sorted_sets(self):
        src = '"""m."""\n\n\ndef f(xs):\n    return [x for x in sorted(set(xs))]\n'
        assert "R303" not in _lint(src, "repro/relalg/x.py")

    def test_r304_fires_on_blocking_sleep_in_coroutine(self):
        src = (
            '"""m."""\nimport time\n\n\nasync def f():\n'
            "    time.sleep(1)\n"
        )
        assert "R304" in _lint(src, "repro/serve/x.py")

    def test_r304_silent_in_nested_sync_def(self):
        src = (
            '"""m."""\nimport time\n\n\nasync def f():\n'
            "    def g():\n        time.sleep(1)\n    return g\n"
        )
        assert "R304" not in _lint(src, "repro/serve/x.py")

    def test_r305_fires_without_module_docstring(self):
        assert "R305" in _lint("x = 1\n", "repro/api2.py")
        assert "R305" not in _lint('"""m."""\nx = 1\n', "repro/api2.py")

    def test_r306_fires_on_init_without_all(self):
        src = '"""m."""\nfrom repro.cli import main\n'
        assert "R306" in _lint(src, "repro/fake/__init__.py")
        with_all = src + '\n__all__ = ["main"]\n'
        assert "R306" not in _lint(with_all, "repro/fake/__init__.py")

    def test_suppression_comment_silences_the_named_rule(self):
        src = (
            '"""m."""\n\n\ndef f():\n'
            "    return [x for x in {1, 2}]  # repro: allow[R303]\n"
        )
        assert "R303" not in _lint(src, "repro/core/x.py")
        # The marker only covers the rule it names.
        assert "R303" in _lint(
            src.replace("R303", "R301"), "repro/core/x.py"
        )


# ---------------------------------------------------------------------------
# The shipped repo is clean; report and CLI semantics.
# ---------------------------------------------------------------------------


class TestRepoIsClean:
    def test_registry_has_zero_findings(self):
        assert check_registry() == []

    def test_full_analysis_is_strict_clean(self):
        report = run_analysis()
        assert report.findings == []
        assert report.ok(strict=True)
        assert len(report.matrix) >= 8

    def test_report_severity_partition(self):
        report = AnalysisReport(
            findings=[
                Diagnostic("S001", "a", "m1"),
                Diagnostic("P201", "b", "m2"),
            ]
        )
        assert not report.ok(strict=False)  # S001 is an error
        warn_only = AnalysisReport(findings=[Diagnostic("P201", "b", "m")])
        assert warn_only.ok(strict=False)
        assert not warn_only.ok(strict=True)
        payload = report.as_dict()
        assert payload["errors"] == 1 and payload["warnings"] == 1

    def test_api_analyze_passthrough(self):
        import repro.api as api

        report = api.analyze(repo=False)
        assert report.ok(strict=True)
        assert report.matrix

    def test_every_rule_has_catalogue_metadata(self):
        for rule, (severity, title) in RULES.items():
            assert severity in ("error", "warning", "info")
            assert title


class TestAnalyzeCli:
    def test_analyze_strict_exits_zero_on_repo(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.json"
        assert main(["analyze", "--strict", "--json", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in stdout
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["errors"] == 0
        assert "compiled-delta" in payload["matrix"]["ss2pl"]

    def test_analyze_repo_half_alone(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--skip-specs"]) == 0
        assert "matrix" not in capsys.readouterr().out

    def test_analyze_rejects_skipping_everything(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--skip-specs", "--skip-repo"]) == 2
        assert "exclude everything" in capsys.readouterr().err
