"""A from-scratch relational algebra engine.

The paper proposes "to employ database query processing techniques to
produce high-quality schedules" (abstract).  Its experiments run the
SS2PL scheduling rule of Listing 1 as a SQL query on a commercial DBMS.
This package is our query processor: a small but complete relational
engine with

* :class:`~repro.relalg.schema.Schema` / :class:`~repro.relalg.table.Table`
  row storage with hash indexes,
* a composable expression language (:mod:`repro.relalg.expressions`),
* physical operators — selection, projection, hash/nested-loop joins,
  outer joins, semi/anti joins, set operations, aggregation, sorting
  (:mod:`repro.relalg.operators`),
* a fluent :class:`~repro.relalg.query.Query` builder with named
  subqueries mirroring SQL's ``WITH`` clause,
* a heuristic optimizer (:mod:`repro.relalg.optimizer`), and
* a plan compiler (:mod:`repro.relalg.plan`): one-time lowering to
  physical operators with compiled expressions, index-aware joins and
  delta-maintained build tables — analyze once, execute per step.

The scheduling protocols in :mod:`repro.protocols` are SQL texts that
:mod:`repro.relalg.sql` plans onto this engine; :mod:`repro.sqlbridge`
cross-checks results against sqlite3.
"""

from repro.relalg.schema import Column, Schema
from repro.relalg.table import Table
from repro.relalg.relation import Relation
from repro.relalg.expressions import (
    Expr,
    col,
    lit,
    and_,
    or_,
    not_,
    compile_expr,
)
from repro.relalg.query import Query, cte
from repro.relalg.plan import CompiledPlan, PlanCache

__all__ = [
    "Column",
    "Schema",
    "Table",
    "Relation",
    "Expr",
    "col",
    "lit",
    "and_",
    "or_",
    "not_",
    "compile_expr",
    "Query",
    "cte",
    "CompiledPlan",
    "PlanCache",
]
