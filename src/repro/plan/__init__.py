"""Logical query plans: one IR between the DVQ AST and every execution engine.

The subpackage has four layers:

* :mod:`repro.plan.nodes` — the immutable plan IR (Scan / Join / Filter /
  Bin / Aggregate / Project / Sort / Limit) plus the resolved-column and
  predicate algebra both engines consume;
* :mod:`repro.plan.planner` — :func:`plan_query`, lowering a parsed
  :class:`~repro.dvq.nodes.DVQuery` to the canonical plan with all schema
  resolution (and its interpreter-compatibility quirks) done once;
* :mod:`repro.plan.optimizer` — :func:`optimize`, which applies predicate
  pushdown (single-table filter conjuncts move below the joins);
* :mod:`repro.plan.cost` — :class:`~repro.plan.cost.CostModel`, cardinality
  and cost estimates over the table statistics in
  :mod:`repro.database.statistics`, consumed by ``explain(statistics=...)``.

The columnar physical engine (:class:`repro.executor.ColumnarBackend`) runs
optimized plans over column batches; the SQL compiler
(:class:`repro.sql.DVQToSQLCompiler`) renders the canonical plan as SQLite
SQL.  ``plan.explain()`` prints any plan as an indented operator tree
(``explain(statistics=...)`` annotates estimated cardinality and cost) —
see ``examples/plan_explain.py``.
"""

# import order matters: nodes and optimizer must be initialised before
# planner, whose executor imports transitively load repro.executor.columnar
# (which needs repro.plan.nodes / repro.plan.optimizer mid-import)
from repro.plan.nodes import (
    Aggregate,
    AggregateOutput,
    Bin,
    BinKey,
    BinOutput,
    ColumnOutput,
    Comparison,
    Connective,
    Filter,
    GroupKey,
    Join,
    Limit,
    OutputExpr,
    PlanNode,
    Predicate,
    Project,
    ResolvedColumn,
    Scan,
    Sort,
    iter_nodes,
    output_labels,
    output_node,
)
from repro.plan.cost import CostModel
from repro.plan.optimizer import optimize, push_down_predicates
from repro.plan.planner import Scope, plan_query

__all__ = [
    "Aggregate",
    "AggregateOutput",
    "Bin",
    "BinKey",
    "BinOutput",
    "ColumnOutput",
    "Comparison",
    "Connective",
    "CostModel",
    "Filter",
    "GroupKey",
    "Join",
    "Limit",
    "OutputExpr",
    "PlanNode",
    "Predicate",
    "Project",
    "ResolvedColumn",
    "Scan",
    "Scope",
    "Sort",
    "iter_nodes",
    "optimize",
    "output_labels",
    "output_node",
    "plan_query",
    "push_down_predicates",
]
