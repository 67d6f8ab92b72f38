"""Logical-plan IR nodes shared by every execution engine.

A plan is an immutable tree of relational operators lowered from a parsed
:class:`~repro.dvq.nodes.DVQuery` by :func:`repro.plan.planner.plan_query`.
Both execution layers consume it: the columnar physical engine
(:mod:`repro.executor.columnar`) runs optimized plans over column batches, and
the SQL compiler (:mod:`repro.sql.compiler`) renders the canonical plan as
SQLite SQL.  Everything schema-dependent — table existence, alias resolution,
exact column casing, column types, the ORDER BY output index — is resolved
once at plan time into :class:`ResolvedColumn` references, so the engines
never re-derive interpreter quirks from the raw AST.

The canonical (unoptimized) plan shape is a single spine::

    Limit?( Sort?( Aggregate|Project( Bin?( Filter?( Join*( Scan ))))))

Optimizer rules (:mod:`repro.plan.optimizer`) rewrite inside that spine:
predicate pushdown moves :class:`Filter` nodes below :class:`Join`\\ s,
projection pruning narrows :attr:`Scan.columns`, and join selection flips
:attr:`Join.strategy` to ``hash``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

from repro.database.schema import ColumnType
from repro.dvq.nodes import BinUnit, Condition

#: Join strategies a :class:`Join` node can carry.
NESTED_LOOP = "nested_loop"
HASH = "hash"


@dataclass(frozen=True)
class ResolvedColumn:
    """A column reference resolved against the schema at plan time.

    Attributes:
        table: canonical table name in the schema.
        effective: the qualifier the query sees — the alias when the table is
            aliased, else the table name (this is also the SQL-visible name).
        column: the column's exact schema casing.
        ctype: the column's logical type (drives BIN lowering).
    """

    table: str
    effective: str
    column: str
    ctype: ColumnType

    def key(self) -> Tuple[str, str]:
        """The case-insensitive batch/scan key ``(effective, column)``."""
        return (self.effective.lower(), self.column.lower())

    def render(self) -> str:
        return f"{self.effective}.{self.column}"


# -- predicate algebra -------------------------------------------------------


class _PredicateBase:
    def columns(self) -> Tuple[ResolvedColumn, ...]:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Comparison(_PredicateBase):
    """A leaf predicate: the original DVQ condition plus its resolved column.

    Evaluation semantics live in :func:`repro.executor.predicates.evaluate_condition`
    (Python engines) and :meth:`repro.sql.compiler.DVQToSQLCompiler` (SQL) —
    the plan only fixes *which* column the condition reads.
    """

    column: ResolvedColumn
    condition: Condition

    def columns(self) -> Tuple[ResolvedColumn, ...]:
        return (self.column,)

    def render(self) -> str:
        return self.condition.render()


@dataclass(frozen=True)
class Connective(_PredicateBase):
    """``AND`` / ``OR`` over two sub-predicates.

    The planner folds a DVQ's flat connector list into a left-associative
    tree, preserving nvBench's no-precedence semantics.
    """

    op: str  # "AND" | "OR"
    left: "Predicate"
    right: "Predicate"

    def columns(self) -> Tuple[ResolvedColumn, ...]:
        return self.left.columns() + self.right.columns()

    def render(self) -> str:
        return f"( {self.left.render()} {self.op} {self.right.render()} )"


@dataclass(frozen=True)
class ConstPredicate(_PredicateBase):
    """A predicate folded to a constant by the optimizer."""

    value: bool

    def columns(self) -> Tuple[ResolvedColumn, ...]:
        return ()

    def render(self) -> str:
        return "TRUE" if self.value else "FALSE"


Predicate = Union[Comparison, Connective, ConstPredicate]


# -- output expressions and group keys --------------------------------------


@dataclass(frozen=True)
class ColumnOutput:
    """A bare column in the SELECT list (one encoded axis)."""

    column: ResolvedColumn
    label: str

    def render(self) -> str:
        return self.label


@dataclass(frozen=True)
class AggregateOutput:
    """An aggregate in the SELECT list; ``argument`` is ``None`` for ``COUNT(*)``."""

    function: str
    argument: Optional[ResolvedColumn]
    distinct: bool
    label: str

    def render(self) -> str:
        return self.label


@dataclass(frozen=True)
class BinOutput:
    """A SELECT item that reads the derived bin column of a :class:`Bin` node."""

    label: str

    def render(self) -> str:
        return self.label


OutputExpr = Union[ColumnOutput, AggregateOutput, BinOutput]


@dataclass(frozen=True)
class BinKey:
    """Grouping by the derived bin column (always the first group key)."""

    def render(self) -> str:
        return "BIN"


GroupKey = Union[BinKey, ResolvedColumn]


# -- plan nodes --------------------------------------------------------------


class _NodeBase:
    """Shared plan-node behaviour: child access and ``explain()``."""

    def children(self) -> Tuple["PlanNode", ...]:
        return ()

    def explain(self, statistics: Optional[object] = None) -> str:
        """Render the plan subtree as an indented operator listing.

        With ``statistics`` — a :class:`~repro.plan.cost.CostModel` or the
        :class:`~repro.database.database.Database` to build one from — every
        node is annotated with its estimated output cardinality and
        cumulative cost, making the optimizer's cost-based decisions
        (join order, build side, filter ordering, sampling) inspectable.
        """
        model = None
        if statistics is not None:
            # deferred: cost imports this module
            from repro.plan.cost import as_cost_model

            model = as_cost_model(statistics)
        lines = []

        def walk(node: "PlanNode", depth: int) -> None:
            text = "  " * depth + node.describe()
            if model is not None:
                text += f"  [{model.annotate(node)}]"
            lines.append(text)
            for child in node.children():
                walk(child, depth + 1)

        walk(self, 0)
        return "\n".join(lines)

    def describe(self) -> str:  # pragma: no cover - overridden everywhere
        return type(self).__name__


@dataclass(frozen=True)
class Scan(_NodeBase):
    """Materialise the listed columns of one base table.

    ``columns`` holds exact-casing schema names; the planner lists every
    column and projection pruning narrows it to the referenced subset.
    """

    table: str
    effective: str
    columns: Tuple[str, ...]

    def describe(self) -> str:
        name = self.table if self.table == self.effective else f"{self.table} AS {self.effective}"
        return f"Scan({name}, columns=[{', '.join(self.columns)}])"


@dataclass(frozen=True)
class Join(_NodeBase):
    """Equi-join of the plan so far (left) with one base table (right).

    ``left_key`` / ``right_key`` keep the ON clause's textual order for SQL
    rendering; ``build_key`` is planner metadata recording which of the two
    resolves into the right (newly joined) subtree — ``"right"`` for a
    well-formed clause, ``"left"`` when the sides were written swapped,
    ``None`` for degenerate clauses — used by the optimizer's hash-join
    selection (degenerate joins stay nested-loop).  ``build_side`` records
    which *input* the cost-based optimizer chose to build the join table on:
    ``"right"`` (the historical default, matching the interpreter's emit
    order) or ``"left"`` when the accumulated left input is estimated
    smaller; the engine restores the canonical left-major emit order after a
    flipped build, so the choice is invisible in results.  The engine itself
    re-derives the sides from the batches at run time, mirroring the
    interpreter's name-based fallback lookup; key equality is Python ``==``
    with NULL keys never matching — SQL join semantics, shared by every
    engine.
    """

    left: "PlanNode"
    right: "PlanNode"
    left_key: ResolvedColumn
    right_key: ResolvedColumn
    build_key: Optional[str] = "right"
    strategy: str = NESTED_LOOP
    build_side: str = "right"

    def children(self) -> Tuple["PlanNode", ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        build = "" if self.build_side == "right" else f", build={self.build_side}"
        return (
            f"Join({self.left_key.render()} = {self.right_key.render()}, "
            f"strategy={self.strategy}{build})"
        )


@dataclass(frozen=True)
class Sample(_NodeBase):
    """Replace a scan's rows with a precomputed seeded row sample.

    The AQP rewrite (:mod:`repro.plan.sampling`) inserts this directly above
    one :class:`Scan`; the engine answers it from the table's cached
    :meth:`~repro.database.table.Table.sample` (a sorted row-id subset), so
    everything above — filters, joins, grouping — runs unchanged on ~
    ``fraction`` of the rows.  ``kind`` is ``"uniform"`` or ``"keyed"``
    (stratified by the group-by column ``key``); scale-up of the aggregate
    outputs happens after execution, driven by the sample's metadata.
    """

    child: "PlanNode"
    table: str
    kind: str
    key: Optional[str]
    fraction: float
    seed: int

    def children(self) -> Tuple["PlanNode", ...]:
        return (self.child,)

    def describe(self) -> str:
        key = f", key={self.key}" if self.key else ""
        return f"Sample({self.kind}{key}, fraction={self.fraction}, seed={self.seed})"


@dataclass(frozen=True)
class Filter(_NodeBase):
    """Keep the rows satisfying ``predicate``."""

    child: "PlanNode"
    predicate: Predicate

    def children(self) -> Tuple["PlanNode", ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Filter({self.predicate.render()})"


@dataclass(frozen=True)
class Bin(_NodeBase):
    """Derive the bin label column for ``BIN <column> BY <unit>``."""

    child: "PlanNode"
    column: ResolvedColumn
    unit: BinUnit

    def children(self) -> Tuple["PlanNode", ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Bin({self.column.render()} BY {self.unit.value})"


@dataclass(frozen=True)
class Aggregate(_NodeBase):
    """Hash grouping by ``keys`` producing ``outputs`` in SELECT order.

    An empty key tuple is the implicit all-rows group of aggregates-only
    queries: one output row when input rows exist, zero on empty input
    (matching the interpreter and the compiled SQL's constant group).
    """

    child: "PlanNode"
    keys: Tuple[GroupKey, ...]
    outputs: Tuple[OutputExpr, ...]

    def children(self) -> Tuple["PlanNode", ...]:
        return (self.child,)

    def describe(self) -> str:
        keys = ", ".join(key.render() for key in self.keys)
        outputs = ", ".join(output.render() for output in self.outputs)
        return f"Aggregate(keys=[{keys}], outputs=[{outputs}])"


@dataclass(frozen=True)
class Project(_NodeBase):
    """Flat projection of the SELECT columns (no grouping, no bin)."""

    child: "PlanNode"
    outputs: Tuple[ColumnOutput, ...]

    def children(self) -> Tuple["PlanNode", ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Project([{', '.join(output.render() for output in self.outputs)}])"


@dataclass(frozen=True)
class Sort(_NodeBase):
    """ORDER BY, resolved to an output-column index at plan time."""

    child: "PlanNode"
    index: int
    descending: bool

    def children(self) -> Tuple["PlanNode", ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Sort(#{self.index} {'DESC' if self.descending else 'ASC'})"


@dataclass(frozen=True)
class Limit(_NodeBase):
    """Deterministic top-k cut (canonical tie-break across engines)."""

    child: "PlanNode"
    count: int

    def children(self) -> Tuple["PlanNode", ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Limit({self.count})"


PlanNode = Union[Scan, Sample, Join, Filter, Bin, Aggregate, Project, Sort, Limit]


def iter_nodes(plan: PlanNode) -> Iterator[PlanNode]:
    """Pre-order iteration over every node of the plan."""
    yield plan
    for child in plan.children():
        yield from iter_nodes(child)


def output_node(plan: PlanNode) -> Union[Aggregate, Project]:
    """The plan's output-producing node (its :class:`Aggregate` or :class:`Project`)."""
    for node in iter_nodes(plan):
        if isinstance(node, (Aggregate, Project)):
            return node
    raise ValueError(f"Plan has no Aggregate/Project node:\n{plan.explain()}")


def output_labels(plan: PlanNode) -> Tuple[str, ...]:
    """The output column labels, identical across every engine."""
    return tuple(output.label for output in output_node(plan).outputs)
