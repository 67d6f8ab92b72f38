"""Rule-based optimization of logical plans.

:func:`optimize` rewrites a canonical plan (see :mod:`repro.plan.planner`)
for the columnar physical engine.  Every rule is semantics-preserving — the
differential suite runs the engine with the optimizer on and off against the
row interpreter and SQLite — and individually toggleable through
:class:`OptimizerConfig`:

* **constant folding** (``fold_constants``): comparisons that can never hold
  (``x > NULL``, BETWEEN with a NULL bound) become ``FALSE``; the
  interpreter's null-sentinel equality ``x = 'null'`` is folded into the
  explicit ``(x IS NULL OR x = 'null')`` form (and ``!=`` into its dual) so
  the quirk is visible in the plan; constant branches collapse through
  AND/OR.
* **predicate pushdown** (``pushdown``): top-level AND-conjuncts of a filter
  above a join chain that reference a single table move below the joins to
  sit directly on that table's scan, shrinking the join input.
* **hash-join selection** (``hash_join``): equi-joins whose build side is the
  newly joined table switch from the interpreter's historical nested loop to
  a hash join.
* **projection pruning** (``pruning``): scans materialise only the columns
  the rest of the plan references (outputs, group keys, predicates, join
  keys, the bin column).

Three further rules are *cost-based*: they consult table statistics through a
:class:`~repro.plan.cost.CostModel` and only run when :func:`optimize` is
handed one (``statistics=``) — without statistics the optimizer behaves
exactly as the rule-based subset above:

* **join-order enumeration** (``join_order``): the left-deep join spine is
  greedily re-nested to keep the estimated intermediate cardinality minimal;
  each original Join node keeps its ON keys and metadata, only the nesting
  order changes, so results are identical up to (normalised-away) row order.
* **hash-build-side selection** (``build_side``): each join builds its hash
  table on whichever input is estimated smaller
  (:attr:`~repro.plan.nodes.Join.build_side`); the engine restores the
  canonical emit order after a flipped build.
* **filter-cascade ordering** (``filter_order``): a filter of several
  AND-conjuncts becomes a cascade of single-conjunct filters, most selective
  innermost, so later (expensive) predicates only see surviving rows — the
  engine's vectorized masks have no short-circuit inside one predicate tree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.dvq.nodes import Condition
from repro.plan.cost import CostModel, as_cost_model
from repro.plan.nodes import (
    HASH,
    Aggregate,
    Bin,
    BinKey,
    Comparison,
    Connective,
    ConstPredicate,
    Filter,
    Join,
    Limit,
    PlanNode,
    Predicate,
    Project,
    AggregateOutput,
    ColumnOutput,
    ResolvedColumn,
    Sample,
    Scan,
    Sort,
)


@dataclass(frozen=True)
class OptimizerConfig:
    """Which rewrite rules :func:`optimize` applies (all on by default).

    The cost-based rules (``join_order``, ``build_side``, ``filter_order``)
    additionally require statistics to be passed to :func:`optimize`; with no
    statistics they are inert regardless of these flags.
    """

    fold_constants: bool = True
    pushdown: bool = True
    hash_join: bool = True
    pruning: bool = True
    join_order: bool = True
    build_side: bool = True
    filter_order: bool = True

    def rule_names(self) -> Tuple[str, ...]:
        names = []
        for name in (
            "fold_constants",
            "pushdown",
            "join_order",
            "build_side",
            "filter_order",
            "hash_join",
            "pruning",
        ):
            if getattr(self, name):
                names.append(name)
        return tuple(names)


DEFAULT_OPTIMIZER = OptimizerConfig()


def optimize(
    plan: PlanNode,
    config: OptimizerConfig = DEFAULT_OPTIMIZER,
    statistics: Optional[Union[CostModel, object]] = None,
) -> PlanNode:
    """Apply the enabled rules to ``plan`` and return the rewritten plan.

    ``statistics`` — a :class:`~repro.plan.cost.CostModel` or a database to
    build one from — arms the cost-based rules; ``None`` (the default) keeps
    the optimizer purely rule-based.
    """
    if config.fold_constants:
        plan = fold_plan_constants(plan)
    if config.pushdown:
        plan = push_down_predicates(plan)
    if statistics is not None:
        model = as_cost_model(statistics)
        if config.join_order:
            plan = reorder_joins(plan, model)
        if config.build_side:
            plan = select_build_sides(plan, model)
        if config.filter_order:
            plan = order_filter_cascades(plan, model)
    if config.hash_join:
        plan = select_hash_joins(plan)
    if config.pruning:
        plan = prune_projections(plan)
    return plan


def _rewrite(plan: PlanNode, fn) -> PlanNode:
    """Bottom-up structural rewrite: children first, then ``fn`` on the node."""
    if isinstance(plan, Join):
        plan = replace(plan, left=_rewrite(plan.left, fn), right=_rewrite(plan.right, fn))
    elif isinstance(plan, (Filter, Bin, Aggregate, Project, Sort, Limit, Sample)):
        plan = replace(plan, child=_rewrite(plan.child, fn))
    return fn(plan)


# -- constant folding --------------------------------------------------------


def fold_predicate(predicate: Predicate) -> Predicate:
    """Fold one predicate tree (see module docstring for the rules)."""
    if isinstance(predicate, Connective):
        left = fold_predicate(predicate.left)
        right = fold_predicate(predicate.right)
        for const, other in ((left, right), (right, left)):
            if isinstance(const, ConstPredicate):
                if predicate.op == "AND":
                    return ConstPredicate(False) if not const.value else other
                return other if not const.value else ConstPredicate(True)
        return Connective(op=predicate.op, left=left, right=right)
    if isinstance(predicate, Comparison):
        condition = predicate.condition
        operator = condition.operator.upper()
        if operator in (">", ">=", "<", "<=") and condition.value is None:
            return ConstPredicate(False)
        if operator == "BETWEEN" and (condition.value is None or condition.value2 is None):
            return ConstPredicate(False)
        if (
            operator in ("=", "!=")
            and isinstance(condition.value, str)
            and condition.value.lower() == "null"
        ):
            # make the interpreter's null-sentinel explicit:  x = 'null' is
            # (x IS NULL OR x = 'null'); x != 'null' is its dual
            null_test = Comparison(
                column=predicate.column,
                condition=Condition(
                    column=condition.column, operator="IS NULL", negated=operator == "!="
                ),
            )
            connector = "OR" if operator == "=" else "AND"
            return Connective(op=connector, left=null_test, right=predicate)
    return predicate


def fold_plan_constants(plan: PlanNode) -> PlanNode:
    def fold(node: PlanNode) -> PlanNode:
        if isinstance(node, Filter):
            predicate = fold_predicate(node.predicate)
            if isinstance(predicate, ConstPredicate) and predicate.value:
                return node.child
            return replace(node, predicate=predicate)
        return node

    return _rewrite(plan, fold)


# -- predicate pushdown ------------------------------------------------------


def _split_conjuncts(predicate: Predicate) -> List[Predicate]:
    if isinstance(predicate, Connective) and predicate.op == "AND":
        return _split_conjuncts(predicate.left) + _split_conjuncts(predicate.right)
    return [predicate]


def _join_conjuncts(conjuncts: List[Predicate]) -> Predicate:
    predicate = conjuncts[0]
    for conjunct in conjuncts[1:]:
        predicate = Connective(op="AND", left=predicate, right=conjunct)
    return predicate


def _scan_effectives(node: PlanNode) -> Set[str]:
    return {scan.effective.lower() for scan in _scans(node)}


def _scans(node: PlanNode) -> List[Scan]:
    if isinstance(node, Scan):
        return [node]
    scans: List[Scan] = []
    for child in node.children():
        scans.extend(_scans(child))
    return scans


def push_down_predicates(plan: PlanNode) -> PlanNode:
    """Move single-table AND-conjuncts of join-topping filters onto their scans."""

    def push(node: PlanNode) -> PlanNode:
        if not (isinstance(node, Filter) and isinstance(node.child, Join)):
            return node
        scans = _scan_effectives(node.child)
        pushable: Dict[str, List[Predicate]] = {}
        residual: List[Predicate] = []
        for conjunct in _split_conjuncts(node.predicate):
            tables = {column.effective.lower() for column in conjunct.columns()}
            if len(tables) == 1 and next(iter(tables)) in scans:
                pushable.setdefault(next(iter(tables)), []).append(conjunct)
            else:
                residual.append(conjunct)
        if not pushable:
            return node
        rewritten = _attach_filters(node.child, pushable)
        if residual:
            return Filter(child=rewritten, predicate=_join_conjuncts(residual))
        return rewritten

    return _rewrite(plan, push)


def _attach_filters(node: PlanNode, pushable: Dict[str, List[Predicate]]) -> PlanNode:
    if isinstance(node, Scan):
        conjuncts = pushable.get(node.effective.lower())
        if conjuncts:
            return Filter(child=node, predicate=_join_conjuncts(conjuncts))
        return node
    if isinstance(node, Join):
        return replace(
            node,
            left=_attach_filters(node.left, pushable),
            right=_attach_filters(node.right, pushable),
        )
    if isinstance(node, Filter):  # a filter pushed by an earlier pass
        return replace(node, child=_attach_filters(node.child, pushable))
    return node


# -- cost-based rules --------------------------------------------------------


def reorder_joins(plan: PlanNode, model: CostModel) -> PlanNode:
    """Greedily re-nest the left-deep join spine by estimated cardinality.

    The base (deepest-left) input stays fixed; at every step the admissible
    join — one whose probe key's table is already placed — with the smallest
    estimated output joins next, ties broken by original order.  Each Join
    node keeps its ON keys, build metadata and strategy; only the nesting
    changes, so the joined row *multiset* is identical and any emit-order
    difference is absorbed by result normalisation.  Spines containing a
    degenerate join (``build_key is None``) are left untouched: their
    name-based side resolution is position-dependent.
    """

    def walk(node: PlanNode) -> PlanNode:
        if isinstance(node, Join):
            return _reorder_spine(node, model)
        if isinstance(node, (Filter, Bin, Aggregate, Project, Sort, Limit, Sample)):
            return replace(node, child=walk(node.child))
        return node

    return walk(plan)


def _reorder_spine(top: Join, model: CostModel) -> PlanNode:
    steps: List[Join] = []
    node: PlanNode = top
    while isinstance(node, Join):
        steps.append(node)
        node = node.left
    base = node
    if len(steps) < 2 or any(step.build_key is None for step in steps):
        return top
    steps.reverse()  # bottom-up: original join order
    placed = _scan_effectives(base)
    remaining = list(steps)
    current_rows = model.cardinality(base)
    ordered: List[Join] = []
    while remaining:
        best: Optional[Tuple[float, int, Join]] = None
        for position, step in enumerate(remaining):
            probe_key = step.left_key if step.build_key == "right" else step.right_key
            if probe_key.effective.lower() not in placed:
                continue
            rows = model.join_cardinality(
                current_rows,
                model.cardinality(step.right),
                step.left_key,
                step.right_key,
            )
            if best is None or rows < best[0]:
                best = (rows, position, step)
        if best is None:
            return top  # disconnected spine: keep the written order
        current_rows, position, step = best
        remaining.pop(position)
        ordered.append(step)
        placed |= _scan_effectives(step.right)
    if all(chosen is original for chosen, original in zip(ordered, steps)):
        return top
    rebuilt: PlanNode = base
    for step in ordered:
        rebuilt = replace(step, left=rebuilt)
    return rebuilt


def select_build_sides(plan: PlanNode, model: CostModel) -> PlanNode:
    """Build each join's hash table on the input estimated smaller.

    Sets :attr:`~repro.plan.nodes.Join.build_side` to ``"left"`` when the
    accumulated left input is estimated smaller than the newly joined right
    table; the engine probes with the larger side and restores the canonical
    emit order.  Degenerate joins keep the default.
    """

    def select(node: PlanNode) -> PlanNode:
        if isinstance(node, Join) and node.build_key is not None:
            left_rows = model.cardinality(node.left)
            right_rows = model.cardinality(node.right)
            side = "left" if left_rows < right_rows else "right"
            if side != node.build_side:
                return replace(node, build_side=side)
        return node

    return _rewrite(plan, select)


def order_filter_cascades(plan: PlanNode, model: CostModel) -> PlanNode:
    """Split multi-conjunct filters into cascades, most selective innermost.

    One :class:`Filter` evaluates every conjunct over its whole input (the
    vectorized AND has no short-circuit); a cascade lets each later conjunct
    run only on the rows surviving the earlier, cheaper-by-selectivity ones.
    Conjunct masks are independent, so any order computes the same rows.
    """

    def order(node: PlanNode) -> PlanNode:
        if not isinstance(node, Filter):
            return node
        conjuncts = _split_conjuncts(node.predicate)
        if len(conjuncts) < 2:
            return node
        ranked = sorted(
            range(len(conjuncts)),
            key=lambda index: (model.selectivity(conjuncts[index]), index),
        )
        child = node.child
        for index in ranked:
            child = Filter(child=child, predicate=conjuncts[index])
        return child

    return _rewrite(plan, order)


# -- hash-join selection -----------------------------------------------------


def select_hash_joins(plan: PlanNode) -> PlanNode:
    def select(node: PlanNode) -> PlanNode:
        if isinstance(node, Join) and node.build_key is not None:
            return replace(node, strategy=HASH)
        return node

    return _rewrite(plan, select)


# -- projection pruning ------------------------------------------------------


def _referenced_columns(plan: PlanNode) -> Set[Tuple[str, str]]:
    needed: Set[Tuple[str, str]] = set()

    def note(column: ResolvedColumn) -> None:
        needed.add(column.key())

    from repro.plan.nodes import iter_nodes

    for node in iter_nodes(plan):
        if isinstance(node, Join):
            note(node.left_key)
            note(node.right_key)
            # the engine matches the build side by bare column name in the
            # newly joined table (interpreter semantics) — keep both ON-key
            # names available on the right scan so pruning cannot change
            # which rows a degenerate join produces
            right_effective = _scans(node.right)[0].effective.lower()
            needed.add((right_effective, node.left_key.column.lower()))
            needed.add((right_effective, node.right_key.column.lower()))
        elif isinstance(node, Filter):
            for column in node.predicate.columns():
                note(column)
        elif isinstance(node, Bin):
            note(node.column)
        elif isinstance(node, Aggregate):
            for key in node.keys:
                if not isinstance(key, BinKey):
                    note(key)
            for output in node.outputs:
                if isinstance(output, ColumnOutput):
                    note(output.column)
                elif isinstance(output, AggregateOutput) and output.argument is not None:
                    note(output.argument)
        elif isinstance(node, Project):
            for output in node.outputs:
                note(output.column)
    return needed


def prune_projections(plan: PlanNode) -> PlanNode:
    """Narrow every scan to the columns the rest of the plan references."""
    needed = _referenced_columns(plan)

    def prune(node: PlanNode) -> PlanNode:
        if isinstance(node, Scan):
            effective = node.effective.lower()
            columns = tuple(
                column for column in node.columns if (effective, column.lower()) in needed
            )
            return replace(node, columns=columns)
        return node

    return _rewrite(plan, prune)
