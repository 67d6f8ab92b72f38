"""Predicate pushdown: the one rewrite the columnar engine runs.

:func:`optimize` rewrites a canonical plan (see :mod:`repro.plan.planner`)
for the columnar physical engine: top-level AND-conjuncts of a filter above a
join chain that reference a single table move below the joins to sit directly
on that table's scan, shrinking the join input.  The rewrite is
semantics-preserving — the differential suite runs the engine on the
optimized plan against the row interpreter and SQLite, which both execute the
canonical one.

Pushdown is the only rule that earned its place in an ablation on the plan,
vector and end-to-end benchmarks; constant folding, hash-join selection,
projection pruning, join ordering, build-side selection and filter cascades
were measured and deleted (the record is in ``docs/architecture.md``,
"Query planning & execution").
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Set

from repro.plan.nodes import (
    Aggregate,
    Bin,
    Connective,
    Filter,
    Join,
    Limit,
    PlanNode,
    Predicate,
    Project,
    Scan,
    Sort,
)


def optimize(plan: PlanNode) -> PlanNode:
    """Return ``plan`` with predicate pushdown applied."""
    return push_down_predicates(plan)


def _rewrite(plan: PlanNode, fn) -> PlanNode:
    """Bottom-up structural rewrite: children first, then ``fn`` on the node."""
    if isinstance(plan, Join):
        plan = replace(plan, left=_rewrite(plan.left, fn), right=_rewrite(plan.right, fn))
    elif isinstance(plan, (Filter, Bin, Aggregate, Project, Sort, Limit)):
        plan = replace(plan, child=_rewrite(plan.child, fn))
    return fn(plan)


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
    if isinstance(node, Scan):
        return {node.effective.lower()}
    effectives: Set[str] = set()
    for child in node.children():
        effectives |= _scan_effectives(child)
    return effectives


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
