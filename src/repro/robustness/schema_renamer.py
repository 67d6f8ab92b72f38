"""Schema synonymous substitution: rename tables and columns with synonyms.

Reproduces Section 2.2 of the paper ("Schema Synonymous Substitution"): every
database in the development split receives a renamed twin (``hr_1`` ->
``hr_1_robust``) whose columns use synonyms, abbreviations and different naming
conventions, while the data itself is unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.database.database import Database
from repro.dvq.errors import DVQError
from repro.dvq.nodes import ColumnRef, DVQuery
from repro.dvq.parser import parse_dvq
from repro.dvq.serializer import serialize_dvq
from repro.embeddings.tokenization import split_identifier
from repro.robustness.synonyms import SynonymLexicon, default_lexicon

#: Naming conventions the renamer can emit.
_CASE_STYLES = ("upper_snake", "lower_snake", "camel", "title_snake")


def _apply_case(words: List[str], style: str) -> str:
    if style == "upper_snake":
        return "_".join(word.upper() for word in words)
    if style == "lower_snake":
        return "_".join(word.lower() for word in words)
    if style == "camel":
        head, *tail = words
        return head.lower() + "".join(word.title() for word in tail)
    return "_".join(word.title() for word in words)


@dataclass
class SchemaRenamePlan:
    """The rename decisions for one database."""

    db_id: str
    new_db_id: str
    table_renames: Dict[str, str] = field(default_factory=dict)
    column_renames: Dict[Tuple[str, str], str] = field(default_factory=dict)

    def rename_rate(self) -> float:
        """Fraction of columns that actually received a different name."""
        if not self.column_renames:
            return 0.0
        changed = sum(
            1 for (table, old), new in self.column_renames.items() if old.lower() != new.lower()
        )
        return changed / len(self.column_renames)


class SchemaRenamer:
    """Builds rename plans and applies them to databases and gold DVQs."""

    def __init__(
        self,
        lexicon: Optional[SynonymLexicon] = None,
        seed: int = 11,
        rename_probability: float = 0.6,
        abbreviation_probability: float = 0.25,
        rename_tables: bool = False,
        suffix: str = "_robust",
    ):
        self.lexicon = lexicon or default_lexicon()
        self.seed = seed
        self.rename_probability = rename_probability
        self.abbreviation_probability = abbreviation_probability
        self.rename_tables = rename_tables
        self.suffix = suffix

    # -- plan construction --------------------------------------------------

    def plan_for(self, database: Database) -> SchemaRenamePlan:
        """Build a deterministic rename plan for ``database``."""
        rng = random.Random(f"{self.seed}:{database.name}")
        plan = SchemaRenamePlan(db_id=database.name, new_db_id=f"{database.name}{self.suffix}")
        for table in database.schema.tables:
            new_table_name = table.name
            if self.rename_tables and rng.random() < 0.3:
                new_table_name = self._rename_identifier(table.name, rng)
            plan.table_renames[table.name] = new_table_name
            used_names = set()
            for column in table.columns:
                if column.is_primary and rng.random() < 0.5:
                    # primary keys are renamed less aggressively, like the paper's
                    # HH_ID example where ids keep their abbreviation style
                    new_name = column.name
                elif rng.random() < self.rename_probability:
                    new_name = self._rename_identifier(column.name, rng)
                else:
                    new_name = column.name
                if new_name.lower() in used_names:
                    new_name = column.name
                used_names.add(new_name.lower())
                plan.column_renames[(table.name, column.name)] = new_name
        return plan

    def _rename_identifier(self, identifier: str, rng: random.Random) -> str:
        words = [word.lower() for word in split_identifier(identifier)] or [identifier.lower()]
        renamed_words: List[str] = []
        changed = False
        for word in words:
            if rng.random() < self.abbreviation_probability and word in self.lexicon.abbreviations:
                renamed_words.append(self.lexicon.abbreviations[word])
                changed = True
                continue
            synonym = self.lexicon.pick_synonym(word, rng)
            if synonym is not None and rng.random() < 0.8:
                renamed_words.extend(synonym.split("_"))
                changed = True
            else:
                renamed_words.append(word)
        joined_key = "_".join(words)
        if joined_key in self.lexicon.abbreviations and rng.random() < self.abbreviation_probability:
            renamed_words = self.lexicon.abbreviations[joined_key].split("_")
            changed = True
        style = rng.choice(_CASE_STYLES)
        new_name = _apply_case(renamed_words, style)
        if not changed:
            # at minimum, flip the casing convention so the surface form differs
            new_name = _apply_case(words, rng.choice([s for s in _CASE_STYLES]))
        return new_name

    # -- application ---------------------------------------------------------

    def apply_to_database(self, database: Database, plan: Optional[SchemaRenamePlan] = None) -> Tuple[Database, SchemaRenamePlan]:
        """Return the renamed twin of ``database`` plus the plan used."""
        plan = plan or self.plan_for(database)
        renamed = database.renamed(
            new_name=plan.new_db_id,
            table_renames=plan.table_renames,
            column_renames=plan.column_renames,
        )
        return renamed, plan

    def rewrite_dvq(self, dvq_text: str, plan: SchemaRenamePlan) -> str:
        """Rewrite a gold DVQ so it references the renamed schema."""
        try:
            query = parse_dvq(dvq_text)
        except DVQError:
            return dvq_text
        rewritten = self._rewrite_query(query, plan)
        return serialize_dvq(rewritten)

    def _rewrite_query(self, query: DVQuery, plan: SchemaRenamePlan) -> DVQuery:
        column_lookup = {
            (table.lower(), old.lower()): new
            for (table, old), new in plan.column_renames.items()
        }
        # Unqualified columns are resolved against the query's own tables first
        # (primary table, then joined tables), then against any other table.
        referenced_tables = [table.lower() for table in query.referenced_tables()]
        any_table_lookup: Dict[str, str] = {}
        for (table, old), new in plan.column_renames.items():
            any_table_lookup.setdefault(old.lower(), new)
        scoped_lookup: Dict[str, str] = {}
        for table_name in reversed(referenced_tables):
            for (table, old), new in plan.column_renames.items():
                if table.lower() == table_name:
                    scoped_lookup[old.lower()] = new
        any_table_lookup.update(scoped_lookup)
        table_lookup = {old.lower(): new for old, new in plan.table_renames.items()}
        alias_map = {}
        if query.table_alias:
            alias_map[query.table_alias.lower()] = query.table.lower()
        for join in query.joins:
            if join.alias:
                alias_map[join.alias.lower()] = join.table.lower()

        def rename_column(ref: ColumnRef) -> ColumnRef:
            if ref.column == "*":
                return ref
            owner = ref.table.lower() if ref.table else None
            if owner in alias_map:
                owner = alias_map[owner]
            new_column = None
            if owner is not None:
                new_column = column_lookup.get((owner, ref.column.lower()))
            if new_column is None:
                new_column = any_table_lookup.get(ref.column.lower(), ref.column)
            new_table = ref.table
            if ref.table and ref.table.lower() in table_lookup and ref.table.lower() not in alias_map:
                new_table = table_lookup[ref.table.lower()]
            return ColumnRef(column=new_column, table=new_table)

        def rename_expr(expr):
            if isinstance(expr, ColumnRef):
                return rename_column(expr)
            return expr.__class__(
                function=expr.function, argument=rename_column(expr.argument), distinct=expr.distinct
            )

        new_select = tuple(item.__class__(rename_expr(item.expr)) for item in query.select)
        new_joins = tuple(
            join.__class__(
                table=table_lookup.get(join.table.lower(), join.table),
                left=rename_column(join.left),
                right=rename_column(join.right),
                alias=join.alias,
            )
            for join in query.joins
        )
        new_where = None
        if query.where is not None:
            new_conditions = tuple(
                condition.__class__(
                    column=rename_column(condition.column),
                    operator=condition.operator,
                    value=condition.value,
                    value2=condition.value2,
                    negated=condition.negated,
                )
                for condition in query.where.conditions
            )
            new_where = query.where.__class__(conditions=new_conditions, connectors=query.where.connectors)
        new_group = tuple(rename_column(column) for column in query.group_by)
        new_order = None
        if query.order_by is not None:
            new_order = query.order_by.__class__(
                expr=rename_expr(query.order_by.expr), direction=query.order_by.direction
            )
        new_bin = None
        if query.bin is not None:
            new_bin = query.bin.__class__(column=rename_column(query.bin.column), unit=query.bin.unit)
        return query.replace(
            select=new_select,
            table=table_lookup.get(query.table.lower(), query.table),
            joins=new_joins,
            where=new_where,
            group_by=new_group,
            order_by=new_order,
            bin=new_bin,
        )
