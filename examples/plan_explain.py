"""Query planning: inspect the logical plan every engine lowers from.

Demonstrates the unified-IR layer added in `repro.plan`:

1. lower a DVQ to its canonical logical plan with `plan_query` and print
   `plan.explain()` — the operator tree both engines consume;
2. run the optimizer and print the plan again to see predicate pushdown move
   the filter below the join;
3. execute on the columnar engine, the legacy row interpreter and SQLite and
   check all three agree row-for-row.

Run with:  PYTHONPATH=src python examples/plan_explain.py
"""

from repro.database import DataGenerator
from repro.database.schema import ColumnType, build_schema
from repro.dvq import parse_dvq
from repro.executor import ColumnarBackend, InterpreterBackend
from repro.plan import optimize, plan_query
from repro.sql import DVQToSQLCompiler, SQLiteBackend


def build_database():
    schema = build_schema(
        "company",
        [
            (
                "employees",
                [
                    ("EMP_ID", ColumnType.NUMBER, "id"),
                    ("NAME", ColumnType.TEXT, "name"),
                    ("SALARY", ColumnType.NUMBER, "salary"),
                    ("HIRE_DATE", ColumnType.DATE, "date"),
                    ("DEPT_ID", ColumnType.NUMBER, "id"),
                ],
            ),
            (
                "departments",
                [
                    ("DEPT_ID", ColumnType.NUMBER, "id"),
                    ("DEPT_NAME", ColumnType.TEXT, "department"),
                    ("CITY", ColumnType.TEXT, "city"),
                ],
            ),
        ],
        foreign_keys=[("employees", "DEPT_ID", "departments", "DEPT_ID")],
    )
    return DataGenerator(seed=11).populate(schema, rows_per_table=120)


def main():
    database = build_database()
    query = parse_dvq(
        "Visualize BAR SELECT DEPT_NAME , AVG(SALARY) FROM employees AS T1 "
        "JOIN departments AS T2 ON T1.DEPT_ID = T2.DEPT_ID "
        "WHERE SALARY > 500 GROUP BY DEPT_NAME ORDER BY AVG(SALARY) DESC LIMIT 3"
    )

    # 1. the canonical plan: schema resolution done, one spine of operators
    plan = plan_query(query, database.schema)
    print("canonical logical plan (what the SQL compiler lowers):")
    print(plan.explain())

    # 2. the optimized plan: what the columnar engine actually executes
    optimized = optimize(plan)
    print("\noptimized plan (predicate pushdown):")
    print(optimized.explain())

    # 3. three engines, one plan, identical rows
    columnar = ColumnarBackend()
    results = {
        "columnar": columnar.execute(query, database),
        "interpreter": InterpreterBackend().execute(query, database),
        "sqlite": SQLiteBackend().execute(query, database),
    }
    reference = results["columnar"]
    assert all(r.rows == reference.rows for r in results.values())
    print("\ntop departments by average salary (identical on all three engines):")
    for dept, average in reference.rows:
        print(f"  {dept:<18} {average:8.1f}")
    print(f"\ncompiled SQL: {DVQToSQLCompiler().compile(query, database.schema).sql}")


if __name__ == "__main__":
    main()
