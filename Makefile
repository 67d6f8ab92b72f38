# Convenience wrappers around the tier-1 test command and the benchmark harness.
# See README.md ("Tests and benchmarks") and docs/architecture.md.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-diff bench bench-index bench-index-check bench-plan bench-plan-check bench-vector bench-vector-check bench-aqp bench-aqp-check bench-sort bench-sort-check bench-summary bench-paper-scale fuzz fuzz-check quickstart lint

test:            ## tier-1 suite (tests/ + benchmarks/, fail fast)
	$(PYTHON) -m pytest -x -q

test-fast:       ## tests/ only, excluding benchmarks (quick pre-commit loop)
	$(PYTHON) -m pytest tests -x -q

test-diff:       ## cross-backend differential suite (interpreter vs SQLite)
	$(PYTHON) -m pytest tests -q -m differential

bench:           ## experiment harness only (tables, figures, runtime throughput)
	$(PYTHON) -m pytest benchmarks -q -s

bench-index:     ## vector-index benchmark: recall + >=2.5x throughput bar (-m index)
	$(PYTHON) -m pytest benchmarks -q -s -m index

bench-index-check: ## index benchmark correctness assertions only (no timing bar; used by CI)
	$(PYTHON) -m pytest benchmarks -q -m index -k "not throughput_vs_exact"

bench-plan:      ## plan-engine benchmark: >=3x throughput bar + optimizer ablation (-m plan)
	$(PYTHON) -m pytest benchmarks -q -s -m plan

bench-plan-check: ## plan benchmark correctness assertions only (no timing bar; used by CI)
	$(PYTHON) -m pytest benchmarks -q -m plan -k "not at_least_3x"

bench-vector:    ## vectorized-kernel benchmark: >=10x bar over the scalar columnar engine (-m vector)
	$(PYTHON) -m pytest benchmarks -q -s -m vector

bench-vector-check: ## vector benchmark correctness assertions only (no timing bar; used by CI)
	$(PYTHON) -m pytest benchmarks -q -m vector -k "not at_least_10x"

bench-aqp:       ## AQP benchmark: >=10x bar over exact columnar at 1M rows, errors <=5% (-m aqp)
	$(PYTHON) -m pytest benchmarks -q -s -m aqp

bench-aqp-check: ## AQP benchmark correctness assertions only (no timing bar; used by CI)
	$(PYTHON) -m pytest benchmarks -q -m aqp -k "not at_least_10x"

bench-sort:      ## sort/top-k benchmark: >=5x bar over the scalar sort path at 1M rows (-m sort)
	$(PYTHON) -m pytest benchmarks -q -s -m sort

bench-sort-check: ## sort benchmark correctness assertions only (no timing bar; used by CI)
	$(PYTHON) -m pytest benchmarks -q -m sort -k "not at_least_5x"

bench-summary:   ## one trajectory table from every benchmarks/BENCH_*.json
	$(PYTHON) benchmarks/summarize.py

bench-paper-scale: ## benchmarks at the paper's full corpus scale (slow)
	$(PYTHON) -m pytest benchmarks -q -s --paper-scale

fuzz:            ## at-scale differential fuzz: 10k queries, 12-table snowflake, 120k rows (slow, ~15-20 min)
	REPRO_FUZZ_QUERIES=10000 REPRO_FUZZ_ROWS=120000 REPRO_FUZZ_TABLES=12 \
	REPRO_FUZZ_TOPOLOGY=snowflake REPRO_FUZZ_JOIN_COST=2000000 \
	$(PYTHON) -m pytest benchmarks/test_fuzz_differential.py -q -s -m fuzz

fuzz-check:      ## CI smoke fuzz: 2k queries over a 30k-row star schema (~2 min)
	REPRO_FUZZ_QUERIES=2000 REPRO_FUZZ_ROWS=30000 \
	$(PYTHON) -m pytest benchmarks/test_fuzz_differential.py -q -s -m fuzz

quickstart:      ## end-to-end example: corpus -> GRED -> rendered chart
	$(PYTHON) examples/quickstart.py

lint:            ## ruff over the whole tree (config in ruff.toml)
	ruff check src tests benchmarks examples
