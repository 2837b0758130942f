# Tier-1 verification and benchmark entry points (mirrors .github/workflows/ci.yml)

PYTHON ?= python

.PHONY: test bench parallel chaos lint docs quickstart serve-demo serve loadgen grid reach all

# Tier-1: full test suite (pytest config lives in pyproject.toml)
test:
	$(PYTHON) -m pytest -x -q

# Paper-reproduction benchmarks only (tables/figures + perf gates);
# also merges machine-readable metrics into BENCH_serving.json
bench:
	$(PYTHON) -m pytest benchmarks/ -q

# Reentrancy/shared-memory/concurrency suites (incl. the ring exchange's
# two-deep queue and cancellation, the slot-sizing contract — a spawn-free
# geometry grid, a lying geometry failing one batch — worker/loop CPU
# placement — K = 1..3 pinned workers on a 4-core host — and the batcher's
# hand-off ordering, its queue bound and the request-conservation state
# machine) +
# the K=4 scaling gates (threads >= 1.8x, processes >= 2.5x; gates skip
# below 4 cores; BLAS pinned so the workers scale, not the libraries) + the
# one-ring-worker busy-share gate (>= 0.80) + the hot-path glue
# gates (suffix fold >= 1.3x the tile -> mask -> GEMM chain, per-batch
# glue <= 40 us, 0.25 ms batch flush overshoot <= 300 us, a cold
# activation-cache lookup + store <= 0.25x a blake2b of the batch) + the conv
# gates (planned prefix faster than layer-by-layer — ResNet >= 1.05x,
# pooled LeNet >= 1.5x — and allocating only its GEMM results and pool
# outputs) + the column-kernel
# gates (LeNet gathers and col2im >= 1.3x the element-wise kernels, conv_mc's
# gathers >= 1.5x the kernel-row gather) + the training bit-identity suites
# (max-pool and column kernels against their oracles) and the paper drivers'
# pinned digests, at one BLAS thread
parallel:
	OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 $(PYTHON) -m pytest -q -p no:randomly \
		tests/nn/test_forward_context.py tests/nn/test_shm_params.py \
		tests/nn/test_training_twin.py tests/nn/test_maxpool_paths.py \
		tests/analysis/test_paper_digests.py \
		tests/serving/test_parallel_serving.py tests/serving/test_procpool.py \
		tests/serving/test_fleet.py tests/serving/test_roster.py \
		tests/serving/test_ring.py tests/serving/test_batcher.py \
		tests/serving/test_batcher_properties.py \
		tests/serving/test_placement.py \
		benchmarks/test_parallel_serving.py benchmarks/test_procpool_serving.py \
		benchmarks/test_fleet.py \
		benchmarks/test_fused_suffix.py benchmarks/test_glue_breakdown.py \
		benchmarks/test_conv_fold.py benchmarks/test_column_kernels.py

# Fault-injection chaos suite: deterministic kill schedules under live
# traffic, gated on bit-identical responses and a clean /dev/shm.  Opt-in
# (the default pytest selection excludes `-m chaos`); the K=4 stress
# variant self-skips below 4 cores, the headline runs work anywhere.
chaos:
	OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 $(PYTHON) -m pytest -q -p no:randomly \
		-m chaos tests/serving/test_chaos.py

# Static checks (ruff config lives in pyproject.toml; same gate as CI).
# Where ruff is not installed (and cannot be: no network), a stdlib
# fallback covers the part that catches deletions gone wrong: everything
# compiles, no import is left unused, every `__all__` name is defined.
lint:
ifneq ($(shell command -v ruff 2>/dev/null),)
	ruff check .
	ruff format --check .
else
	@echo "ruff is not on PATH: stdlib fallback (compileall + tools/lint_fallback.py)"
	$(PYTHON) -m compileall -q src tests benchmarks tools
	$(PYTHON) tools/lint_fallback.py src tests benchmarks tools
endif

# Documentation gate: relative links resolve, README/docs examples execute
docs:
	$(PYTHON) -m pytest tests/docs/ -q

# Smoke-run the end-to-end quickstart example
quickstart:
	$(PYTHON) examples/quickstart.py

# Smoke-run the async serving demo
serve-demo:
	$(PYTHON) examples/serving_demo.py

# Boot the HTTP front end over the demo model (Ctrl-C to stop); pair
# with `make loadgen` from a second shell.  Override flags via ARGS=.
serve:
	PYTHONPATH=src $(PYTHON) -m repro.serving.server $(ARGS)

# Open-loop load against a running `make serve` (Poisson by default)
loadgen:
	PYTHONPATH=src $(PYTHON) -m repro.serving.loadgen $(ARGS)

# Experiment grid quickstart: init the smoke grid into a sqlite store,
# drain it (resumable — rerun after a crash and only pending cells run),
# and print the per-cell + replicate-folded tables.  GRID=paper for the
# full sweep; STORE= to relocate the sqlite file.
GRID ?= smoke
STORE ?= grid_results.sqlite
grid:
	PYTHONPATH=src $(PYTHON) -m repro.experiments init --store $(STORE) --grid $(GRID)
	PYTHONPATH=src $(PYTHON) -m repro.experiments run --store $(STORE) --reclaim-running
	PYTHONPATH=src $(PYTHON) -m repro.experiments report --store $(STORE) --markdown --summary

# Reach census: run the examples, the six paper drivers, the smoke grid, the
# server and loadgen CLIs and one short e2e workload, each in a child
# interpreter under a profiler (their own children too), and print, for every
# function in src/repro, whether any of them enters it ("entered"/"never")
# and its lines.  About 40 s.
reach:
	$(PYTHON) tools/reach.py

all: test bench docs quickstart
