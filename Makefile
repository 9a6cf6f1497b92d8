# Developer / CI entry points.  Everything runs against the in-tree
# sources (PYTHONPATH=src) — no install step needed.

PY ?= python
PP := PYTHONPATH=src

.PHONY: test differential incremental-differential \
	lane-differential bench-smoke bench \
	bench-frontend bench-incremental \
	bench-lanes profile server-smoke batch-smoke perfbench-smoke

# Tier-1 gate: the full unit/integration/property suite.
test:
	$(PP) $(PY) -m pytest -x -q

# The standing oracle + batch-engine suites (fast subset for CI jobs
# that iterate on solver fast paths).  Includes the front-end golden
# equivalence suite (the batched lexer and token-stream parser must
# stay byte-identical to the frozen reference scanner), the fused
# solver against the per-kind oracle, the container-loader round
# trips, the v5 summary writer against the decode oracle (every
# container decodes to exactly the summary_to_dict payload), and the
# alias mask drain against the pair-set oracle (table identity).
differential:
	$(PP) $(PY) -m pytest -q tests/test_differential.py tests/test_batch.py \
	    tests/test_linearity_guard.py tests/test_persist_roundtrip.py \
	    tests/test_frontend_equivalence.py tests/test_fused_differential.py \
	    tests/test_arena_image.py tests/test_persist_writer.py \
	    tests/test_aliases.py

# The incremental-engine oracle: randomized edit-sequence fuzzing
# (byte-identity against scratch on both solver paths after every
# step, live and from the index read back out of a written container,
# including a program named after one of its procedures), the
# invalidation-region soundness property, the incremental unit suite,
# the dependency-index persistence round-trips (format-3 state files
# and bodies cut, flipped or swapped end in a full re-solve), the
# daemon's update replies (the summary the client returns, full or put
# back for the empty delta, equals a scratch render after every fuzz
# step, and an update answers the empty delta exactly when the two
# versions' scratch containers are byte-identical, a row the container
# hides included, both for the stock client, which gets container
# replies, and for a protocol-2 JSON-lines client, which gets summary
# JSON; set-moving updates, LRU and disk hits and laned sessions in both
# forms; a stock-client session never renders), and the
# front end's splice (a text-edit fuzz: the program
# compiled against the previous version equals a full compile, or both
# raise the same error; body edits splice, line-moving, call-adding,
# declaration and cross-procedure edits compile in full; the previous
# version is never changed, and after every step the update's index
# section equals a scratch index's, byte for byte), and the update's
# early cutoff (a literal edit of a spliced version lowers, condenses
# and solves nothing and writes no mask; thirty such updates leave the
# first version collectable; identifier, argument-swap, nested and
# value-argument edits that move an input, laned sessions and an
# iterator hint take the engine's path and equal scratch), and the
# update's "no set moved" test (`persist.carry` names no set and
# carries exactly when the scratch containers are byte-identical).
incremental-differential:
	$(PP) $(PY) -m pytest -q tests/test_incremental_fuzz.py \
	    tests/test_incremental.py tests/test_depindex.py \
	    tests/test_server_delta.py tests/test_splice.py \
	    tests/test_persist_writer.py::test_carry_names_nothing

# The one regular-sections solver held to the sweep oracle
# (baselines/sections_sweep.py) on both lattices (figure3, ranges) and
# both kinds (MOD, USE) across the 30-program sweep, the corpus and the
# fuzz corpora, plus the solver and range-lattice suites; the refalias
# lane against the pair-set alias oracle, one condensation per graph
# with all three lanes, the Dyck precision baseline (ALIAS ⊆ DYCK,
# never loaded in the fast path), lane blocks in a cache record's
# metadata, and daemon sessions that keep their lanes across updates
# and restarts (the state file names the lanes; an update re-solves
# them).
lane-differential:
	$(PP) $(PY) -m pytest -q tests/test_lanes.py \
	    tests/test_sections_solver.py tests/test_sections_ranges.py

# One tiny batch benchmark plus the front-end, incremental and lane
# benchmark smokes (each writes its BENCH_*.json), timing assertions
# disabled — keeps the benchmark suite import-clean without paying for
# a real measurement run.
bench-smoke:
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_batch.py -k smoke \
	    --benchmark-disable
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_frontend.py -k smoke \
	    --benchmark-disable
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_incremental.py -k smoke \
	    --benchmark-disable
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_lanes.py -k smoke \
	    --benchmark-disable

# The full measured benchmark suite (slow).
bench:
	$(PP) $(PY) -m pytest benchmarks -q

# The front-end & serialization fast-path measurement (E11): writes
# BENCH_frontend.json at the repo root and asserts the ≥3x tokenizer
# and ≥1.5x end-to-end claims on the 10k workload.  Resize with
# CK_FRONTEND_BENCH_PROCS / CK_FRONTEND_BENCH_REPEATS.
bench-frontend:
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_frontend.py -s

# The incremental-engine measurement (E13): writes
# BENCH_incremental.json at the repo root and asserts the ≥10x
# update-vs-scratch claims (warm and after an index reload) on the
# 10k workload.  Resize with CK_INCR_BENCH_PROCS /
# CK_INCR_BENCH_REPEATS; set CK_INCR_BENCH_100K=1 to add the
# 100k-procedure region check.
bench-incremental:
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_incremental.py -s

# The effect-lane measurement (E15): writes BENCH_lanes.json at the
# repo root — 0/1/2-lane fused runs against the sections sweep oracle,
# asserting the sections lane costs < 40% of a sweep solve, one
# condensation throughout.  Resize with CK_LANE_BENCH_PROCS /
# CK_LANE_BENCH_REPEATS.
bench-lanes:
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_lanes.py -s

# Where does the time go?  Per-phase breakdown + cProfile hot spots on
# a generated workload (see `ck-analyze profile --help` for knobs).
profile:
	$(PP) $(PY) -m repro.cli profile --gen-procs 2000 --gen-globals 200

# End-to-end daemon check: spawn `ck-analyze serve` as a real OS
# process with --state-dir, open a laned session through the client and
# on a raw socket with and without "accept": "container" (the container
# reply carries no summary JSON; the three summaries are equal), run one
# update + one query through the client, shut it down cleanly and verify
# the --metrics-json dump; then restart on the same state dir and check
# the next update reloads the index and keeps the lanes, and that the
# state dir holds only .cki files.
server-smoke:
	$(PP) $(PY) tests/server_smoke.py

# End-to-end batch check: run `ck-analyze batch` as a real OS process on
# a generated three-file corpus (one of 300 procedures), cold then warm,
# lane-less and with --lanes sections,refalias; each warm run must be all
# cache hits with zero bit-vector steps and the cold run's per-lane file
# counts, and every .ck-cache entry must load to its source's summary.
batch-smoke:
	$(PP) $(PY) tests/batch_smoke.py

# End-to-end benchmark smoke, about 5 s per workload: one short
# perfbench run of flat-1k and one of session-500.  Each run reads back
# what it wrote or was sent through the public loaders and holds it to
# the digests recorded in perfbench/record.json; the target fails
# unless each run's last line reports "correct": true and "failed": 0.
perfbench-smoke:
	@for workload in flat-1k session-500; do \
	    out=$$($(PY) perfbench/run.py --workload $$workload --seed 0 --seconds 1) \
	        || { echo "$$out"; exit 1; }; \
	    echo "$$out"; \
	    echo "$$out" | tail -n 1 | $(PY) -c 'import json, sys; \
	        result = json.loads(sys.stdin.read()); \
	        ok = result["correct"] is True and result["failed"] == 0; \
	        sys.exit(0 if ok else "perfbench-smoke: %s failed its checks" % sys.argv[1])' \
	        $$workload || exit 1; \
	done
