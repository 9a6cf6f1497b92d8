# Developer / CI entry points.  Everything runs against the in-tree
# sources (PYTHONPATH=src) — no install step needed.

PY ?= python
PP := PYTHONPATH=src

.PHONY: test differential shard-differential partition-differential \
	incremental-differential \
	lane-differential bench-smoke bench \
	bench-frontend bench-core bench-incremental bench-fleet \
	bench-lanes profile server-smoke fleet-smoke

# Tier-1 gate: the full unit/integration/property suite.
test:
	$(PP) $(PY) -m pytest -x -q

# The standing oracle + batch-engine suites (fast subset for CI jobs
# that iterate on solver fast paths).  Includes the front-end golden
# equivalence suite (the batched lexer and token-stream parser must
# stay byte-identical to the frozen reference scanner), the fused
# solver against the per-kind oracle, the .cka arena-image and
# container-loader round trips, and the mask-native summary writer
# against the dict-route encoder (byte identity).
differential:
	$(PP) $(PY) -m pytest -q tests/test_differential.py tests/test_batch.py \
	    tests/test_linearity_guard.py tests/test_persist_roundtrip.py \
	    tests/test_frontend_equivalence.py tests/test_fused_differential.py \
	    tests/test_arena_image.py tests/test_persist_writer.py

# The sharded-solver oracle: byte-equality against the monolithic
# pipeline over the differential corpus, the fuzz sweep (shard counts
# 1/2/4/8, both strategies), the partitioner edge cases, and the
# binary wire codec round-trips.
shard-differential:
	$(PP) $(PY) -m pytest -q tests/test_shard.py tests/test_shard_equivalence.py \
	    tests/test_shard_wire.py

# The structure-aware partitioner oracles: separator-tree structural
# invariants (SCCs never split, callee-first waves, sound scopes, a
# well-formed tree), boundary-variable quality vs greedy over the
# 30-program sweep and the 10k scale-free workload, and the shard
# equivalence fuzz asserting byte-identity across every --partition
# mode at shard counts 1/2/4/8.
partition-differential:
	$(PP) $(PY) -m pytest -q tests/test_separator.py \
	    tests/test_shard_equivalence.py

# The incremental-engine oracle: randomized edit-sequence fuzzing
# (byte-identity against scratch on both solver paths after every
# step), the invalidation-region soundness property, the incremental
# unit suite, and the dependency-index persistence round-trips.
incremental-differential:
	$(PP) $(PY) -m pytest -q tests/test_incremental_fuzz.py \
	    tests/test_incremental.py tests/test_depindex.py

# The effect-lane oracles: every lane value-identical to its
# standalone reference across the 30-program sweep and the fuzz
# corpora, one condensation per graph at any lane count, the Dyck
# precision baseline (ALIAS ⊆ DYCK, never loaded in the fast path),
# and the v4 lane-section persistence round-trips.
lane-differential:
	$(PP) $(PY) -m pytest -q tests/test_lanes.py

# One tiny batch benchmark plus the shard-benchmark smoke (which
# writes BENCH_shard.json), timing assertions disabled — keeps the
# benchmark suite import-clean without paying for a real measurement
# run.
bench-smoke:
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_batch.py -k smoke \
	    --benchmark-disable
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_shard.py -k smoke \
	    --benchmark-disable
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_frontend.py -k smoke \
	    --benchmark-disable
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_core.py -k smoke \
	    --benchmark-disable
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_incremental.py -k smoke \
	    --benchmark-disable
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_fleet.py -k smoke \
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

# The fused middle-end measurement (E12 + E16): writes BENCH_core.json
# at the repo root and asserts the ≥1.5x fused-vs-per-kind solve and
# ≥1.25x end-to-end claims on the 10k workload, plus the
# mmap-vs-pickle warm-start claim.  Resize with CK_CORE_BENCH_PROCS /
# CK_CORE_BENCH_REPEATS.
bench-core:
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_core.py -s

# The incremental-engine measurement (E13): writes
# BENCH_incremental.json at the repo root and asserts the ≥10x
# update-vs-scratch claims (warm and after an index reload) on the
# 10k workload.  Resize with CK_INCR_BENCH_PROCS /
# CK_INCR_BENCH_REPEATS; set CK_INCR_BENCH_100K=1 to add the
# 100k-procedure region check.
bench-incremental:
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_incremental.py -s

# The distributed-fleet measurement (E14): writes BENCH_fleet.json at
# the repo root — loopback workers vs the in-process shard pool vs
# monolithic, byte-identical across all three.  Resize with
# CK_FLEET_BENCH_PROCS / CK_FLEET_BENCH_REPEATS /
# CK_FLEET_BENCH_SHARDS / CK_FLEET_BENCH_WORKERS.
bench-fleet:
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_fleet.py -s

# The effect-lane measurement (E15): writes BENCH_lanes.json at the
# repo root — 0/1/2/3-lane fused runs vs a standalone sections solve,
# asserting the sections lane costs < 40% of the separate solve and
# that per-lane marginal cost is sublinear, one condensation
# throughout.  Resize with CK_LANE_BENCH_PROCS / CK_LANE_BENCH_REPEATS.
bench-lanes:
	$(PP) $(PY) -m pytest -q benchmarks/test_bench_lanes.py -s

# Where does the time go?  Per-phase breakdown + cProfile hot spots on
# a generated workload (see `ck-analyze profile --help` for knobs).
profile:
	$(PP) $(PY) -m repro.cli profile --gen-procs 2000 --gen-globals 200

# End-to-end daemon check: spawn `ck-analyze serve` as a real OS
# process, run one analyze + one query through the client, shut it
# down cleanly, and verify the --metrics-json dump.
server-smoke:
	$(PP) $(PY) tests/server_smoke.py

# End-to-end fleet check: a `batch --fleet` coordinator plus two
# `ck-analyze worker` OS processes over loopback TCP, run twice —
# healthy, then with one worker SIGKILLed mid-run — asserting per-file
# summary byte-equality against a fleetless run in both topologies.
fleet-smoke:
	$(PP) $(PY) tests/fleet_smoke.py
