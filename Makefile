.PHONY: all check test fmt bench bench-smoke bench-churn-smoke \
	bench-scale-smoke bench-scale-large bench-compare-smoke \
	bench-oracle-smoke bench-repair-smoke bench-daemon-smoke \
	trace-smoke serve-smoke clean

all:
	dune build @all

check:
	dune build @all && dune runtest

test:
	dune runtest

fmt:
	dune fmt

bench:
	dune exec bench/main.exe -- quick

# Fast scaling check: E-par at reduced size, emits BENCH_relaxed.json
# and asserts the spanner is identical across domain counts.
bench-smoke:
	dune exec bench/main.exe -- E-par quick

# Fast churn check: E-churn at reduced size, emits BENCH_dynamic.json
# and asserts every epoch certifies and replays are bit-identical
# across domain counts.
bench-churn-smoke:
	dune exec bench/main.exe -- E-churn quick

# Scaling gate: E-scale at reduced size, emits BENCH_scale.json.
# TOPO_SCALE_GATE makes a determinism violation or a perf-gate
# failure exit non-zero (>= 2 cores: 4-domain wall within 10% of
# 1-domain; 1 core: oversubscription penalty bounded at 2x), and on
# >= 2 cores also a cluster_graph stage that does not stay flat
# across domain counts.
bench-scale-smoke:
	TOPO_SCALE_GATE=1 dune exec bench/main.exe -- E-scale quick

# Full-size scale record: E-scale at n = 2*10^4 (TOPO_SCALE_N
# overrides) across 1/2/4/8 domains, gated like the smoke. The
# n = 10^5 end-to-end generate+build leg runs only when the box has
# spare cores; on a 1-2 core machine it is skipped to keep the wall
# budget honest (set TOPO_SCALE_BIG=1 to force it).
bench-scale-large:
	TOPO_SCALE_GATE=1 TOPO_SCALE_N=$${TOPO_SCALE_N:-20000} \
	TOPO_SCALE_BIG=$${TOPO_SCALE_BIG:-$$(test "$$(nproc)" -ge 4 && echo 1 || echo 0)} \
		dune exec bench/main.exe -- E-scale

# Backend head-to-head at tiny n: every registered SPANNER backend
# builds one instance; emits BENCH_compare.json and fails if any
# backend violates its advertised stretch.
bench-compare-smoke:
	dune exec bench/main.exe -- E-compare quick

# Query-serving gate: E-qps at reduced size, emits BENCH_oracle.json.
# TOPO_QPS_GATE makes any sub-gate failure exit non-zero: oracle
# estimates must sit in [exact, (1+eps) exact], distance batches must
# be bit-identical at 1 and 4 domains, the far-path batch must not
# allocate per query, and on >= 4 cores the 4-domain batch must run
# at >= 2x the 1-domain qps (1 core: ratio recorded but waived).
bench-oracle-smoke:
	TOPO_QPS_GATE=1 dune exec bench/main.exe -- E-qps quick

# Incremental-repair gate: E-repair at reduced size (TOPO_REPAIR_N
# overrides n), splices a "repair" member into BENCH_oracle.json.
# Chains Dist.repair across a mild churn trace against per-epoch
# scratch builds; repaired answers must sit in [exact, (1+eps) exact]
# every epoch. TOPO_REPAIR_GATE makes a validity failure exit
# non-zero, and an aggregate repair speedup below 1x vs scratch too
# (waived on 1 core, like E-qps).
bench-repair-smoke:
	TOPO_REPAIR_GATE=1 dune exec bench/main.exe -- E-repair quick

# Daemon gate: E-daemon at reduced size, emits BENCH_daemon.json.
# An unpaced daemon replays a recorded tail (sustained ev/s), a paced
# one serves two query domains concurrently (epoch-stamped answers
# must be consistent per epoch), and a restart from a mid-history
# checkpoint must finish byte-identical to the uninterrupted run.
# TOPO_DAEMON_GATE makes a consistency or resume failure exit
# non-zero.
bench-daemon-smoke:
	TOPO_DAEMON_GATE=1 dune exec bench/main.exe -- E-daemon quick

# Daemon lifecycle smoke through the CLI: record a trace, serve it,
# answer live ping/query traffic, SIGTERM mid-history, restart from
# the checkpoint. The kill must be invisible: the resumed run replays
# only the remaining epochs and ends with a final checkpoint
# byte-identical to an uninterrupted run's, answering an identical
# query batch identically. Artifacts in ./serve-smoke-out.
serve-smoke:
	bash scripts/serve_smoke.sh

# Observability smoke: run a traced scaling bench (spans from the
# builder, pool, and stage timers), then validate the emitted Chrome
# trace — well-formed JSON, strictly nested spans per (pid, tid) lane.
trace-smoke:
	TOPO_TRACE=trace.json TOPO_EAGER_WAKE=1 \
		dune exec bench/main.exe -- E-par quick
	dune exec bin/topoctl.exe -- trace-check trace.json

clean:
	dune clean
	rm -rf serve-smoke-out
