.PHONY: all check test fmt bench bench-churn-smoke \
	bench-scale-smoke bench-scale-large bench-compare-smoke \
	bench-oracle-smoke bench-repair-smoke bench-daemon-smoke \
	trace-smoke serve-smoke fingerprints fingerprints-diff clean

all:
	dune build @all

check:
	dune build @all && dune runtest

test:
	dune runtest

fmt:
	dune fmt

# Every experiment at reduced size. Bench gates are always on: the
# harness runs every selected experiment, then names each failed gate
# on stderr and exits 2. Quick runs write BENCH_<x>.quick.json, never
# the committed full-size BENCH_<x>.json records.
bench:
	dune exec bench/main.exe -- quick

# Fast churn check: E-churn at reduced size, emits
# BENCH_dynamic.quick.json and gates on replays being bit-identical
# across 1 and 4 domains.
bench-churn-smoke:
	dune exec bench/main.exe -- E-churn quick

# Scaling gate: E-scale at reduced size, emits BENCH_scale.quick.json.
# Gates: builds bit-identical across 1/2/4/8 domains; the
# hardware-aware perf gate (>= 2 cores: 4-domain wall within 10% of
# 1-domain; 1 core: oversubscription penalty bounded at 2x); and on
# >= 2 cores a cluster_graph stage that stays flat across domain
# counts.
bench-scale-smoke:
	dune exec bench/main.exe -- E-scale quick

# Full-size scale record: E-scale at n = 2*10^4 (TOPO_SCALE_N
# overrides) across 1/2/4/8 domains, gated like the smoke. The
# n = 10^5 end-to-end generate+build leg runs only when the box has
# spare cores; on a 1-2 core machine it is skipped to keep the wall
# budget honest (set TOPO_SCALE_BIG=1 to force it). Emits
# BENCH_scale.json.
bench-scale-large:
	TOPO_SCALE_N=$${TOPO_SCALE_N:-20000} \
	TOPO_SCALE_BIG=$${TOPO_SCALE_BIG:-$$(test "$$(nproc)" -ge 4 && echo 1 || echo 0)} \
		dune exec bench/main.exe -- E-scale

# Backend head-to-head at tiny n: every registered SPANNER backend
# builds one instance; emits BENCH_compare.quick.json and gates on each
# backend's advertised stretch.
bench-compare-smoke:
	dune exec bench/main.exe -- E-compare quick

# Query-serving gate: E-qps at reduced size, emits
# BENCH_oracle.quick.json. Gates: sampled pairs, until at least 1000
# answers came off the oracle's tables, keep the contract (answers in
# [exact, (1+eps) exact], searched answers exact, routes walks of the
# answer's length), distance batches are bit-identical at 1 and 4
# domains, the table answers' batch does not allocate per query, and the
# 4-domain batch clears the hardware-aware qps floor (>= 4 cores: 2x
# the 1-domain qps; 2-3 cores: 1.2x; 1 core: ratio recorded but
# waived).
bench-oracle-smoke:
	dune exec bench/main.exe -- E-qps quick

# Incremental-repair gate: E-repair at reduced size, sets the "repair"
# member of BENCH_oracle.quick.json. Chains Dist.repair across a mild
# churn trace against per-epoch scratch builds. Gates: every epoch the
# repaired and the scratch oracle both keep E-qps's sampled contract
# (answers in [exact, (1+eps) exact], no relative allowance), and the
# aggregate repair speedup is >= 1x vs scratch (waived on 1 core, like
# E-qps).
bench-repair-smoke:
	dune exec bench/main.exe -- E-repair quick

# Daemon gate: E-daemon at reduced size, emits BENCH_daemon.quick.json.
# An unpaced daemon replays a recorded tail (sustained ev/s), a paced
# one serves two query domains concurrently, and a restart resumes
# from a mid-history checkpoint. Gates: epoch-stamped answers are
# consistent per epoch, and the resumed run finishes byte-identical to
# the uninterrupted one.
bench-daemon-smoke:
	dune exec bench/main.exe -- E-daemon quick

# Daemon lifecycle smoke through the CLI: record a trace, serve it,
# answer live ping/query traffic, SIGTERM mid-history, restart from
# the checkpoint. The kill must be invisible: the resumed run replays
# only the remaining epochs and ends with a final checkpoint
# byte-identical to an uninterrupted run's, answering an identical
# query batch identically. Artifacts in ./serve-smoke-out.
serve-smoke:
	bash scripts/serve_smoke.sh

# Observability smoke: run the traced-build bench (spans from the
# builder, pool, and stage timers; E-obs has no perf gate for tracing
# to perturb), then validate the emitted Chrome trace — well-formed
# JSON, strictly nested spans per (pid, tid) lane.
trace-smoke:
	TOPO_TRACE=trace.json TOPO_EAGER_WAKE=1 \
		dune exec bench/main.exe -- E-obs quick
	dune exec bin/topoctl.exe -- trace-check trace.json

# Bit-identity fingerprints: MD5s of relaxed spanners at n = 10^4
# (seeds 1-3), the oracle's `topoctl query --batch` answers to 3000
# fixed pairs on the seed-1 spanner, greedy/ft/ft-vertex spanners at
# n = 1500, `topoctl rounds` at n = 800 and `simulate --full-protocol`
# at n = 60. Diff the output of two checkouts; a refactor must leave
# it unchanged.
fingerprints:
	bash scripts/fingerprints.sh

# The same check against a commit: make fingerprints-diff REF=<commit>
# runs scripts/fingerprints.sh in a temporary git worktree of REF and
# in the working tree, prints both, and exits 1 on any difference. The
# worktree is removed afterwards.
fingerprints-diff:
	bash scripts/fingerprints_diff.sh "$(REF)"

clean:
	dune clean
	rm -rf serve-smoke-out
