#!/usr/bin/env bash
# Run the perf-tracking benchmark suite and write BENCH_* artifacts at the
# repo root — the numbers EXPERIMENTS.md and PR descriptions quote.
#
#   scripts/run_bench.sh [build-dir]           # default: build
#   SENSORCER_BENCH_FILTER='Register|Lookup' scripts/run_bench.sh
#
# bench_exertion, bench_lease_churn, bench_header_overhead and
# bench_failover are report-style benches (virtual-time tables from their
# own main); their outputs are captured verbatim. The last two track the
# wire invocation pipeline: per-hop protocol/header cost and
# partition-driven failover. BENCH_exertion.txt includes the scatter-gather
# table (sequence vs overlapped parallel push vs pull on the fabric), the
# pull crew-size sweep and the PERF-5 marshalling micro-table (legacy string
# envelope vs flat interned codec: ns/call, bytes/call, allocs/call — the
# fan-out row is a hard regression gate), and BENCH_historian.txt the
# pipelined feeder-ingest delta plus the PERF-7 compressed-retention tables:
# Gorilla sealed-block ratio per signal shape (the steady row is a hard >=5x
# gate), tiered retention per byte, and the concurrent read-executor sweep. BENCH_flow.txt sweeps the streaming
# dataflow's stage reduction and sensor count, edge-fused vs central relay.
# bench_discovery (google-benchmark) sweeps federated-registry operations to
# 1e6 entries — register/renew/lookup-by-id must stay near-flat (PERF-6) —
# and BENCH_lease_churn.txt carries the batched-vs-individual renewal
# message columns. bench_chaos runs the seeded fault-injection sweep
# (src/chaos/) — seeds × provider counts on a 12-node fabric — and
# BENCH_chaos.txt carries the per-cell convergence/invariant table (CHAOS-1);
# any cell with violations fails the run.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
FILTER="${SENSORCER_BENCH_FILTER:-}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target bench_exertion bench_lease_churn \
  bench_header_overhead bench_failover bench_historian bench_flow \
  bench_discovery bench_chaos

echo "=== bench_discovery -> BENCH_discovery.txt ==="
"$BUILD_DIR/bench/bench_discovery" \
  ${FILTER:+--benchmark_filter="$FILTER"} | tee BENCH_discovery.txt

for b in exertion lease_churn header_overhead failover historian flow \
         chaos; do
  echo "=== bench_$b -> BENCH_$b.txt ==="
  "$BUILD_DIR/bench/bench_$b" | tee "BENCH_$b.txt"
done
