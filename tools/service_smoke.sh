#!/usr/bin/env bash
# End-to-end smoke test of the query-serving sketch service over real HTTP
# (docs/SERVICE.md), run by the service-smoke CI job and runnable locally:
#
#   tools/service_smoke.sh <work_dir> [build_dir]
#
# Everything is fixed-seed and bounded-duration. Every run joins against
# one reference sketch built by `sketchsample sketch` at the service's
# shape and seed, so /query/join is checked like every other endpoint.
# Three scenarios:
#
#   1. Bit-exactness: ingest a zipf dataset through POST /ingest, then
#      require every query endpoint to answer byte-identically to
#      `sketchsample offline` over the same file and configuration.
#   2. Query load: a short multi-threaded loadgen run; any failed request
#      fails the smoke (loadgen exits non-zero on errors > 0).
#   3. Kill -9 + resume: checkpoint while ingesting on 2 shards, SIGKILL
#      the server mid-stream, resume a fresh server on 3 shards from the
#      checkpoint, re-push the stream, and require the same byte-identical
#      answers — modulo the "sequence" field, a per-process snapshot
#      counter (docs/SERVICE.md). A checkpoint is the merged engine state,
#      so the resumed shard count need not match the writer's.
#
# Server stdout/err land in <work_dir>/*.log|err for CI artifact upload.
set -euo pipefail

work="${1:?usage: service_smoke.sh <work_dir> [build_dir]}"
build_dir="${2:-build}"
cli="$build_dir/tools/sketchsample"
loadgen="$build_dir/tools/loadgen"
mkdir -p "$work"

# Fixed configuration — must stay identical between serve and offline.
tuples=50000
domain=20000
gen_seed=20090402
sketch_flags=(--buckets=512 --rows=3 --scheme=eh3 --seed=33)
engine_flags=(
  "${sketch_flags[@]}"
  --shards=2 --shed-p=0.5 --shed-seed=42
  --distinct-k=256 --quantile-k=200 --subpop-k=256 --snapshot-every=8192
  --join-sketch="$work/reference.sk"
)
keys="17,4242,9999"
quantiles="0.5,0.9,0.99"
subpop_filters="mod:10-3;range:0-99"

pids=()
cleanup() {
  for pid in "${pids[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

start_server() {  # start_server <port_file> <log_prefix> [extra serve flags...]
  local port_file="$1" log_prefix="$2"
  shift 2
  rm -f "$port_file"
  "$cli" serve "${engine_flags[@]}" \
    --port=0 --port-file="$port_file" --run-seconds=300 "$@" \
    >"$work/$log_prefix.log" 2>"$work/$log_prefix.err" &
  pids+=("$!")
  for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    sleep 0.2
  done
  [ -s "$port_file" ] || { echo "FAIL: server never wrote $port_file" >&2
                           cat "$work/$log_prefix.err" >&2; exit 1; }
}

strip_sequence() { sed -E 's/"sequence":[0-9]+/"sequence":_/g' "$1"; }

echo "== generate dataset (${tuples} zipf tuples, seed ${gen_seed})"
"$cli" generate --kind=zipf --out="$work/data.txt" \
  --tuples="$tuples" --domain="$domain" --skew=1.0 --seed="$gen_seed"

echo "== join reference sketch (service shape and seed)"
"$cli" generate --kind=zipf --out="$work/reference.txt" \
  --tuples=20000 --domain="$domain" --skew=1.0 --seed="$((gen_seed + 1))"
"$cli" sketch "${sketch_flags[@]}" --in="$work/reference.txt" \
  --out="$work/reference.sk"

echo "== offline reference answers"
"$cli" offline "${engine_flags[@]}" --in="$work/data.txt" --keys="$keys" \
  --quantiles="$quantiles" --subpop-filters="$subpop_filters" \
  >"$work/offline.txt" 2>"$work/offline.err"

echo "== scenario 1: HTTP ingest must match offline byte for byte"
start_server "$work/port.txt" serve
port="$(cat "$work/port.txt")"
"$loadgen" --port="$port" --ingest-file="$work/data.txt" --close=true \
  --wait-done=true --once=true --keys="$keys" --distinct-weight=1 \
  --join-weight=1 --quantiles="$quantiles" \
  --subpop-filters="$subpop_filters" >"$work/online.txt"
grep -q '^join ' "$work/offline.txt" || {
  echo "FAIL: offline printed no join answer" >&2; exit 1; }
if ! diff -u "$work/offline.txt" "$work/online.txt"; then
  echo "FAIL: online answers diverge from offline" >&2
  exit 1
fi
echo "   bit-exact: OK"

echo "== scenario 2: query load (fixed seed, bounded duration)"
"$loadgen" --port="$port" --threads=2 --seconds=2 --seed=1 \
  --selfjoin-weight=2 --point-weight=2 --distinct-weight=1 --stats-weight=1 \
  --quantile-weight=1 --subpop-weight=1 --join-weight=1 \
  --key-domain="$domain" --json_out="$work/BENCH_loadgen.json"

echo "== scenario 3: kill -9 mid-ingest, resume from checkpoint at 3 shards"
start_server "$work/port2.txt" serve2 \
  --checkpoint-every=8192 --checkpoint-out="$work/ckpt.bin"
port2="$(cat "$work/port2.txt")"
crash_pid="${pids[-1]}"
# Ingest without closing, wait until snapshots (and the phase-locked
# checkpoints) cover most of the stream, then SIGKILL — no shutdown path.
"$loadgen" --port="$port2" --ingest-file="$work/data.txt" \
  --wait-position=40960 >/dev/null
for _ in $(seq 1 50); do
  [ -s "$work/ckpt.bin" ] && break
  sleep 0.2
done
[ -s "$work/ckpt.bin" ] || { echo "FAIL: no checkpoint written" >&2; exit 1; }
kill -9 "$crash_pid"
wait "$crash_pid" 2>/dev/null || true

# The last --shards wins: resume at another shard count than the writer's.
start_server "$work/port3.txt" serve3 --resume="$work/ckpt.bin" --shards=3
port3="$(cat "$work/port3.txt")"
# Resume contract: the producer re-pushes from the beginning; restore
# fast-forwards past the checkpointed prefix bit-exactly.
"$loadgen" --port="$port3" --ingest-file="$work/data.txt" --close=true \
  --wait-done=true --once=true --keys="$keys" --distinct-weight=1 \
  --join-weight=1 --quantiles="$quantiles" \
  --subpop-filters="$subpop_filters" >"$work/resumed.txt"
strip_sequence "$work/offline.txt" >"$work/offline_noseq.txt"
strip_sequence "$work/resumed.txt" >"$work/resumed_noseq.txt"
if ! diff -u "$work/offline_noseq.txt" "$work/resumed_noseq.txt"; then
  echo "FAIL: resumed answers diverge from offline (beyond sequence)" >&2
  exit 1
fi
echo "   kill -9 + resume at 3 shards bit-exact (modulo sequence): OK"

echo "service smoke: all scenarios passed"
