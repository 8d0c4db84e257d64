#!/usr/bin/env bash
# End-to-end smoke of the multi-process execution path (docs/DISTRIBUTED.md):
# run `midas discover` on a synthetic corpus single-process, then with
# --workers=4 (self-forked), then with a seeded worker_crash fault killing
# workers mid-unit, then in external coordinator/worker mode over a unix
# socket, then over localhost TCP with one worker crashing mid-unit, then
# off a shared columnar dump (self-forked, and a --method naive TCP fleet
# whose bytes per assignment are bounded) — every completing mode must
# produce a byte-identical slice list and an identical JSON report (modulo
# wall-clock seconds).
#
# Usage: scripts/dist_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
MIDAS="$BUILD_DIR/tools/midas"
WORK="$(mktemp -d)"

# CI sets DIST_SMOKE_LOG_DIR to salvage logs as artifacts when the smoke
# fails.
cleanup() {
  # Kill every background child (coordinator and workers) so a wedged
  # external-mode run can never outlive the script and hang CI; SIGKILL the
  # stragglers that ignore the TERM.
  local pids
  pids="$(jobs -p)"
  if [ -n "$pids" ]; then
    # shellcheck disable=SC2086
    kill $pids 2>/dev/null || true
    sleep 0.2
    # shellcheck disable=SC2086
    kill -9 $pids 2>/dev/null || true
  fi
  if [ -n "${DIST_SMOKE_LOG_DIR:-}" ]; then
    mkdir -p "$DIST_SMOKE_LOG_DIR"
    cp "$WORK"/*.log "$WORK"/*.json "$WORK"/*.err "$DIST_SMOKE_LOG_DIR"/ 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

if [ ! -x "$MIDAS" ]; then
  echo "error: $MIDAS not built — run: cmake --build $BUILD_DIR --target midas_cli" >&2
  exit 2
fi

# The JSON reports are compared wholesale except the wall-clock line.
strip_seconds() { grep -v '"seconds"' "$1"; }

check_identical() {
  local label="$1" tsv="$2" json="$3"
  diff "$WORK/base.tsv" "$WORK/$tsv" \
    || { echo "error: $label slices differ from single-process baseline" >&2; exit 1; }
  diff <(strip_seconds "$WORK/base.json") <(strip_seconds "$WORK/$json") \
    || { echo "error: $label JSON report differs from baseline" >&2; exit 1; }
}

echo "== generate synthetic corpus"
"$MIDAS" generate --dataset slim-nell --num_sources 30 --seed 7 \
  --dump "$WORK/dump.tsv" --kb "$WORK/kb.tsv" > /dev/null

echo "== single-process baseline"
"$MIDAS" discover --dump "$WORK/dump.tsv" --kb "$WORK/kb.tsv" --json \
  --out "$WORK/base.tsv" > "$WORK/base.json"

echo "== self-forked --workers=4"
"$MIDAS" discover --dump "$WORK/dump.tsv" --kb "$WORK/kb.tsv" --json \
  --workers 4 --out "$WORK/dist.tsv" > "$WORK/dist.json"
check_identical "--workers=4" dist.tsv dist.json

echo "== --workers=4 with seeded worker crashes"
# The worker_crash site _exits workers mid-unit; the coordinator must
# requeue + respawn and the run must heal to the same bytes. The rate/seed
# pair is pinned (fault decisions are a pure function of seed+site+key, so
# the fire set is reproducible): a handful of first assignments crash but
# no unit exhausts its 3-assignment budget, and the raised respawn limit
# keeps replacement workers available throughout.
"$MIDAS" discover --dump "$WORK/dump.tsv" --kb "$WORK/kb.tsv" --json \
  --workers 4 --worker_respawn_limit 64 \
  --fault_spec "site=worker_crash,rate=0.02,seed=5" \
  --out "$WORK/crash.tsv" > "$WORK/crash.json" 2> "$WORK/crash.err"
grep -q "dist: lost" "$WORK/crash.err" \
  || { echo "error: crash run lost no worker — fault never fired" >&2
       cat "$WORK/crash.err" >&2; exit 1; }
check_identical "crash-healed" crash.tsv crash.json

echo "== external coordinator + 2 workers over a unix socket"
SOCK="$WORK/dist.sock"
"$MIDAS" coordinator --dump "$WORK/dump.tsv" --kb "$WORK/kb.tsv" --json \
  --listen "$SOCK" --min_workers 2 --out "$WORK/ext.tsv" \
  > "$WORK/ext.json" 2> "$WORK/coord.err" &
COORD_PID=$!
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "error: coordinator never created $SOCK" >&2
                    cat "$WORK/coord.err" >&2; exit 1; }
"$MIDAS" worker --dump "$WORK/dump.tsv" --kb "$WORK/kb.tsv" \
  --connect "$SOCK" > "$WORK/w1.log" 2>&1 &
W1_PID=$!
"$MIDAS" worker --dump "$WORK/dump.tsv" --kb "$WORK/kb.tsv" \
  --connect "$SOCK" > "$WORK/w2.log" 2>&1 &
W2_PID=$!
wait "$COORD_PID" \
  || { echo "error: coordinator exited non-zero" >&2
       cat "$WORK/coord.err" "$WORK/w1.log" "$WORK/w2.log" >&2; exit 1; }
wait "$W1_PID" || { echo "error: worker 1 exited non-zero" >&2
                    cat "$WORK/w1.log" >&2; exit 1; }
wait "$W2_PID" || { echo "error: worker 2 exited non-zero" >&2
                    cat "$WORK/w2.log" >&2; exit 1; }
check_identical "external-mode" ext.tsv ext.json

echo "== external coordinator + 2 workers over localhost TCP, one crashing"
# Random high port; workers retry the connect (ConnectAddress) so launch
# order cannot race the coordinator's bind. Worker 1 is armed to _exit(137)
# on its first assigned unit — the coordinator must see the EOF, log the
# loss, re-assign the unit to the surviving worker, and still heal to the
# baseline bytes. The liveness deadline and heartbeats ride along so a
# wedged (rather than dead) worker would also be evicted instead of
# hanging the job.
TCP_PORT=$(( (RANDOM % 20000) + 30000 ))
"$MIDAS" coordinator --dump "$WORK/dump.tsv" --kb "$WORK/kb.tsv" --json \
  --listen "127.0.0.1:$TCP_PORT" --min_workers 2 \
  --worker_liveness_ms 10000 --out "$WORK/tcp.tsv" \
  > "$WORK/tcp.json" 2> "$WORK/tcp_coord.err" &
TCP_COORD_PID=$!
"$MIDAS" worker --dump "$WORK/dump.tsv" --kb "$WORK/kb.tsv" \
  --connect "127.0.0.1:$TCP_PORT" --heartbeat_ms 200 \
  --fault_spec "site=worker_crash,rate=1,seed=9,max_fires=1" \
  > "$WORK/tw1.log" 2>&1 &
TW1_PID=$!
"$MIDAS" worker --dump "$WORK/dump.tsv" --kb "$WORK/kb.tsv" \
  --connect "127.0.0.1:$TCP_PORT" --heartbeat_ms 200 \
  > "$WORK/tw2.log" 2>&1 &
TW2_PID=$!
wait "$TCP_COORD_PID" \
  || { echo "error: TCP coordinator exited non-zero" >&2
       cat "$WORK/tcp_coord.err" "$WORK/tw1.log" "$WORK/tw2.log" >&2
       exit 1; }
if wait "$TW1_PID"; then
  echo "error: crashing TCP worker exited zero — fault never fired" >&2
  cat "$WORK/tw1.log" >&2; exit 1
fi
wait "$TW2_PID" || { echo "error: surviving TCP worker exited non-zero" >&2
                     cat "$WORK/tw2.log" >&2; exit 1; }
grep -q "dist: lost" "$WORK/tcp_coord.err" \
  || { echo "error: TCP coordinator never reported the crashed worker" >&2
       cat "$WORK/tcp_coord.err" >&2; exit 1; }
check_identical "tcp-external" tcp.tsv tcp.json

echo "== shared-dump corpus: generate + convert to columnar (~1M facts)"
# Dense pages (~170 facts each): every worker loads this dump itself, so an
# assignment names its shard by source id and ships no facts, however large
# the page.
"$MIDAS" generate --dataset slim-nell --num_sources 290 \
  --entities_per_page 64 --seed 13 \
  --dump "$WORK/big.tsv" --kb "$WORK/big_kb.tsv" > /dev/null
"$MIDAS" convert --in "$WORK/big.tsv" --out "$WORK/big.col" --to columnar \
  > "$WORK/convert.log"

echo "== single-process baselines on the shared columnar dump"
"$MIDAS" discover --dump "$WORK/big.col" --kb "$WORK/big_kb.tsv" --json \
  --out "$WORK/big_base.tsv" > "$WORK/big_base.json"
"$MIDAS" discover --dump "$WORK/big.col" --kb "$WORK/big_kb.tsv" --json \
  --method naive --out "$WORK/naive_base.tsv" > "$WORK/naive_base.json"

echo "== self-forked --workers=2 off the shared dump"
"$MIDAS" discover --dump "$WORK/big.col" --kb "$WORK/big_kb.tsv" --json \
  --workers 2 --out "$WORK/big_dist.tsv" > "$WORK/big_dist.json" \
  2> "$WORK/big_dist.err"
diff "$WORK/big_base.tsv" "$WORK/big_dist.tsv" \
  || { echo "error: shared-dump dist slices differ from single-process" >&2
       exit 1; }
diff <(strip_seconds "$WORK/big_base.json") \
     <(strip_seconds "$WORK/big_dist.json") \
  || { echo "error: shared-dump dist JSON differs from single-process" >&2
       exit 1; }

echo "== assignment bytes: --method naive coordinator + 2 workers over TCP"
# Flat source-level units: no hierarchy child payloads, so
# coordinator->worker bytes are almost entirely the assignments themselves.
# 114 B/unit is what the same leg measured when shards still shipped as
# columnar record ranges; naming them by source id must not cost more.
MAX_BYTES_PER_ASSIGN=114
NAIVE_PORT=$(( (RANDOM % 20000) + 30000 ))
"$MIDAS" coordinator --dump "$WORK/big.col" --kb "$WORK/big_kb.tsv" --json \
  --method naive --listen "127.0.0.1:$NAIVE_PORT" --min_workers 2 \
  --out "$WORK/naive_tcp.tsv" \
  > "$WORK/naive_tcp.json" 2> "$WORK/naive_tcp.err" &
NAIVE_COORD_PID=$!
"$MIDAS" worker --dump "$WORK/big.col" --kb "$WORK/big_kb.tsv" \
  --method naive --connect "127.0.0.1:$NAIVE_PORT" \
  > "$WORK/naive_w1.log" 2>&1 &
NAIVE_W1_PID=$!
"$MIDAS" worker --dump "$WORK/big.col" --kb "$WORK/big_kb.tsv" \
  --method naive --connect "127.0.0.1:$NAIVE_PORT" \
  > "$WORK/naive_w2.log" 2>&1 &
NAIVE_W2_PID=$!
wait "$NAIVE_COORD_PID" \
  || { echo "error: naive TCP coordinator exited non-zero" >&2
       cat "$WORK/naive_tcp.err" "$WORK/naive_w1.log" \
           "$WORK/naive_w2.log" >&2; exit 1; }
wait "$NAIVE_W1_PID" || { echo "error: naive worker 1 exited non-zero" >&2
                          cat "$WORK/naive_w1.log" >&2; exit 1; }
wait "$NAIVE_W2_PID" || { echo "error: naive worker 2 exited non-zero" >&2
                          cat "$WORK/naive_w2.log" >&2; exit 1; }
diff "$WORK/naive_base.tsv" "$WORK/naive_tcp.tsv" \
  || { echo "error: naive TCP slices differ from single-process" >&2
       exit 1; }
diff <(strip_seconds "$WORK/naive_base.json") \
     <(strip_seconds "$WORK/naive_tcp.json") \
  || { echo "error: naive TCP JSON differs from single-process" >&2
       exit 1; }
# The last round-complete line carries process-wide totals for the run.
bytes_per_assign=$(awk '/dist: round complete/ {
    for (i = 1; i <= NF; ++i) { split($i, kv, "="); v[kv[1]] = kv[2] }
  }
  END { if (v["assigns"] > 0) printf "%d\n", v["bytes_sent"] / v["assigns"] }' \
  "$WORK/naive_tcp.err")
[ -n "$bytes_per_assign" ] \
  || { echo "error: naive TCP coordinator logged no round" >&2
       cat "$WORK/naive_tcp.err" >&2; exit 1; }
echo "assignment bytes/unit: $bytes_per_assign (max $MAX_BYTES_PER_ASSIGN)"
[ "$bytes_per_assign" -le "$MAX_BYTES_PER_ASSIGN" ] \
  || { echo "error: $bytes_per_assign B/assignment above $MAX_BYTES_PER_ASSIGN" >&2
       exit 1; }

echo "dist smoke OK"
