#!/usr/bin/env bash
# run_benches.sh — Release perf-smoke harness.
#
# Builds the perf-relevant benchmarks in Release mode, runs them, and merges
# their JSON output into one report (default: BENCH_3.json in the repo root).
# The checkpoint-pipeline sweep (sync-full vs async-delta) is written to
# BENCH_8.json and self-gates on virtual-time ratios: async-delta stall
# <= 0.5x sync-full at world >= 64, and delta bytes-per-generation below
# full everywhere. The collective-selection
# topology sweep (1/2/4-node shapes x rail counts) is written to
# BENCH_9.json and self-gates: the hierarchical allreduce must beat every
# flat algorithm (and be the heuristic pick) for large messages on every
# multi-node shape.
# With --check <committed.json> it additionally fails (exit 1) when the fresh
# measurement regresses the committed reference by more than the tolerance
# (default 20%) on the gated wall-clock call rates, or when the eager
# posted-receive path performs any heap allocation per operation.
#
# Usage:
#   scripts/run_benches.sh [--build-dir DIR] [--out FILE] [--out-ckpt FILE]
#                          [--out-coll FILE] [--label NAME] [--check FILE]
#                          [--tolerance PCT] [--quick]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build-release
OUT=BENCH_3.json
OUT_CKPT=BENCH_8.json
OUT_COLL=BENCH_9.json
LABEL=current
CHECK=""
TOLERANCE="${MANATEE_BENCH_TOLERANCE:-20}"
QUICK=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --out-ckpt) OUT_CKPT="$2"; shift 2 ;;
    --out-coll) OUT_COLL="$2"; shift 2 ;;
    --label) LABEL="$2"; shift 2 ;;
    --check) CHECK="$2"; shift 2 ;;
    --tolerance) TOLERANCE="$2"; shift 2 ;;
    --quick) QUICK=1; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
TARGETS=(bench_table1_call_rates bench_p2p_rate bench_fig9_ckpt_restart bench_coll_algorithms)
if grep -q "GOOGLE_BENCHMARK_LIB:FILEPATH=.*benchmark" "$BUILD_DIR/CMakeCache.txt" 2>/dev/null; then
  TARGETS+=(bench_micro_components)
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TARGETS[@]}"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

TABLE1_ARGS=()
P2P_ARGS=()
if [[ $QUICK -eq 1 ]]; then
  TABLE1_ARGS+=(--ranks 16)
  P2P_ARGS+=(--iters 50000 --ping-iters 5000)
fi

"$BUILD_DIR/bench_table1_call_rates" "${TABLE1_ARGS[@]}" --json "$TMP/table1.json"
# --check is the pipeline gate: async-delta stall <= 0.5x sync-full at
# world >= 64 and delta bytes/gen < full bytes/gen (virtual-time ratios, so
# no machine-dependent tolerance is needed).
"$BUILD_DIR/bench_fig9_ckpt_restart" --json "$OUT_CKPT" --check
echo "wrote $OUT_CKPT"
# --check is the topology gate: hier allreduce beats every flat algorithm
# (and is the heuristic pick) at large messages on every multi-node shape
# (virtual-time ratios again, so no tolerance).
"$BUILD_DIR/bench_coll_algorithms" --json "$OUT_COLL" --check
echo "wrote $OUT_COLL"
"$BUILD_DIR/bench_p2p_rate" "${P2P_ARGS[@]}" --json "$TMP/p2p.json"
if [[ -x "$BUILD_DIR/bench_micro_components" ]]; then
  "$BUILD_DIR/bench_micro_components" \
    --benchmark_format=json > "$TMP/micro.json" || true
fi

python3 - "$TMP" "$OUT" "$LABEL" <<'EOF'
import json, sys, os
tmp, out, label = sys.argv[1], sys.argv[2], sys.argv[3]

def load(name):
    path = os.path.join(tmp, name)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)

report = {"label": label, "table1": load("table1.json")}
report.update(load("p2p.json") or {})
micro = load("micro.json")
if micro:
    report["micro"] = {
        b["name"]: {"ns_per_op": b.get("real_time")}
        for b in micro.get("benchmarks", [])
    }
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
EOF

if [[ -n "$CHECK" ]]; then
  python3 - "$OUT" "$CHECK" "$TOLERANCE" <<'EOF'
import json, sys
fresh_path, ref_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
fresh = json.load(open(fresh_path))
ref = json.load(open(ref_path))
# The committed file stores {"baseline": ..., "current": ...}; gate against
# the "current" (post-optimization) numbers.
if "current" in ref:
    ref = ref["current"]

failures = []

def gate_rate(name, fresh_v, ref_v):
    if not ref_v:
        return
    floor = ref_v * (1 - tol / 100.0)
    status = "OK" if fresh_v >= floor else "REGRESSION"
    print(f"{name}: fresh={fresh_v:.1f} ref={ref_v:.1f} floor={floor:.1f} {status}")
    if fresh_v < floor:
        failures.append(name)

gate_rate("wall_coll_calls_per_sec",
          fresh["table1"]["wall_coll_calls_per_sec"],
          ref["table1"]["wall_coll_calls_per_sec"])
gate_rate("wall_p2p_calls_per_sec",
          fresh["table1"]["wall_p2p_calls_per_sec"],
          ref["table1"]["wall_p2p_calls_per_sec"])
gate_rate("p2p_pingpong.msgs_per_sec",
          fresh["p2p_pingpong"]["msgs_per_sec"],
          ref["p2p_pingpong"]["msgs_per_sec"])
gate_rate("p2p_store_eager.msgs_per_sec",
          fresh["p2p_store_eager"]["msgs_per_sec"],
          ref["p2p_store_eager"]["msgs_per_sec"])

allocs = fresh["p2p_store_eager"]["allocs_per_op"]
print(f"p2p_store_eager.allocs_per_op: {allocs:.4f} "
      f"{'OK' if allocs <= 0.01 else 'FAIL (eager path must be alloc-free)'}")
if allocs > 0.01:
    failures.append("p2p_store_eager.allocs_per_op")

if failures:
    print("perf-smoke FAILED: " + ", ".join(failures))
    sys.exit(1)
print("perf-smoke passed")
EOF
fi
