#!/usr/bin/env bash
# Bench smoke: runs the micro benches at tiny sizes and emits one
# BENCH_*.json-compatible line per suite for trajectory tracking.
#
#   tools/bench_smoke.sh [build_dir] [trajectory_out]
#
# Output: a `BENCH_JSON {...}` line per suite on stdout (same format the
# figure benches emit via bench::BenchLine), plus a BENCH_SMOKE.json file in
# the build dir aggregating the google-benchmark JSON reports. The query-
# churn cell (fig15_churn, tiny budget) contributes one line per engine with
# indexing / removal / answering split out.
#
# The BENCH_JSON lines are also collected into `trajectory_out` (default:
# BENCH_TRAJECTORY.json inside the build dir, so plain runs never clobber the
# committed BENCH_PR*.json baselines). To refresh the committed per-PR
# snapshot after perf-relevant changes, pass the target explicitly:
#
#   tools/bench_smoke.sh build BENCH_PR5.json
#
# CI's bench-regression gate diffs a fresh trajectory against the newest
# committed baseline via tools/bench_compare.py (completed cells only).
#
# On 1-CPU containers, measure A/B pairs by alternating runs and taking the
# min per configuration (see DESIGN.md §7 for the protocol); this script is
# the smoke pass, not the measurement pass.

set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
TRAJECTORY_OUT="${2:-$BUILD_DIR/BENCH_TRAJECTORY.json}"
BENCH_LINES_TMP="$(mktemp)"
trap 'rm -f "$BENCH_LINES_TMP"' EXIT

if [[ ! -d "$BUILD_DIR" ]]; then
  echo "bench_smoke: build dir '$BUILD_DIR' not found (run cmake first)" >&2
  exit 1
fi

SUITES=(micro_flatmap micro_join micro_trie micro_ingest micro_server)
OUT="$BUILD_DIR/BENCH_SMOKE.json"
REPORTS=()

for suite in "${SUITES[@]}"; do
  bin="$BUILD_DIR/$suite"
  if [[ ! -x "$bin" ]]; then
    echo "bench_smoke: $suite not built (google-benchmark missing?); skipping" >&2
    continue
  fi
  json="$BUILD_DIR/BENCH_${suite}.json"
  # Tiny sizes: min_time far below default so the whole smoke stays seconds.
  "$bin" --benchmark_min_time=0.01 \
         --benchmark_format=json \
         --benchmark_out="$json" \
         --benchmark_out_format=json >/dev/null 2>&1 || {
    echo "bench_smoke: $suite failed" >&2
    exit 1
  }
  REPORTS+=("$json")

  # One compact BENCH_JSON line per suite: benchmark count + total cpu time,
  # enough for a trajectory tracker to notice a build that got slower.
  python3 - "$suite" "$json" <<'EOF' | tee -a "$BENCH_LINES_TMP"
import json, sys
suite, path = sys.argv[1], sys.argv[2]
with open(path) as f:
    report = json.load(f)
benches = [b for b in report.get("benchmarks", []) if b.get("run_type") != "aggregate"]
total_cpu_ns = sum(b.get("cpu_time", 0.0) for b in benches)
items = [b["items_per_second"] for b in benches if "items_per_second" in b]
line = {
    "bench": f"smoke_{suite}",
    "benchmarks": len(benches),
    "total_cpu_ns": round(total_cpu_ns, 1),
    "max_items_per_sec": round(max(items), 1) if items else 0,
}
print("BENCH_JSON " + json.dumps(line, separators=(",", ":")))
# The window-delta kernel A/B pairs get individual lines: the Delta-vs-
# Looped items/s ratio is the batching win the trajectory tracks.
for b in benches:
    if "Window" not in b.get("name", ""):
        continue
    line = {
        "bench": f"smoke_{suite}_kernel",
        "name": b["name"],
        "items_per_sec": round(b.get("items_per_second", 0.0), 1),
    }
    print("BENCH_JSON " + json.dumps(line, separators=(",", ":")))
EOF
done

# Query-churn smoke: the dynamic-QDB cell (RemoveQuery + shared-view GC),
# tiny per-engine budget so the whole smoke stays seconds. Its BENCH_JSON
# lines (one per engine: updates/s, add/remove ms/query, end memory) join
# the trajectory snapshot.
if [[ -x "$BUILD_DIR/fig15_churn" ]]; then
  "$BUILD_DIR/fig15_churn" --budget-sec=2 --cell-budget-sec=2 \
    | grep '^BENCH_JSON ' | tee -a "$BENCH_LINES_TMP" \
    || { echo "bench_smoke: fig15_churn failed" >&2; exit 1; }
else
  echo "bench_smoke: fig15_churn not built; skipping churn line" >&2
fi

# High-overlap smoke: the fig12e sweep under batched execution, where the
# shared window finalization (DESIGN.md §9) collapses per-query final-join
# passes into per-signature passes. One line per (overlap, engine) with
# updates/s + the final_join_passes / shared_finalize_groups split; cells
# that blow the tiny budget are flagged partial and excluded from the CI
# regression gate (a partial cell's updates/s measures an arbitrary prefix).
if [[ -x "$BUILD_DIR/fig12e_snb_overlap" ]]; then
  "$BUILD_DIR/fig12e_snb_overlap" --cell-budget-sec=2 --batch=64 \
    | grep '^BENCH_JSON ' | tee -a "$BENCH_LINES_TMP" \
    || { echo "bench_smoke: fig12e_snb_overlap failed" >&2; exit 1; }
else
  echo "bench_smoke: fig12e_snb_overlap not built; skipping overlap lines" >&2
fi

# Query-DB scaling smoke: one tenant-duplication cell (DESIGN.md §12) small
# enough to complete inside the tiny budget. Its BENCH_JSON lines carry
# updates/s for the throughput gate
# and candidates_per_update for the routing-selectivity gate (a routed cell
# whose candidate count starts scaling with |QDB| again fails the trajectory
# diff even when throughput hides it).
if [[ -x "$BUILD_DIR/fig_scale_qdb" ]]; then
  "$BUILD_DIR/fig_scale_qdb" --tenants=20 --cell-budget-sec=2 --batch=64 \
    | grep '^BENCH_JSON ' | tee -a "$BENCH_LINES_TMP" \
    || { echo "bench_smoke: fig_scale_qdb failed" >&2; exit 1; }
else
  echo "bench_smoke: fig_scale_qdb not built; skipping scale lines" >&2
fi

# Sliding-window smoke: the two temporal cells (taxi 1-hour window,
# fraud rolling per-label TTLs + TTL'd queries). Their BENCH_JSON lines
# carry the expiry accounting (ingested_edges / expired_edges / live_edges)
# that tools/bench_compare.py gates with `ingested == live + expired +
# removed` — the benches themselves abort on a violation, so a line that
# made it here already passed once.
for wbench in fig16a_taxi_window fig16b_fraud_window; do
  if [[ -x "$BUILD_DIR/$wbench" ]]; then
    "$BUILD_DIR/$wbench" --budget-sec=2 --cell-budget-sec=2 \
      | grep '^BENCH_JSON ' | tee -a "$BENCH_LINES_TMP" \
      || { echo "bench_smoke: $wbench failed" >&2; exit 1; }
  else
    echo "bench_smoke: $wbench not built; skipping window lines" >&2
  fi
done

# Aggregate the per-suite reports into one *valid* JSON document (an array
# of google-benchmark reports), so consumers can json.load() the artifact.
python3 - "$OUT" "${REPORTS[@]}" <<'EOF'
import json, sys
out, paths = sys.argv[1], sys.argv[2:]
reports = []
for path in paths:
    with open(path) as f:
        reports.append(json.load(f))
with open(out, "w") as f:
    json.dump(reports, f, indent=1)
EOF

echo "bench_smoke: aggregated google-benchmark reports in $OUT" >&2

# Collect the BENCH_JSON lines into the committed trajectory snapshot: one
# valid JSON document {"generated_by", "lines": [...]} so consumers can
# json.load() it and diff per-PR numbers.
python3 - "$TRAJECTORY_OUT" "$BENCH_LINES_TMP" <<'EOF'
import json, sys
out, lines_path = sys.argv[1], sys.argv[2]
lines = []
with open(lines_path) as f:
    for line in f:
        line = line.strip()
        if line.startswith("BENCH_JSON "):
            lines.append(json.loads(line[len("BENCH_JSON "):]))
with open(out, "w") as f:
    json.dump({"generated_by": "tools/bench_smoke.sh", "lines": lines}, f, indent=1)
    f.write("\n")
EOF

echo "bench_smoke: trajectory snapshot written to $TRAJECTORY_OUT" >&2
