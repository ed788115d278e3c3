#!/usr/bin/env bash
# Seed the performance trajectory: measure every benchmark app through
# psaflowc (cold disk cache, then warm) plus a short psaflowd serving burst,
# and write the numbers to BENCH_5.json at the repo root so future PRs can
# diff regressions instead of guessing.
#
# Captured per app: cold/warm wall seconds and the profile-cache hit rate of
# the warm run (from the Prometheus counter export). Captured for the
# daemon: request count, latency/queue-wait p50/p99 from the histograms,
# and the cache hit rates of the serving run.
#
# usage: scripts/bench_report.sh [psaflowc] [psaflowd] [psaflow-client] [out]
set -euo pipefail

cd "$(dirname "$0")/.."
PSAFLOWC=${1:-build/tools/psaflowc}
PSAFLOWD=${2:-build/tools/psaflowd}
CLIENT=${3:-build/tools/psaflow-client}
OUT=${4:-BENCH_5.json}

for bin in "$PSAFLOWC" "$PSAFLOWD" "$CLIENT"; do
    if [ ! -x "$bin" ]; then
        echo "binary not found at '$bin' (build it first, or pass the" \
             "path as an argument)" >&2
        exit 1
    fi
done

WORK=$(mktemp -d "${TMPDIR:-/tmp}/psaflow-bench.XXXXXX")
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill -KILL "$DAEMON_PID" 2> /dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

APPS=(nbody adpredictor kmeans rushlarsen bezier)

now_ns() { date +%s%N; }

counter() { # counter <metrics-file> <prometheus-name>
    awk -v name="$2" '$1 == name { print $2; found = 1 }
                      END { if (!found) print 0 }' "$1"
}

echo "== bench report via $PSAFLOWC =="
BENCH_ROWS="$WORK/rows.tsv"
: > "$BENCH_ROWS"
for app in "${APPS[@]}"; do
    cache="$WORK/cache-$app"

    t0=$(now_ns)
    "$PSAFLOWC" --app "$app" --cache-dir "$cache" \
        --out "$WORK/cold-$app" > /dev/null
    t1=$(now_ns)
    cold_s=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.4f", (b-a)/1e9 }')

    t0=$(now_ns)
    "$PSAFLOWC" --app "$app" --cache-dir "$cache" \
        --out "$WORK/warm-$app" \
        --metrics-out "$WORK/warm-$app.prom" > /dev/null
    t1=$(now_ns)
    warm_s=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.4f", (b-a)/1e9 }')

    hits=$(counter "$WORK/warm-$app.prom" psaflow_profile_cache_hits)
    misses=$(counter "$WORK/warm-$app.prom" psaflow_profile_cache_misses)
    printf '%s\t%s\t%s\t%s\t%s\n' \
        "$app" "$cold_s" "$warm_s" "$hits" "$misses" >> "$BENCH_ROWS"
    echo "  $app: cold ${cold_s}s, warm ${warm_s}s"
done

# ---- daemon burst ----------------------------------------------------------
SOCK="$WORK/psaflowd.sock"
"$PSAFLOWD" --socket "$SOCK" --workers 4 --out "$WORK/served" \
    --cache-dir "$WORK/cache-daemon" > /dev/null 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do
    if "$CLIENT" --socket "$SOCK" --ping > /dev/null 2>&1; then break; fi
    sleep 0.05
done

pids=()
for i in $(seq 0 9); do
    app=${APPS[$((i % ${#APPS[@]}))]}
    "$CLIENT" --socket "$SOCK" --app "$app" --out "req-$i" \
        --retry 400 > /dev/null &
    pids+=($!)
done
wait "${pids[@]}"
"$CLIENT" --socket "$SOCK" --stats --json > "$WORK/stats.json"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || true
DAEMON_PID=""
echo "  daemon: 10 requests served"

python3 - "$BENCH_ROWS" "$WORK/stats.json" "$OUT" << 'EOF'
import json, sys

rows, stats_path, out = sys.argv[1], sys.argv[2], sys.argv[3]
benchmarks = []
with open(rows) as fh:
    for line in fh:
        app, cold, warm, hits, misses = line.split("\t")
        hits, misses = int(hits), int(misses)
        lookups = hits + misses
        benchmarks.append({
            "app": app,
            "cold_wall_s": float(cold),
            "warm_wall_s": float(warm),
            "warm_profile_cache_hits": hits,
            "warm_profile_cache_misses": misses,
            "warm_profile_cache_hit_rate":
                round(hits / lookups, 4) if lookups else 0.0,
        })

with open(stats_path) as fh:
    stats = json.load(fh)

def histogram(name):
    h = stats.get(name, {})
    return {k: h.get(k, 0) for k in ("count", "mean", "p50", "p90", "p99")}

cache = stats.get("cache", {})
report = {
    "schema_version": 1,
    "pr": 5,
    "generated_by": "scripts/bench_report.sh",
    "benchmarks": benchmarks,
    "daemon": {
        "workers": stats.get("workers", 0),
        "requests_completed":
            stats.get("requests", {}).get("completed", 0),
        "request_latency_us": histogram("request_latency_us"),
        "queue_wait_us": histogram("queue_wait_us"),
        "cas_hit_rate": round(cache.get("cas_hit_rate", 0.0), 4),
        "profile_cache_hit_rate":
            round(cache.get("profile_cache_hit_rate", 0.0), 4),
    },
}
with open(out, "w") as fh:
    json.dump(report, fh, indent=2)
    fh.write("\n")
EOF

echo "bench report written to $OUT"

