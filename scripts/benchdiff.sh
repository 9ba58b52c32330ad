#!/bin/sh
# benchdiff.sh — the performance-regression gate. Runs the tracked
# benchmarks (exec cache hot paths, analytic sweep engine, serve HTTP
# cached path, the flow/route/place/sta perf-critical paths, and the
# Monte-Carlo yield window) and fails when any benchmark is more than
# THRESHOLD_PCT slower — or allocates more than ALLOC_THRESHOLD_PCT more
# objects per op — than the committed baseline bench/BENCH_0.json.
#
#   ./scripts/benchdiff.sh                 # run + compare vs baseline
#   THRESHOLD_PCT=40 ./scripts/benchdiff.sh
#   BENCHTIME=1s COUNT=5 ./scripts/benchdiff.sh   # steadier numbers
#
# The baseline records the host it was measured on (nproc, GOMAXPROCS,
# CPU model, Go version). A baseline from a different host is refused:
# the script prints both stamps and exits non-zero without comparing.
# Re-record by deleting bench/BENCH_0.json and running the script — the
# first run on a machine without a baseline writes it and exits 0;
# commit that file to arm the gate. Every other run writes nothing into
# the tree. Each benchmark runs COUNT times and the MINIMUM ns/op and
# allocs/op are kept (the min is the least noisy estimator of the code's
# true cost under scheduler jitter; see EXPERIMENTS.md "Benchmark
# regression gate"). Schema:
#   "host": {"nproc": <n>, "gomaxprocs": <n>, "cpu": "<model>", "go": "<version>"}
#   "BenchmarkName": {"ns_per_op": <float>, "allocs_per_op": <float>}
# A benchmark entry without both fields, in the baseline or in the run,
# fails the gate.
set -eu

THRESHOLD_PCT="${THRESHOLD_PCT:-25}"
ALLOC_THRESHOLD_PCT="${ALLOC_THRESHOLD_PCT:-25}"
BENCHTIME="${BENCHTIME:-0.5s}"
COUNT="${COUNT:-3}"
BENCHDIR="bench"

# TRACKED is the closed list of benchmarks the gate protects. Every name
# must appear in the run output below; a missing one (renamed benchmark,
# silently failing package, pattern typo) fails the script immediately
# instead of producing a hollow baseline.
TRACKED="BenchmarkCacheChurnLRU BenchmarkCacheHitLRU BenchmarkCacheHitLRUParallel \
BenchmarkCacheHitUnbounded BenchmarkSweepSerial BenchmarkSweepParallel \
BenchmarkSweepCached BenchmarkRunFlowReduced BenchmarkRouteNets \
BenchmarkSTAFullTiming BenchmarkOptimizeDrives \
BenchmarkBatchCornerSTA BenchmarkMonteCarloSTA BenchmarkMonteCarloYield4096 \
BenchmarkPlaceGlobal"

BASE="$BENCHDIR/BENCH_0.json"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
RAW="$TMP/raw.txt"
ONE="$TMP/one.txt"
OUT="$TMP/BENCH.json"

# HOST is this machine's stamp, in the baseline's JSON form. GOMAXPROCS
# defaults to the CPUs the process may use, which nproc also reports.
cpu="$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo 2>/dev/null | head -n 1)"
HOST="{\"nproc\": $(nproc), \"gomaxprocs\": ${GOMAXPROCS:-$(nproc)}, \"cpu\": \"${cpu:-unknown}\", \"go\": \"$(go env GOVERSION)\"}"
if [ -e "$BASE" ]; then
    BASE_HOST="$(sed -n 's/^[[:space:]]*"host":[[:space:]]*\({.*}\),\{0,1\}[[:space:]]*$/\1/p' "$BASE")"
    if [ "$BASE_HOST" != "$HOST" ]; then
        echo "benchdiff: FAIL: $BASE was recorded on another host; refusing to compare" >&2
        echo "  baseline: ${BASE_HOST:-(no host stamp)}" >&2
        echo "  this run: $HOST" >&2
        echo "  re-record on this host: rm $BASE && $0" >&2
        exit 1
    fi
fi

# run_bench <label> <pattern> <benchtime> <package>: runs one benchmark
# set and appends its output to RAW. The output goes through a temp file
# with an explicit status check — a plain `go test | tee` pipeline under
# POSIX sh keeps tee's exit status and silently swallows go test
# failures (compile errors, b.Fatal), which is exactly how a benchmark
# vanishes from the baseline unnoticed.
run_bench() {
    echo "== bench: $1 =="
    if ! go test -run '^$' -bench "$2" -benchmem -benchtime "$3" -count "$COUNT" "$4" > "$ONE" 2>&1; then
        cat "$ONE"
        echo "benchdiff: FAIL: benchmark run failed: $4 -bench '$2'" >&2
        exit 1
    fi
    cat "$ONE"
    cat "$ONE" >> "$RAW"
}

run_bench "exec cache" 'BenchmarkCache' "$BENCHTIME" ./internal/exec/
run_bench "analytic sweep" 'BenchmarkSweep(Serial|Parallel)$' "$BENCHTIME" ./internal/analytic/
run_bench "serve cached path" 'BenchmarkSweepCached' "$BENCHTIME" ./internal/serve/
# The reduced flow takes ~0.1 s; single iterations of it scatter by
# tens of percent on a 2-vCPU host, so each sample runs for BENCHTIME.
run_bench "flow pipeline (reduced)" 'BenchmarkRunFlowReduced$' "$BENCHTIME" ./internal/flow/
run_bench "router" 'BenchmarkRouteNets$' "$BENCHTIME" ./internal/route/
run_bench "sta full + optimize + batch" 'Benchmark(STAFullTiming|OptimizeDrives|BatchCornerSTA)$' "$BENCHTIME" ./internal/sta/
# MonteCarloSTA times the batched kernel on primed corners; Yield4096
# also draws its 4096 corners, so it gates the per-corner draw cost.
run_bench "variation mc sta + yield" 'BenchmarkMonteCarlo(STA|Yield4096)$' "$BENCHTIME" ./internal/vary/
run_bench "placer" 'BenchmarkPlaceGlobal$' "$BENCHTIME" ./internal/place/

# Every tracked benchmark must have produced at least one result line.
for name in $TRACKED; do
    if ! grep -q "^${name}\(-[0-9][0-9]*\)\{0,1\}[[:space:]]" "$RAW"; then
        echo "benchdiff: FAIL: tracked benchmark $name missing from run output" >&2
        exit 1
    fi
done

# Fold the raw `go test -bench -benchmem` lines into one JSON object
# mapping benchmark name -> {min ns/op, min allocs/op} across COUNT runs,
# headed by the host stamp.
awk -v host="$HOST" '
    # go test -bench lines:
    #   Name-<GOMAXPROCS>  iters  <ns> ns/op  <B> B/op  <allocs> allocs/op
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ns = -1; al = -1
        for (i = 2; i < NF; i++) {
            if ($(i+1) == "ns/op") ns = $i + 0
            if ($(i+1) == "allocs/op") al = $i + 0
        }
        if (ns < 0) next
        if (!(name in bestNs) || ns < bestNs[name]) bestNs[name] = ns
        if (al >= 0 && (!(name in bestAl) || al < bestAl[name])) bestAl[name] = al
    }
    END {
        n = 0
        for (name in bestNs) order[n++] = name
        # insertion sort for stable, diff-friendly output
        for (i = 1; i < n; i++) {
            k = order[i]
            for (j = i - 1; j >= 0 && order[j] > k; j--) order[j+1] = order[j]
            order[j+1] = k
        }
        printf "{\n  \"host\": %s,\n", host
        for (i = 0; i < n; i++) {
            name = order[i]
            al = (name in bestAl) ? bestAl[name] : 0
            printf "  \"%s\": {\"ns_per_op\": %.2f, \"allocs_per_op\": %.0f}%s\n", \
                name, bestNs[name], al, (i < n-1 ? "," : "")
        }
        printf "}\n"
    }
' "$RAW" > "$OUT"

if [ ! -e "$BASE" ]; then
    mkdir -p "$BENCHDIR"
    cp "$OUT" "$BASE"
    echo "recorded new baseline $BASE — commit it to arm the regression gate"
    exit 0
fi

# Compare: every benchmark present in the baseline must still exist, be no
# more than THRESHOLD_PCT slower, and allocate no more than
# ALLOC_THRESHOLD_PCT more per op. New benchmarks (absent from the
# baseline) are reported but do not fail.
awk -v threshold="$THRESHOLD_PCT" -v allocThreshold="$ALLOC_THRESHOLD_PCT" \
    -v base="$BASE" -v out="$OUT" '
    # parse reads every benchmark line of file; a line without both
    # ns_per_op and allocs_per_op fails the gate.
    function parse(file, ns, al,    line, name, rest, v) {
        while ((getline line < file) > 0) {
            if (line !~ /"Benchmark/) continue
            name = line; sub(/^[^"]*"/, "", name); sub(/".*$/, "", name)
            rest = line; sub(/^[^:]*:[ \t]*/, "", rest)
            if (rest !~ /"ns_per_op"/ || rest !~ /"allocs_per_op"/) {
                printf "benchdiff: FAIL: %s: %s lacks ns_per_op or allocs_per_op\n", file, name
                malformed = 1
                continue
            }
            v = rest; sub(/^.*"ns_per_op"[ \t]*:[ \t]*/, "", v); sub(/[,}].*$/, "", v)
            ns[name] = v + 0
            v = rest; sub(/^.*"allocs_per_op"[ \t]*:[ \t]*/, "", v); sub(/[,}].*$/, "", v)
            al[name] = v + 0
        }
        close(file)
    }
    function pct(old, new) { return (new - old) / (old > 0 ? old : 1) * 100 }
    BEGIN {
        parse(base, oldNs, oldAl)
        parse(out, newNs, newAl)
        if (malformed) exit 1
        fail = 0
        for (name in oldNs) {
            if (!(name in newNs)) {
                printf "MISSING  %-40s baseline %.1f ns/op, no current result\n", name, oldNs[name]
                fail = 1
                continue
            }
            p = pct(oldNs[name], newNs[name])
            status = "ok"
            if (p > threshold) { status = "REGRESSED"; fail = 1 }
            printf "%-9s %-40s %10.1f -> %10.1f ns/op      (%+6.1f%%)\n", \
                status, name, oldNs[name], newNs[name], p
            pa = pct(oldAl[name], newAl[name])
            status = "ok"
            if (pa > allocThreshold) { status = "REGRESSED"; fail = 1 }
            printf "%-9s %-40s %10.0f -> %10.0f allocs/op  (%+6.1f%%)\n", \
                status, name, oldAl[name], newAl[name], pa
        }
        for (name in newNs) {
            if (!(name in oldNs)) {
                printf "new      %-40s %10.1f ns/op, %.0f allocs/op (not in baseline)\n", \
                    name, newNs[name], newAl[name]
            }
        }
        if (fail) {
            printf "FAIL: regression beyond %s%% ns/op or %s%% allocs/op vs %s\n", \
                threshold, allocThreshold, base
            exit 1
        }
        printf "OK: no benchmark regressed beyond %s%% ns/op / %s%% allocs/op vs %s\n", \
            threshold, allocThreshold, base
    }
' /dev/null
