#!/bin/sh
# benchdiff.sh — the performance-regression gate. Runs the tracked
# benchmarks (exec cache hot paths, analytic sweep engine, serve HTTP
# cached path, the flow/route/place/sta perf-critical paths, and the
# Monte-Carlo yield window) on a base commit and on the working tree, on
# this host, and fails when a benchmark regressed against the base:
#
#   - ns/op: the change is slower in at least 9 of the 10 pairs AND its
#     median change/base ratio exceeds 1 + THRESHOLD_PCT/100;
#   - allocs/op: the change's median is more than ALLOC_THRESHOLD_PCT
#     above the base's (a base of 0 counts as 1, so any new allocation
#     in a zero-alloc benchmark fails).
#
#   ./scripts/benchdiff.sh
#   THRESHOLD_PCT=40 BENCHTIME=1s ./scripts/benchdiff.sh
#
# The base is HEAD when a tracked file differs from it (staged or not),
# so uncommitted work compares against its commit, and HEAD~1 on a clean
# tree, so a committed change compares against its parent. Untracked
# files do not count: a stray one must not make a committed change its
# own base. The base is exported with `git archive`; each tracked
# package's test binary is built once per side with -trimpath (so an
# unchanged package builds byte-identical binaries) and run from its own
# package directory.
# Each of the 10 pairs runs every benchmark on both sides back to back,
# alternating which side goes first, so host load that drifts during the
# run hits both sides alike. Nothing is written into the tree.
#
# Before the pairs it builds cmd/m3dserve on each side the way
# m3dbench/run.sh does (CGO_ENABLED=0, empty GOFLAGS) and prints where
# the yield kernel, sta.(*BatchTimer).AnalyzeBatch, lands modulo 64
# bytes. The kernel runs 12-25% slower 32 bytes past a 64-byte boundary,
# and any change to code linked before internal/sta can move it, with no
# yield code touched. It then compares the two builds' pre-kernel text,
# every text symbol linked before the kernel by name and size in address
# order, and prints "identical" or the first ten symbols that differ. A
# difference is a warning, not a failure: link order is not a defect of
# the change.
set -euf

THRESHOLD_PCT="${THRESHOLD_PCT:-25}"
ALLOC_THRESHOLD_PCT="${ALLOC_THRESHOLD_PCT:-25}"
BENCHTIME="${BENCHTIME:-0.3s}"
PAIRS=10

# TRACKED is the closed list of benchmarks the gate protects, one
# <package under internal/>:<benchmark> per line. A tracked benchmark the
# change does not produce (renamed benchmark, silently failing package)
# fails the gate; one the base lacks is new. MonteCarloSTA times the
# batched kernel on primed corners; Yield4096 also draws its 4096
# corners, so it gates the per-corner draw cost.
TRACKED='exec:BenchmarkCacheHitUnbounded
exec:BenchmarkCacheHitLRU
exec:BenchmarkCacheHitLRUParallel
exec:BenchmarkCacheChurnLRU
analytic:BenchmarkSweepSerial
analytic:BenchmarkSweepParallel
serve:BenchmarkSweepCached
flow:BenchmarkRunFlowReduced
route:BenchmarkRouteNets
sta:BenchmarkSTAFullTiming
sta:BenchmarkOptimizeDrives
sta:BenchmarkBatchCornerSTA
vary:BenchmarkMonteCarloSTA
vary:BenchmarkMonteCarloYield4096
place:BenchmarkPlaceGlobal'

root="$(git rev-parse --show-toplevel)"
if git -C "$root" diff --quiet HEAD; then
    base_ref=HEAD~1
else
    base_ref=HEAD
fi
base_sha="$(git -C "$root" rev-parse --verify "$base_ref^{commit}")"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
trap 'exit 1' INT TERM
mkdir "$TMP/base"
git -C "$root" archive "$base_sha" | tar -x -C "$TMP/base"

cpu="$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo 2>/dev/null | head -n 1)"
echo "benchdiff: host nproc=$(nproc) GOMAXPROCS=${GOMAXPROCS:-$(nproc)} cpu=\"${cpu:-unknown}\" $(go env GOVERSION)"
echo "benchdiff: base $base_sha ($base_ref) vs the working tree over $(git -C "$root" rev-parse HEAD)"

# tree <side> prints the source tree a side builds and runs from.
tree() {
    if [ "$1" = base ]; then echo "$TMP/base"; else echo "$root"; fi
}

for entry in $TRACKED; do
    pkg="${entry%%:*}"
    for side in base change; do
        # A package the base does not have yet: its benchmarks are new.
        [ -d "$(tree $side)/internal/$pkg" ] || continue
        [ ! -e "$TMP/$side.$pkg.test" ] || continue
        if ! (cd "$(tree $side)" && go test -c -trimpath -o "$TMP/$side.$pkg.test" "./internal/$pkg/"); then
            echo "benchdiff: FAIL: cannot build the $side test binary of internal/$pkg" >&2
            exit 1
        fi
    done
done

kernel='m3d/internal/sta.(*BatchTimer).AnalyzeBatch'
base_mod=
for side in base change; do
    if ! (cd "$(tree $side)" && CGO_ENABLED=0 GOFLAGS= go build -o "$TMP/$side.m3dserve" ./cmd/m3dserve); then
        echo "benchdiff: FAIL: cannot build the $side m3dserve" >&2
        exit 1
    fi
    # <size> <name> of every text symbol before the kernel, by address.
    # Zero-size markers (runtime.text) share an address with a function,
    # and nm orders such ties differently from build to build.
    go tool nm -size -sort address "$TMP/$side.m3dserve" | awk -v k="$kernel" '
        seen || $2 == 0 || ($3 != "T" && $3 != "t") { next }
        {
            name = $0
            sub(/^ *[0-9a-f]+ +[0-9]+ +[Tt] /, "", name)
            if (name == k) seen = 1; else print $2, name
        }' > "$TMP/$side.pretext"
    addr="$(go tool nm "$TMP/$side.m3dserve" | awk -v k="$kernel" '$3 == k { print $1 }')"
    if [ -z "$addr" ]; then
        echo "benchdiff: WARNING: the $side m3dserve has no $kernel" >&2
        continue
    fi
    mod=$((0x$addr % 64))
    echo "benchdiff: $side m3dserve: $kernel at 0x$addr ($mod mod 64)"
    if [ "$side" = base ]; then
        base_mod=$mod
    elif [ "$mod" != "$base_mod" ]; then
        echo "benchdiff: WARNING: the yield kernel moved from $base_mod to $mod mod 64; yield-4096 may move with it, with no yield code changed (check with m3dbench/ab.sh)" >&2
    fi
done
if cmp -s "$TMP/base.pretext" "$TMP/change.pretext"; then
    echo "benchdiff: pre-kernel text: identical ($(wc -l < "$TMP/base.pretext") symbols)"
else
    echo "benchdiff: WARNING: the pre-kernel text differs; the first ten symbols that differ (name, base size, change size):" >&2
    # A symbol differs when the other side lacks it or sizes it
    # differently; each is ordered by its position on the side that has
    # it (the base's when both do).
    awk '
    { size = $1; name = $0; sub(/^[0-9]+ /, "", name) }
    NR == FNR { if (!(name in b)) { b[name] = size; bn[++nb] = name }; next }
    { if (!(name in c)) { c[name] = size; cpos[name] = FNR; cn[++nc] = name } }
    END {
        for (i = 1; i <= nb && m < 10; i++)
            if (!(bn[i] in c) || c[bn[i]] != b[bn[i]]) { d[++m] = bn[i]; pos[m] = i }
        for (i = 1; i <= nc && m2 < 10; i++)
            if (!(cn[i] in b)) { e[++m2] = cn[i]; epos[m2] = i }
        for (i = j = 1; (i <= m || j <= m2) && shown < 10; shown++) {
            if (j > m2 || (i <= m && pos[i] <= epos[j])) name = d[i++]; else name = e[j++]
            printf "  %s  %s  %s\n", name, (name in b) ? b[name] : "-", (name in c) ? c[name] : "-"
        }
        if (shown == 0) print "  the same symbols and sizes in another order"
    }' "$TMP/base.pretext" "$TMP/change.pretext" >&2
fi

# run <side> <package> <benchmark> <pair> appends the side's result
# line, prefixed with the pair number, to $TMP/<side>.txt.
run() {
    [ -e "$TMP/$1.$2.test" ] || return 0
    if ! (cd "$(tree "$1")/internal/$2" && "$TMP/$1.$2.test" -test.run '^$' -test.bench "^$3\$" \
        -test.benchmem -test.benchtime "$BENCHTIME") > "$TMP/one.txt" 2>&1; then
        cat "$TMP/one.txt"
        echo "benchdiff: FAIL: the $1 run of internal/$2 $3 failed" >&2
        exit 1
    fi
    awk -v pair="$4" '/^Benchmark/ { print pair, $0 }' "$TMP/one.txt" >> "$TMP/$1.txt"
}

pair=1
while [ "$pair" -le "$PAIRS" ]; do
    echo "benchdiff: pair $pair/$PAIRS" >&2
    order="base change"
    [ $((pair % 2)) -eq 1 ] || order="change base"
    for entry in $TRACKED; do
        for side in $order; do
            run "$side" "${entry%%:*}" "${entry#*:}" "$pair"
        done
    done
    pair=$((pair + 1))
done
touch "$TMP/base.txt" "$TMP/change.txt"

# compare <base.txt> <change.txt> prints one verdict per benchmark and
# metric and fails when any benchmark regressed or went missing.
compare() {
    awk -v basefile="$1" -v tracked="$(echo "$TRACKED" | sed 's/^.*://')" -v threshold="$THRESHOLD_PCT" \
        -v allocThreshold="$ALLOC_THRESHOLD_PCT" '
    # isort sorts a[1..n] in place.
    function isort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]
            a[j+1] = t
        }
    }
    function median(a, n) {
        isort(a, n)
        return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
    }
    function pct(old, new) { return (new - old) / (old > 0 ? old : 1) * 100 }
    # <pair> Name-<GOMAXPROCS>  iters  <ns> ns/op  <B> B/op  <allocs> allocs/op
    {
        side = FILENAME == basefile ? "base" : "change"
        name = $2
        sub(/-[0-9]+$/, "", name)
        nsv = alv = -1
        for (i = 3; i < NF; i++) {
            if ($(i+1) == "ns/op") nsv = $i + 0
            if ($(i+1) == "allocs/op") alv = $i + 0
        }
        # A line without both figures is not a result (a benchmark that
        # logged); a name left without results is missing.
        if (nsv < 0 || alv < 0) next
        names[name] = has[side, name] = 1
        if ($1 > pairs) pairs = $1
        ns[side, name, $1] = nsv
        al[side, name, $1] = alv
    }
    END {
        split(tracked, t)
        for (i in t) names[t[i]] = 1
        for (name in names) order[++n] = name
        isort(order, n)
        for (k = 1; k <= n; k++) {
            name = order[k]
            if (!has["change", name]) {
                printf "MISSING   %-32s no result from the change\n", name
                fail = 1
                continue
            }
            if (!has["base", name]) {
                printf "new       %-32s not in the base\n", name
                continue
            }
            m = slower = 0
            for (p = 1; p <= pairs; p++) {
                if (!(("base", name, p) in ns) || !(("change", name, p) in ns)) continue
                r[++m] = ns["change", name, p] / ns["base", name, p]
                if (r[m] > 1) slower++
                ba[m] = al["base", name, p]
                ca[m] = al["change", name, p]
            }
            ratio = median(r, m)
            status = "ok"
            if (slower * 10 >= m * 9 && (ratio - 1) * 100 > threshold) { status = "REGRESSED"; fail = 1 }
            printf "%-9s %-32s change/base %.3f ns/op median (%+6.1f%%), slower in %d/%d pairs\n", \
                status, name, ratio, (ratio - 1) * 100, slower, m
            bAl = median(ba, m)
            cAl = median(ca, m)
            status = "ok"
            if (pct(bAl, cAl) > allocThreshold) { status = "REGRESSED"; fail = 1 }
            printf "%-9s %-32s %10.0f -> %10.0f allocs/op  (%+6.1f%%)\n", \
                status, name, bAl, cAl, pct(bAl, cAl)
        }
        if (fail) {
            printf "FAIL: regression beyond %s%% ns/op (in 9 of 10 pairs) or %s%% allocs/op vs the base\n", \
                threshold, allocThreshold
            exit 1
        }
        printf "OK: no benchmark regressed beyond %s%% ns/op / %s%% allocs/op vs the base\n", \
            threshold, allocThreshold
    }' "$1" "$2"
}

compare "$TMP/base.txt" "$TMP/change.txt"
