#!/bin/sh
# Tier-1 verification gate (see ROADMAP.md). Every check must pass:
#   build, go vet, gofmt cleanliness, full test suite.
set -e

cd "$(dirname "$0")"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi

# Cross-arch: the call-site table keys a capture by a frame-pointer walk
# written in amd64 assembly; every other GOARCH keys it by its
# runtime.Callers unwind (internal/concolic/fp_other.go). Vet the package
# for a 64-bit port and build everything for a 32-bit one, so the
# portable key keeps compiling.
echo "== cross-arch (GOARCH=arm64 go vet ./internal/concolic; GOARCH=386 go build ./...)"
GOARCH=arm64 go vet ./internal/concolic
GOARCH=386 go build ./...

echo "== go test ./..."
go test ./...

# Coverage floor for the static-analysis and pipeline cores. The floor
# (default 88, override with WESEER_COV_FLOOR=NN) is enforced on
# internal/staticlint — the whole-program loader/call-graph layer, the
# template hazard checks and the canonical lock order whose properties
# the property suite pins; internal/core is measured and reported
# alongside for visibility.
echo "== go test -cover (staticlint floor ${WESEER_COV_FLOOR:-88}%)"
cov=$(go test -cover ./internal/staticlint ./internal/core | tee /dev/stderr |
    awk '/internal\/staticlint/ { for (i = 1; i <= NF; i++) if ($i ~ /%$/) print $i }')
echo "${cov:-0%}" | awk -v floor="${WESEER_COV_FLOOR:-88}" '
    { sub(/%/, ""); if ($1 + 0 < floor + 0) {
        printf "coverage: internal/staticlint %s%% is below the %s%% floor\n", $1, floor
        exit 1
    } }'

# Vet determinism: the whole-program analysis (type-check, CHA
# devirtualization, SCC fixpoint summaries) must render byte-identical
# reports across separate processes. Run the full vet twice over the
# fixture corpus and both model apps (each tree loaded once per process,
# for findings and canonical order both; Broadleaf has the most findings
# and writes buffered in callees) and diff the JSON (exit 1 just means
# error-severity findings were reported — both runs are expected to).
# Both analyzers' signature kinds must be there: unordered-locks, and
# flush-reorder from vet's one write-behind detector.
echo "== weseer vet determinism (two runs, diff)"
vetdir=$(mktemp -d)
for i in 1 2; do
    go run ./cmd/weseer vet -json -canonical-order \
        internal/staticlint/testdata/src/wholeprog \
        internal/apps/broadleaf \
        internal/apps/shopizer > "$vetdir/run$i.json" || [ $? -eq 1 ]
done
if ! cmp -s "$vetdir/run1.json" "$vetdir/run2.json"; then
    echo "vet output differs between identical runs:" >&2
    diff "$vetdir/run1.json" "$vetdir/run2.json" >&2 || true
    rm -rf "$vetdir"
    exit 1
fi
for kind in unordered-locks flush-reorder; do
    grep -q "\"$kind\"" "$vetdir/run1.json" || {
        echo "vet determinism smoke reported no $kind finding — corpus or detector broken?" >&2
        rm -rf "$vetdir"
        exit 1
    }
done
rm -rf "$vetdir"

# The parallel discharge pipeline (phase 3's worker pool + memo
# singleflight + cancellation; enumeration is serial) is the
# concurrency-bearing code; run it under the race detector, together with
# the concurrent-client workload harness that drives the fix-verification
# loop; the solver's leg includes TestSolverReuseMatchesFresh, one reused
# Solver (a phase-3 worker's) over the whole solver corpus. Scoped to the packages that actually spawn goroutines to keep the
# gate fast — plus concolic and orm,
# whose process-wide call-site table and prepared-statement cache are
# shared by whatever collects or drives load concurrently, minidb,
# whose lock table (recycled queues, grants by value) and prepared-form
# cache every client goroutine goes through, apps, whose witness test
# runs every registry app's analysis on four phase-3 workers, and
# lockmodel, whose per-key models settle builds before the workers start
# and the workers then only read, as they build C-edge templates (the
# layering leg keeps shared state out of it).
echo "== go test -race (core, solver, smt, workload, concolic, orm, minidb, apps, lockmodel)"
go test -race ./internal/core/... ./internal/solver/... ./internal/smt/... ./internal/workload/... \
    ./internal/concolic/... ./internal/orm/... ./internal/minidb/... ./internal/apps/... \
    ./internal/lockmodel/...

# The history daemon answers /history/* reads from per-route memos keyed
# by the store's version while ingests write the store, and Open replays
# the log on two goroutines (one decodes, one applies): a reader that races
# an ingest (TestMemoConcurrentIngest) or a record the two replay stages
# share shows here. Three runs, so the pipeline's hand-offs and the memo's
# races are hammered together.
echo "== go test -race -count=3 (history)"
go test -race -count=3 ./internal/history

# The allocation ceilings, on their own and without the detector (whose
# instrumentation allocates): a statement in minidb, and a whole API call
# with the engine off (orm, driver, executor, lock table) — a regression
# there is a throughput regression on the load workload — phase 3 per
# solved group, which a lost skeleton hit (a group building the formula
# of a known key) breaks, a decoded trace-batch statement, which a
# lost share in the reader (one parse per SQL text, one decode per call
# stack) breaks, a warm solver call, which a workspace table
# reallocated per call breaks, opening the 1,056-template corpus, which a
# seed sent through the ORM and SQL instead of minidb.Load (or a SQL string
# formatted per op) breaks, and a statement recorded by concolic
# collection, which a stack capture that allocates or a record grown by
# append breaks.
echo "== go test -run 'TestStatementAllocs|TestNativeCallAllocs|TestFineAllocs|TestEnumAllocs|TestSolveAllocs|TestDecodeAllocs|TestOpenAllocs|TestCollectAllocs' (minidb, workload, core, solver, trace, apps, no -race)"
go test -count=1 -run 'TestStatementAllocs|TestNativeCallAllocs|TestFineAllocs|TestEnumAllocs|TestSolveAllocs|TestDecodeAllocs|TestOpenAllocs|TestCollectAllocs' ./internal/minidb ./internal/workload ./internal/core ./internal/solver ./internal/trace ./internal/apps

# The two-level memo table (skeleton key -> canonical key -> verdict) is
# two singleflights sharing one mutex; hammer its concurrency and
# cancellation tests repeatedly under the race detector.
echo "== go test -race -count=10 (memo table)"
go test -race -count=10 -run 'TestMemoTable' ./internal/core

# Native fuzzing of the canonicalizer for a few seconds on top of the
# checked-in seed corpus (which the plain test run above already
# replays): Canon(f) must agree with the test-side string-based oracle,
# be equisatisfiable with f, and its model must translate back to one
# that satisfies f.
echo "== go test -fuzz=FuzzCanon (5s)"
go test -run=NONE -fuzz=FuzzCanon -fuzztime=5s ./internal/smt

# The arithmetic theory against its test-side oracle (the map-and-big.Rat
# solver it replaced): same status and, on SAT, the same assignment, on
# random systems whose numbers sit both near 0 and near 2^62.
echo "== go test -fuzz=FuzzLinarith (5s)"
go test -run=NONE -fuzz=FuzzLinarith -fuzztime=5s ./internal/solver

# The two decoders that read bytes from disk, same treatment: a history
# record payload (arbitrary bytes never panic, an accepted payload
# re-encodes to itself, decode(encode(r)) == r) and a whole log file (any
# contents open to a prefix that a second open replays identically).
echo "== go test -fuzz=FuzzDecodeRecord (5s)"
go test -run=NONE -fuzz=FuzzDecodeRecord -fuzztime=5s ./internal/history
echo "== go test -fuzz=FuzzLogReplay (5s)"
go test -run=NONE -fuzz=FuzzLogReplay -fuzztime=5s ./internal/btree

# minidb's page tree against a Go map as its oracle (its keys sorted in
# the test's key order wherever scans are compared), over keys in minidb's
# encoding: the same entries after every Put, Delete, Get and Ascend, the
# tree's shape kept, and every key and value view it handed out still
# reading its original bytes after later puts, splits, merges and deletes.
echo "== go test -fuzz=FuzzPages (5s)"
go test -run=NONE -fuzz=FuzzPages -fuzztime=5s ./internal/btree

# minidb's storage encoding against its test-side oracle: encoded keys
# order (cmpKey), compare equal and prefix one another exactly as the
# Datum keys they encode (Key.Cmp), and a row decodes to its datums, kind
# and NULLs included.
echo "== go test -fuzz=FuzzKeyOrder (5s)"
go test -run=NONE -fuzz=FuzzKeyOrder -fuzztime=5s ./internal/minidb

# The two decoders that read bytes off the network: a trace batch (what
# `weseer analyze -i` and POST /ingest?format=traces read; arbitrary bytes
# are an error, never a panic, the one-pass reader accepts what its
# reflective oracle accepts, a repeated key aside, to the same traces, and
# an accepted batch re-encodes stably) and
# a whole /ingest request in either format (a documented status, and an
# accepted summary that adds up against the store).
echo "== go test -fuzz=FuzzTraceJSON (5s)"
go test -run=NONE -fuzz=FuzzTraceJSON -fuzztime=5s ./internal/trace
echo "== go test -fuzz=FuzzIngest (5s)"
go test -run=NONE -fuzz=FuzzIngest -fuzztime=5s ./internal/history

# The memo's premise: its second level pays one canonicalization per shape
# to save one solve per hit, so canonicalizing a shape has to cost less than
# solving a formula. Both numbers come from one process over the same Table
# II cycle formulas, so machine speed cancels in the ratio (1.5 before the
# canonicalizer was compiled to integer-indexed slices, about 0.4 after,
# 0.6–0.9 since a solver call reuses its worker's workspace).
echo "== memo premise (ns per canonicalized shape <= ns per solved formula)"
go test -run '^$' -bench 'CanonCorpus|SolveCorpus' -benchtime 5x ./internal/solver | awk '
    function metric(unit,   i) { for (i = 2; i <= NF; i++) if ($i == unit) return $(i - 1); return 0 }
    /^BenchmarkSolveCorpus/ { solve = metric("ns/op") / metric("formulas/op") }
    /^BenchmarkCanonCorpus/ { canon = metric("ns/op") / metric("shapes/op") }
    END {
        if (!solve || !canon) { print "memo premise: benchmark output missing" > "/dev/stderr"; exit 1 }
        printf "canon %.0f ns/shape, solve %.0f ns/formula, ratio %.2f\n", canon, solve, canon / solve
        if (canon > solve) { print "memo premise: a shape costs more to canonicalize than a formula to solve" > "/dev/stderr"; exit 1 }
    }'

# Compile-and-run smoke of the microbenchmarks (one iteration each):
# catches bit-rot in bench-only code without paying for real timing runs.
echo "== go test -bench (1x smoke)"
go test -run=NONE -bench=. -benchtime=1x ./...

# Observability smoke: run a real workload with every telemetry artifact
# enabled, then validate the Chrome trace and the Prometheus dump
# structurally. Guards the exporters end to end (the report itself is
# covered by the test suite above).
echo "== trace smoke (weseer run -trace-out/-metrics-out)"
obsdir=$(mktemp -d)
trap 'rm -rf "$obsdir"' EXIT
GOMAXPROCS=4 go run ./cmd/weseer run -app shopizer \
    -trace-out "$obsdir/run.trace.json" \
    -metrics-out "$obsdir/run.prom" >/dev/null
go run ./internal/obs/obstest/validatecmd \
    -trace "$obsdir/run.trace.json" \
    -metrics "$obsdir/run.prom"

# Generated-corpus smoke: a tiny pinned-seed synthetic app (application
# registry spec gen:<seed>,...) through collection and analysis end to
# end. Guards the generator → registry → pipeline path and the planted
# anti-pattern classification; bounded to a few seconds by the corpus
# size.
echo "== generated-corpus smoke (weseer run -app gen:7,...)"
genout=$(GOMAXPROCS=4 go run ./cmd/weseer run \
    -app "gen:7,templates=12,modules=3,tables=4,rows=6")
echo "$genout" | grep -Eq '^  f1 +[0-9]+ report' || {
    echo "generated-corpus smoke: planted class f1 not diagnosed:" >&2
    echo "$genout" >&2
    exit 1
}

# Trace files: collecting to a file and analysing the file is the same
# diagnosis as doing both in one process — the report after the collection
# header, timings aside, is byte-identical.
echo "== trace-file smoke (weseer collect -o F && weseer analyze -i F == weseer run)"
tfdir=$(mktemp -d)
trap 'rm -rf "$obsdir" "$tfdir"' EXIT
go build -o "$tfdir/weseer" ./cmd/weseer
report() { awk 'f; /^phases:/ { f = 1; sub(/ in [^ ]+( \(canon [^)]*\))?/, ""); print }'; }
for app in broadleaf shopizer "gen:7,templates=96"; do
    "$tfdir/weseer" collect -app "$app" -o "$tfdir/traces.json" >/dev/null
    "$tfdir/weseer" analyze -v -app "$app" -i "$tfdir/traces.json" | report > "$tfdir/analyze.txt"
    "$tfdir/weseer" run -v -app "$app" | report > "$tfdir/run.txt"
    [ -s "$tfdir/run.txt" ] && cmp -s "$tfdir/analyze.txt" "$tfdir/run.txt" || {
        echo "trace-file smoke: $app: analyze -i differs from run:" >&2
        diff "$tfdir/analyze.txt" "$tfdir/run.txt" | head >&2
        exit 1
    }
done

# Replay smoke: `weseer run -reproduce` replays every report of both model
# apps through minidb's TryExec. The lock manager, not a clock, decides
# each verdict, so the count lines are exact.
echo "== replay smoke (weseer run -reproduce, broadleaf and shopizer)"
for want in "broadleaf:166 DEADLOCKED, 11 blocked, 0 no-conflict, 3 setup-failed (of 180 reports)" \
    "shopizer:42 DEADLOCKED, 6 blocked, 0 no-conflict, 17 setup-failed (of 65 reports)"; do
    app=${want%%:*}
    got=$("$tfdir/weseer" run -app "$app" -reproduce | tail -n 1 | sed 's/^ *//')
    [ "$got" = "${want#*:}" ] || {
        echo "replay smoke: $app: got [$got], want [${want#*:}]" >&2
        exit 1
    }
done

# Fix-verification smoke: a tiny pinned-seed generated corpus through
# the full fixgain loop — diagnose, plan ranked fixes, apply each
# (individually and cumulatively), re-analyze, and drive the workload
# before/after. The experiment itself exits nonzero unless every static
# gate holds (each fix shrinks the report, targeted fingerprints are
# eliminated from re-analysis) and the fully fixed app aborts fewer
# transactions on deadlock than the baseline; the grep double-checks
# the PASS line reached stdout. -fixout "" skips the artifact.
echo "== fixgain smoke (weseer-bench -exp fixgain, tiny corpus)"
fixout=$(go run ./cmd/weseer-bench -exp fixgain \
    -fixapps "gen:5,templates=4,modules=1,tables=3,rows=4,classes=f2:1+f8:1+f10:1" \
    -fixdur 500ms -fixout "")
echo "$fixout" | grep -q 'gates=PASS' || {
    echo "fixgain smoke: gates did not pass:" >&2
    echo "$fixout" >&2
    exit 1
}

# Continuous-diagnosis smoke: a real `weseer serve` daemon on a loopback
# port, fed the tiny pinned-seed generated corpus twice through the
# `weseer ingest` client. The second ingest must store zero new events
# (fingerprint idempotency) and the pattern rollups must name the
# planted anti-pattern classes. Then the daemon is killed and started
# again over the same history.wal: the JSON pattern rollups it answers
# after the restart must be byte-identical to the ones before.
echo "== serve smoke (weseer serve round-trip, idempotent ingest, restart)"
genspec="gen:7,templates=12,modules=3,tables=4,rows=6"
servedir=$(mktemp -d)
trap 'rm -rf "$obsdir" "$tfdir" "$servedir"; [ -n "$servepid" ] && kill "$servepid" 2>/dev/null' EXIT
go build -o "$servedir/weseer" ./cmd/weseer
"$servedir/weseer" collect -app "$genspec" -o "$servedir/traces.json" >/dev/null
startserve() {
    : > "$servedir/url.txt"
    "$servedir/weseer" serve -store "$servedir/history.wal" -addr 127.0.0.1:0 \
        -app "$genspec" > "$servedir/url.txt" 2>/dev/null &
    servepid=$!
    i=0
    while [ ! -s "$servedir/url.txt" ] && [ $i -lt 100 ]; do i=$((i + 1)); sleep 0.1; done
    [ -s "$servedir/url.txt" ] || { echo "serve smoke: daemon printed no URL" >&2; exit 1; }
}
stopserve() {
    kill "$servepid" 2>/dev/null
    wait "$servepid" 2>/dev/null || true
    servepid=""
}
startserve
"$servedir/weseer" ingest -addr "@$servedir/url.txt" -i "$servedir/traces.json" >/dev/null
second=$("$servedir/weseer" ingest -addr "@$servedir/url.txt" -i "$servedir/traces.json")
echo "$second" | grep -q ' 0 stored,' || {
    echo "serve smoke: re-ingest was not idempotent: $second" >&2
    exit 1
}
"$servedir/weseer" history -addr "@$servedir/url.txt" patterns |
    grep -Eq '^ *f1 +[0-9]+ event' || {
    echo "serve smoke: /history/patterns does not name planted class f1" >&2
    exit 1
}
"$servedir/weseer" history -addr "@$servedir/url.txt" -format json patterns > "$servedir/patterns.before"
stopserve
startserve
"$servedir/weseer" history -addr "@$servedir/url.txt" -format json patterns > "$servedir/patterns.after"
stopserve
cmp -s "$servedir/patterns.before" "$servedir/patterns.after" || {
    echo "serve smoke: /history/patterns changed across a daemon restart:" >&2
    diff "$servedir/patterns.before" "$servedir/patterns.after" | head >&2
    exit 1
}
# A version-1 store (no file header) is refused, not read or rewritten:
# serve must exit non-zero before the timeout (status 124 is a daemon
# that came up) and leave the file byte for byte as it was.
cp internal/history/testdata/v1.wal "$servedir/v1.wal"
status=0
timeout 10 "$servedir/weseer" serve -store "$servedir/v1.wal" -addr 127.0.0.1:0 >/dev/null 2>&1 || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
    echo "serve smoke: serve did not refuse a version-1 store (exit $status)" >&2
    exit 1
fi
cmp -s internal/history/testdata/v1.wal "$servedir/v1.wal" || {
    echo "serve smoke: serve changed a version-1 store it refused" >&2
    exit 1
}

# Relocated checkout: trigger locations, and the fingerprints hashed from
# them, name source files relative to the module root, so a copy of the
# tree in another directory — built with -trimpath where the in-place
# binary is not — must reproduce the Table II goldens and the in-place
# build's fingerprints — shopizer's, whose trigger sites are its api.go, and
# a generated corpus's, whose trigger sites are internal/appgen's.
echo "== relocated checkout (goldens and fingerprints from a copy of the tree)"
mkdir "$servedir/copy"
tar -cf - --exclude=./.git --exclude=./.bench_build --exclude=./benchmark/out . |
    tar -xf - -C "$servedir/copy"
(cd "$servedir/copy" && go test ./internal/apps -run TestTableIIGoldens &&
    go build -trimpath -o weseer ./cmd/weseer &&
    for app in shopizer "gen:7,templates=96"; do
        ./weseer run -app "$app" -json | grep '"fingerprint"'
    done > ../fp.copy)
for app in shopizer "gen:7,templates=96"; do
    "$servedir/weseer" run -app "$app" -json | grep '"fingerprint"'
done > "$servedir/fp.here"
[ -s "$servedir/fp.here" ] && cmp -s "$servedir/fp.here" "$servedir/fp.copy" || {
    echo "relocated checkout: fingerprints depend on where the binary was built:" >&2
    diff "$servedir/fp.here" "$servedir/fp.copy" | head >&2
    exit 1
}

# Surface inventory: every CLI flag, every exported analysis option and
# every exported identifier of the root weseer package (the facade's
# re-exports), diffed against the checked-in list, so a knob arriving or
# leaving is a reviewed one-line change to surface.golden and never an
# accident.
echo "== surface inventory (CLI flags + core options + weseer facade vs surface.golden)"
go build -o "$servedir/weseer-bench" ./cmd/weseer-bench
{
    for sub in run collect analyze vet serve ingest history; do
        "$servedir/weseer" $sub -h 2>&1 | sed -n "s/^  \\(-[a-z0-9-]*\\).*/weseer $sub \\1/p"
    done
    "$servedir/weseer-bench" -h 2>&1 | sed -n 's/^  \(-[a-z0-9-]*\).*/weseer-bench \1/p'
    ls internal/core/*.go | grep -v _test.go | xargs grep -ho '^func With[A-Za-z0-9]*' |
        sed 's/^func /core./' | LC_ALL=C sort
    # go doc -all: grouped const/var members are tab-indented, everything
    # else starts its line with its keyword.
    go doc -all . | sed -nE -e "s/^$(printf '\t')([A-Z][A-Za-z0-9_]*).*/weseer.\\1/p" \
        -e 's/^(const|var|type|func) ([A-Z][A-Za-z0-9_]*).*/weseer.\2/p' | LC_ALL=C sort
} > "$servedir/surface.txt"
diff -u surface.golden "$servedir/surface.txt" || {
    echo "surface inventory: flags or options changed; review, then update surface.golden" >&2
    exit 1
}

# Docs name only drivers that exist: every weseer / weseer-bench command in a
# ```bash fence of README.md and EXPERIMENTS.md (backslash continuations
# joined, comments dropped) uses only flags surface.golden lists for that
# command, and every `-exp NAME` in either file is an experiment of
# `weseer-bench -exp list` (or list/all).
echo "== docs name only drivers that exist (README.md, EXPERIMENTS.md)"
"$servedir/weseer-bench" -exp list | awk 'NR > 1 { print $1 } END { print "list"; print "all" }' > "$servedir/exps.txt"
awk -v surface=surface.golden '
    BEGIN { while ((getline l < surface) > 0) known[l] = 1 }
    function check(line,   t, n, i, cmd, flag) {
        sub(/(^|[ \t])#.*/, "", line)
        n = split(line, t, /[ \t]+/)
        for (i = 1; i <= n; i++) {
            cmd = ""
            if (t[i] == "go" && t[i + 1] == "run" && t[i + 2] == "./cmd/weseer-bench") { cmd = "weseer-bench"; i += 3 }
            else if (t[i] == "go" && t[i + 1] == "run" && t[i + 2] == "./cmd/weseer") { cmd = "weseer " t[i + 3]; i += 4 }
            else if (t[i] ~ /(^|\/)weseer-bench$/) { cmd = "weseer-bench"; i++ }
            else if (t[i] ~ /(^|\/)weseer$/) { cmd = "weseer " t[i + 1]; i += 2 }
            if (cmd == "") continue
            for (; i <= n && t[i] !~ /^(\||&|;|>|2>)/; i++) {
                if (t[i] !~ /^-/) continue
                flag = t[i]; sub(/=.*/, "", flag)
                if (!((cmd " " flag) in known)) { printf "%s: `%s` has no flag %s\n", FILENAME, cmd, flag; bad = 1 }
            }
        }
    }
    FNR == 1 { fence = 0; cont = "" }
    /^```bash/ { fence = 1; next }
    /^```/ { fence = 0; next }
    fence && /\\$/ { cont = cont substr($0, 1, length($0) - 1) " "; next }
    fence { check(cont $0); cont = "" }
    END { exit bad }
' README.md EXPERIMENTS.md || { echo "docs: a command uses a flag its driver does not have" >&2; exit 1; }
missing=$(grep -ho -- '-exp [A-Za-z0-9]*' README.md EXPERIMENTS.md | awk '{ print $2 }' | sort -u |
    grep -vxF -f "$servedir/exps.txt" || true)
[ -z "$missing" ] || { echo "docs: -exp names no experiment:" $missing >&2; exit 1; }

# Option traffic: an analyzer option exists for a caller. Every exported
# With* option of internal/core must be called as core.WithX( from non-test
# code outside the package (the root facade's `= core.WithX` re-export is
# not a call); a switch only tests set belongs in the tests.
echo "== option traffic (every core.With* option has a caller outside internal/core)"
callers=$(find . -name '*.go' -not -name '*_test.go' -not -path './internal/core/*' -not -path './.bench_build/*')
missing=""
for opt in $(ls internal/core/*.go | grep -v _test.go | xargs grep -ho '^func With[A-Za-z0-9]*' | sed 's/^func //'); do
    grep -q "core\.$opt(" $callers || missing="$missing core.$opt"
done
[ -z "$missing" ] || { echo "option traffic: no caller outside internal/core for$missing" >&2; exit 1; }

# Ablation smokes: Figs. 10 and 11 open every configuration through the
# registry (all fixes, none, then each catalog fix off in turn) and drive the
# app's flow, the unit tests' calls under load; a tiny run must list the
# configurations in order.
ablation() {
    configs=$("$servedir/weseer-bench" -exp "$1" -duration 20ms -clients 2 |
        awk '/^(enable|disable) / { printf "%s%s %s", sep, $1, $2; sep = ", " }')
    [ "$configs" = "$2" ] || {
        echo "$1 smoke: configurations are [$configs]" >&2
        exit 1
    }
}
echo "== fig10 smoke (weseer-bench -exp fig10, ablation configurations)"
ablation fig10 "enable all, disable all, disable f1, disable f2, disable f3, disable f4, disable f5, disable f6, disable f7, disable f8"
echo "== fig11 smoke (weseer-bench -exp fig11, ablation configurations)"
ablation fig11 "enable all, disable all, disable f9, disable f10, disable f11"

# Layering: the solver (and smt under it) imports no telemetry, the
# telemetry library names no pipeline metric — each instrumented package
# registers its own — and only the lock model reads a modeled lock's mode:
# every other package asks lockmodel (Collide, Conflicting), which asks
# minidb's compatibility matrix. Phase 3's lock filter is the Collide bit
# of each C-edge template, so core calls no per-group lock test. The lock
# model is pure functions and core's settle step caches per run, so
# lockmodel imports no sync: no shared cache comes back into it. The page
# tree's views are strings over page bytes, so unsafe stays in its one
# file, and the collector's work is cut by what the heap holds, never by
# a knob: no program code sets the GC percent or a memory limit. The
# canonical lock order is vet's (staticlint), computed beside a result by
# the commands that print it, so the analysis core links no staticlint and
# the root API no Go type checker.
echo "== layering (solver imports no obs; core links no staticlint; the root package links no go/types; obs names no pipeline metric; only lockmodel reads Lock.Exclusive; core calls no PotentialConflict; lockmodel imports no sync; unsafe only in btree/pages.go; no GC knobs)"
! go list -deps ./internal/solver | grep 'weseer/internal/obs' ||
    { echo "layering: internal/solver depends on internal/obs" >&2; exit 1; }
! go list -deps ./internal/core | grep -x 'weseer/internal/staticlint' ||
    { echo "layering: internal/core depends on internal/staticlint; keep the canonical order beside the result" >&2; exit 1; }
! go list -deps . | grep -x 'go/types' ||
    { echo "layering: the root weseer package links go/types" >&2; exit 1; }
! find internal/obs -name '*.go' -not -name '*_test.go' | xargs grep -l 'weseer_funnel\|weseer_cdcl' ||
    { echo "layering: internal/obs names a pipeline metric (files above)" >&2; exit 1; }
! grep -rln '\.Exclusive\b' --include='*.go' internal cmd | grep -v -e '_test\.go$' -e '^internal/lockmodel/' ||
    { echo "layering: a file outside internal/lockmodel reads a modeled lock's mode (files above)" >&2; exit 1; }
! grep -ln 'PotentialConflict' internal/core/*.go | grep -v '_test\.go$' ||
    { echo "layering: phase 3 calls a per-group lock test (files above); read the C-edge templates' Collide bits" >&2; exit 1; }
! go list -f '{{join .Imports "\n"}}' ./internal/lockmodel | grep -E '^sync(/|$)' ||
    { echo "layering: internal/lockmodel imports sync (above); cache per run in core's settle step" >&2; exit 1; }
! go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -w unsafe | grep -v '^weseer/internal/btree:' ||
    { echo "layering: a package other than internal/btree imports unsafe (above)" >&2; exit 1; }
! grep -l '"unsafe"' internal/btree/*.go | grep -v -e '_test\.go$' -e '^internal/btree/pages\.go$' ||
    { echo "layering: an internal/btree file other than pages.go imports unsafe (above)" >&2; exit 1; }
! grep -rln --include='*.go' -e 'debug\.SetGCPercent' -e 'debug\.SetMemoryLimit' . | grep -v -e '_test\.go$' -e '^\./\.bench_build/' ||
    { echo "layering: program code sets a GC knob (files above); cut what the collector must mark instead" >&2; exit 1; }

# Deprecated shims stay shims: core.WithPrescreen (a no-op option),
# Stats.PrescreenSaved (always zero) and staticlint's VetDir,
# DefaultVetOptions and VetOptions exist only because benchmark/ still
# names them. No other Go file may, apart from their declarations,
# lint_test.go's one check that VetDir finds what Program.Findings finds,
# stats_test.go's exemption of the rowless field and the %+v dumps of a
# Stats value, so that they can all be deleted in one step with the
# benchmark's callers.
echo "== deprecated shims (only benchmark/ names WithPrescreen, PrescreenSaved, VetDir, DefaultVetOptions, VetOptions)"
! grep -rnwE 'WithPrescreen|PrescreenSaved|VetDir|DefaultVetOptions|VetOptions' --include='*.go' . |
    grep -v -e '^\./benchmark/' -e '^\./\.bench_build/' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    grep -vE 'PrescreenSaved:[0-9]' |
    grep -vF -e 'func WithPrescreen() Option {' -e '	PrescreenSaved int' \
        -e 'type VetOptions struct{}' -e 'func DefaultVetOptions() VetOptions {' -e 'func VetDir(dir string' \
        -e 'staticlint.VetDir(tc.dir, tc.scm, staticlint.DefaultVetOptions())' \
        -e 'Program.Findings differs from VetDir' -e 'path != ".PrescreenSaved"' ||
    { echo "shims: a Go file outside benchmark/ names a deprecated shim (lines above)" >&2; exit 1; }

echo "non-test Go outside benchmark/: $(find . -name '*.go' -not -name '*_test.go' \
    -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l) lines"

echo "verify: OK"
