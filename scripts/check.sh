#!/bin/sh
# Pre-PR gate: formatting, vet, build, determinism lint, the benchmark
# module's own format/vet/lint/tests, race detector, the dccdebug
# deep-assertion test run, a repeated race run of the worker pool, a chaos
# smoke (fault-injection matrix under race + deep assertions), and a short
# fuzz smoke of every fuzz target. Everything here must pass before a
# change ships (see README "Development").
set -e
cd "$(dirname "$0")/.."

# Per-target fuzz budget; CI trims it (see .github/workflows/check.yml).
FUZZTIME="${FUZZTIME:-5s}"

echo '== gofmt'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo '== go vet'
go vet ./...
# The debug_on.go files compile only under the dccdebug tag, where go test
# runs just vet's test-time subset of checks.
go vet -tags dccdebug ./...

echo '== go build'
go build ./...

echo '== dcclint'
go run ./cmd/dcclint ./...

echo '== bench module (gofmt, vet, dcclint, tests)'
# bench/ is its own Go module (replace dcc => ../), so the root ./...
# patterns above do not reach it.
(cd bench && test -z "$(gofmt -l .)" && go vet ./... && go run ../cmd/dcclint ./... && go test ./...)

echo '== go test -race'
go test -race -timeout 30m ./...

echo '== go test -tags dccdebug'
go test -tags dccdebug ./...

echo '== cache consistency smoke (deep assertions)'
# The incremental deletability engine with its dccdebug cross-checks armed:
# every cached verdict is compared against fresh recomputation, and every
# Commit is followed by a dirty-set audit. The reference regression
# pins the cache-backed schedulers to the pre-cache engines byte for byte,
# and the verdict and span goldens pin every engine's deletion order, test
# count and vpt counters, and the span engine's end state, to recorded
# values, with the adjacency-only ball and the filtered Horton pass checked
# against their full forms on every verdict.
go test -tags dccdebug -run '^TestCache|^FuzzCacheConsistency$' ./internal/vpt
go test -tags dccdebug -run 'MatchesReference$' ./internal/core
go test -tags dccdebug -run '^TestVerdictGolden$' .
go test -tags dccdebug -run '^TestSpanGolden$' ./internal/cycles

echo '== scenario oracle smoke (-short)'
# The ground-truth catalogue against the pipeline: closed-form oracles,
# threshold crossings, and the DCC-vs-HGC differential (DESIGN.md §12).
go test -short -run '^TestCatalogueOracles$|^TestThresholdCrossing$|^TestRipsRelaxation$|^TestDifferentialDCCvsHGC$' ./internal/scenario

echo '== coverage floor'
# Per-package statement coverage against the committed floors. The -short
# run keeps this pass cheap; floors live in scripts/coverage_floor.txt.
cover_out=$(go test -short -cover ./...)
echo "$cover_out" | awk '
    NR == FNR {
        if ($0 !~ /^#/ && NF == 2) floor[$1] = $2
        next
    }
    $1 == "ok" {
        pct = ""
        for (i = 1; i <= NF; i++) if ($i ~ /%$/) { pct = $i; sub(/%/, "", pct) }
        if (pct == "") next
        seen[$2] = 1
        if ($2 in floor && pct + 0 < floor[$2] + 0) {
            printf "coverage: %s at %s%% is below the committed floor %s%%\n", $2, pct, floor[$2]
            fail = 1
        }
    }
    END {
        for (p in floor) if (!(p in seen)) {
            printf "coverage: floor lists %s but go test reported no coverage for it\n", p
            fail = 1
        }
        exit fail
    }
' scripts/coverage_floor.txt -

echo '== runner race (repeated)'
go test -race -count=2 ./internal/runner

echo '== chaos smoke (race + deep assertions)'
# The reliability/fault-injection matrix under the race detector with the
# dccdebug MIS-independence assertions armed — the combination neither
# plain gate above covers — plus the differential test that pins fault-free
# and give-up-free AckFloods runs to core.Parallel node for node. Both also
# check every run against its recorded result (deletion order, crashed and
# recovered nodes, final graph, every Stats field) in
# internal/dist/testdata/run_golden.txt. -short trims both to a
# smoke-sized slice and compares the runs in it.
go test -short -race -tags dccdebug -run '^TestChaosMatrix$|^TestParallelMatchesDistributed$' ./internal/dist

echo '== streaming chaos smoke (race + deep assertions)'
# The event-stream chaos harness: crash-restart at seeded WAL offsets with
# producer redelivery, torn snapshots, and the WAL mutation matrix, plus
# the per-event convergence suite, the recorded per-event fingerprints of
# fixed streams, batched-versus-stepped rejection, the in-place topology's
# live-graph constructor and the replaying election's differential test,
# with the dccdebug memo cross-checks, the topology oracle (neighbour
# lists checked after every edit, live graphs against a Builder build) and
# the replay oracle (every replayed election re-run without its trace)
# armed.
go test -short -race -tags dccdebug -run '^TestStreamChaosMatrix$|^TestEngineDifferentialConvergence$|^TestTopologyGolden$|^TestEngineBatchedRejectsAsStepped$' ./internal/stream
go test -short -race -tags dccdebug -run '^TestLiveInducedMatchesMaterialize$' ./internal/graph
go test -short -race -tags dccdebug -run '^TestReplayMatchesCanonical$' ./internal/core

echo '== telemetry byte-identity'
# The observability contract (DESIGN.md §14): collecting metrics must not
# change a single output byte. Wall-clock timing lines are suppressed so
# the two runs compare exactly; the NDJSON dump is sanity-checked for the
# schema header and a live deterministic series.
teldir=$(mktemp -d)
trap 'rm -rf "$teldir"' EXIT
go build -o "$teldir/dccsim" ./cmd/dccsim
TELFIGS='-fig 1,6,scenarios -nodes 60 -runs 1 -timings=false'
"$teldir/dccsim" $TELFIGS -telemetry=false > "$teldir/tel_off.txt"
"$teldir/dccsim" $TELFIGS -metrics "$teldir/metrics.ndjson" \
    | grep -v '^\[metrics\]' > "$teldir/tel_on.txt"
cmp "$teldir/tel_off.txt" "$teldir/tel_on.txt"
grep -q '"schema":"dcc-metrics-v1"' "$teldir/metrics.ndjson"
grep -q '"class":"deterministic","type":"counter","name":"core.runs"' "$teldir/metrics.ndjson"

echo "== fuzz smoke (${FUZZTIME} per target)"
go test -run=NONE -fuzz='^FuzzVectorXOR$' -fuzztime="$FUZZTIME" ./internal/bitvec
go test -run=NONE -fuzz='^FuzzRank$' -fuzztime="$FUZZTIME" ./internal/bitvec
go test -run=NONE -fuzz='^FuzzShortSpan$' -fuzztime="$FUZZTIME" ./internal/cycles
go test -run=NONE -fuzz='^FuzzFrameRoundTrip$' -fuzztime="$FUZZTIME" ./internal/dist
go test -run=NONE -fuzz='^FuzzCacheConsistency$' -fuzztime="$FUZZTIME" ./internal/vpt
go test -run=NONE -fuzz='^FuzzScenarioDeterminism$' -fuzztime="$FUZZTIME" ./internal/scenario
go test -run=NONE -fuzz='^FuzzWALReplay$' -fuzztime="$FUZZTIME" ./internal/stream
go test -run=NONE -fuzz='^FuzzCanonicalReplay$' -fuzztime="$FUZZTIME" ./internal/core
go test -run=NONE -fuzz='^FuzzPublicSchedule$' -fuzztime="$FUZZTIME" .

echo 'check.sh: all gates passed'
