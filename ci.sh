#!/bin/sh
# CI entry point. Tier-1 (build + tests) first, then the stricter
# gates: go vet across every package and the perfbench module, gofmt
# (no file may need reformatting) and the test suite again under the
# race detector (the engine and checkers are exercised in parallel by
# the paper-table tests, so data races would hide there).
set -eux

cd "$(dirname "$0")"

go build ./...
go test ./...

go vet ./...
# perfbench is its own module (replace flashmc => ../), so the root
# build never compiles it; vet it so an internal API change cannot
# break the benchmark silently.
(cd perfbench && go vet ./...)
test -z "$(gofmt -l .)"
go test -race ./...

# Incremental-analysis gate: checking the generated corpus twice
# through one artifact depot must print byte-identical reports — the
# second (warm) run is served from the cache, and a divergence means
# the depot keys miss an input the checkers depend on. mcheck exits 1
# when it reports, so `|| true` keeps set -e happy.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/flashgen -o "$tmp/corpus"
go build -o "$tmp/mcheck" ./cmd/mcheck
for proto in bitvector dyn_ptr sci coma rac common; do
    "$tmp/mcheck" -flash -cache "$tmp/depot" "$tmp/corpus/$proto"/*.c \
        > "$tmp/cold.$proto" || true
    "$tmp/mcheck" -flash -cache "$tmp/depot" "$tmp/corpus/$proto"/*.c \
        > "$tmp/warm.$proto" || true
    cmp "$tmp/cold.$proto" "$tmp/warm.$proto"
done

# Depot-churn gate: fill a tiny sharded depot past its byte budget and
# let LRU eviction run between a cold and a warm pass of every
# protocol. Evicted artifacts recompute, surviving ones replay, and
# either way the warm report stream must stay byte-identical to cold;
# the -stats dump must attribute a nonzero depot_gc_evicted_bytes_total
# or the budget never actually evicted and the gate is vacuous.
for proto in bitvector dyn_ptr sci coma rac common; do
    "$tmp/mcheck" -flash -cache "$tmp/churn-depot" -cache-shards 4 \
        -cache-max-bytes 65536 "$tmp/corpus/$proto"/*.c \
        > "$tmp/churn-cold.$proto" || true
    "$tmp/mcheck" -flash -cache "$tmp/churn-depot" -cache-shards 4 \
        -cache-max-bytes 65536 -stats "$tmp/corpus/$proto"/*.c \
        > "$tmp/churn-warm.$proto" 2> "$tmp/churn-stats.$proto" || true
    cmp "$tmp/churn-cold.$proto" "$tmp/churn-warm.$proto"
done
grep "^depot_gc_evicted_bytes_total" "$tmp/churn-stats.common"
! grep -qx "depot_gc_evicted_bytes_total 0" "$tmp/churn-stats.common"

# Observability gate: a real corpus run must emit (a) Prometheus text
# that the repo's own parser accepts and (b) a Chrome trace_event file
# containing at least one complete span. obscheck exits nonzero on
# malformed output; mcheck exits 1 when it reports, hence `|| true`.
"$tmp/mcheck" -flash -cache "$tmp/depot" \
    -trace "$tmp/obs-trace.json" -metrics "$tmp/obs-metrics.txt" \
    "$tmp/corpus/sci"/*.c > /dev/null || true
go run ./cmd/obscheck -prom "$tmp/obs-metrics.txt" -trace "$tmp/obs-trace.json"

# Coverage & performance gate: the corpus coverage run must write a
# valid coverage/v1 artifact (from both mcheck and paperbench), and
# the measured wall time / configs explored must stay within 25% of
# the committed baseline. After an intentional perf or corpus change,
# regenerate it: go run ./cmd/paperbench -bench BENCH_PR4.json
"$tmp/mcheck" -flash -cache "$tmp/depot" -coverage-out "$tmp/mcheck-cov.json" \
    "$tmp/corpus/sci"/*.c > /dev/null 2>&1 || true
go run ./cmd/paperbench -bench "$tmp/bench.json" -gate BENCH_PR4.json \
    -coverage-out "$tmp/paperbench-cov.json"
go run ./cmd/obscheck -coverage "$tmp/mcheck-cov.json" -coverage "$tmp/paperbench-cov.json"

# Symbolic-triage gate: over the seeded corpus the sym ladder must
# keep every one of the 34 true errors certain and demote strictly
# more false-positive sites than slicing's 24 (TestFPTriageSym pins
# the per-checker table against the flashgen manifest). Alongside it,
# the ranked stream must be deterministic: -j 1 cold vs -j 4 warm
# through one verdict depot must print byte-identical rankings.
go test -count=1 -run 'TestFPTriage$|TestFPTriageSym' ./internal/paper/
for proto in bitvector dyn_ptr sci coma rac common; do
    "$tmp/mcheck" -flash -triage sym -j 1 -cache "$tmp/tri-depot" \
        "$tmp/corpus/$proto"/*.c > "$tmp/tri-cold.$proto" || true
    "$tmp/mcheck" -flash -triage sym -j 4 -cache "$tmp/tri-depot" \
        "$tmp/corpus/$proto"/*.c > "$tmp/tri-warm.$proto" || true
    cmp "$tmp/tri-cold.$proto" "$tmp/tri-warm.$proto"
done

# Soundness fuzz: the symbolic evaluator must never refute a path a
# concrete execution can take. Short budget; minimization capped (the
# default spends 60s shrinking every new interesting input).
go test -run FuzzSymEval -fuzz FuzzSymEval -fuzztime 15s -fuzzminimizetime 1x ./internal/sym/

# Distributed-fleet gate: two mcheckworker processes over one shared
# depot, behind mcheckd -workers, must answer the whole corpus
# byte-identically to a plain local mcheckd — and the dispatch counter
# must prove the work actually went over the wire (a fleet that
# silently ran everything locally would pass the diff vacuously).
go build -o "$tmp/mcheckd" ./cmd/mcheckd
go build -o "$tmp/mcheckworker" ./cmd/mcheckworker
go build -o "$tmp/mcheckclient" ./cmd/mcheckclient
"$tmp/mcheckworker" -addr 127.0.0.1:18286 -cache "$tmp/fleet-depot" &
w1=$!
"$tmp/mcheckworker" -addr 127.0.0.1:18287 -cache "$tmp/fleet-depot" &
w2=$!
# -j 4 keeps several tasks in flight so both workers stay busy even
# on a single-core leader (the trace gate below needs spans from two
# distinct worker processes).
"$tmp/mcheckd" -addr 127.0.0.1:18288 -cache "$tmp/fleet-depot" -j 4 \
    -workers 127.0.0.1:18286,127.0.0.1:18287 &
fd=$!
"$tmp/mcheckd" -addr 127.0.0.1:18289 -j 4 &
ld=$!
trap 'kill $w1 $w2 $fd $ld 2>/dev/null || true; rm -rf "$tmp"' EXIT
for port in 18286 18287 18288 18289; do
    "$tmp/mcheckclient" -addr "127.0.0.1:$port" -wait 15s
done
for proto in bitvector dyn_ptr sci coma rac common; do
    "$tmp/mcheckclient" -addr 127.0.0.1:18288 -trace "$tmp/fleet-trace.$proto.json" \
        "$tmp/corpus/$proto"/*.c > "$tmp/fleet.$proto"
    "$tmp/mcheckclient" -addr 127.0.0.1:18289 "$tmp/corpus/$proto"/*.c \
        > "$tmp/fleet-ref.$proto"
    cmp "$tmp/fleet.$proto" "$tmp/fleet-ref.$proto"
done
"$tmp/mcheckclient" -addr 127.0.0.1:18288 -get /metrics > "$tmp/fleet-metrics.txt"
grep "^fleet_tasks_dispatched_total" "$tmp/fleet-metrics.txt"
! grep -qx "fleet_tasks_dispatched_total 0" "$tmp/fleet-metrics.txt"

# Distributed-tracing gate: the merged per-request trace fetched over
# the fleet path must be a valid Chrome trace containing dispatcher
# spans (cat "fleet" on the leader) and execution spans from both
# worker processes — obscheck's per-process breakdown names them, so
# one named mcheckworker lane would mean the fleet traced as a single
# process. The federated /metrics must also parse as one exposition
# with per-worker labeled families.
go run ./cmd/obscheck -trace "$tmp/fleet-trace.sci.json" > "$tmp/fleet-obscheck.txt"
cat "$tmp/fleet-obscheck.txt"
test "$(grep -c 'name="mcheckworker' "$tmp/fleet-obscheck.txt")" -ge 2
grep -q '"cat":"fleet"' "$tmp/fleet-trace.sci.json"
go run ./cmd/obscheck -prom "$tmp/fleet-metrics.txt"
grep -q '^fleet_worker_tasks_total{worker=' "$tmp/fleet-metrics.txt"
kill $w1 $w2 $fd $ld 2>/dev/null || true
wait $w1 $w2 $fd $ld 2>/dev/null || true
trap 'rm -rf "$tmp"' EXIT

# Provenance gate: a fresh depot, three runs of the same corpus.
# (1) The warm re-run's ledger entry must attribute every cache
# decision as a hit — any other nonzero reason means the scheduler
# recomputed (or misattributed) work on identical inputs — and
# -diff cold,warm must print nothing to stdout (empty stdout is the
# diff contract for byte-identical report streams; `cmp` double-checks
# the printed streams). (2) A -version-salt run must miss *every* key
# with reason checker-version-bump while still printing byte-identical
# reports — proving miss attribution tells bumps apart from real work.
rm -rf "$tmp/prov-depot"
"$tmp/mcheck" -flash -cache "$tmp/prov-depot" "$tmp/corpus/sci"/*.c \
    > "$tmp/prov-cold.out" || true
"$tmp/mcheck" -flash -cache "$tmp/prov-depot" "$tmp/corpus/sci"/*.c \
    > "$tmp/prov-warm.out" || true
cmp "$tmp/prov-cold.out" "$tmp/prov-warm.out"
"$tmp/mcheck" -cache "$tmp/prov-depot" -runs > "$tmp/prov-runs.txt"
cat "$tmp/prov-runs.txt"
test "$(wc -l < "$tmp/prov-runs.txt")" -eq 2
cold_id=$(sed -n '1s/ .*//p' "$tmp/prov-runs.txt")
warm_id=$(sed -n '2s/ .*//p' "$tmp/prov-runs.txt")
grep -q "hit=0 " "$tmp/prov-runs.txt"            # cold line: no hits
sed -n 2p "$tmp/prov-runs.txt" | grep -q " new=0 vb=0 oc=0 dep=0 ev=0 rem=0"
"$tmp/mcheck" -cache "$tmp/prov-depot" -diff "$cold_id,$warm_id" \
    > "$tmp/prov-diff.out" 2> "$tmp/prov-diff.err"
cat "$tmp/prov-diff.err"
test ! -s "$tmp/prov-diff.out"
"$tmp/mcheck" -flash -cache "$tmp/prov-depot" -version-salt ci-bump \
    "$tmp/corpus/sci"/*.c > "$tmp/prov-salt.out" || true
cmp "$tmp/prov-cold.out" "$tmp/prov-salt.out"
"$tmp/mcheck" -cache "$tmp/prov-depot" -runs | sed -n 3p | tee "$tmp/prov-salt-line.txt"
grep -q " hit=0 new=0 " "$tmp/prov-salt-line.txt"
grep -q " oc=0 dep=0 ev=0 rem=0" "$tmp/prov-salt-line.txt"
! grep -q " vb=0 " "$tmp/prov-salt-line.txt"
# -explain must name a producer and checker version for a warm report.
"$tmp/mcheck" -flash -cache "$tmp/prov-depot" -explain "$tmp/corpus/sci"/*.c \
    > /dev/null 2> "$tmp/prov-explain.txt" || true
grep -q "producer=pid:" "$tmp/prov-explain.txt"
grep -q "decision=hit" "$tmp/prov-explain.txt"
# The bench trajectory must be appendable: one more entry than
# committed.
base_entries=$(grep -c '"unix"' BENCH_PR10.json)
cp BENCH_PR10.json "$tmp/traj.json"
go run ./cmd/paperbench -append "$tmp/traj.json"
test "$(grep -c '"unix"' "$tmp/traj.json")" -eq "$((base_entries + 1))"
