#!/usr/bin/env bash
# Repo health gate: formatting, vet, build, and the full test suite under
# the race detector. Run from the repo root (or let the script cd there).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l cmd internal examples ./*.go)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race (shuffled) =="
# -shuffle=on randomizes test (and package-level example) execution order so
# inter-test state leaks can't hide behind source order; the seed is printed
# on failure for reproduction.
go test -race -shuffle=on ./...

echo "== checkpoint fuzz smoke =="
# Five seconds of coverage-guided corruption against the checkpoint decoder:
# any input may be rejected, none may panic.
go test -run '^$' -fuzz '^FuzzCheckpoint$' -fuzztime=5s ./internal/model/

echo "== streamed pipeline + feature cache parity =="
# Pipelined-parity gate: the barrier-free featurize→predict pipeline must
# reproduce the staged reference's per-path outputs bit for bit across
# backends, micro-batch sizes, and seeds, and a warm feature cache must
# reproduce the cache-free estimate bit for bit while concurrent estimates
# run flowSim exactly once per path; under the race detector since the
# schedule is completion-order-dependent by construction; -count=2 reruns in
# one process to catch state leaks.
go test -race -count=2 -run '^TestStreamedMatchesStagedBitIdentical$|^TestStreamedWallTimings$|^TestFeatureCacheBitIdentical$|^TestFeatureCacheSingleFlight$' ./internal/core/

echo "== packetsim determinism =="
# Golden-parity and pool-reuse tests pin the engine to the frozen
# bit-identical result hashes; -count=2 reruns them in one process so any
# state leaking through the sync.Pool between runs fails the second pass.
go test -run 'TestEngineGoldenParity|TestRunDeterministic' -count=2 ./internal/packetsim/

echo "== parsimon clustering determinism + parity =="
# Link-clustering gates: frozen golden hashes (clustering off), threshold-0
# bit-identity with the unclustered path, and cross-pool-width determinism;
# -count=2 reruns in one process to catch state leaks across runs.
go test -run 'TestParsimonGoldenParity|TestClusterExactTierBitIdentical|TestClusterUniformWorkloadLossless|TestClusterDeterminism' \
    -count=2 ./internal/parsimon/

echo "== 100k-host scale smoke =="
# Builds the 100,352-host fat-tree, validates routing, and runs a short
# clustered ground-truth pass under hard memory ceilings (512 MiB live
# heap / 1.5 GiB Sys); measured ~2s wall, budgeted 10m for slow machines.
M3_SCALE_SMOKE=1 go test -run '^TestScaleSmoke100k$' -v -timeout 10m ./internal/core/

echo "== cluster smoke (3-replica scatter parity) =="
# Boots real m3serve processes: a standalone reference and a 3-replica
# scatter fleet; the fleet's quantiles must be byte-identical to standalone.
scripts/cluster_smoke.sh

echo "== bench smoke =="
# bench/ is a nested module, so ./... above does not reach it: vet it and run
# the harness's own tests (metric arithmetic, report schema, a smoke run).
(cd bench && go vet . && go test .)

echo "ok"
