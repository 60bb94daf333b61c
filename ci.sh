#!/usr/bin/env bash
# ci.sh — the repository's tier-1 gate plus the race-detector pass over the
# concurrency-sensitive packages (evaluator scratch pools, worker-pool
# kernels, atomic op meter). Run before every commit.
set -euo pipefail
cd "$(dirname "$0")"

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== kernel promises (Dense issues the rotations its closed form says, fewer than one fold per neuron; every runtime rotation has a compiled key; refresh counts pinned)"
go test -count=1 -run 'TestDenseRotationBudget|TestFoldStridedExact' ./internal/htc
go test -count=1 -run 'TestRuntimeRotationsWithinCompiledKeys|TestBootstrapPlacement' ./internal/core

echo "== benchmark module (its adapter is the one file outside the tree that imports chet/internal/...)"
(cd benchmark && go vet ./... && go build ./... && go test ./...)

echo "== go test -race (concurrency-sensitive packages)"
go test -race ./internal/hisa/... ./internal/htc/... ./internal/ckks/...

echo "== go test -race (hybrid key switch: α = 1 digests, hoisted/fused/worker parity for α in {1,2,3,L+1}, noise bound, arena gate)"
go test -race -count=3 -run 'TestAlphaOneMatchesPerPrimeKeySwitch|TestHybridKeySwitch' ./internal/ckks

echo "== go test -race (serving subsystem: wire protocol + batch coalescer + server engine)"
go test -race ./internal/serve/... ./internal/wire/... ./internal/batch/...

echo "== go test -race (telemetry: tracer ring, scope stack, trace-context propagation, metrics snapshots)"
go test -race ./internal/telemetry/... ./internal/serve/...

echo "== go test -race (fleet: hash ring churn, registry merge, router + 2 workers, batched e2e, cross-process trace stitching incl. bootstrap spans + router-learned budget, /metrics scrape)"
go test -race ./internal/fleet/... ./cmd/chet-router

echo "== observability smoke (/metrics exposition + pprof against a live chet-serve)"
go test -run=TestObservabilityEndpoints ./cmd/chet-serve

echo "== observability smoke (chet-router /metrics scrape + merged /trace fetch against a live fleet)"
go test -run=TestRouterObservabilityEndpoints ./cmd/chet-router

echo "== fuzz smoke (wire decoders are total over adversarial bytes)"
go test -fuzz=FuzzWireFrame -fuzztime=5s ./internal/wire

echo "== fuzz smoke (fleet control-frame decoders are total over adversarial bytes)"
go test -fuzz=FuzzControlFrame -fuzztime=5s ./internal/wire

echo "== fuzz smoke (decoded switching keys that pass admission never panic the key switch, α in {1,2,3})"
go test -fuzz=FuzzUnmarshalRotationKeySet -fuzztime=5s ./internal/ckks

echo "== ring alloc gate (pooled arena kernels stay at 0 allocs/op)"
go test -run=TestRingKernelAllocs -count=1 ./internal/ring

echo "== bench smoke (ring kernels compile and run; -benchmem shows the alloc contract)"
go test -run=NONE -bench=. -benchtime=1x -benchmem ./internal/ring

echo "== go test -race (bootstrapping: pipeline, Refresher triggers, arena leak gate)"
go test -race ./internal/boot/...

echo "CI OK"
