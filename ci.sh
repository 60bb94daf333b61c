#!/usr/bin/env bash
# ci.sh — the repository's tier-1 gate plus the race-detector pass over the
# concurrency-sensitive packages (evaluator scratch pools, worker-pool
# kernels, atomic op meter). Run before every commit.
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt (the tree stays formatted)"
test -z "$(gofmt -l .)"

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== kernel promises (Dense issues the rotations its closed form says, fewer than one fold per neuron; every runtime rotation has a compiled key, at or below the key's planned level, and every planned key is applied, batched compiles included; keys cut at a level compute what full keys compute and do not depend on the core count; the conjugation key only when used; the compiler's node table equals the runtime's op counts; the compiler's analysis issues the runtime's instruction stream; impossible scales are rejected; refresh counts pinned; constants are encoded once, at their use level, bit-identically, also under bootstrapping; input scales are admitted exactly; a lying input scale is refused without harming a concurrent session; a tensor off the compiled input layout, complex flag and batch metadata included, is refused at admission; and a panicking evaluation fails only its own request; sums of rotations match the unfused sequence — bit for bit on Ref/Sim, within the rounding bound on RNS, op for op in the Meter — and divide by P once per output; the NTTs per inference are pinned)"
go test -count=1 -run 'TestDenseRotationBudget|TestFoldStridedExact|TestConstantStore|TestParallelExecuteDeterministic|TestKernelsHoistedParityRNS' ./internal/htc
go test -count=1 -run 'TestRuntimeRotationsWithinCompiledKeys|TestConjugationKeyOnlyWhenUsed|TestNodeTableMatchesRuntime|TestAnalysisIssuesRuntimeStream|TestModDownsPerInference|TestNTTsPerInference|TestCompileRejectsBadScales|TestBootstrapPlacement|TestBootstrapEndToEnd' ./internal/core
go test -count=1 -run 'TestLeveledKeyParity|TestKeyGenDeterministicAcrossProcs|TestOverLevelKeySwitchIsDescriptive|TestRotSum' ./internal/ckks
go test -count=1 -run 'TestRotSum' ./internal/hisa
go test -count=1 -run 'TestSessionEncodesConstantsOnce|TestPlannedKeysMatchFullKeys' .
go test -count=1 -run 'TestInputScaleAdmittedExactly|TestPoisonedTensorRejected|TestEvalPanicFailsOnlyItsRequest|TestBadTensorRejected' ./internal/serve

echo "== endpoint promises (worker and router serve through one wire.Endpoint: junk frames end their connection promptly and leave it serving, on a worker and on a router fronting one; a worker answers the router's control frames; both drain in-flight work on shutdown and refuse new work)"
go test -count=1 -run 'TestMalformedFramesDoNotCrash|TestWorkerControlFrames|TestGracefulShutdownDrain' ./internal/serve
go test -count=1 -run 'TestRouterMalformedFramesDoNotCrash|TestRouterShutdownDrains' ./internal/fleet

echo "== benchmark module (its adapter is the one file outside the tree that imports chet/internal/...)"
(cd benchmark && go vet ./... && go build ./... && go test ./...)

echo "== go test -race (concurrency-sensitive packages)"
go test -race ./internal/hisa/... ./internal/htc/... ./internal/ckks/...

echo "== go test -race (hybrid key switch: α = 1 digests, hoisted/fused/worker parity for α in {1,2,3,L+1}, noise bound, arena gate; fused sums of rotations against the unfused sequence for α in {1,2,3}, 1 ≡ 4 workers)"
go test -race -count=3 -run 'TestAlphaOneMatchesPerPrimeKeySwitch|TestHybridKeySwitch|TestRotSumMatchesUnfused' ./internal/ckks

echo "== go test -race (serving subsystem: wire protocol + server engine)"
go test -race ./internal/serve/... ./internal/wire/...

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

echo "== fuzz smoke (decoded switching keys that pass admission never panic the key switch at their levels and fail descriptively above them, α in {1,2,3}; truncated, over-long and wrong-level frames seeded)"
go test -fuzz=FuzzUnmarshalRotationKeySet -fuzztime=5s ./internal/ckks

echo "== ring kernels (pooled arena kernels stay at 0 allocs/op; each modulus's lazy pass width reduces exactly at its edge and one more term would not; the multiply-accumulate kernels and the basis extension match big-integer arithmetic at every pass boundary and one past it; the radix-4 and folded NTT passes are bit-identical to the strict transforms from N = 2 to 2^15)"
go test -run='TestRingKernelAllocs|TestLazyTermsAtTheBound|TestKeySwitchInnerProduct|TestBasisExtenderMatchesCRT|TestLazyNTTMatchesStrict' -count=1 ./internal/ring

echo "== bench smoke (ring kernels compile and run; -benchmem shows the alloc contract)"
go test -run=NONE -bench=. -benchtime=1x -benchmem ./internal/ring

echo "== go test -race (bootstrapping: pipeline, Refresher triggers, arena leak gate)"
go test -race ./internal/boot/...

echo "CI OK"
