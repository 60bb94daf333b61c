#!/usr/bin/env bash
# ci.sh — the repository's tier-1 gate plus the race-detector pass over the
# concurrency-sensitive packages (evaluator scratch pools, the program
# executor's worker pool and shared constants, atomic op meter, the
# compiler's concurrent layout search). Run before every commit.
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

echo "== kernel promises (Dense issues the rotations and key-switching sums its closed form says, fewer rotations than one fold per neuron; its copies land only in slots its input leaves free, and it refuses copies that would overlap or leave their lane; every zoo model under every policy reads its Dense inputs clean; every runtime rotation has a compiled key, at or below the key's planned level, and every planned key is applied, batched compiles included; keys cut at a level compute what full keys compute and do not depend on the core count; the conjugation key only when used; the compiler's node table equals the runtime's op counts; the node table sums to each layout's estimate, power-of-two baseline included; the runtime executes exactly the compiled program, every instruction once and at its planned level; outputs are pinned bit for bit on Ref, Sim and RNS, real, batched, complex and bootstrapped, at 1 and 4 workers; impossible scales are rejected; the Meter's bootstraps equal the placements; the program's constants are encoded once, at their level, bit-identically, also under bootstrapping and complex packing; input scales are admitted exactly; a lying input scale is refused without harming a concurrent session; a tensor off the compiled input layout, complex flag and batch metadata included, is refused at admission; and a panicking evaluation fails only its own request; sums of rotations list each source's distinct amounts once and match the unfused sequence — bit for bit on Ref/Sim, within the rounding bound on RNS, op for op in the Meter — and divide by P once per output; the mock computes each output in one accumulator of its own, bit for bit the unfused sequence with complex sources and plaintexts, multi-step rotations and a divide at 1 and 4 workers, and panics as it does on a product over capacity; a sum that takes its outputs' rescale divides inside its ModDown bit-identically to the sum then the rescale, at every level and α, off-plan keys and mask weights included, and counts as the pair; base-4 folds are exact for n = 1…33 in the rotations their closed form counts; a mask-weighted sum under the Refresher refreshes its source once, and a mock replay encodes its constant once, straight from its runs wherever the whole wrapper chain takes them; the kernels run only in the compiler, and the programs they record, replayed on Sim and RNS, match Circuit.Evaluate real, batched, complex-packed and through every packed-Dense geometry; the NTTs per inference are pinned; the circuit rewrite preserves what every circuit computes; LeNet-tiny at the default 128-bit options compiles to N = 2^14; every zoo model under every policy matches Circuit.Evaluate on Ref, with zero invalid output slots and as many mask products per node as Compiled.Nodes reports, and LeNet-tiny does on RNS, batched and complex; BatchNorm folds into its convolution and the result matches on Ref, Sim and RNS; LeNet-5-small at the lenet5-small options holds no more constants under CHW than under HW; -explain names the masks kept and the factors absorbed and bills the program's constants, node by node, complex ones as a replay holds them; the compiler's decisions — fingerprint, every layout's estimates, the node table — are pinned for the benchmark's zoo and LeNet-tiny; one compile of SqueezeNet-CIFAR or LeNet-5-medium, and one LeNet-5-small inference on the CKKS mock, allocates under its bound; the layout searches, run concurrently, give the serial search's fingerprint, trace, winner and error bit for bit, infeasible layouts included; the key switch's inner product allocates nothing per row)"
go test -count=1 -run 'TestFoldPreservesEvaluate|TestFoldFactors' ./internal/circuit
go test -count=1 -run 'TestExplainNamesMasksAndFactors' ./cmd/chet-compile
go test -count=1 -run 'TestDenseRotationBudget|TestDenseInputsClean|TestDenseCopiesChecked|TestZeroInvariantAfterEveryKernel|TestMockEncodesOncePerInstruction|TestReplayEncodesFromRuns|TestFoldStridedExact|TestConstantStore|TestParallelExecuteDeterministic|TestKernelsHoistedParityRNS|TestExecuteOn|TestBatchedParity|TestComplexParity|TestDensePackedParity' ./internal/htc
go test -count=1 -run 'TestRuntimeRotationsWithinCompiledKeys|TestConjugationKeyOnlyWhenUsed|TestNodeTableMatchesRuntime|TestRNSExecutesTheProgram|TestOutputsPinned|TestModDownsPerInference|TestNTTsPerInference|TestCompileRejectsBadScales|TestBootstrapPlacement|TestBootstrapEndToEnd|TestLeNetTinySecureOnHalfRing|TestZooMatchesEvaluateOnRef|TestLeNetTinyBatchedComplexRNS|TestBatchNormFoldsIntoConv|TestCHWHoldsNoMoreConstantsThanHW|TestCompilePinned|TestCompileAllocations|TestMockInferenceAllocations|TestNodeCostsSumToEstimate|TestCompileParallelMatchesSerial' ./internal/core
go test -count=1 -run 'TestLeveledKeyParity|TestKeyGenDeterministicAcrossProcs|TestOverLevelKeySwitchIsDescriptive|TestRotSum|TestInnerProductRowAllocatesNothing' ./internal/ckks
go test -count=1 -run 'TestRotSum|TestSumRotations|TestRefresherRefreshesSumSourceOnce' ./internal/hisa
go test -count=1 -run 'TestSessionEncodesConstantsOnce|TestPlannedKeysMatchFullKeys' .
go test -count=1 -run 'TestInputScaleAdmittedExactly|TestPoisonedTensorRejected|TestEvalPanicFailsOnlyItsRequest|TestBadTensorRejected' ./internal/serve

echo "== endpoint promises (worker and router serve through one wire.Endpoint: junk frames end their connection promptly and leave it serving, on a worker and on a router fronting one; a worker answers the router's control frames; both drain in-flight work on shutdown and refuse new work)"
go test -count=1 -run 'TestMalformedFramesDoNotCrash|TestWorkerControlFrames|TestGracefulShutdownDrain' ./internal/serve
go test -count=1 -run 'TestRouterMalformedFramesDoNotCrash|TestRouterShutdownDrains' ./internal/fleet

echo "== benchmark module (its adapter is the one file outside the tree that imports chet/internal/...)"
(cd benchmark && go vet ./... && go build ./... && go test ./...)

echo "== go test -race (concurrency-sensitive packages)"
go test -race ./internal/ring/... ./internal/hisa/... ./internal/htc/... ./internal/ckks/...

echo "== go test -race (hybrid key switch: α = 1 digests, hoisted/fused/worker parity for α in {1,2,3,L+1}, noise bound, arena gate; fused sums of rotations against the unfused sequence, and with their rescale against the pair, for α in {1,2,3}, 1 ≡ 4 workers)"
go test -race -count=3 -run 'TestAlphaOneMatchesPerPrimeKeySwitch|TestHybridKeySwitch|TestRotSumMatchesUnfused|TestRotSumRescaleMatchesPair' ./internal/ckks

echo "== go test -race (compiler: the concurrent layout search, one search per layout policy on up to GOMAXPROCS goroutines, against the serial one)"
go test -race -count=1 -run TestCompileParallelMatchesSerial ./internal/core

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
