GO ?= go

.PHONY: all build vet lint conflint test test-short test-race bench bench-solver bench-smoke bench-check solver-smoke metrics-smoke explore-smoke conflint-smoke serve-smoke fuzz experiments experiments-full clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet, the in-tree dclint suite (wallclock,
# sleepsite, mapiter, rngseed, panicsite — see DESIGN.md "Determinism
# invariants"), and the configuration linter's all-green baseline.
lint: vet conflint
	$(GO) run ./cmd/dclint ./...

# Configuration static analysis (internal/conflint): render the default
# fleet from the topology and require a findings-free lint.
conflint:
	$(GO) run ./cmd/dcconflint -selfcheck

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over the concurrent paths (pull/validate workers,
# store, queue, analytics); -short skips the slow CLI end-to-end runs.
test-race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Solver-stack microbenchmarks: policy encode+solve with/without the
# pre-blast rewrite pass (internal/bv) and the incremental-assumption
# session pattern (internal/sat).
bench-solver:
	$(GO) test -run xxx -bench 'BenchmarkBlast' -benchmem ./internal/bv/
	$(GO) test -run xxx -bench 'BenchmarkIncrementalAssumptions' -benchmem ./internal/sat/

# CI gate for incremental validation: after one leaf–spine or one ToR–leaf
# failure at the 520-, 2008- and 10024-device shapes, every (device ×
# prefix) whose derived next hops moved must lie inside its device's
# computed scope, the devices the scoped check puts in one class must agree
# on everything their verdicts read (the class-soundness gate), so must the
# devices a full sweep of the failed fleet puts in one class around their
# home (the gate's full-check mode), and the revalidated report must render
# identically to a full sweep (TestLeafSpineFlipSoundAtScale,
# TestToRLeafFlipSoundAtScale). The full-check gate is also armed on the
# fleet_sweep benchmark's fleet with its 12 seeded faults, whose
# class-collapsed sweep must render the bytes of one without classes
# (TestSeededFaultSweepClassesSound), and must fail on classes that drop
# one plane from a ToR's mask (internal/classcheck's mutation check). The
# class key must tell apart devices that differ in any one ingredient
# (TestRunClassKeysEachIngredient), and the refreshes of 300 ToR–leaf
# flips must keep their mallocs flat (TestRefreshAllocsFlat).
# The -benchmem leg locks the steady state: a warmed one-worker ValidateAll
# allocates nothing per device on the trie and the PEC engine — as often per
# sweep on a 92-device fleet as on Figure 3's 20 (the companion test asserts
# it via AllocsPerRun) — and the benchmark reports its allocs/op. The
# cold leg locks the other end: a from-scratch sweep stays under its
# mallocs-per-contract ceiling (TestValidateAllColdAllocCeiling) and
# BenchmarkValidateAllCold reports allocs/op beside contracts/op. The link
# flip leg locks the change-driven sweep: one ToR–leaf flip plus a query on
# a warmed 2008-device datacenter stays under its mallocs ceiling
# (TestLinkFlipAllocCeiling), a leaf–spine flip's mallocs grow with its
# dirty devices rather than the fleet from 520 to 2008 devices
# (TestLeafSpineFlipAllocsScaleWithDirty), and BenchmarkLinkFlip reports
# its cost. The set-up leg locks a fresh datacenter's facts: at 2008
# devices a build stays under 32 mallocs and 1 MB
# (TestFromTopologyAllocCeiling), each neighbor equals the topology's
# adjacency (TestFactsMatchTopology), and BenchmarkColdSweepStages reports
# the cold sweep's facts, synth, side-by-side, layout and check stages. The
# reach leg locks the slice walk: on a warmed 520-device datacenter the
# first /reach after a write allocates at most 64 KB
# (TestFirstReachAfterWriteAllocCeiling). The SecGuru leg locks the
# solver's term table: one context encoding the default ~3000-rule Edge ACL
# holds at most 20 MB live (TestEdgeACLEncodingLiveBytes).
bench-smoke:
	$(GO) test -run 'TestLeafSpineFlipSoundAtScale|TestToRLeafFlipSoundAtScale|TestSeededFaultSweepClassesSound' -count=1 .
	$(GO) test -count=1 ./internal/classcheck
	$(GO) test -run 'TestRunClass|TestRefreshAllocsFlat' -count=1 ./internal/bgp
	$(GO) test -run 'TestValidateAllSteadyStateZeroAlloc|TestValidateAllColdAllocCeiling|TestLinkFlipAllocCeiling|TestLeafSpineFlipAllocsScaleWithDirty|TestFirstReachAfterWriteAllocCeiling' -count=1 .
	$(GO) test -run xxx -bench BenchmarkValidateAllSteadyState -benchmem -benchtime 100x .
	$(GO) test -run xxx -bench BenchmarkValidateAllCold -benchmem -benchtime 3x .
	$(GO) test -run xxx -bench BenchmarkLinkFlip -benchmem -benchtime 20x .
	$(GO) test -run 'TestFromTopologyAllocCeiling|TestFactsMatchTopology' -count=1 ./internal/metadata
	$(GO) test -run xxx -bench BenchmarkColdSweepStages -benchtime 20x .
	$(GO) test -run TestEdgeACLEncodingLiveBytes -count=1 ./internal/bv

# CI gate for the benchmark harness: benchmark/ is a nested module that
# `go build ./...` and `go test ./...` never enter, yet it calls delta,
# bgp, rcdc and engine directly, and the pec and shard packages as the
# oracles its per-layer rows compare against — so a signature change there
# would otherwise first fail in a benchmark run. Builds it, runs its own
# tests, then every workload once at the quick sizes, twice per seed,
# requiring correct verdicts and repeatable counts.
bench-check:
	cd benchmark && $(GO) test . && $(GO) run . -quick -selfcheck

# CI gate for solver performance: one short E4 point; panics when
# smt/contract exceeds a generous ceiling or the SMT verdicts (sequential
# or parallel) disagree with the trie engine.
solver-smoke:
	$(GO) run ./cmd/dcbench -e e4s -quick

# CI gate for the failure-space explorer: the symmetry-pruned sweep must
# report the exact violating scenario set of the brute-force sweep, the
# k=2 pruning ratio on a 2-pod Clos must clear its 2x floor, and every
# minimal failure set must still violate its contract on replay.
explore-smoke:
	$(GO) test -run 'TestPrunedMatchesBrute|TestMinimalSetsReplay|TestPruningRatioFloorK2' -count=1 ./internal/explore

# CI gate for the configuration multichecker: zero findings on the clean
# fleet, detection of every seeded misconfiguration class, a
# byte-identical report across two runs, and acl-shadow's SMT verdicts
# agreeing with the exact interval engine; then the default fleet's
# findings-free self-check.
conflint-smoke:
	$(GO) test -run 'TestCleanFleetHasNoFindings|TestSeededMisconfigs|TestReportByteStable|TestShadowEnginesAgreeOnRandomPolicies' -count=1 ./internal/conflint
	$(GO) run ./cmd/dcconflint -selfcheck

# CI gate for the serving plane: boot dcvalidated on a small topology,
# issue conformance + reachability queries over HTTP, require repeat
# queries to land as dcv_serve_cache_hits_total increments with zero extra
# sweeps, and a link flip to surface as exactly one fresh sweep. See
# scripts/serve_smoke.sh.
serve-smoke:
	./scripts/serve_smoke.sh

# CI gate for the observability layer: run a short fault-free dcmon with
# -metrics-addr, curl /metrics, and fail on missing series, non-finite
# values, or a dead pprof endpoint (see scripts/metrics_smoke.sh).
metrics-smoke:
	./scripts/metrics_smoke.sh

# Brief fuzz sessions over every parser and differential fuzzer (extend
# -fuzztime for real runs).
FUZZTIME ?= 15s
fuzz:
	$(GO) test -fuzz FuzzParseIOS -fuzztime $(FUZZTIME) ./internal/acl/
	$(GO) test -fuzz FuzzParseNSG -fuzztime $(FUZZTIME) ./internal/acl/
	$(GO) test -fuzz FuzzParseSMTLIB2 -fuzztime $(FUZZTIME) ./internal/bv/
	$(GO) test -fuzz FuzzInternMatchesStringKey -fuzztime $(FUZZTIME) ./internal/bv/
	$(GO) test -fuzz FuzzParseDIMACS -fuzztime $(FUZZTIME) ./internal/sat/
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/devconf/
	$(GO) test -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/devconf/
	$(GO) test -fuzz FuzzPECDifferential -fuzztime $(FUZZTIME) ./internal/pec/
	$(GO) test -fuzz FuzzPECFleetDifferential -fuzztime $(FUZZTIME) ./internal/pec/
	$(GO) test -fuzz FuzzPrefixIndex -fuzztime $(FUZZTIME) ./internal/ipnet/
	$(GO) test -fuzz FuzzRunTableLookup -fuzztime $(FUZZTIME) ./internal/fib/
	$(GO) test -fuzz FuzzRunsDifferential -fuzztime $(FUZZTIME) ./internal/rcdc/
	$(GO) test -fuzz FuzzSynthMatchesSim -fuzztime $(FUZZTIME) ./internal/bgp/
	$(GO) test -fuzz FuzzSynthStateMatchesFresh -fuzztime $(FUZZTIME) ./internal/bgp/

# Regenerate every paper experiment, E1–E15 (see DESIGN.md / EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/dcbench

experiments-full:
	$(GO) run ./cmd/dcbench -full

clean:
	$(GO) clean ./...
