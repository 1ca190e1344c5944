GO ?= go

.PHONY: all build vet lint conflint test test-short test-race bench bench-solver bench-smoke bench-check solver-smoke metrics-smoke explore-smoke conflint-smoke serve-smoke pec-smoke fuzz experiments experiments-full clean

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

# CI gate for incremental validation: runs the E16 experiment at its
# smallest sweep point (520 devices) with the soundness gate on — any FIB
# row that changes outside its device's computed scope, or any delta
# report diverging from a full sweep, panics and fails the target (the
# gate is armed at every size; -quick only picks the smallest).
# The -benchmem leg locks the zero-allocation steady state: a warmed
# sequential ValidateAll must report 0 allocs/op on both the trie and the
# PEC engine (the companion test asserts the same via AllocsPerRun). The
# cold leg locks the other end: a from-scratch sweep stays under its
# mallocs-per-contract ceiling (TestValidateAllColdAllocCeiling) and
# BenchmarkValidateAllCold reports allocs/op beside contracts/op. The link
# flip leg locks the change-driven sweep: one ToR–leaf flip plus a query on
# a warmed 2008-device datacenter stays under its mallocs ceiling
# (TestLinkFlipAllocCeiling) and BenchmarkLinkFlip reports its cost.
bench-smoke:
	$(GO) run ./cmd/dcbench -e e16 -quick
	$(GO) test -run 'TestValidateAllSteadyStateZeroAlloc|TestValidateAllColdAllocCeiling|TestLinkFlipAllocCeiling' -count=1 .
	$(GO) test -run xxx -bench BenchmarkValidateAllSteadyState -benchmem -benchtime 100x .
	$(GO) test -run xxx -bench BenchmarkValidateAllCold -benchmem -benchtime 3x .
	$(GO) test -run xxx -bench BenchmarkLinkFlip -benchmem -benchtime 20x .

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

# CI gate for the failure-space explorer: the E17 experiment at its quick
# width, with all three panic gates armed — the symmetry-pruned k=1 sweep
# must report the exact violating scenario set of the brute-force sweep,
# the k=2 pruning ratio must clear its 2x floor, and every minimal
# failure set must still violate its contract on replay.
explore-smoke:
	$(GO) run ./cmd/dcbench -e e17 -quick

# CI gate for the configuration multichecker: the E18 experiment at its
# quick sweep point, panic gates armed — zero findings on the clean
# fleet, 100% detection of every seeded misconfiguration class, a
# byte-identical report across two runs, and acl-shadow's SMT verdicts
# agreeing with the exact interval engine.
conflint-smoke:
	$(GO) run ./cmd/dcbench -e e18 -quick

# CI gate for the serving plane: boot dcvalidated on a small topology,
# issue conformance + reachability queries over HTTP, require repeat
# queries to land as dcv_serve_cache_hits_total increments with zero extra
# sweeps, then run E19 at its quick point with the shard coordinator's
# byte-identity gate armed (coordinator report vs single-engine sweep for
# N in {1,2,5}). See scripts/serve_smoke.sh.
serve-smoke:
	./scripts/serve_smoke.sh

# CI gate for the packet-equivalence-class engine: the E20 experiment at
# its quick point, panic gates armed — the PEC report must render
# byte-identically to the trie engine's (cold and warm), agree with the
# SMT engine on a per-role device sample, and its warm sweep must beat its
# own cold sweep by 2x (what the cache promises; trie-vs-PEC is a
# recorded column, not a floor).
pec-smoke:
	$(GO) run ./cmd/dcbench -e e20 -quick

# CI gate for the observability layer: run a short fault-free dcmon with
# -metrics-addr, curl /metrics, and fail on missing series, non-finite
# values, or a dead pprof endpoint (see scripts/metrics_smoke.sh).
metrics-smoke:
	./scripts/metrics_smoke.sh

# Brief fuzz sessions over every parser (extend -fuzztime for real runs).
FUZZTIME ?= 15s
fuzz:
	$(GO) test -fuzz FuzzParseIOS -fuzztime $(FUZZTIME) ./internal/acl/
	$(GO) test -fuzz FuzzParseNSG -fuzztime $(FUZZTIME) ./internal/acl/
	$(GO) test -fuzz FuzzParseSMTLIB2 -fuzztime $(FUZZTIME) ./internal/bv/
	$(GO) test -fuzz FuzzParseDIMACS -fuzztime $(FUZZTIME) ./internal/sat/
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/devconf/
	$(GO) test -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/devconf/
	$(GO) test -fuzz FuzzPECDifferential -fuzztime $(FUZZTIME) ./internal/pec/
	$(GO) test -fuzz FuzzPECFleetDifferential -fuzztime $(FUZZTIME) ./internal/pec/
	$(GO) test -fuzz FuzzPrefixIndex -fuzztime $(FUZZTIME) ./internal/ipnet/
	$(GO) test -fuzz FuzzRunsDifferential -fuzztime $(FUZZTIME) ./internal/rcdc/

# Regenerate every paper experiment (see DESIGN.md / EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/dcbench

experiments-full:
	$(GO) run ./cmd/dcbench -full

clean:
	$(GO) clean ./...
