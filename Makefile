GO ?= go

.PHONY: build test vet race check bench-test flake api fuzz cover bench-rdf bench-search bench-nlu bench-metrics bench-store bench-cache bench-loop bench-chaos loadgen-smoke fmt fmt-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full suite under the race detector, including the cache
# layer's concurrency tests (sharded stores, singleflight cancellation,
# concurrent disk writers). Timing-sensitive guards
# (TestTraceOverheadFacade, TestCloudStoreShape's Throughput4v1 and
# Scale1to8, TestStormShedding's timing legs) and the allocation-count
# guards skip themselves here; run plain `make test` to exercise them.
# TestRDFInferenceShape asserts counts only and runs here in full.
race:
	$(GO) test -race ./...

# check is the pre-merge gate. loadgen-smoke drives the facade through a
# short saturating burst with adaptive shedding on, catching harness or
# admission-control regressions the unit tests can miss. Placement and
# replication are checked in the suite itself: TestCloudStoreShape's
# Scale1to8 checks every read returns its own key's value over 1/2/4/8
# nodes.
# bench-test covers the nested benchmark module, which `./...` at the root
# neither compiles nor tests.
check: fmt-check vet race loadgen-smoke bench-test

# bench-test builds and tests the repository benchmark (bench/ is a module
# of its own that wraps internal/ APIs) and runs its smoke workload, so an
# internal/ change that breaks it is caught here rather than by the driver.
bench-test:
	cd bench && $(GO) test ./...

# flake counts how often a test fails: `make flake PKG=./internal/remotestore
# RUN=TestClusterRefusedPutNotServed COUNT=2000` runs the tests matching RUN
# in PKG COUNT times in one process, plain and again under the race
# detector, and prints the number of failing iterations of each — the check
# behind "green at -count=N" for a timing guard or a test that raced a
# straggling request. It exits non-zero if either run saw a failure.
PKG ?= ./...
RUN ?= .
COUNT ?= 200
flake:
	@status=0; for flags in "" "-race"; do \
		out="$$($(GO) test $$flags -count=$(COUNT) -run '$(RUN)' $(PKG) 2>&1)" || status=1; \
		echo "go test $$flags -count=$(COUNT) -run '$(RUN)' $(PKG): $$(echo "$$out" | grep -c '^--- FAIL') failing iterations"; \
		echo "$$out" | grep -v '^--- FAIL' | grep -E '^(FAIL|panic:|ok )' || true; \
	done; exit $$status

# api lists internal/'s surface: TestExportedNamesHaveReaders
# (api_test.go) run verbosely prints, per package, the exported names a
# program reads, those only their own package uses, those only tests read
# and those api_allowlist.txt keeps, then the package-private test seams
# it keeps, then the knob pass: per config type, the fields a program
# sets (with the programs) and the fields allowlisted (with the reason),
# then the method pass: per package, the exported methods a program
# calls, those an interface assertion keeps and those allowlisted (with
# the reason). It fails on any exported name that is neither read nor
# allowlisted, on any package-private name no non-test file of its
# package names that is not an allowlisted test seam, on any config
# field no program sets that is not allowlisted, on any exported method
# no program calls that no assertion or allowlist line keeps, and on any
# stale or reasonless allowlist line. TestKnobPass and TestMethodPass run
# the knob and method passes on small in-memory trees. TestLayers
# (layers_test.go) then prints internal/'s layer table and fails on any
# non-test import of a higher layer and on any package the table does not
# list; TestLayerCheck runs that check on an in-memory graph.
api:
	$(GO) test -count=1 -run '^(TestExportedNamesHaveReaders|TestKnobPass|TestMethodPass|TestLayers|TestLayerCheck)$$' -v .

# fuzz runs every Fuzz* target for FUZZTIME each, one at a time (go test
# takes one -fuzz target per package run): the search, NLU and RDF parsers,
# the codec chain over sequences of mixed-size values (FuzzChainRoundTrip:
# what pooled compressor state must not leak from one value to the next),
# the store client's lean key-list decoder and the NLU and search answer
# decoders against encoding/json (FuzzKeysDecode, FuzzDecodeAnalysis,
# FuzzDecodeResults), a service Monitor's snapshots against a sorted-slice
# model under recorded successes, failures and ratings (FuzzMonitor), and
# add/remove/chain histories on one long-lived graph
# against the reference engine chaining from scratch (FuzzChainHistory:
# what forward chaining seeded from recorded changes must not miss; its
# coverage varies with map iteration order, so the engine would spend the
# budget minimising inputs it takes for new — a history is at most 160 ops
# and fails with the op's index, so minimisation is off), the one-pass
# HTML text extraction against the function it replaced with ASCII-only
# case folding (FuzzExtractText; minimisation off too, it stalls the
# engine the same way), the cache-key encoding (FuzzCacheKey: different
# requests encode differently, equal ones key equally), the analysis
# runner against a sequential model (FuzzRun: documents by index, exact
# stage counts, Skipped in document order, an abort's error, one fetch and
# analysis per document, cancellation, no runner goroutine left; byte 1's
# low bit picks the error policy, its other bits are ignored) and the SDK
# cache against a per-shard SIEVE model (FuzzSharded: answers, insertion
# order, visited bits, the hand, stats, TTL, fills a Clear overtakes; each
# cache draws a random shard-hash seed, so coverage varies run to run and
# minimisation is off),
# and the store's body reader and PUT size check against io.ReadAll over
# io.LimitReader (FuzzReadBody: bytes, errors and the accept/413/400
# answer for exact, short, long, unknown and huge declared lengths under
# short reads; minimisation off, it stalls the engine on a fresh cache),
# the SQL engine's SELECT … WHERE … ORDER BY … LIMIT over a small typed
# table, indexed or not, against a naive scan of its rows (FuzzSelect), and
# CSV → table → RDF → table → CSV against the input up to the documented
# type normalisation (FuzzCSVRoundTrip), and the NLU engine against the
# frozen nluref engine on ASCII text under every oracle profile
# (FuzzAnalyzeMatchesReference; minimisation off: with it on the engine
# sits at 0 execs/sec minimising each new input, ~145 000 execs in 80 s
# on 2 cores against ~490 000 in 90 s with it off), and the PMI
# builder's flat pair table against a map (FuzzPairCounts; minimisation
# off: its growth runs make each minimising step slow, ~19 000 execs in
# 16 s on 2 cores against ~40 000 in 10 s with it off), and the search
# index's block-coded posting lists against plain slices under next,
# seekBlock and find (FuzzPostingBlocks: gaps of 256 and 65 536 and
# more, frequencies of 16 and 256 and more, header bounds exact), and the
# store client's offline write-back queue against a plain slice under
# push, coalesce, drain, requeue and drops past maxPending (FuzzWriteQueue;
# minimisation off: a burst of 4 096 pushes makes each step slow), and the
# circuit breaker against a plain closed/open/half-open model on a virtual
# clock under Allow, Record and Advance (FuzzBreaker), and the PMI builder
# against a map model after every document and its top-k Build against a
# full sort (FuzzPMIBuilder: empty documents, repeats inside the window,
# IDs far above any seen, the dictionary empty while AddIDs counts;
# minimisation off: with it on the engine sits at 0 execs/sec, ~23 000
# execs in 12 s on 2 cores against ~104 000 with it off). Plain
# `go test` replays only the committed seed corpora under testdata/fuzz;
# a failure found here is written there.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSearchQuery$$' -fuzztime $(FUZZTIME) ./internal/search
	$(GO) test -run '^$$' -fuzz '^FuzzTokenize$$' -fuzztime $(FUZZTIME) ./internal/nlu
	$(GO) test -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime $(FUZZTIME) ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzSplitTerms$$' -fuzztime $(FUZZTIME) ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzChainHistory$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzChainRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -run '^$$' -fuzz '^FuzzKeysDecode$$' -fuzztime $(FUZZTIME) ./internal/remotestore
	$(GO) test -run '^$$' -fuzz '^FuzzReadBody$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/remotestore
	$(GO) test -run '^$$' -fuzz '^FuzzWriteQueue$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/remotestore
	$(GO) test -run '^$$' -fuzz '^FuzzBreaker$$' -fuzztime $(FUZZTIME) ./internal/failover
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAnalysis$$' -fuzztime $(FUZZTIME) ./internal/nlu
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResults$$' -fuzztime $(FUZZTIME) ./internal/search
	$(GO) test -run '^$$' -fuzz '^FuzzMonitor$$' -fuzztime $(FUZZTIME) ./internal/metrics
	$(GO) test -run '^$$' -fuzz '^FuzzExtractText$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/webcorpus
	$(GO) test -run '^$$' -fuzz '^FuzzCacheKey$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzRun$$' -fuzztime $(FUZZTIME) ./internal/pipeline
	$(GO) test -run '^$$' -fuzz '^FuzzSharded$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzSelect$$' -fuzztime $(FUZZTIME) ./internal/rdbms
	$(GO) test -run '^$$' -fuzz '^FuzzCSVRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/csvconv
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzeMatchesReference$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/nlu
	$(GO) test -run '^$$' -fuzz '^FuzzPairCounts$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/lexicon
	$(GO) test -run '^$$' -fuzz '^FuzzPMIBuilder$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/lexicon
	$(GO) test -run '^$$' -fuzz '^FuzzPostingBlocks$$' -fuzztime $(FUZZTIME) ./internal/search

# cover runs the full suite with per-package coverage percentages.
cover:
	$(GO) test -cover ./...

# The bench-* targets run in-package Go benchmarks; narrow any of them
# with BENCH, e.g. `make bench-rdf BENCH=BenchmarkSolveJoin`.
BENCH ?= .

# bench-rdf runs the RDF engine benchmarks: the interned store vs the
# frozen pre-PR string-keyed baseline (internal/rdf/rdfref) on joins
# (BenchmarkSolveJoin), two-bound matches, and forward chaining
# (BenchmarkForwardChainTransitive — the roundcap/naive-stringstore leg
# takes seconds per iteration by design; it is the baseline being beaten),
# plus the knowledge-base Infer/Prove benchmarks on the cached rule set:
# Infer on a KB nothing happened to (BenchmarkKBInfer) and the Fig. 5
# loop's inference half on a 2 000-triple graph — add a run's 13 facts,
# infer, retire the run that left the window (BenchmarkKBInferWindow:
# ns/op follows the 13, not the 2 000).
bench-rdf:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem ./internal/rdf ./internal/kb

# bench-search runs the search engine benchmarks: the dictionary-coded
# block-max top-k evaluator vs the frozen seed full-scan baseline
# (internal/search/searchref) at 1k/10k/50k-doc corpora
# (BenchmarkSearchBaseline vs BenchmarkSearchPruned), plus the
# query-expansion path (BenchmarkSearchExpanded), index construction
# with expansion on, as programs build it, at 1k and 20k documents
# (BenchmarkBuildIndex), and the traffic the repository benchmark sends:
# three-word queries drawn from document bodies of the 20k seed-1 index,
# alternating TuningG plain and TuningB expanded (BenchmarkSearchMix).
# BenchmarkBuildIndex runs once more at -cpu 1,2: the build counts PMI
# pairs on a second goroutine, so the -1 line is the handoff's cost on
# one core beside the -2 line's gain on two.
bench-search:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem ./internal/search
	$(GO) test -run '^$$' -bench 'BenchmarkBuildIndex' -cpu 1,2 -benchmem ./internal/search

# bench-nlu runs the NLU engine benchmarks: the interned token-ID hot
# path vs the frozen pre-interning engines (internal/nlu/nluref), per
# profile (BenchmarkAnalyzeInterned vs BenchmarkAnalyzeReference), one
# answer's decode on the fast path vs encoding/json
# (BenchmarkDecodeAnalysis), plus the fast reseedable rand source
# underneath it (BenchmarkSeedFast vs BenchmarkSeedMathRand in
# internal/xrand).
bench-nlu:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem ./internal/nlu ./internal/xrand

# bench-metrics runs the instrument-layer benchmarks: counter/gauge
# increments and the lock-free log-linear histogram's Observe/Snapshot
# (uncontended and GOMAXPROCS-parallel), plus the exposition path — label
# escaping with hoisted vs per-call replacers (BenchmarkEscapeLabel) and
# full Set rendering into the Prometheus text format (BenchmarkSetExpose)
# — a service Monitor's Record from one goroutine and from all of them
# into one monitor (BenchmarkMonitorRecord, BenchmarkMonitorRecordParallel:
# the uncontended and contended costs the benchmark reports as
# metrics.record_ns and metrics.record_contended_ns), and what a pipeline
# stage pays per run for its latency summary: a Monitor built, fed ten
# observations and read once (BenchmarkNewMonitor: B/op is the monitor,
# ≈5 KB of histogram buckets).
bench-metrics:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem ./internal/metrics

# bench-store runs the store-path benchmarks: the codec chain's encode at
# 1/8/64 KB from one goroutine and from all of them (BenchmarkChainEncode:
# the compressor state is pooled, so B/op is the value's size, not the
# compressor's), a store node listing 2 048 keys with and without a
# key-set change between listings (BenchmarkMemoryKeys), and the client's
# decode of such a listing (BenchmarkKeysDecode), beside the codec's
# older round-trip benchmarks.
bench-store:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem ./internal/codec ./internal/kvstore ./internal/remotestore

# bench-cache runs the SDK cache's benchmarks: a hit, a miss and a Set
# that evicts on one goroutine, a mixed Get/Set load and the pure hit path
# at 1/8/64 goroutines against one shard (BenchmarkCacheHitParallel), and
# the store-mixed client cache's Zipf(1.1) stream replayed into a
# 256-entry cache, reporting Get hits per op (BenchmarkShardedZipf:
# hits/op is the SIEVE hit share TestSIEVEHitShareZipf pins).
bench-cache:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem ./internal/cache

# bench-loop runs the repository benchmark's analyze-loop op — the whole
# Fig. 5 cycle, search to replicated store — as a Go benchmark on a rig
# built from product packages only (BenchmarkFig5Cycle), so it can be
# profiled without touching bench/: run the line below with
# `-cpuprofile cpu.out -memprofile mem.out -o /tmp/fig5.test` added.
bench-loop:
	$(GO) test -run '^$$' -bench '^BenchmarkFig5Cycle$$' -benchmem ./internal/integration

# bench-chaos runs the chaos storm (E21) at full scale from the command
# line: loadgen drives the facade closed-loop with 256 workers, far past
# the 4-wide 2 ms backend's saturation, through a seeded fault storm, once
# without and once with the adaptive shed stage, printing each run's
# goodput, shed, timeout and latency report. TestStormShedding
# (cmd/loadgen) asserts the same rig at reduced scale.
bench-chaos:
	$(GO) run ./cmd/loadgen -workers 256 -duration 3s -timeout 25ms -storm
	$(GO) run ./cmd/loadgen -workers 256 -duration 3s -timeout 25ms -storm -shed-target 10ms -shed-max-inflight 64

# loadgen-smoke is a deterministic half-second saturating burst through
# the in-process rig; it exits non-zero if the harness sends nothing,
# produces zero goodput, or the shed stage rejects nothing.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -smoke

fmt:
	gofmt -w .

# fmt-check fails if any file is not gofmt-clean, without rewriting.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
