# Development entry points. CI runs these targets and nothing else (see
# .github/workflows/ci.yml), so each lane has one definition.

.PHONY: build test vet race tier1 bench-smoke bench-vet examples alloc-guard fuzz-smoke serve-smoke cluster-smoke fault-smoke obs-smoke overload-smoke

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

# The tier-1 gate: build, vet, test — what every change must keep green.
tier1: build vet test

# smoke runs the tests of package $(2) that the -run pattern $(1) selects.
# It first lists the package's tests and fails if any |-separated
# alternative of the pattern names none of them: `go test -run` passes with
# "no tests to run" when nothing matches, so a renamed or missing test would
# otherwise leave a smoke target checking nothing.
define smoke
	@tests=$$(go test -list . $(2) | grep '^Test'); \
	for alt in $$(echo '$(1)' | tr '|' ' '); do \
		echo "$$tests" | grep -Eq "$$alt" || { echo "smoke: -run alternative '$$alt' matches no test in $(2)" >&2; exit 1; }; \
	done
	go test -run '$(1)' -count=1 -v $(2)
endef

# The race lane: the public API, fault injection, observability, the wire
# codec, the serving and cluster layers, the overload harness, and both
# server binaries.
race:
	go test -race . ./internal/popsnet ./internal/obs ./internal/wirebin ./internal/service/... ./internal/cluster/... ./internal/chaos ./cmd/popsserved ./cmd/popsproxy

# Fuzz smoke: each fuzzer runs for FUZZTIME on top of its seed corpus —
# binary frame decoding, the payload decoders against the per-varint
# reference decoders, JSON/binary request-body equivalence, NDJSON/binary
# stream equivalence, the streamed plan against the batch reference, the
# h-relation plan against the sorted-factor reference, balanced edge coloring, and the peeling matcher against a
# rebuild-per-round Hopcroft–Karp reference.
FUZZTIME ?= 30s
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) ./internal/wirebin
	go test -run '^$$' -fuzz FuzzPayloadDecodeMatchesReference -fuzztime $(FUZZTIME) ./internal/wirebin
	go test -run '^$$' -fuzz FuzzRequestCrossCodec -fuzztime $(FUZZTIME) .
	go test -run '^$$' -fuzz FuzzStreamCrossCodec -fuzztime $(FUZZTIME) ./internal/service
	go test -run '^$$' -fuzz FuzzStreamMatchesReference -fuzztime $(FUZZTIME) ./internal/core
	go test -run '^$$' -fuzz FuzzHRelationMatchesReference -fuzztime $(FUZZTIME) ./internal/core
	go test -run '^$$' -fuzz FuzzBalancedInto -fuzztime $(FUZZTIME) ./internal/edgecolor
	go test -run '^$$' -fuzz FuzzPeelMatchesReference -fuzztime $(FUZZTIME) ./internal/matching

# End-to-end serving smoke: start popsserved on an ephemeral port, route a
# permutation through pops.ServiceClient, and assert the second call is
# answered by the fingerprint plan cache (plan flag + /stats hit counter).
# TestServeSmokeStream additionally POSTs /route/stream over raw TCP and
# asserts the slot records arrive as >= 2 separate HTTP chunks,
# TestServeSmokeStreamBinary repeats that with Accept: application/x-pops-bin
# (binary Content-Type negotiated, >= 2 chunks, frames decode to
# meta + slots + done), and TestServeSmokeStreamHRelation round-trips an
# h-relation workload through /route/stream the same way — >= 2 chunks, and
# a workload plan cache hit when the identical relation is streamed again.
serve-smoke:
	$(call smoke,TestServeSmoke|TestServeSmokeStream,./cmd/popsserved)

# End-to-end cluster smoke: boot three in-process popsserved backends and a
# popsproxy front door, drive a permutation trace through the unchanged
# single-node client, kill one backend mid-trace, and assert zero failed
# requests (the dead node is ejected, its keys fail over to the next ring
# owner) plus a full-trace replay answered from the owning nodes' plan
# caches. TestClusterSmokeStream repeats the exercise for /route/stream, and
# TestClusterSmokeStreamBinary pins the codec to binary end to end — the
# proxy must relay the backends' binary framing intact.
cluster-smoke:
	$(call smoke,TestClusterSmoke,./cmd/popsproxy)

# End-to-end fault-tolerance smoke: round-trip a FaultyPermutation workload
# through a live popsserved, verify the served schedule on the fault-injected
# simulator (full delivery, zero dead-coupler use), assert the replay is a
# cache hit and the /stats fault counters moved, and assert a dead-group
# request comes back as a typed *pops.UnroutableError across the wire.
fault-smoke:
	$(call smoke,TestFaultSmoke,./cmd/popsserved)

# Overload smoke. In ./internal/cluster, against in-process backends behind
# a proxy: a node that keeps passing health checks while dropping /route
# connections is held out by its consecutive-error circuit breaker, which
# half-opens after the cooldown and closes on the next good answer; a node
# that answers slower than BreakerLatency trips its breaker on the latency
# EWMA; and when every ring owner sheds, the caller gets the typed 429 with
# Retry-After, not a 502. In ./internal/chaos: under a load ramp the stack
# sheds with typed 429s instead of collapsing (admitted p99 within 5x of
# the uncontended baseline), and of two tenants weighted 9:1 the light one
# still lands at least 8% of the admitted goodput.
overload-smoke:
	$(call smoke,TestBreakerTripsAndRecovers|TestBreakerLatencyTrip|TestProxyAllSheddingRelays429,./internal/cluster)
	$(call smoke,TestOverloadShedsDontCollapse|TestTenantWeightedFairness,./internal/chaos)

# Observability smoke over in-process HTTP handlers. In ./internal/service:
# a caller's X-Request-Id is echoed in the response header and body, and a
# generated 16-hex ID is echoed when none is sent; GET /metrics serves
# Prometheus text with the request counters and the (d, g, strategy)-labeled
# plan-time series; GET /debug/slow lists traced requests slowest-first with
# their phases, honours ?n= and answers 400 to a bad one; after a fixed
# request script, /metrics and /stats match their goldens. In
# ./internal/cluster: the proxy's /metrics carries its fleet and per-backend
# series and matches its schema golden, its /debug/slow entries name the
# backend that answered and a forward phase, and its /stats fleet merge of
# two canned backends sums, weights, merges and sorts every field. In
# ./internal/obs/debugmux: the -debug-addr handler answers /debug/pprof/ and
# GET /metrics.
obs-smoke:
	$(call smoke,TestMetricsEndpoint|TestDebugSlowEndpoint|TestRequestIDEchoedAndGenerated|TestMetricsGolden|TestStatsGolden,./internal/service)
	$(call smoke,TestProxyMetricsEndpoint|TestProxyDebugSlowAttributesBackend|TestProxyMetricsGolden|TestProxyStatsMergesEveryField,./internal/cluster)
	$(call smoke,TestHandlerServesPprofAndMetrics,./internal/obs/debugmux)

# One-iteration benchmark pass: compile-and-run smoke, no timing value.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# Compile and vet the repository benchmark (perfbench/, see BENCHMARK.json).
# It is its own Go module, so the root `go build ./...` never builds it; this
# target makes an API change that breaks the benchmark fail here instead of
# in the benchmark run. Offline: the module's only dependency is the
# checkout itself.
bench-vet:
	cd perfbench && GOPROXY=off GOFLAGS= go vet ./...

# Run every example program. Each one checks its own results and exits
# non-zero (log.Fatal) on a mismatch.
EXAMPLES := $(notdir $(patsubst %/main.go,%,$(wildcard examples/*/main.go)))
examples:
	@set -e; for e in $(EXAMPLES); do echo "== examples/$$e"; go run ./examples/$$e > /dev/null; done

# The steady-state allocation guard of the coloring engine: fails if
# Factorizer reuse, the Matcher's StartPeel/Peel and Alon matcher, or
# Splitter.Split regresses past the alloc budget. The
# streaming path is covered too: a warmed Stream drain allocates nothing
# beyond its handle, and — Execute being the collected stream, which writes
# no slot — a cold Execute at POPS(8,8) is pinned at 6 allocs/op with
# ExecuteStream+Collect at no more than Execute. TestHRelationPooledAllocBudget
# guards the pooled h-relation path of Execute: steady state must stay at 18
# allocs/op and under half the allocations of a fresh Planner per call (the
# measured delta is recorded in BENCH_2026-07-30_hrelation.json), and
# TestHRelationAllocBudget holds a warmed core planner's PlanHRelation of a
# 4-relation on POPS(16,16) to 20 allocations (each factor's permutation
# stream drained for its colors alone, the factor listings counted into one
# array). TestCachedPlanRetainedBytes pins
# what a cached plan keeps alive after GC: at most 17 B per packet for a
# (16,64) permutation (π and the colors) and 32 B for a (16,16) 4-relation,
# cache entry included — no plan stores its slots. Draining a (16,16)
# 4-relation through the ServiceClient allocates no more for its 8 slots
# than for 4 (TestServiceStreamDrainAllocs): the client decodes every
# fragment into one record it reuses. The tracing layer
# rides the same gate: span recording, the tracer's pooled Start/Finish
# cycle, plan-time Observe on an existing key, and a traced plan-cache hit
# must all stay at 0 allocs/op. The binary wire codec holds the same bar:
# a pooled slot-frame encode+decode cycle and a Reframer relay step are
# 0 allocs/op in steady state (the measured codec delta is recorded in
# BENCH_2026-08-08_wirebin.json), a fragment decoded into a fresh
# record, as the client's first of a stream is, costs exactly its two slices, and a
# 1024-pair h-relation request decodes in two allocations (its Workload
# string and its pairs), while the client's encoding and the node's
# WorkloadFromRequest of it each take at most one and share the pairs
# (TestWorkloadRequestHRelationAllocs).
# Each line runs through the smoke guard, so a renamed guard test fails the
# target instead of leaving it checking nothing.
alloc-guard:
	$(call smoke,TestFactorizerAllocBudget|TestStreamAllocBudget|TestMatcherSteadyStateAllocFree|TestSplitterSteadyStateAllocFree,./internal/edgecolor ./internal/matching ./internal/graph)
	$(call smoke,TestHRelationAllocBudget,./internal/core)
	$(call smoke,TestSpanAllocBudget|TestPlanTimesObserveAllocBudget,./internal/obs)
	$(call smoke,TestWireEncodeAllocBudget|TestReframerAllocBudget|TestDecodeSlotFreshRecordAllocs|TestDecodeRequestHRelationAllocs,./internal/wirebin)
	$(call smoke,TestExecuteStreamAllocBudget|TestHRelationPooledAllocBudget|TestCachedHitSpanAllocBudget|TestCachedPlanRetainedBytes|TestServiceStreamDrainAllocs|TestWorkloadRequestHRelationAllocs,.)
