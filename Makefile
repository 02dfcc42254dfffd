GO ?= go

# CHAOS_PARALLEL sets how many concurrent guarded tours the parallel
# chaos stress tests drive (internal/chaostest/parallel_test.go).
CHAOS_PARALLEL ?= 16

.PHONY: all build vet test race check ci chaos determinism frontier-sweep allocs e1-profile fuzz-short policy-fuzz bench obsv-demo loc clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the CI gate: vet, build, and the full suite under the race
# detector.
check: vet build race

# ci is the pipeline entry point: vet, gofmt (any file `gofmt -l`
# lists fails the run), staticcheck when installed, the whole tree's
# line budget (at most TREE_LOC_CAP code lines outside benchmark/,
# counted as `make loc` counts them: the tree may shrink, not grow), the
# evaluation harness's line budget (internal/bench + cmd/taxbench at most 2,000
# code lines, counted as `make loc` counts them), the case study's line
# budget (internal/linkmine at most 1,100 code lines, counted the same
# way: one deployment, not one per shape), the chaos harness's line
# budget (internal/chaostest at most 899 code lines: one tour world
# under Run, RunParallel and the crash-point sweep), the full suite
# twice under the race detector (flushes order-dependent flakes), the
# crash-point recovery sweep under the race detector
# (fixed seeds 11 clean / 13 torn / 17 under faults / 19 every-byte
# prefix, baked into internal/chaostest/crashpoint_test.go — reruns
# crash at identical WAL boundaries), the ten-thousand-principal quota
# starvation stress under the race detector (tenant isolation at scale,
# internal/firewall/policy_stress_test.go), the directory-plane chaos
# sweep under the race detector (seeded owner-crash-during-write and
# partitioned-replica storms, plus the dup/drop fault-plan frames case —
# zero acked registrations lost, zero dual-location names, typed lease
# expiry; internal/chaostest/directory_test.go), the shared-frontier fleet
# chaos sweep under the race detector (8 fetcher agents draining one
# durable frontier service through message faults and a mid-crawl
# frontier-host crash — zero URLs fetched twice, zero lost, aggregate
# Stats byte-identical to the serial robot;
# internal/linkmine/frontier_test.go), the allocation budgets without
# the race detector (the exact pins, TestTCPMeetAllocBudget among them,
# skip under it: sync.Pool drops Puts at random there; every allocation
# count lives in a test named *Alloc*, never in a baseline). The
# benchmark regression gate is a test, so the suite runs above already
# hold it: internal/bench's TestBaselines byte-compares a fresh document
# with each of the six committed BENCH_*.json baselines, which only
# `make bench` rewrites.
ci:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "ci: gofmt drift in:"; echo "$$unformatted"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "ci: staticcheck not installed, skipping"; fi
	@n=$$($(call count,.)); if [ $$n -gt $(TREE_LOC_CAP) ]; then \
		echo "ci: the tree outside benchmark/ is $$n code lines, budget $(TREE_LOC_CAP) (make loc)"; exit 1; fi
	@n=$$($(call count,internal/bench cmd/taxbench)); if [ $$n -gt 2000 ]; then \
		echo "ci: internal/bench + cmd/taxbench is $$n code lines, budget 2000 (make loc)"; exit 1; fi
	@n=$$($(call count,internal/linkmine)); if [ $$n -gt 1100 ]; then \
		echo "ci: internal/linkmine is $$n code lines, budget 1100 (make loc)"; exit 1; fi
	@n=$$($(call count,internal/chaostest)); if [ $$n -gt 899 ]; then \
		echo "ci: internal/chaostest is $$n code lines, budget 899 (make loc)"; exit 1; fi
	$(GO) test -race -count=2 ./...
	$(GO) test -race -timeout 300s -count=1 -run 'CrashPoint' ./internal/chaostest/
	$(GO) test -race -timeout 300s -count=1 -run 'TestPolicyQuotaStarvation10k' ./internal/firewall/
	$(GO) test -race -timeout 600s -count=1 -run 'TestDirectory' ./internal/chaostest/
	$(GO) test -race -timeout 600s -count=1 -run 'TestFrontierChaos' ./internal/linkmine/
	$(GO) test -count=1 -run 'Alloc' ./internal/...

# chaos runs the fault-injection layer under the race detector: the
# chaostest harness (3-hop itineraries under seeded fault plans — the
# fixed seed list 1, 7, 42, 1999, 31337 plus a sweep lives in
# internal/chaostest/chaostest_test.go, chaosSeeds), the parallel
# fleet stress tests (CHAOS_PARALLEL concurrent guarded tours), the
# rear-guard recovery tests, the deterministic injector/plan tests, the
# TCP transport's concurrency tests (eight senders sharing one
# connection, a dial that never completes), and the firewall's batcher
# and relay under drop, duplicate and corrupt faults against concurrent
# enqueues and flushes. Seeded and virtual-clock driven: reruns
# reproduce the same fault sequences.
chaos:
	CHAOS_PARALLEL=$(CHAOS_PARALLEL) $(GO) test -race -timeout 120s -count=1 ./internal/chaostest/ ./internal/rearguard/ ./internal/faults/
	$(GO) test -race -timeout 120s -count=1 -run 'Partition|Crash|Injector|TransferTime|TCP' ./internal/simnet/
	$(GO) test -race -timeout 120s -count=1 -run 'Retry|Forward|Dedup|Expiry|Pending|Park|Batch|Relay' ./internal/firewall/
	$(GO) test -race -timeout 120s -count=1 -run 'Prop' ./internal/briefcase/

# determinism runs the two same-seed tests a hundred times each under the
# race detector at 1, 2 and 8 Ps: two runs of seed 42 must journal the
# same fault log (TestChaosDeterministicFaultLog) and merge the same
# cross-host timeline, every span and audit stamp included
# (TestObservabilityTimelineDeterministic). A clock read that a
# concurrent delivery can move shows up here as a rare diff, so one run
# proves nothing; the sweep is the test.
determinism:
	$(GO) test -race -timeout 3600s -count=100 -cpu 1,2,8 -run '^(TestChaosDeterministicFaultLog|TestObservabilityTimelineDeterministic)$$' ./internal/chaostest/

# frontier-sweep runs two thousand eight-agent fleet crawls at depth 4,
# where admission cuts the site, at each of two leases, one URL and
# eight (internal/linkmine/frontier_test.go, TestFleetDepth4's two
# subtests): every URL fetched exactly once and aggregate Stats
# identical to the serial robot on every crawl. Before completions took
# their depth from the frontier, about one crawl in five thousand lost
# a subtree here, so a sweep is the test, not one run.
frontier-sweep:
	$(GO) test -timeout 3600s -count=2000 -run '^TestFleetDepth4$$' ./internal/linkmine/

# allocs prices a package's allocations, object by object: it runs each
# benchmark named in BENCH (without its Benchmark prefix) from the
# package directory PKG with every allocation sampled, each into its own
# profile in a temporary directory, and prints where the objects come
# from. The defaults are the serial 917-page crawl (BenchmarkCrawl917)
# and the case-study site's generation (BenchmarkGenerateCaseStudySite);
# `make allocs PKG=./internal/briefcase BENCH=Decode1KBx16` prices a
# decoded briefcase. Each benchmark runs 1,000 ops, so the one warm-up
# op the testing package runs first, and an intern table's first two
# sightings of each name, stay under 1 % of the profile: divide a row by
# 1,000 for its count per op, and a crawl's by 917 more for its count
# per fetched URL.
PKG ?= ./internal/webbot
BENCH ?= Crawl917 GenerateCaseStudySite
allocs:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) test -c -o "$$dir/pkg.test" $(PKG) && \
	for b in $(BENCH); do \
		(cd $(PKG) && "$$dir/pkg.test" -test.run '^$$' -test.bench "^Benchmark$$b\$$" \
			-test.benchtime 1000x -test.benchmem -test.memprofilerate 1 \
			-test.memprofile "$$dir/$$b.mem") || exit 1; \
		$(GO) tool pprof -top -sample_index=alloc_objects "$$dir/pkg.test" "$$dir/$$b.mem" | head -30; \
	done

# e1-profile prices the case study's CPU, function by function: it runs
# BenchmarkRunE1 (one e1_scan op: linkmine.Run, stationary then mobile)
# and BenchmarkRunFrontierFleet (one fleet_crawl op) from
# internal/linkmine on 2 CPUs for 5 s each, with a CPU profile into a
# temporary directory, and prints `go tool pprof -top -cum` with only the
# tax/internal frames shown: a row's cum% is its share of the op's
# sampled CPU, callees included.
e1-profile:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) test -c -o "$$dir/pkg.test" ./internal/linkmine && \
	for b in RunE1 RunFrontierFleet; do \
		(cd internal/linkmine && "$$dir/pkg.test" -test.run '^$$' -test.bench "^Benchmark$$b\$$" \
			-test.benchtime 5s -test.cpu 2 -test.cpuprofile "$$dir/$$b.cpu") || exit 1; \
		$(GO) tool pprof -top -cum -show 'tax/internal' "$$dir/pkg.test" "$$dir/$$b.cpu" 2>/dev/null | head -40; \
	done

# fuzz-short runs the wire-format fuzzers briefly — enough to exercise
# the mutation engine on every seed without tying up CI. One -fuzz
# target per invocation: the briefcase codec, the cross-codec oracle
# (fast encode/decode vs the frozen reference codec on the same bytes),
# the cabinet WAL record decoder (torn frames, bad CRCs, truncated
# length prefixes), the cabinet snapshot encoder (fuzzed op sequences:
# the exact-size image equals the reference encoder's and decodes back
# to the table; a damaged image falls back to empty), the relay fast
# path (mutated wire bytes through a forwarding firewall: forwarded
# frames stay byte-identical, delivered payloads match the reference
# decode of the input), the batch container (fuzzed enqueue, flush and
# discard sequences: every flushed container equals the reference
# assembly of its frames), the TCP frame reader (k frames, empty to past
# the read buffer, through a reader returning fuzzed chunk sizes and cut
# short anywhere: the buffered reader yields the previous codec's frames,
# never a partial one, and no payload aliases another), the core signature
# check (mutated wire bytes of signed transfers through Decode and
# VerifyCore, seeded with the tamper table: whatever verifies must
# reference-decode to a principal and a core that principal signed), the
# digest memo (the same mutations against a warm memo: the memo's path
# agrees with memo-less VerifyCore on principal and error class), the
# policy layer: the ruleset parser (accept-or-reject, installed invariants
# hold, Describe never panics) and the evaluator (differential against
# a literal reference evaluator, deny never widens to allow), the
# robots.txt parser (arbitrary text: never panics, and a parse that
# yields no rules for the agent allows every path), and the frontier's
# page-record decoder, which reads records fetchers send from other
# hosts (no field decodes negative, whatever decodes re-encodes to bytes
# that decode equal, and no record aliases the bytes it came from), the
# frontier service's batch wire (arbitrary briefcases through the
# request and reply parsers never panic, and any claim list, URLs and
# referrers empty or full of bars, round-trips through a reply), and
# the address intern table (on a miss, on the sighting that admits and
# on a hit, through the byte and the string entry point, the result is
# uri.Parse's: URI, text and error).
fuzz-short:
	$(GO) test -fuzz 'FuzzDecode$$' -fuzztime 30s ./internal/briefcase/
	$(GO) test -fuzz FuzzCrossCodec -fuzztime 30s ./internal/briefcase/
	$(GO) test -fuzz FuzzWALDecode -fuzztime 30s ./internal/cabinet/
	$(GO) test -fuzz FuzzSnapshotImage -fuzztime 30s ./internal/cabinet/
	$(GO) test -fuzz FuzzFrameStream -fuzztime 30s ./internal/simnet/
	$(GO) test -fuzz FuzzForward -fuzztime 30s ./internal/firewall/
	$(GO) test -fuzz FuzzBatchContainer -fuzztime 30s ./internal/firewall/
	$(GO) test -fuzz FuzzVerifyCore -fuzztime 30s ./internal/firewall/
	$(GO) test -fuzz FuzzCoreMemo -fuzztime 30s ./internal/firewall/
	$(GO) test -fuzz FuzzPolicyParse -fuzztime 30s ./internal/policy/
	$(GO) test -fuzz FuzzPolicyEval -fuzztime 30s ./internal/policy/
	$(GO) test -fuzz FuzzRobots -fuzztime 30s ./internal/webbot/
	$(GO) test -fuzz FuzzDecodeRecord -fuzztime 30s ./internal/frontier/
	$(GO) test -fuzz FuzzBatchWire -fuzztime 30s ./internal/services/
	$(GO) test -fuzz FuzzParseBytes -fuzztime 30s ./internal/uri/

# policy-fuzz soaks the policy layer's fuzzers longer than fuzz-short:
# the URI pattern matcher (parse-or-reject, Match never panics), the
# ruleset parser, and the differential evaluator. FUZZTIME overrides
# the per-target budget.
FUZZTIME ?= 2m
policy-fuzz:
	$(GO) test -fuzz FuzzPatternMatch -fuzztime $(FUZZTIME) ./internal/uri/
	$(GO) test -fuzz FuzzPolicyParse -fuzztime $(FUZZTIME) ./internal/policy/
	$(GO) test -fuzz FuzzPolicyEval -fuzztime $(FUZZTIME) ./internal/policy/

# bench regenerates every evaluation table and rewrites the committed
# BENCH_*.json baselines, which hold only exact counts and virtual-clock
# arithmetic: on an unchanged tree it leaves `git status` clean. It is
# the only writer of the baselines; `go test ./internal/bench`
# (TestBaselines) fails on any drift from them, nondeterminism included,
# naming each differing file:line. After an intentional change, run it
# and commit the rewritten baselines.
bench:
	$(GO) run ./cmd/taxbench

# obsv-demo runs the observability showcase: a rear-guarded 3-hop
# itinerary under seeded faults with a mid-run crash and restart, tower
# enabled, printing the merged cross-host timeline (EXPERIMENTS E6).
obsv-demo:
	$(GO) run ./cmd/taxbench -exp obsv

# loc prints code size the way ISSUE 15 counts it — non-test source lines
# that are neither blank nor comment-only — for the tree outside
# benchmark/, the evaluation harness, the firewall, the crawler (the
# robot plus the case study around it), the case study alone, and the
# chaos harness.
TREE_LOC_CAP = 19975
count = find $(1) -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | grep -cvE '^\s*(//|$$)'
loc:
	@echo "tree (outside benchmark/)        $$($(call count,.)) (make ci cap $(TREE_LOC_CAP))"
	@echo "internal/bench + cmd/taxbench    $$($(call count,internal/bench cmd/taxbench))"
	@echo "internal/firewall                $$($(call count,internal/firewall))"
	@echo "internal/webbot + internal/linkmine $$($(call count,internal/webbot internal/linkmine))"
	@echo "internal/linkmine                $$($(call count,internal/linkmine))"
	@echo "internal/chaostest               $$($(call count,internal/chaostest))"

clean:
	$(GO) clean ./...
