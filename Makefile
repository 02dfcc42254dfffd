GO ?= go

# CHAOS_PARALLEL sets how many concurrent guarded tours the parallel
# chaos stress tests drive (internal/chaostest/parallel_test.go).
CHAOS_PARALLEL ?= 16

.PHONY: all build vet test race check ci chaos fuzz-short policy-fuzz bench bench-check obsv-demo loc clean

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

# ci is the pipeline entry point: vet, staticcheck when installed, the
# full suite twice under the race detector (flushes order-dependent
# flakes), the crash-point recovery sweep under the race detector
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
# internal/chaostest/frontier_test.go), and the benchmark regression
# gate (bench-check: fresh documents byte-compared with all six
# committed BENCH_*.json baselines, which are never overwritten).
ci:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "ci: staticcheck not installed, skipping"; fi
	$(GO) test -race -count=2 ./...
	$(GO) test -race -timeout 300s -count=1 -run 'CrashPoint' ./internal/chaostest/
	$(GO) test -race -timeout 300s -count=1 -run 'TestPolicyQuotaStarvation10k' ./internal/firewall/
	$(GO) test -race -timeout 600s -count=1 -run 'TestDirectory' ./internal/chaostest/
	$(GO) test -race -timeout 600s -count=1 -run 'TestFrontierChaos' ./internal/chaostest/
	$(GO) run ./cmd/taxbench -check

# chaos runs the fault-injection layer under the race detector: the
# chaostest harness (3-hop itineraries under seeded fault plans — the
# fixed seed list 1, 7, 42, 1999, 31337 plus a sweep lives in
# internal/chaostest/chaostest_test.go, chaosSeeds), the parallel
# fleet stress tests (CHAOS_PARALLEL concurrent guarded tours), the
# rear-guard recovery tests, the deterministic injector/plan tests, and
# the TCP transport's concurrency tests (eight senders sharing one
# connection, a dial that never completes). Seeded and virtual-clock
# driven: reruns reproduce the same fault sequences.
chaos:
	CHAOS_PARALLEL=$(CHAOS_PARALLEL) $(GO) test -race -timeout 120s -count=1 ./internal/chaostest/ ./internal/rearguard/ ./internal/faults/
	$(GO) test -race -timeout 120s -count=1 -run 'Partition|Crash|Injector|TransferTime|TCP' ./internal/simnet/
	$(GO) test -race -timeout 120s -count=1 -run 'Retry|Forward|Dedup|Expiry|Pending|Park' ./internal/firewall/
	$(GO) test -race -timeout 120s -count=1 -run 'Prop' ./internal/briefcase/

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
# decode of the input), the TCP frame reader (k frames, empty to past
# the read buffer, through a reader returning fuzzed chunk sizes and cut
# short anywhere: the buffered reader yields the previous codec's frames,
# never a partial one, and no payload aliases another), the core signature
# check (mutated wire bytes of signed transfers through Decode and
# VerifyCore, seeded with the tamper table: whatever verifies must
# reference-decode to a principal and a core that principal signed), the
# policy layer: the ruleset parser (accept-or-reject, installed invariants
# hold, Describe never panics) and the evaluator (differential against
# a literal reference evaluator, deny never widens to allow), and the
# robots.txt parser (arbitrary text: never panics, and a parse that
# yields no rules for the agent allows every path).
fuzz-short:
	$(GO) test -fuzz 'FuzzDecode$$' -fuzztime 30s ./internal/briefcase/
	$(GO) test -fuzz FuzzCrossCodec -fuzztime 30s ./internal/briefcase/
	$(GO) test -fuzz FuzzWALDecode -fuzztime 30s ./internal/cabinet/
	$(GO) test -fuzz FuzzSnapshotImage -fuzztime 30s ./internal/cabinet/
	$(GO) test -fuzz FuzzFrameStream -fuzztime 30s ./internal/simnet/
	$(GO) test -fuzz FuzzForward -fuzztime 30s ./internal/firewall/
	$(GO) test -fuzz FuzzVerifyCore -fuzztime 30s ./internal/firewall/
	$(GO) test -fuzz FuzzPolicyParse -fuzztime 30s ./internal/policy/
	$(GO) test -fuzz FuzzPolicyEval -fuzztime 30s ./internal/policy/
	$(GO) test -fuzz FuzzRobots -fuzztime 30s ./internal/webbot/

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
# arithmetic: on an unchanged tree it leaves `git status` clean.
bench:
	$(GO) run ./cmd/taxbench

# bench-check is the benchmark regression gate: re-run every experiment
# that has a committed BENCH_*.json baseline and compare the fresh
# document with it byte for byte. Drift, nondeterminism included, prints
# the differing lines and exits non-zero; after an intentional perf
# change, regenerate the baselines with `make bench` and commit them.
bench-check:
	$(GO) run ./cmd/taxbench -check

# obsv-demo runs the observability showcase: a rear-guarded 3-hop
# itinerary under seeded faults with a mid-run crash and restart, tower
# enabled, printing the merged cross-host timeline (EXPERIMENTS E6).
obsv-demo:
	$(GO) run ./cmd/taxbench -exp obsv

# loc prints code size the way ISSUE 15 counts it — non-test source lines
# that are neither blank nor comment-only — for the tree outside
# benchmark/, the evaluation harness, and the firewall.
count = find $(1) -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | grep -cvE '^\s*(//|$$)'
loc:
	@echo "tree (outside benchmark/)        $$($(call count,.))"
	@echo "internal/bench + cmd/taxbench    $$($(call count,internal/bench cmd/taxbench))"
	@echo "internal/firewall                $$($(call count,internal/firewall))"

clean:
	$(GO) clean ./...
