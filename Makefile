GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet doclint linkcheck fuzz-smoke perf-pins bench-smoke check bench bench-e2e bench-compare clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# go vet plus a formatting gate: any file gofmt would rewrite fails.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Full suite under the race detector — including the chaos tests
# (joiner/router crashes, broker restart, replica leader failover),
# which only skip in -short mode.
race:
	$(GO) test -race ./...

# Documentation gates: the root package and every internal/ package
# need a package doc comment (the root bistream façade and
# checkpoint/core/migrate/router/sketch additionally document every
# exported symbol), and every relative markdown link must resolve.
doclint:
	$(GO) run ./tools/doclint

linkcheck:
	$(GO) run ./tools/linkcheck

# Short fuzz passes over the parsers that face untrusted bytes: broker
# topic patterns, journal segment records, replication frames, client
# wire requests and replies, tuple codecs, protocol envelopes — plus the
# differential check of the dedup set against its two-map reference
# model. Ten seconds each is enough to catch decoder regressions without
# stalling the gate; run
# `go test -fuzz <target> -fuzztime 10m <pkg>` for a real campaign.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTopicMatch$$' -fuzztime $(FUZZTIME) ./internal/broker
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentRecord$$' -fuzztime $(FUZZTIME) ./internal/broker
	$(GO) test -run '^$$' -fuzz '^FuzzReplFrame$$' -fuzztime $(FUZZTIME) ./internal/broker/replica
	$(GO) test -run '^$$' -fuzz '^FuzzWireRequest$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzWireReply$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/tuple
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalPair$$' -fuzztime $(FUZZTIME) ./internal/tuple
	$(GO) test -run '^$$' -fuzz '^FuzzResultFrame$$' -fuzztime $(FUZZTIME) ./internal/tuple
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalEnvelope$$' -fuzztime $(FUZZTIME) ./internal/protocol
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSegment$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeManifest$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzSet$$' -fuzztime $(FUZZTIME) ./internal/dedup
	$(GO) test -run '^$$' -fuzz '^FuzzHash$$' -fuzztime $(FUZZTIME) ./internal/index
	$(GO) test -run '^$$' -fuzz '^FuzzSorted$$' -fuzztime $(FUZZTIME) ./internal/index

# The deterministic perf gate: testing.AllocsPerRun pins on the
# in-process message path (compiled route lookup 0, publish → deliver →
# ack on a warm queue <= 2, Core.Route <= 2) and on the result path
# (emitting and publishing 512 results <= 2, per frame rather than per
# pair; encoding a 512-pair hot-key result frame through a warm
# FrameEncoder allocates nothing, TestResultFrameEncodeAllocations;
# decoding a 64-pair result frame <= 1; a warm dedup set's
# SeenOrAdd allocates nothing, across rotations), on the probe path (a band
# probe through 16 ordered sub-indexes and a point probe through a hash
# chain allocate nothing; 4 096 inserts into a fresh hash sub-index,
# TestHashInsertAllocations, or of uniform keys into a fresh ordered
# sub-index, TestSortedInsertAllocations, cost <= 0.05 allocations
# each), on the encoders (tuple.Marshal and
# Envelope.Marshal allocate exactly once), and socket-write counts on
# the wire path through a write-counting net.Conn (a 128-publication
# PublishBatch and a 512-tag AckBatch are one client write and one reply
# write each, 512 queued deliveries reach the client in <= 8 writes).
# Both kinds of count repeat on any machine, which timings on a shared
# CI runner do not, so this is the perf regression CI can actually hold.
# Run without -race: the detector's own bookkeeping allocates.
perf-pins:
	$(GO) test -count=1 -run 'Allocations$$' ./internal/broker ./internal/router ./internal/joiner ./internal/tuple ./internal/protocol ./internal/index ./internal/dedup
	$(GO) test -count=1 -run 'SocketWrites$$' ./internal/wire

# The root package's hot-path benches: the engine end to end and the
# joiner core alone. The Figure 20/21 replays beside them take tens of
# seconds even for a single iteration and stay out of the gates.
BENCH_PATTERN ?= EngineIngest|JoinerCore

# One-iteration benchmark smoke so the bench harnesses can't bit-rot:
# compiles and runs every benchmark exactly once.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# The gate new changes must pass before merging.
check: vet build race perf-pins doclint linkcheck fuzz-smoke bench-smoke

# Quick throughput benches (the full experiment suite takes minutes;
# see EXPERIMENTS.md for `bistream exp all`).
bench:
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem .

# The repository's benchmark (bench/README.md, BENCHMARK.json), run the
# way the benchmark driver runs it: every workload once per seed, end to
# end, result multiset verified against the reference join. Each run's
# full stdout stays in .bench_build/e2e-<workload>-seed<n>.txt; a run
# that reports "correct":false has its "== ... INVALID: ..." line
# printed, which says whether pairs went missing or the generator ran
# late. Fails, after every run, when any run was not correct.
BENCH_WORKLOADS ?= equi_inproc band_inproc equi_zipf_adaptive equi_wire_quorum2
BENCH_SEEDS ?= 1
bench-e2e:
	@mkdir -p .bench_build; fail=0; \
	for w in $(BENCH_WORKLOADS); do for s in $(BENCH_SEEDS); do \
		out=.bench_build/e2e-$$w-seed$$s.txt; \
		sh bench/run.sh --workload $$w --seed $$s --seconds 13 --trace 0 > $$out || { echo "bench-e2e: $$w seed $$s failed, output in $$out"; exit 1; }; \
		line=$$(tail -n 1 $$out); \
		echo "$$w seed=$$s $$line"; \
		case "$$line" in *'"correct":true'*) ;; \
		*) grep '^== ' $$out; echo "bench-e2e: $$w seed $$s is not correct, output in $$out"; fail=1;; esac; \
	done; done; exit $$fail

# Paired measurement of a performance claim against BASE (a commit-ish,
# default the parent commit): builds BASE's benchmark in a git worktree
# under .bench_build/ and the working tree's beside it, runs PAIRS
# alternating base/change pairs per workload (tools/benchpairs prints
# the wins and the base's quartile distance per metric), then the
# benchmark's own verdicts per metric. Ten pairs of one workload take
# about eight minutes.
BASE ?= HEAD~1
PAIRS ?= 10
bench-compare:
	rm -rf .bench_build/base && git worktree prune
	git worktree add --detach .bench_build/base $(BASE)
	cd .bench_build/base && $(GO) build -o ../bench-base ./bench
	$(GO) build -o .bench_build/bench-change ./bench
	$(GO) run ./tools/benchpairs -base .bench_build/bench-base -base-dir .bench_build/base \
		-change .bench_build/bench-change -workloads $$(echo $(BENCH_WORKLOADS) | tr ' ' ,) \
		-pairs $(PAIRS) -out .bench_build/pairs; \
		status=$$?; git worktree remove --force .bench_build/base; exit $$status
	$(GO) run ./bench compare .bench_build/pairs/base.json .bench_build/pairs/change.json

clean:
	$(GO) clean ./...
	rm -rf .bench_build
