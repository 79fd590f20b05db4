# Tier-1 CI gate for the Historical Graph Store. `make ci` is the
# documented pre-merge check (ROADMAP.md): vet, build, fast tests (with
# and without the race detector), formatting, and the docs gate (the
# test names and links the docs cite must exist). `make test-full`
# additionally runs the paper-figure smoke tests that -short skips.

GO ?= go

# Fail `make cover` when total -short statement coverage drops below
# this floor (the tree sits around 74%; the floor leaves headroom for
# incidental drift, not for untested subsystems). The replicated
# kvstore, the placement ring, the record log and the disk engine carry
# their own floors — their tests are the consistency and recovery
# acceptance surface, so a regression there must not hide inside an
# unchanged total.
COVER_FLOOR ?= 70.0
KVSTORE_FLOOR ?= 78.0
RING_FLOOR ?= 82.0
RECLOG_FLOOR ?= 85.0
DISKLOG_FLOOR ?= 84.1

.PHONY: ci vet build test test-race test-benchmark test-full cover fuzz fmt-check fmt docs-check loc microbench bench profile

ci: vet build test test-race test-benchmark fmt-check docs-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -short ./...

test-race:
	$(GO) test -race -short ./...

# benchmark/ is a nested module (root ./... does not see it) that
# imports 15 internal packages directly.
test-benchmark:
	cd benchmark && $(GO) vet . && $(GO) test -short .

test-full:
	$(GO) test ./...

# Total -short statement coverage with hard floors (total plus the
# kvstore/ring/reclog/disklog per-package floors, scripts/coverfloor); prints the
# per-function summary so CI logs show what regressed. The full go test
# output is kept in cover.log; on failure every FAIL / panic: line is
# printed again prefixed with its package (go test prints each package's
# output as one block ending in its ok/FAIL summary line; lines after
# the last summary print as "(no summary)").
cover:
	@$(GO) test -short -coverprofile=coverage.out ./... > cover.log 2>&1; status=$$?; cat cover.log; \
	if [ $$status -ne 0 ]; then \
		echo "== go test failed (full output in cover.log); FAIL / panic: lines by package:"; \
		awk -F'\t' '$$1 ~ /^(ok|FAIL|\?) *$$/ && NF > 1 { for (i = 0; i < n; i++) print $$2 ": " buf[i]; n = 0; if ($$1 == "FAIL") print $$0; next } \
			/FAIL|panic:/ { buf[n++] = $$0 } \
			END { for (i = 0; i < n; i++) print "(no summary): " buf[i] }' cover.log; \
		exit $$status; \
	fi
	@$(GO) tool cover -func=coverage.out | tail -20
	$(GO) run ./scripts/coverfloor -profile coverage.out -total $(COVER_FLOOR) \
		-pkg hgs/internal/kvstore=$(KVSTORE_FLOOR) -pkg hgs/internal/ring=$(RING_FLOOR) \
		-pkg hgs/internal/reclog=$(RECLOG_FLOOR) -pkg hgs/internal/backend/disklog=$(DISKLOG_FLOOR)

# Brief native fuzzing of the decode and placement invariants and of the
# server's row encoder against encoding/json (the same targets `make
# test` replays against the committed corpora and seeds). CI runs this
# on every push; the nightly chaos job fuzzes longer.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/codec/ -fuzz FuzzUnframe -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/codec/ -fuzz '^FuzzDecodeDelta$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/codec/ -fuzz '^FuzzDecodeDeltaState$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/ring/ -fuzz FuzzRingLookup -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/reclog/ -fuzz FuzzScan -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/server/ -fuzz '^FuzzAppendNode$$' -fuzztime $(FUZZTIME) -run '^$$'

fmt-check:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

fmt:
	gofmt -w .

# Docs gate: intra-repo markdown links must resolve, every Test… name
# README.md and docs/*.md cite must be defined by a _test.go file, and
# every package must carry a package doc comment (scripts/checkdocs).
docs-check:
	$(GO) vet ./scripts/...
	$(GO) run ./scripts/checkdocs

# Size of the system: non-test Go lines outside the benchmark module —
# the number every PR reports before/after (ROADMAP north-star #2).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l

# Layer microbenchmarks (plain testing.B with -benchmem) of every package
# under internal/: codec encode/decode (EncodeDelta fresh, of states it
# encodes, and decoded, of states carrying their stored bodies, which it
# copies), fetch cache and Exec, core build
# (BuildAll: an Append into the empty index, which is how an index is
# built), append (AppendPartialSpan; AppendOpenSpan, 100 events into an open span
# filled 1/8 or 7/8, whose cost the fill no longer sets) and warm
# snapshots (GetSnapshotWarm at one time;
# GetSnapshotWarmSweep cycles through times over every leaf, where end
# states stand in for most of the boundary replay), k-hop reads at k=1
# and k=2 (KHopCold: the disk engine behind a 256 KiB cache; KHopWarm:
# the memory engine, every row cache-resident), graph Density (the
# first, O(N+E) pair count), DensityAfterEdit (one edge edit, then the
# count the edit kept) and DisjointUnion (a snapshot's combine of four
# 3,750-node sid graphs, which takes over their node maps), taf Evolution
# (a whole-history SoN, whose initial graphs are empty: it guards the
# per-point recount of an unknown pair count), EvolutionTimeslice
# (workers1, workers2: the third quarter of a longer history, non-empty
# initial states, the replay one task per partition on one or two
# sparklite workers) and SoNFetch (a warm-cache SoN
# fetch), and the disklog and tiered engines (Put, Get from memory and
# from disk, MultiGet, ScanPrefix over a few thousand rows), and the
# server's SnapshotNDJSON (a warm /v1/snapshot of a ~3,000-node store
# through Server.Handler, row encoding included). CI runs each
# once (BENCHTIME=1x) so they keep compiling and running; for numbers use
# the default or e.g. BENCHTIME=2s.
BENCHTIME ?= 1s
microbench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./internal/...

# The paper reproduction (Table 1, Figures 11-17, two ablations) under
# the simulated latency model. Real-cost performance is measured by the
# benchmark/ module: `bash benchmark/run.sh` (BENCHMARK.json).
bench:
	$(GO) run ./cmd/hgs-bench

# CPU and allocation profiles over the Figure 11 bench workload
# (snapshot retrieval with parallel fetch — the read hot path). Inspect
# with `go tool pprof cpu.prof` / `go tool pprof -sample_index=alloc_space alloc.prof`;
# a live store serves the same profiles on /debug/pprof/ (Store.DebugHandler).
profile:
	$(GO) test -run '^$$' -bench BenchmarkFig11SnapshotParallelFetch -benchtime 1x \
		-cpuprofile cpu.prof -memprofile alloc.prof .
	@echo "wrote cpu.prof and alloc.prof — e.g.: go tool pprof -top cpu.prof"
