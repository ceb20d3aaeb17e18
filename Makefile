GO ?= go

# Packages with dedicated concurrency stress tests; the full suite under
# -race is slow, so check races where the locks actually live.
RACE_PKGS = ./internal/core ./internal/buffer ./internal/db ./internal/trace ./internal/server ./internal/oplog ./internal/wal ./internal/pagefile ./internal/metrics

.PHONY: check fmt deps build vet test race crash fuzz-crash wal-crash fuzz-wal-crash fuzz-proto bench micro bench-history metrics misses serve telemetry loc clean

check: fmt deps vet build test race crash micro

# Fails, naming the files, when any Go source outside the benchmark's
# build directory is not gofmt-clean.
fmt:
	@out=$$(find . -name '*.go' ! -path './.bench_build/*' -exec gofmt -l {} +); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# The storage engine opens no socket: nothing below the db layer may
# link net/http (the telemetry surface is started by the caller).
deps:
	@! $(GO) list -deps ./internal/core ./internal/buffer ./internal/wal ./internal/pagefile | grep -x net/http

# Also cross-builds for darwin, so the non-Linux side of a platform
# split (internal/wal's sync_other.go) keeps compiling; benchmark/ is
# Linux-only and left out.
build:
	$(GO) build ./...
	GOOS=darwin $(GO) build . ./cmd/... ./examples/... ./internal/...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The split stress tests run three times more: a pool race that unpinned
# a buffer before dropping it only showed up when they were repeated. So
# does the search-hint stress: readers building one page's hint beside
# writers on the same stripe.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -count=3 -run 'Storm|MidSplit|HintRace' ./internal/core

# Power-cut simulation: every write prefix of a workload (torn pages
# included) must recover to the last-synced state or fail loudly. Check's
# detection tests and the big-pair boundary tests run beside them: Check
# and Recover share one certifying walk and one big-pair chain reader.
crash:
	$(GO) test -count=1 -run 'Crash|Fault|Recover|Durab|Sync|Check|BigPair' ./internal/core ./internal/pagefile

fuzz-crash:
	$(GO) test -run=NONE -fuzz=FuzzTableCrashRecovery -fuzztime=30s ./internal/core

# Wire-parser fuzz (its seeds already run under `make test`).
fuzz-proto:
	$(GO) test -run=NONE -fuzz=FuzzReadCommand -fuzztime=30s ./internal/server

# WAL crash matrix: consistent power cuts across the page store AND the
# log (torn page writes, torn log appends, mid-checkpoint cuts) must
# recover every acknowledged commit or fail loudly. In ./internal/db the
# same for the sharded database's one log: a transaction spanning shards
# cut at every byte of its append and between fsync, the per-shard
# applies, the shard syncs, the header stamps and the log reset (all keys
# or none, on every shard), the legacy-sidecar migration, the log-fault
# poison, the commit-vs-checkpoint stress and the directory's one owner;
# the root package restarts dbserver on real files whose previous owner
# died (the SIGKILL drill) or still lives (a second server is refused).
wal-crash:
	$(GO) test -count=1 -run 'WAL|TornTail|Txn|Sharded(Crash|Replay|LogFault|Legacy|CommitCheckpoint|Directory)' ./internal/core ./internal/wal ./internal/db
	$(GO) test -count=1 -run 'TestDBServer(KillRecover|SecondOwner)' .

fuzz-wal-crash:
	$(GO) test -run=NONE -fuzz=FuzzWALCrashRecovery -fuzztime=30s ./internal/core

bench:
	$(GO) test -run=NONE -bench=. -benchmem .

# The per-layer microbenchmarks, one iteration each so they cannot rot:
# what a live op ledger adds to a warm Get, what a warm Get costs at the
# end-to-end benchmark's geometry (200 000 pairs, 4096/24, 64 MiB pool,
# random order: cache-cold pages), what one page fault costs at
# a 16- and a 2048-page pool, what a lone pair's PutBatch costs at 1,
# 2 and 8 shards, what benchmark/'s 200 000-pair preload costs in
# process with a 64 MiB and the default pool, what a durable log commit
# costs on a real file with 1 and 2 committers (and how many commits
# one fsync covers), and
# what a 64-PUT and a 16-GET pipeline window cost through a served
# connection (with allocs/op). For numbers, raise -benchtime.
micro:
	$(GO) test -run=NONE -bench='BenchmarkGetBuf$$' -benchtime=1x -cpu=1 .
	$(GO) test -run=NONE -bench='BenchmarkGetBufResident$$' -benchtime=1x -cpu=1 .
	$(GO) test -run=NONE -bench=BenchmarkPoolFault -benchtime=1x ./internal/buffer
	$(GO) test -run=NONE -bench=BenchmarkShardedPutBatch -benchtime=1x ./internal/db
	$(GO) test -run=NONE -bench=BenchmarkShardedGetParallel -benchtime=1x -cpu=1,2 ./internal/db
	$(GO) test -run=NONE -bench=BenchmarkBulkLoad -benchtime=1x ./internal/db
	$(GO) test -run=NONE -bench=BenchmarkLogCommitFile -benchtime=1x ./internal/wal
	$(GO) test -run=NONE -bench=BenchmarkServerWindow -benchtime=1x ./internal/server

# One line of history per call: benchmark/'s `all` summary (commit, host
# facts, every end-to-end metric per workload) appended to the tracked
# BENCH_history.jsonl. A line is a record, not a verdict: claims are
# judged by alternating pairs (benchmark/README.md).
SEED ?= 1
bench-history:
	bash benchmark/run.sh --workload all --seed $(SEED) | tr -d '\n' >> BENCH_history.jsonl; echo >> BENCH_history.jsonl

# Instrumented workload; refreshes BENCH_metrics.json with the full
# metric registry (splits, chain probes, cache behaviour, sync latency).
metrics:
	$(GO) run ./cmd/hashbench metrics

# Negative-lookup latency vs overflow-chain depth, tag filter on vs off;
# refreshes BENCH_misses.json and fails if a filtered depth-4 miss costs
# more than 2x a depth-0 miss.
misses:
	$(GO) run ./cmd/hashbench -check 2.0 misses

# Run the sharded network front end on its defaults (8 in-memory
# shards, WAL on, port 7700, ops dashboard on 7701). Talk to it with
# `printf 'PUT k v\r\nGET k\r\n' | nc localhost 7700`.
serve:
	$(GO) run ./cmd/dbserver -addr :7700 -telemetry :7701

# Telemetry smoke: start `dbserver -telemetry` on a fresh directory,
# load it over a socket, scrape every endpoint its index lists
# (including a 1s CPU profile and an exemplar with its ring events) and
# watch it through dbcli hashmon; fails on any non-200 or empty body.
telemetry:
	$(GO) test -count=1 -run TestTelemetryEndToEnd -v .

# Non-test Go lines per top-level package (benchmark/ is the judge, not
# the judged, and is left out), so "less code" is a recorded number.
loc:
	@for d in cmd examples $$(find internal -mindepth 1 -maxdepth 1 -type d | sort); do \
		printf '%7d  %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$d; \
	done
	@printf '%7d  total (non-test Go outside benchmark/)\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -exec cat {} + | wc -l)

clean:
	rm -f BENCH_metrics.json BENCH_misses.json
