# Tier-1 verification targets. `make ci` is the full gate.

GO ?= go

.PHONY: ci vet lint build test fuzz-replay race fuzz faults cover bench bench-smoke loc

ci: vet lint build test race faults cover bench-smoke

vet:
	$(GO) vet ./...

# The repo's own static-analysis suite (internal/lint, cmd/x3lint): ten
# stdlib-only analyzers — five syntactic (context flow, errors.Is
# discipline, obs key hygiene, deterministic iteration, unique fault
# sites) and five interprocedural over the whole-program call graph
# (goroutine accounting, mutex hold discipline, atomic-everywhere,
# answer-path error flow, partial-answer honesty). Nonzero exit on any
# unsuppressed diagnostic.
lint:
	$(GO) run ./cmd/x3lint -root .

build:
	$(GO) build ./...

test: fuzz-replay
	$(GO) test ./...

# Replay the committed fuzz corpora (the f.Add seeds plus anything under
# testdata/fuzz/) as plain regression tests, plus the analyzer fixture
# modules (the lint suite's own cheap regression) — no fuzzing engine, so
# it is cheap enough to ride inside `make test`.
fuzz-replay:
	$(GO) test -run '^Fuzz' ./internal/cellfile/ ./internal/extsort/ ./internal/matchfile/ ./internal/pattern/ ./internal/schema/ ./internal/store/ ./internal/wal/ ./internal/xmltree/ ./internal/xq/
	$(GO) test -run 'Fixture' ./internal/lint/

# The concurrent pieces — the shared worker pool behind BUCPAR/TDPAR, the
# batched sinks, extsort's background run formation and chunked sorts, the
# sjoin evaluator over the shared buffer pool, the parallel lattice
# harness, the match-plan cache, the admission controller, and the
# load-harness soak (concurrent queries + appends + compaction against a
# subset oracle), the sharded coordinator's scatter/failover/hedge/
# probe machinery plus its own soak, and the cell-file readers' pooled
# block decoders over a shared block cache — under the race detector.
race:
	$(GO) test -race ./internal/cellfile/... ./internal/cube/... ./internal/extsort/... ./internal/harness/... ./internal/match/... ./internal/mem/... ./internal/sjoin/... ./internal/store/... ./internal/obs/... ./internal/serve/... ./internal/admit/... ./internal/servehttp/... ./internal/load/... ./internal/shard/... ./cmd/x3serve/

# Short fuzz smoke of the query parser, the cell-file readers, the
# match-file decoder, the in-memory row sort, the store's meta page and
# the write-ahead log (the CI-sized budget).
fuzz:
	$(GO) test ./internal/xq/ -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/cellfile/ -fuzz FuzzCellfile -fuzztime 30s
	$(GO) test ./internal/cellfile/ -fuzz FuzzColumnarBlock -fuzztime 30s
	$(GO) test ./internal/matchfile/ -fuzz FuzzMatchfile -fuzztime 30s
	$(GO) test ./internal/extsort/ -fuzz FuzzSortRows -fuzztime 30s
	$(GO) test ./internal/store/ -fuzz FuzzStoreMeta -fuzztime 30s
	$(GO) test ./internal/wal/ -fuzz FuzzWAL -fuzztime 30s

# The fault-injection suite under a fixed deterministic schedule: the
# differential serving sweep with injected corruption/short reads, the
# crash-point sweeps of WAL append, flush, compaction and
# recovery, degraded-ladder serving off a corrupted file, and the
# injection/retry tests of every storage layer, and the sharded
# coordinator's differential failure sweep, failover, hedging and
# stale-replica discipline.
faults:
	$(GO) test -run 'Fault|Crash|Degraded|Retry|Corrupt|Cancel|Shed|Panic|Deadline|Quota|Failover|Hedge|Stale|Partial|Differential' ./internal/fault/ ./internal/cellfile/ ./internal/store/ ./internal/extsort/ ./internal/cube/ ./internal/serve/ ./internal/wal/ ./internal/servehttp/ ./internal/admit/ ./internal/shard/ ./cmd/x3serve/

# Per-package coverage floors (see scripts/cover_floors.txt): the serving
# layer and its cell-file substrate must stay above 80% of statements.
cover:
	sh scripts/cover.sh

# Non-test Go lines outside bench/ and testdata, per package and in
# total: the size figure simplicity changes quote.
loc:
	sh scripts/loc.sh

# The benchmark (bench/, its own module, contract in BENCHMARK.json) is
# never compiled by build/test; this leg builds it and runs every workload
# once on a tiny corpus, oracle checks included, so it cannot rot unseen.
# Build and run outputs land in .bench_build/ and bench/out/ (ignored).
bench-smoke:
	bash bench/run.sh -smoke --seconds 1

# The performance gate: three untraced runs of all five workloads, then
# one row per workload x end-to-end metric against the committed
# calibration set, "workload metric verdict ...". A verdict is `worse`
# (median worse than the base's by more than the BENCHMARK.json bound),
# `better`, `unresolved`, or the two words `no worse` — so the check is
# on the third field being exactly "worse", not a grep for the substring.
# -compare itself exits 0 whatever the verdicts; the awk line prints the
# table and is the gate.
bench:
	bash bench/run.sh -calibrate 3 -out .bench_build/current.json
	bash bench/run.sh -compare bench/calibration/seed1-a.json .bench_build/current.json >.bench_build/compare.txt
	@awk '{ print } $$3 == "worse" { bad = 1 } END { exit bad }' .bench_build/compare.txt
