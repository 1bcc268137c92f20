package main

// metricDef declares one metric the way BENCHMARK.json lists it. Bound is
// the share of the baseline's median by which an end-to-end metric may
// worsen before a change counts as a regression; per-layer metrics are
// reported, never gated, and carry none. The timing bounds stand at the
// contract's ceiling because this sandbox's speed drifts by 10-20 % over
// minutes (README, "Noise"); a quieter machine can afford narrower ones.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics; every workload reports all of them.
//
//   - setup_s: corpus generation + cube build + server ready (first 200
//     from /generations); for batch-cube, generation + match evaluation +
//     match-file materialization for both datasets. Median of the run's
//     set-ups.
//   - op_p50_ms / op_p99_ms: client-observed latency of one operation — a
//     query on serve-hot/-scan/-shard, a durable-append acknowledgement on
//     serve-ingest, one pass over the nine-entry run list on batch-cube.
//     The p99 is the median of the p99s of consecutive windows where the
//     run has the samples for it (see windowedTail).
//   - ops_per_s: operations completed per measured second (queries plus
//     appends on serve-ingest; passes on batch-cube).
//   - bytes_per_cell: encoded cell-block bytes per stored cell, after the
//     build (static workloads, batch-cube's DBLP cube) or after quiesce +
//     final compaction (serve-ingest).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p99_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"bytes_per_cell", "B", "lower", 0.05},
}

// perLayer are the traced run's metrics, one layer = one module. A layer
// a workload does not exercise reports 0.
var perLayer = []metricDef{
	{Name: "servehttp.self_ms", Unit: "ms", Better: "lower"},
	{Name: "servehttp.encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "admit.check_ns", Unit: "ns", Better: "lower"},
	{Name: "admit.refused", Unit: "count", Better: "lower"},
	{Name: "shard.coord_self_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.replica_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.hedge_wasted_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.failover", Unit: "count", Better: "lower"},
	{Name: "serve.answer_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.plan_direct_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.cells_scanned_per_row", Unit: "ratio", Better: "lower"},
	{Name: "serve.gens_outstanding", Unit: "count", Better: "lower"},
	{Name: "serve.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.compact_runs", Unit: "count", Better: "higher"},
	{Name: "serve.rewrite_cells_per_appended_cell", Unit: "ratio", Better: "lower"},
	{Name: "cellfile.decode_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "cellfile.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cellfile.blocks_read", Unit: "count", Better: "lower"},
	{Name: "cellfile.encode_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "wal.append_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_payload_byte", Unit: "ratio", Better: "lower"},
	{Name: "xmltree.parse_s", Unit: "s", Better: "lower"},
	{Name: "match.evaluate_s", Unit: "s", Better: "lower"},
	{Name: "cube.COUNTER.dblp.s", Unit: "s", Better: "lower"},
	{Name: "cube.BUC.dblp.s", Unit: "s", Better: "lower"},
	{Name: "cube.BUCCUST.dblp.s", Unit: "s", Better: "lower"},
	{Name: "cube.TD.dblp.s", Unit: "s", Better: "lower"},
	{Name: "cube.TDOPTALL.dblp.s", Unit: "s", Better: "lower"},
	{Name: "cube.TDPAR2.dblp.s", Unit: "s", Better: "lower"},
	{Name: "cube.COUNTER.treebank.s", Unit: "s", Better: "lower"},
	{Name: "cube.BUC.treebank.s", Unit: "s", Better: "lower"},
	{Name: "cube.TD.treebank.s", Unit: "s", Better: "lower"},
	{Name: "extsort.spill_bytes", Unit: "B", Better: "lower"},
	{Name: "extsort.runs", Unit: "count", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.cpu_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "wire_ms", Unit: "ms", Better: "lower"},
	{Name: "share.wire", Unit: "ratio", Better: "lower"},
	{Name: "share.servehttp", Unit: "ratio", Better: "lower"},
	{Name: "share.shard", Unit: "ratio", Better: "lower"},
	{Name: "share.serve", Unit: "ratio", Better: "lower"},
	{Name: "share.cellfile", Unit: "ratio", Better: "lower"},
	{Name: "share.wal", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}
