package main

import "encoding/json"

// metric is one row of the benchmark's metric table — the single
// definition BENCHMARK.json, the run output, the -aa gate and the smoke
// test are all derived from.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// workloadSpec names a workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	wlDistinct = "distinct-topk"
	wlHot      = "hot-repeat"
	wlMixed    = "mixed-rw"
	wlSharded  = "sharded-topk"
)

var workloads = []workloadSpec{
	{wlDistinct, "2 closed-loop readers walking the 32-shape cycle on one lonad with the result cache off: time is core engines over graph traversal; engine, planner and view-routing work must show here"},
	{wlHot, "2 closed-loop readers, Zipf(1.1) over 16 pre-warmed shapes, every read a cache hit: time is server decode/cache/telemetry/encode; engine work must not move it"},
	{wlMixed, "1 closed-loop reader on distinct queries beside a 20/s open-loop writer (4:1 scores:edges), so every read lands on a fresh generation: view, index repair, cache invalidation, journal"},
	{wlSharded, "coordinator (cache off) over 2 shard-worker processes, 1 closed-loop reader, then write fan-out and worker catch-up: all added time is cluster fan-out, streaming, merge and partition"},
}

// endToEnd is what a client of lonad sees. Every workload reports every
// row: each boots, reads, writes and recovers, in different proportions.
var endToEnd = []metric{
	{"setup_s", "s", lower, 0.25},
	{"read_qps", "1/s", higher, 0.10},
	{"read_p50_ms", "ms", lower, 0.15},
	{"read_p90_ms", "ms", lower, 0.15},
	{"scores_ack_p50_ms", "ms", lower, 0.25},
	{"edges_ack_p50_ms", "ms", lower, 0.25},
	{"cpu_ms_per_op", "ms", lower, 0.10},
	{"rss_peak_mb", "MB", lower, 0.15},
	{"recovery_s", "s", lower, 0.20},
}

// perLayer is the traced pass: times around calls into each module's
// public functions (medians, microseconds unless the unit says otherwise),
// self times (outer rung minus the rung it calls), and exact work counts.
var perLayer = []metric{
	// server: the request ladder, on a cache hit and on a miss.
	{Name: "server.roundtrip_hit_us", Unit: "us", Better: lower},
	{Name: "server.roundtrip_miss_us", Unit: "us", Better: lower},
	{Name: "server.handler_hit_us", Unit: "us", Better: lower},
	{Name: "server.handler_miss_us", Unit: "us", Better: lower},
	{Name: "server.run_hit_us", Unit: "us", Better: lower},
	{Name: "server.run_miss_us", Unit: "us", Better: lower},
	{Name: "server.transport_self_hit_us", Unit: "us", Better: lower},
	{Name: "server.transport_self_miss_us", Unit: "us", Better: lower},
	{Name: "server.codec_self_hit_us", Unit: "us", Better: lower},
	{Name: "server.codec_self_miss_us", Unit: "us", Better: lower},
	{Name: "server.run_self_hit_us", Unit: "us", Better: lower},
	{Name: "server.run_self_miss_us", Unit: "us", Better: lower},
	{Name: "server.log_self_us", Unit: "us", Better: lower},
	{Name: "server.trace_on_overhead_pct", Unit: "%", Better: lower},
	{Name: "server.apply_scores_us", Unit: "us", Better: lower},
	{Name: "server.apply_edits_us", Unit: "us", Better: lower},
	{Name: "server.apply_scores_self_us", Unit: "us", Better: lower},
	{Name: "server.apply_edits_self_us", Unit: "us", Better: lower},
	{Name: "server.new_us", Unit: "us", Better: lower},
	// server counts over the workload's own window against real lonad.
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "server.collapsed_per_kop", Unit: "count", Better: lower},
	{Name: "server.view_touched_per_batch", Unit: "count", Better: lower},
	{Name: "server.repaired_per_batch", Unit: "count", Better: lower},
	{Name: "server.rebuilds", Unit: "count", Better: lower},
	// core: engines, planner, view.
	{Name: "core.engine_run_us", Unit: "us", Better: lower},
	{Name: "core.engine_first_run_us", Unit: "us", Better: lower},
	{Name: "core.with_scores_us", Unit: "us", Better: lower},
	{Name: "core.plan_us", Unit: "us", Better: lower},
	{Name: "core.view_run_us", Unit: "us", Better: lower},
	{Name: "core.base_run_us", Unit: "us", Better: lower},
	{Name: "core.speedup_vs_base", Unit: "ratio", Better: higher},
	{Name: "core.evaluated_per_query", Unit: "count", Better: lower},
	{Name: "core.visited_per_query", Unit: "count", Better: lower},
	{Name: "core.pruned_ratio", Unit: "ratio", Better: higher},
	{Name: "core.us_per_evaluated", Unit: "us", Better: lower},
	{Name: "core.view_update_score_us", Unit: "us", Better: lower},
	{Name: "core.view_apply_edits_us", Unit: "us", Better: lower},
	{Name: "core.new_view_us", Unit: "us", Better: lower},
	// graph: traversal, structural edits, indexes.
	{Name: "graph.sum_within_ns_per_visit", Unit: "ns", Better: lower},
	{Name: "graph.apply_edits_us", Unit: "us", Better: lower},
	{Name: "graph.affected_nodes_us", Unit: "us", Better: lower},
	{Name: "graph.nix_repair_us", Unit: "us", Better: lower},
	{Name: "graph.build_nix_us", Unit: "us", Better: lower},
	{Name: "graph.build_dix_us", Unit: "us", Better: lower},
	// cluster and partition: 2 shards, in-process and over HTTP.
	{Name: "cluster.run_us", Unit: "us", Better: lower},
	{Name: "cluster.http_run_us", Unit: "us", Better: lower},
	{Name: "cluster.wire_self_us", Unit: "us", Better: lower},
	{Name: "cluster.shard_run_max_us", Unit: "us", Better: lower},
	{Name: "cluster.merge_self_us", Unit: "us", Better: lower},
	{Name: "cluster.speedup_vs_single", Unit: "ratio", Better: higher},
	{Name: "cluster.evaluated_ratio", Unit: "ratio", Better: lower},
	{Name: "cluster.messages_per_query", Unit: "count", Better: lower},
	{Name: "cluster.shards_cut_ratio", Unit: "ratio", Better: higher},
	{Name: "cluster.partial_batches_per_query", Unit: "count", Better: lower},
	{Name: "cluster.lambda_raises_per_query", Unit: "count", Better: higher},
	{Name: "cluster.primed_ratio", Unit: "ratio", Better: higher},
	{Name: "cluster.grant_requests_per_query", Unit: "count", Better: lower},
	{Name: "cluster.apply_scores_us", Unit: "us", Better: lower},
	{Name: "cluster.apply_edits_us", Unit: "us", Better: lower},
	{Name: "cluster.build_shards_us", Unit: "us", Better: lower},
	{Name: "cluster.boundary_ratio", Unit: "ratio", Better: lower},
	{Name: "partition.bfs_grow_us", Unit: "us", Better: lower},
	{Name: "partition.edge_cut_ratio", Unit: "ratio", Better: lower},
	// journal, snapshot, netio.
	{Name: "journal.append_us", Unit: "us", Better: lower},
	{Name: "journal.encode_us", Unit: "us", Better: lower},
	{Name: "journal.bytes_per_commit", Unit: "B", Better: lower},
	{Name: "journal.open_us", Unit: "us", Better: lower},
	{Name: "snapshot.open_us", Unit: "us", Better: lower},
	{Name: "snapshot.write_us", Unit: "us", Better: lower},
	{Name: "netio.read_graph_us", Unit: "us", Better: lower},
	// the harness itself.
	{Name: "loadgen.writer_late_p95_ms", Unit: "ms", Better: lower},
	{Name: "loadgen.calib_ms_before", Unit: "ms", Better: lower},
	{Name: "loadgen.calib_ms_after", Unit: "ms", Better: lower},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
}

// runSeconds is the measured window the driver passes as --seconds.
const runSeconds = 15

// benchmarkSpec is BENCHMARK.json; `-print-spec` writes it from the tables
// above so the file and the program cannot drift apart.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metric       `json:"end_to_end"`
	PerLayer   []metric       `json:"per_layer"`
}

func specJSON() ([]byte, error) {
	return json.MarshalIndent(benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
}
