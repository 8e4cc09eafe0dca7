package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// This file renders GET /metrics: the server's counters and histograms
// in Prometheus text exposition format (version 0.0.4), hand-rolled so
// the module stays dependency-free. The same latencyHist that backs
// /v1/stats quantiles backs the histogram families here — log2 buckets,
// so bucket i's inclusive upper bound is 2^i−1 (exact for the integer
// observations the histogram stores).

// handleMetrics serves the Prometheus scrape endpoint.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(s.renderMetrics()))
}

// renderMetrics builds the full exposition body. Counters are read from
// the same atomics /v1/stats snapshots, so the two surfaces can never
// disagree on what happened — only on when they looked.
func (s *Server) renderMetrics() string {
	m := s.metrics
	var b strings.Builder
	b.Grow(8 << 10)

	s.mu.RLock()
	gen, cl := s.gen, s.cl
	g, h := s.engine.Graph(), s.engine.H()
	s.mu.RUnlock()

	writeGauge(&b, "lona_start_time_seconds", "Unix time the server started.",
		float64(m.start.Unix()))
	writeGauge(&b, "lona_uptime_seconds", "Seconds since the server started.",
		time.Since(m.start).Seconds())
	writeGauge(&b, "lona_generation", "Current score generation (bumped per update or edit batch).",
		float64(gen))
	writeGauge(&b, "lona_graph_nodes", "Nodes in the current-generation graph.", float64(g.NumNodes()))
	writeGauge(&b, "lona_graph_edges", "Edges in the current-generation graph.", float64(g.NumEdges()))
	writeGauge(&b, "lona_h", "Neighborhood radius h the server answers for.", float64(h))

	writeCounter(&b, "lona_cache_hits_total", "Result-cache hits.", m.hits.Load())
	writeCounter(&b, "lona_cache_misses_total", "Result-cache misses (queries executed).", m.misses.Load())
	writeCounter(&b, "lona_cache_collapsed_total", "Duplicate in-flight queries absorbed by singleflight.",
		m.collapsed.Load())
	if s.cache != nil {
		writeGauge(&b, "lona_cache_entries", "Resident result-cache entries.", float64(s.cache.len()))
		writeGauge(&b, "lona_cache_bytes", "Approximate resident bytes of cached answers.",
			float64(s.cache.bytes()))
		writeGauge(&b, "lona_cache_capacity_bytes", "Result-cache byte capacity.",
			float64(s.cache.capacityBytes()))
	}

	writeCounter(&b, "lona_update_batches_total", "Applied score-update batches.", m.updates.Load())
	writeCounter(&b, "lona_score_mutations_total", "Individual score mutations applied.", m.mutations.Load())
	writeCounter(&b, "lona_edit_batches_total", "Applied structural edit batches.", m.editBatches.Load())
	writeCounter(&b, "lona_edges_added_total", "Edges inserted by edit batches.", m.edgesAdded.Load())
	writeCounter(&b, "lona_edges_removed_total", "Edges removed by edit batches.", m.edgesRemoved.Load())
	writeCounter(&b, "lona_nodes_added_total", "Nodes appended by edit batches.", m.nodesAdded.Load())
	writeCounter(&b, "lona_edit_repaired_nodes_total", "Nodes incrementally repaired by edit batches.",
		m.editRepaired.Load())
	writeCounter(&b, "lona_edit_rebuilds_total", "Edit batches that fell back to a from-scratch rebuild.",
		m.editRebuilds.Load())

	writeCounter(&b, "lona_snapshots_written_total", "Snapshots persisted via /v1/snapshot.",
		m.snapshotsWritten.Load())
	if src := s.opts.SnapshotSource; src != nil {
		writeGauge(&b, "lona_snapshot_source_mtime_seconds",
			"Unix mtime of the snapshot file the server booted from.", float64(src.ModTime.Unix()))
		writeGauge(&b, "lona_snapshot_source_bytes",
			"Size of the snapshot file the server booted from.", float64(src.Bytes))
		writeGauge(&b, "lona_snapshot_source_generation",
			"Score generation stamped into the boot snapshot.", float64(src.Generation))
		writeGauge(&b, "lona_snapshot_load_seconds",
			"Time to map and validate the boot snapshot.", src.LoadDuration.Seconds())
	}

	if js := s.journalStats(); js != nil {
		if js.Enabled {
			writeGauge(&b, "lona_journal_depth", "Commits resident in the journal log.", float64(js.Depth))
			writeGauge(&b, "lona_journal_last_generation", "Generation of the newest journaled commit.",
				float64(js.LastGen))
		}
		writeCounter(&b, "lona_journal_appends_total", "Mutation batches durably appended to the journal.",
			js.Appends)
		writeCounter(&b, "lona_journal_replayed_commits_total",
			"Journal commits replayed through the incremental apply path (boot catch-up).", js.Replayed)
		writeGauge(&b, "lona_retained_generations", "Generations resident in the time-travel ring.",
			float64(js.Retained))
		writeCounter(&b, "lona_asof_queries_total", "Queries answered as of a retained past generation.",
			js.AsOfQueries)
		writeCounter(&b, "lona_asof_hits_total", "as_of queries served from the recorded live answer.",
			js.AsOfHits)
		writeCounter(&b, "lona_catchups_total", "Replay-based worker catch-up passes.", js.Catchups)
		writeCounter(&b, "lona_catchup_commits_total", "Journal commits shipped to lagging workers.",
			js.CatchupCommits)
	}

	writeCounter(&b, "lona_query_timeouts_total", "Queries abandoned at a deadline.", m.timeouts.Load())
	writeCounter(&b, "lona_query_cancels_total", "Queries cancelled by the caller.", m.cancels.Load())
	writeCounter(&b, "lona_slow_queries_total", "Executions at or over the slow-query threshold.",
		m.slowQueries.Load())

	writeCounter(&b, "lona_engine_evaluated_total", "Nodes whose aggregate was computed exactly.",
		m.evaluated.Load())
	writeCounter(&b, "lona_engine_pruned_total", "Nodes skipped by an upper bound.", m.pruned.Load())
	writeCounter(&b, "lona_engine_distributed_total", "Scores spread by backward distribution.",
		m.distributed.Load())
	writeCounter(&b, "lona_engine_visited_total", "Nodes touched by h-hop traversals.", m.visited.Load())

	if cl != nil {
		writeGauge(&b, "lona_shards", "Shards queries fan out across.", float64(cl.shards))
		writeCounter(&b, "lona_shard_queries_total", "Shard queries launched across all fan-outs.",
			m.shardQueries.Load())
		writeCounter(&b, "lona_shards_cut_total", "Shards ended early by the TA merge bound.",
			m.shardsCut.Load())
		writeCounter(&b, "lona_cluster_messages_total", "Cross-shard messages.", m.clusterMessages.Load())
		writeCounter(&b, "lona_partial_batches_total", "Streamed partial frames folded into merges.",
			m.partialBatches.Load())
		writeCounter(&b, "lona_budget_redistributed_total",
			"Traversals moved from cut shards to still-running ones.", m.budgetRedistributed.Load())
		writeCounter(&b, "lona_lambda_raises_total", "Folded batches that tightened the merge threshold.",
			m.lambdaRaises.Load())
		writeCounter(&b, "lona_lambda_primed_total",
			"Queries whose launch lambda was seeded from score sketches.", m.lambdaPrimed.Load())
		writeCounter(&b, "lona_grant_requests_total",
			"Mid-run budget grant round trips served over the ack stream.", m.grantRequests.Load())
	}

	// Per-algorithm query latency: one histogram family, algorithm label.
	writeHistHeader(&b, "lona_query_duration_seconds", "Query execution latency by algorithm.")
	s.metrics.mu.RLock()
	labels := make([]string, 0, len(s.metrics.hists))
	for label := range s.metrics.hists {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	hists := make([]*latencyHist, len(labels))
	for i, label := range labels {
		hists[i] = s.metrics.hists[label]
	}
	s.metrics.mu.RUnlock()
	for i, label := range labels {
		writeHistSeries(&b, "lona_query_duration_seconds",
			`algorithm="`+escapeLabel(label)+`",`, hists[i], 1e-6)
	}

	if cl != nil {
		// Per-shard query latency: the histograms /v1/stats summarizes as
		// p50/p99, exported whole so a scraper can aggregate its own way.
		writeHistHeader(&b, "lona_shard_query_duration_seconds",
			"Per-shard query latency within fan-outs.")
		for i, sh := range cl.hists {
			writeHistSeries(&b, "lona_shard_query_duration_seconds",
				fmt.Sprintf("shard=%q,", fmt.Sprint(i)), sh, 1e-6)
		}
		writeHistHeader(&b, "lona_lambda_raises_per_query",
			"Lambda tightenings per sharded query.")
		writeHistSeries(&b, "lona_lambda_raises_per_query", "", &m.lambdaPerQuery, 1)
		writeHistHeader(&b, "lona_shard_result_items",
			"Result items shipped per launched shard query (message size).")
		writeHistSeries(&b, "lona_shard_result_items", "", &m.shardItems, 1)
	}

	// Rolling-window families: the same log2 buckets, but decaying — old
	// traffic ages out in 10s slots over a 120s window, so these answer
	// "right now" where the cumulative families above answer "since
	// boot". Rendered with the histogram text shape so existing bucket
	// tooling works, though semantically they are gauges.
	ws := m.window.snapshot()
	writeHistHeader(&b, "lona_latency_window_seconds",
		"Query latency over the rolling 120s window (decays; see lona_query_duration_seconds for cumulative).")
	writeBuckets(&b, "lona_latency_window_seconds", "", ws.counts[:], ws.sumUS, 1e-6)
	writeGauge(&b, "lona_latency_window_queries",
		"Queries observed in the rolling 120s window.", float64(ws.count))
	writeGauge(&b, "lona_latency_window_p99_seconds",
		"Bucket-bound p99 latency over the rolling window.", ws.quantile(0.99)*1e-6)

	if cl != nil {
		// Per-shard rolling-window gauges, beside the cumulative
		// per-shard histograms: which shard degraded in the last minute.
		writeHeader(&b, "lona_shard_window_queries",
			"Shard queries observed in the rolling 120s window.", "gauge")
		shardWindows := make([]windowSnapshot, len(cl.windows))
		for i, wh := range cl.windows {
			shardWindows[i] = wh.snapshot()
			fmt.Fprintf(&b, "lona_shard_window_queries{shard=%q} %d\n", fmt.Sprint(i), shardWindows[i].count)
		}
		writeHeader(&b, "lona_shard_window_p99_seconds",
			"Bucket-bound p99 shard latency over the rolling window.", "gauge")
		for i := range cl.windows {
			fmt.Fprintf(&b, "lona_shard_window_p99_seconds{shard=%q} %s\n",
				fmt.Sprint(i), formatValue(shardWindows[i].quantile(0.99)*1e-6))
		}
	}

	if slo := s.opts.SLO; slo.enabled() {
		burn := slo.burnRate(ws)
		writeGauge(&b, "lona_slo_objective_seconds",
			"Configured per-query latency objective.", slo.Latency.Seconds())
		writeGauge(&b, "lona_slo_target",
			"Required fraction of window queries under the objective.", slo.Target)
		writeGauge(&b, "lona_slo_window_over",
			"Window queries over the latency objective.", float64(ws.over))
		writeGauge(&b, "lona_slo_burn_rate",
			"Error-budget burn rate over the rolling window (>=1 violates the SLO).", burn)
	}

	if exp := s.opts.TraceExporter; exp != nil {
		es := exp.Stats()
		writeCounter(&b, "lona_otlp_exported_total", "OTLP span batches delivered to the collector.",
			es.Exported)
		writeCounter(&b, "lona_otlp_dropped_total", "OTLP span batches dropped by the full export queue.",
			es.Dropped)
		writeCounter(&b, "lona_otlp_sampled_out_total", "OTLP span batches skipped by the sampling ratio.",
			es.Sampled)
		writeCounter(&b, "lona_otlp_failed_total", "OTLP span batches the collector refused or the POST lost.",
			es.Failed)
		writeGauge(&b, "lona_otlp_queue_len", "OTLP export queue backlog.", float64(es.QueueLen))
	}

	return b.String()
}

func writeCounter(b *strings.Builder, name, help string, v int64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func writeGauge(b *strings.Builder, name, help string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatValue(v))
}

func writeHistHeader(b *strings.Builder, name, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
}

// writeHistSeries renders one labeled series of a histogram family from a
// latencyHist. Bucket i of the hist holds integer observations v with
// bits.Len64(v) == i, so its inclusive upper bound is 2^i−1; scale maps
// the stored integers to the exported unit (1e-6 for µs → seconds, 1 for
// unitless value histograms). labels, when non-empty, must end with ','.
//
// The atomics are read once each, cumulated in order, and the +Inf
// bucket is clamped up to the running total, so a scrape racing
// observeValue always yields a well-formed (monotone, +Inf == _count)
// exposition — at worst it undercounts observations that landed
// mid-render, which the next scrape picks up.
func writeHistSeries(b *strings.Builder, name, labels string, h *latencyHist, scale float64) {
	counts := make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	writeBuckets(b, name, labels, counts, h.sumUS.Load(), scale)
}

// writeBuckets renders one histogram series from already-loaded bucket
// counts (a latencyHist read or a summed window snapshot) plus the raw
// integer sum the scale maps to the exported unit.
func writeBuckets(b *strings.Builder, name, labels string, counts []int64, sum int64, scale float64) {
	hi := 0
	for i := range counts {
		if counts[i] != 0 {
			hi = i
		}
	}
	var cum int64
	for i := 0; i <= hi; i++ {
		cum += counts[i]
		le := float64(uint64(1)<<uint(i)-1) * scale
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, labels, formatValue(le), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	suffix := ""
	if trimmed := strings.TrimSuffix(labels, ","); trimmed != "" {
		suffix = "{" + trimmed + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, suffix, formatValue(float64(sum)*scale))
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, cum)
}

// writeHeader emits a HELP/TYPE pair for a family whose series the
// caller renders itself (labeled gauges).
func writeHeader(b *strings.Builder, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// formatValue renders a float the way Prometheus expects: Go's shortest
// round-trip representation parses back exactly with strconv.ParseFloat.
func formatValue(v float64) string {
	return fmt.Sprintf("%g", v)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}
