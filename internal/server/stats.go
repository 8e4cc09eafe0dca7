package server

import (
	"context"
	"errors"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/otlp"
)

// latencyHist is a lock-free log2-bucketed latency histogram: bucket i
// holds observations in [2^(i-1), 2^i) microseconds. Quantiles read the
// bucket upper bound, so reported p50/p99 are conservative (within 2× of
// the true value) — accurate enough to watch orders-of-magnitude effects
// like cache hits vs cold queries.
type latencyHist struct {
	count   atomic.Int64
	sumUS   atomic.Int64
	buckets [48]atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	h.observeValue(d.Microseconds())
}

// observeValue records a raw non-negative integer observation — the same
// log2 bucketing reused as a generic value histogram (λ raises per
// query, per-shard result items). For latency use the µs-denominated
// observe above.
func (h *latencyHist) observeValue(v int64) {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.count.Add(1)
	h.sumUS.Add(v)
	h.buckets[i].Add(1)
}

// quantile returns the bucket-upper-bound estimate of quantile q in [0,1].
func (h *latencyHist) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			return float64(uint64(1) << i) // bucket upper bound in µs
		}
	}
	return float64(uint64(1) << (len(h.buckets) - 1))
}

// LatencySummary is one histogram rendered for /v1/stats.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
}

func (h *latencyHist) summary() LatencySummary {
	n := h.count.Load()
	s := LatencySummary{Count: n, P50US: h.quantile(0.50), P99US: h.quantile(0.99)}
	if n > 0 {
		s.MeanUS = float64(h.sumUS.Load()) / float64(n)
	}
	return s
}

// metrics aggregates everything /v1/stats reports. Counters are atomic;
// the label → histogram map is guarded by mu (labels are few and stable,
// so the map rarely grows past the first requests).
type metrics struct {
	start     time.Time
	hits      atomic.Int64
	misses    atomic.Int64
	collapsed atomic.Int64
	updates   atomic.Int64
	mutations atomic.Int64

	// Structural-mutation counters (/v1/edges batches).
	editBatches  atomic.Int64
	edgesAdded   atomic.Int64
	edgesRemoved atomic.Int64
	nodesAdded   atomic.Int64
	editRepaired atomic.Int64

	// Context-abort counters: queries abandoned at a deadline (the
	// request's timeout_ms or a caller deadline) vs. cancelled outright
	// (client disconnect, shutdown drain).
	timeouts atomic.Int64
	cancels  atomic.Int64

	// Sharded-execution counters, live only when the server fans out
	// through a cluster coordinator.
	shardQueries    atomic.Int64 // shard queries launched across all fan-outs
	shardsCut       atomic.Int64 // shards ended early by the TA merge bound
	clusterMessages atomic.Int64 // cross-shard messages (bounds, queries, result items)
	// Streaming counters: partial frames folded into merges, budget
	// traversals moved from cut shards to still-running ones, and λ
	// tightenings that actually moved the merge threshold.
	partialBatches      atomic.Int64
	budgetRedistributed atomic.Int64
	lambdaRaises        atomic.Int64
	// Priming and grant counters: queries whose launch λ was seeded from
	// score sketches (cold launches eliminated), and mid-run budget grant
	// round trips served over the ack stream.
	lambdaPrimed  atomic.Int64
	grantRequests atomic.Int64

	// editRebuilds counts /v1/edges batches that took the from-scratch
	// rebuild path instead of incremental repair.
	editRebuilds atomic.Int64

	// slowQueries counts executions at or over Options.SlowQuery.
	slowQueries atomic.Int64

	// window is the rolling 120s latency histogram beside the cumulative
	// per-algorithm hists: same log2 buckets, but old traffic ages out,
	// so it answers "what is p99 right now" and feeds the SLO burn rate.
	window windowHist

	// snapshotsWritten counts snapshots persisted via POST /v1/snapshot
	// or Server.WriteSnapshot.
	snapshotsWritten atomic.Int64

	// Versioned-lake counters: commits appended to the journal, commits
	// replayed through the incremental apply paths at boot, time-travel
	// queries (as_of naming a non-live retained generation) and the
	// subset served straight from the result cache, and worker catch-up
	// rounds (with the commits shipped for replay).
	journalAppends  atomic.Int64
	journalReplayed atomic.Int64
	asOfQueries     atomic.Int64
	asOfHits        atomic.Int64
	catchups        atomic.Int64
	catchupCommits  atomic.Int64

	// Value histograms (log2-bucketed, unitless): λ raises per sharded
	// query, and result items shipped per launched shard query — the
	// message-size observation the adaptive-tuning roadmap items consume.
	lambdaPerQuery latencyHist
	shardItems     latencyHist

	// Engine work counters summed over every executed (non-cached) query.
	evaluated   atomic.Int64
	pruned      atomic.Int64
	distributed atomic.Int64
	visited     atomic.Int64

	mu    sync.RWMutex
	hists map[string]*latencyHist
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), hists: make(map[string]*latencyHist)}
}

// hist returns the histogram for an algorithm label, creating it on first
// use.
func (m *metrics) hist(label string) *latencyHist {
	m.mu.RLock()
	h, ok := m.hists[label]
	m.mu.RUnlock()
	if ok {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok = m.hists[label]; ok {
		return h
	}
	h = &latencyHist{}
	m.hists[label] = h
	return h
}

// noteQueryAborted classifies a query error into the timeout/cancellation
// counters; non-context errors (validation and the like) are not counted.
func (m *metrics) noteQueryAborted(err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		m.timeouts.Add(1)
	case errors.Is(err, context.Canceled):
		m.cancels.Add(1)
	}
}

func (m *metrics) recordQuery(label string, d time.Duration, stats core.QueryStats) {
	m.hist(label).observe(d)
	m.evaluated.Add(int64(stats.Evaluated))
	m.pruned.Add(int64(stats.Pruned))
	m.distributed.Add(int64(stats.Distributed))
	m.visited.Add(int64(stats.Visited))
}

// CacheStats is the cache section of /v1/stats.
type CacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	HitRate   float64 `json:"hit_rate"`
	Entries   int     `json:"entries"`
	Collapsed int64   `json:"collapsed"` // duplicate in-flight queries absorbed by singleflight
	// Bytes is the approximate resident size of all cached answers — the
	// same per-entry sizing eviction enforces against CapacityBytes.
	Bytes         int64 `json:"cache_bytes"`
	CapacityBytes int64 `json:"cache_capacity_bytes"`
}

// EngineStats sums the core.QueryStats of every executed query — the
// quantities the paper's pruning bounds shrink. A healthy cache keeps
// these flat while queries repeat.
type EngineStats struct {
	Evaluated   int64 `json:"evaluated"`
	Pruned      int64 `json:"pruned"`
	Distributed int64 `json:"distributed"`
	Visited     int64 `json:"visited"`
}

// EditStats is the structural-mutation section of /v1/stats: what the
// /v1/edges batches did to the topology and how much incremental repair
// they cost (nodes recomputed instead of a full rebuild).
type EditStats struct {
	Batches      int64 `json:"batches"`
	EdgesAdded   int64 `json:"edges_added"`
	EdgesRemoved int64 `json:"edges_removed"`
	NodesAdded   int64 `json:"nodes_added"`
	// Repaired sums the per-batch affected-node counts — the incremental
	// work actually paid, vs Batches × Nodes for full rebuilds.
	Repaired int64 `json:"repaired"`
	// Rebuilds counts batches that fell back to a from-scratch rebuild
	// (the affected closure covered most of the graph).
	Rebuilds int64 `json:"rebuilds"`
}

// ShardLatency is one shard's row of the cluster stats section.
type ShardLatency struct {
	Shard   int            `json:"shard"`
	Owned   int            `json:"owned,omitempty"` // nodes this shard ranks
	Latency LatencySummary `json:"latency"`
}

// ClusterStats is the sharded-execution section of /v1/stats, present
// only when the server fans queries out through a cluster coordinator.
type ClusterStats struct {
	Shards int  `json:"shards"`
	Remote bool `json:"remote"` // shards live behind HTTP workers
	// EdgeCut and BoundaryNodes describe the partitioning itself: cut
	// edges (in-process topologies only) and ghost nodes replicated into
	// shard closures.
	EdgeCut       int   `json:"edge_cut,omitempty"`
	BoundaryNodes int64 `json:"boundary_nodes"`
	// ShardQueries / ShardsCut / Messages accumulate over every fan-out:
	// shard queries launched, shards ended early by the TA merge bound,
	// and cross-shard messages (bound probes, query round-trips, result
	// items shipped, partial frames, λ acks).
	ShardQueries int64 `json:"shard_queries"`
	ShardsCut    int64 `json:"shards_cut"`
	Messages     int64 `json:"messages"`
	// PartialBatches counts streamed partial frames folded into merges;
	// BudgetRedistributed counts traversals moved from cut shards'
	// stranded budget slices to shards that could still use them;
	// LambdaRaises counts folded batches that actually tightened λ.
	PartialBatches      int64 `json:"partial_batches"`
	BudgetRedistributed int64 `json:"budget_redistributed"`
	LambdaRaises        int64 `json:"lambda_raises"`
	// LambdaPrimed counts queries whose launch λ was seeded from per-shard
	// score sketches (a zero-message warm start); GrantRequests counts
	// mid-run budget grant round trips served over the ack stream.
	LambdaPrimed  int64          `json:"lambda_primed"`
	GrantRequests int64          `json:"grant_requests"`
	PerShard      []ShardLatency `json:"per_shard"`
}

// JournalStats is the versioned-graph-lake section of /v1/stats: the
// commit journal's shape plus the time-travel and catch-up counters.
// Present whenever the server retains generations (always), with the
// journal fields zero when no -journal is configured.
type JournalStats struct {
	// Enabled reports whether a commit journal is configured.
	Enabled bool `json:"enabled"`
	// Depth is the number of commits currently in the journal log;
	// LastGen is the newest journaled generation.
	Depth   int    `json:"depth"`
	LastGen uint64 `json:"last_generation,omitempty"`
	// Appends counts commits appended this process; Replayed counts
	// commits replayed through the incremental apply paths at boot.
	Appends  int64 `json:"appends"`
	Replayed int64 `json:"replayed"`
	// Retained is the current generation-ring depth (live generation
	// included); OldestRetained is the oldest generation as_of can name.
	Retained       int    `json:"retained"`
	OldestRetained uint64 `json:"oldest_retained"`
	// AsOfQueries counts queries that named a non-live retained
	// generation; AsOfHits counts those served straight from the result
	// cache (the recorded live answer).
	AsOfQueries int64 `json:"as_of_queries"`
	AsOfHits    int64 `json:"as_of_hits"`
	// Catchups counts worker catch-up rounds that replayed a journal
	// suffix into at least one stale worker; CatchupCommits sums the
	// commits shipped.
	Catchups       int64 `json:"catchups"`
	CatchupCommits int64 `json:"catchup_commits"`
}

// Stats is the full /v1/stats response. Every counter and histogram is
// cumulative since Since (the server's start): pair two scrapes' deltas
// with the UptimeS delta to compute rates.
type Stats struct {
	Generation uint64 `json:"generation"`
	// Since is the server start time in RFC3339 — the zero point every
	// cumulative counter and histogram below accumulates from.
	Since         string                    `json:"since"`
	UptimeS       float64                   `json:"uptime_s"`
	Nodes         int                       `json:"nodes"`
	Edges         int64                     `json:"edges"`
	H             int                       `json:"h"`
	UpdateBatches int64                     `json:"update_batches"`
	Mutations     int64                     `json:"mutations"`
	Edits         EditStats                 `json:"edits"`
	SlowQueries   int64                     `json:"slow_queries,omitempty"`
	QueryTimeouts int64                     `json:"query_timeouts"` // queries abandoned at a deadline
	QueryCancels  int64                     `json:"query_cancels"`  // queries cancelled by the caller
	Cache         CacheStats                `json:"cache"`
	Engine        EngineStats               `json:"engine"`
	Cluster       *ClusterStats             `json:"cluster,omitempty"`
	Snapshot      *SnapshotStats            `json:"snapshot,omitempty"`
	Journal       *JournalStats             `json:"journal,omitempty"`
	Latency       map[string]LatencySummary `json:"latency"`
	// LatencyWindow summarizes the rolling 120s window — "now", where
	// Latency above is "since boot".
	LatencyWindow LatencySummary `json:"latency_window"`
	// SLO judges the window against the configured latency objective;
	// absent when no SLO is configured.
	SLO *SLOStats `json:"slo,omitempty"`
	// OTLP is the trace exporter's accounting (exported/dropped/sampled
	// batches); absent when no -otlp-endpoint is configured.
	OTLP *otlp.ExporterStats `json:"otlp,omitempty"`
}

func (m *metrics) snapshot() Stats {
	s := Stats{
		Since:         m.start.UTC().Format(time.RFC3339),
		UptimeS:       time.Since(m.start).Seconds(),
		UpdateBatches: m.updates.Load(),
		Mutations:     m.mutations.Load(),
		Edits: EditStats{
			Batches:      m.editBatches.Load(),
			EdgesAdded:   m.edgesAdded.Load(),
			EdgesRemoved: m.edgesRemoved.Load(),
			NodesAdded:   m.nodesAdded.Load(),
			Repaired:     m.editRepaired.Load(),
			Rebuilds:     m.editRebuilds.Load(),
		},
		SlowQueries:   m.slowQueries.Load(),
		QueryTimeouts: m.timeouts.Load(),
		QueryCancels:  m.cancels.Load(),
		Cache: CacheStats{
			Hits:      m.hits.Load(),
			Misses:    m.misses.Load(),
			Collapsed: m.collapsed.Load(),
		},
		Engine: EngineStats{
			Evaluated:   m.evaluated.Load(),
			Pruned:      m.pruned.Load(),
			Distributed: m.distributed.Load(),
			Visited:     m.visited.Load(),
		},
		Latency: make(map[string]LatencySummary),
	}
	if total := s.Cache.Hits + s.Cache.Misses; total > 0 {
		s.Cache.HitRate = float64(s.Cache.Hits) / float64(total)
	}
	m.mu.RLock()
	labels := make([]string, 0, len(m.hists))
	for label := range m.hists {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		s.Latency[label] = m.hists[label].summary()
	}
	m.mu.RUnlock()
	return s
}
