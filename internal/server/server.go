// Package server is lonad's serving subsystem: a long-lived, concurrent
// top-k query service over one (graph, relevance, h) triple. It wraps a
// core.Engine / core.View pair behind an HTTP/JSON API:
//
//	POST /v1/topk   — answer a top-k query; algorithm "auto" reads the
//	                  materialized view where it can and delegates to the
//	                  cost-based planner otherwise. Requests may set
//	                  timeout_ms (server-side deadline), budget (max h-hop
//	                  traversals), and candidates (restrict ranked nodes),
//	                  and are aborted when the client disconnects.
//	POST /v1/scores — apply a batch of relevance updates atomically
//	POST /v1/edges  — apply a batch of structural edits (edge inserts and
//	                  removals, node additions) atomically, with
//	                  incremental repair of the materialized view and the
//	                  neighborhood index
//	GET  /v1/stats  — cache hit rate and byte usage, per-algorithm latency
//	                  histograms, summed engine work counters,
//	                  timeout/cancellation counters
//	GET  /v1/health — liveness plus dataset shape
//
// # Serving architecture
//
// The server is a generation machine. Reads are lock-free after a brief
// RLock to snapshot (generation, engine): each generation's Engine is
// immutable (core guarantees concurrent queries are safe once indexes are
// built), so queries run without holding any lock. A score batch takes the
// write lock, repairs the materialized View incrementally (O(|S_h(v)|) per
// update), rebuilds the Engine from a snapshot of the new scores via
// Engine.WithScores — sharing the topology-only indexes, so rebuilds cost
// O(n) validation, not index construction — and bumps the generation.
//
// Every query runs under its request's context: the HTTP handler passes
// r.Context() (cancelled on client disconnect) down through Server.Run
// into core's cooperative cancellation, optionally tightened by the
// request's timeout_ms. An abandoned query stops within a few BFS
// expansions and frees its goroutine.
//
// Results are cached in a sharded, byte-accounted LRU keyed by
// (generation, k, aggregate, algorithm, budget, candidates): repeats at
// an unchanged generation are O(1), and any update invalidates implicitly
// because the new generation changes every key — no scan-and-evict.
// Concurrent identical cold queries collapse to one execution via
// singleflight; if the one executing caller is cancelled, a surviving
// waiter re-executes instead of inheriting the cancellation.
//
// # What "auto" executes
//
// Reads use what writes already paid for. On an undirected graph every
// write repairs the View, so a live "auto" query asking SUM, AVG or COUNT
// — any k, candidates or not, budget or not, sharded or not — is answered
// by View.Run under the read lock and reported as algorithm "view",
// planned, with a reason (Server.runView). Everything else takes the
// engine or coordinator path: WSUM and MAX, directed graphs (no view),
// as_of queries (retained generations have engines, not views),
// and every explicitly named algorithm. A view scan that loses the race to
// a write falls back to the snapshot's engine, so an answer is always
// computed at the generation its cache key names.
//
// The view sums in a different order than an engine traversal, so an
// "auto"+as_of answer executed on a retained engine equals the live
// (view-routed) answer of that generation up to summation-order ulps; it
// is byte-identical for every explicitly named algorithm, and on a
// retained cache hit (TestAsOfByteIdentity).
//
// # Sharded serving
//
// With Options.Shards > 1 (lonad -shards) the server builds an
// internal/cluster Coordinator over in-process partition shards and
// routes every engine query through it; with Options.ShardWorkers set
// (lonad -shard-peers) the shards live behind worker lonad processes and
// the fan-out crosses HTTP. View-served queries (above) always scan the
// coordinator's whole-graph materialized view — a single O(n) scan with
// nothing to distribute. The shard count is fixed at boot, and /v1/stats
// grows a cluster section with per-shard latency and cross-shard message
// counters.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/otlp"
	"repro/internal/trace"
	"repro/internal/wideevent"
)

// Options tunes a Server; the zero value is a sensible default.
type Options struct {
	// CacheBytes is the result cache's total capacity in approximate
	// bytes of cached answers (default 16 MiB; <0 disables caching).
	CacheBytes int64
	// CacheShards is the number of independently locked cache segments
	// (default 16).
	CacheShards int
	// Workers bounds index-build and parallel-scan goroutines
	// (<=0 = GOMAXPROCS).
	Workers int
	// SkipIndexes skips eager index construction; the first query to need
	// an index builds it lazily instead (core serializes racing builds).
	// Until the differential index exists the planner avoids Forward.
	// Intended for tests and tiny datasets. (The differential index is
	// only ever built eagerly for directed graphs; see New.)
	SkipIndexes bool
	// Shards > 1 executes queries through an in-process
	// cluster.Coordinator over this many partition-local engines; 0 or 1
	// serves from the single whole-graph engine. Mutually exclusive with
	// ShardWorkers.
	Shards int
	// ShardWorkers lists the base URLs of lonad shard-worker processes
	// (cmd/lonad -shard-worker), one per shard in shard-index order;
	// queries fan out to them over HTTP. The coordinator process still
	// loads the full graph for the materialized view and update
	// validation. Either way the fan-out speaks cluster's one protocol:
	// sketch-primed λ, streamed partial batches with mid-query cuts,
	// demand-driven budget grants, adaptive emission cadence.
	ShardWorkers []string
	// SlowQuery, when positive, traces every execution and escalates the
	// wide event of any query (or edit batch) at or over this duration to
	// WARN (lonad -slow-query-ms). Zero disables both the escalation and
	// the always-on tracing it requires; requests asking "trace": true
	// are traced either way.
	SlowQuery time.Duration
	// Logger receives the canonical wide events — one per query, one per
	// edit batch, plus shard-anomaly warnings — keyed by the
	// internal/wideevent schema. Nil discards them: a library embedder
	// that configured no logger stays silent.
	Logger *slog.Logger
	// SLO is the latency objective judged against the rolling window;
	// the burn rate is exported in /metrics, /v1/stats, and degrades
	// /v1/health to 503 while the error budget burns faster than it
	// refills. The zero value disables SLO tracking.
	SLO SLO
	// TraceExporter ships each execution's stitched timeline as OTLP
	// spans (lonad -otlp-endpoint). Non-nil turns on always-on tracing
	// the same way SlowQuery does; nil disables export.
	TraceExporter *otlp.Exporter
	// Index is a prebuilt N(v) index to adopt — typically mapped from the
	// snapshot the server is booting from — instead of paying the eager
	// construction pass. Must match (graph, h); nil builds as usual.
	Index *graph.NeighborhoodIndex
	// SnapshotSource describes the snapshot file the boot state came
	// from, for /v1/stats and /metrics; nil when built from scratch.
	SnapshotSource *SnapshotSource
	// SnapshotPath is where POST /v1/snapshot persists when the request
	// names no path (lonad -snapshot). Empty means requests must name one.
	SnapshotPath string
	// Journal, when non-nil, makes the server a versioned graph lake:
	// every applied score/edit batch is appended as a durable commit
	// (lonad -journal), New replays any journal suffix past the boot
	// state's generation through the exact incremental apply paths, and
	// POST /v1/snapshot anchors the journal to the written snapshot.
	Journal *journal.Journal
	// RetainGenerations bounds the in-memory ring of recent generations
	// kept for as_of time travel (default 8; 1 retains only the live
	// generation, disabling time travel).
	RetainGenerations int
}

// defaultCacheBytes is the result cache capacity when Options.CacheBytes
// is zero.
const defaultCacheBytes = 16 << 20

// shardUpdateTimeout bounds the score-update fan-out to shard workers,
// which runs under the server's write lock.
const shardUpdateTimeout = 30 * time.Second

// Server answers top-k queries and applies score updates; construct with
// New and expose via Handler. All exported methods are safe for concurrent
// use.
type Server struct {
	opts Options
	// g is the current-generation graph. Each generation's graph value is
	// immutable (structural edits derive a successor and swap the
	// pointer under mu), so a query that snapshotted an engine keeps a
	// consistent topology for its whole run.
	g *graph.Graph

	// mu guards the generation state below, RWMutex-style: queries take a
	// brief RLock to snapshot (gen, engine, view, cluster); update batches
	// take the write lock for the duration of the view repair + engine
	// rebuild.
	mu     sync.RWMutex
	gen    uint64
	engine *core.Engine // immutable per generation; safe lock-free after snapshot
	view   *core.View   // materialized aggregates; nil for directed graphs
	cl     *clusterState

	// ring holds the most recent generations (newest last, always
	// including the live one), guarded by mu. Each entry pins the
	// immutable engine of one generation so as_of queries can execute
	// against retired generations without re-deriving them.
	ring []genEntry

	cache   *shardedCache // nil when caching is disabled
	flight  flightGroup
	metrics *metrics
	// log is the resolved wide-event logger: Options.Logger, or a
	// discard logger so emit sites never nil-check.
	log *slog.Logger
}

// genEntry is one retained generation: everything needed to answer a
// query exactly as it would have been answered live at that generation.
type genEntry struct {
	gen    uint64
	engine *core.Engine
}

// retainDefault is the generation-ring depth when
// Options.RetainGenerations is zero.
const retainDefault = 8

// clusterState is the shard topology's serving state, fixed at boot: the
// coordinator plus the per-shard latency histograms /v1/stats reports.
type clusterState struct {
	coord  *cluster.Coordinator
	shards int
	remote bool // shards live behind HTTP workers
	hists  []*latencyHist
	// windows are the rolling-window companions of hists, feeding the
	// per-shard lona_shard_window_* gauges.
	windows []*windowHist
}

// newClusterState wraps a coordinator for serving.
func newClusterState(coord *cluster.Coordinator, remote bool) *clusterState {
	cs := &clusterState{coord: coord, shards: coord.Shards(), remote: remote}
	cs.hists = make([]*latencyHist, cs.shards)
	cs.windows = make([]*windowHist, cs.shards)
	for i := range cs.hists {
		cs.hists[i] = &latencyHist{}
		cs.windows[i] = &windowHist{}
	}
	return cs
}

// snapshot is one query's consistent view of the generation state.
type snapshot struct {
	gen    uint64
	engine *core.Engine
	view   *core.View
	cl     *clusterState
	qv     cluster.QueryView // pinned shard set, when sharded
}

// snapshot captures the current generation under a brief RLock.
func (s *Server) snapshot() snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := snapshot{gen: s.gen, engine: s.engine, view: s.view, cl: s.cl}
	if s.cl != nil {
		snap.qv = s.cl.coord.Snapshot()
	}
	return snap
}

// Answer is one computed (or cached) query response body — the /v1/topk
// wire format, and what Server.Run returns for in-process callers.
type Answer struct {
	Generation uint64          `json:"generation"`
	Algorithm  string          `json:"algorithm"` // algorithm actually executed
	Planned    bool            `json:"planned"`   // true when "auto" chose it
	Reason     string          `json:"reason,omitempty"`
	Cached     bool            `json:"cached"`
	Truncated  bool            `json:"truncated,omitempty"` // budget stopped the query early
	Shards     int             `json:"shards,omitempty"`    // >1 when a coordinator merged the answer
	Results    []core.Result   `json:"results"`
	Stats      core.QueryStats `json:"stats"`
	ElapsedUS  int64           `json:"elapsed_us"` // execution time when computed
	// Trace is the assembled execution timeline, present only when the
	// request asked "trace": true. Never cached: a trace describes one
	// concrete execution.
	Trace *TraceOut `json:"trace,omitempty"`

	// perShard carries the coordinator's per-shard breakdown from
	// dispatch to the TraceOut assembly; never serialized itself.
	perShard []cluster.ShardReport
	// breakdown, traceID, and slow carry one execution's story from
	// execute to the wide event Run emits; never serialized. Cache hits
	// clear them — they describe the run that populated the cache.
	breakdown *cluster.Breakdown
	traceID   string
	slow      bool
}

// TraceOut is the /v1/topk trace payload: one stitched timeline (local
// spans plus every shard worker's events rebased onto the coordinator's
// clock) and, when the query fanned out, the per-shard breakdown the
// coordinator accounted.
type TraceOut struct {
	ID       string                `json:"id"`
	Events   []trace.Event         `json:"events"`
	PerShard []cluster.ShardReport `json:"per_shard,omitempty"`
}

// New validates the inputs and builds a ready-to-serve Server. For
// undirected graphs a materialized View is kept alongside the Engine
// (enabling incremental update repair and the "view" algorithm); directed
// graphs serve engine-only and apply updates as plain score writes.
func New(g *graph.Graph, scores []float64, h int, opts Options) (*Server, error) {
	if opts.CacheBytes == 0 {
		opts.CacheBytes = defaultCacheBytes
	}
	if opts.CacheShards <= 0 {
		opts.CacheShards = 16
	}
	if opts.RetainGenerations <= 0 {
		opts.RetainGenerations = retainDefault
	}
	if opts.Shards > 1 && len(opts.ShardWorkers) > 0 {
		return nil, errors.New("server: Shards and ShardWorkers are mutually exclusive")
	}
	engine, err := core.NewEngine(g, scores, h)
	if err != nil {
		return nil, err
	}
	s := &Server{opts: opts, g: g, engine: engine, metrics: newMetrics()}
	s.log = opts.Logger
	if s.log == nil {
		s.log = wideevent.Discard()
	}
	if src := opts.SnapshotSource; src != nil {
		// Resume the score generation where the boot snapshot left it, so a
		// restarted coordinator stays generation-aligned with shard workers
		// provisioned from the same snapshot lineage (cluster.Worker seeds
		// its counter from the shard snapshot the same way).
		s.gen = src.Generation
	}
	if opts.CacheBytes > 0 {
		s.cache = newShardedCache(opts.CacheBytes, opts.CacheShards)
	}
	if !g.Directed() {
		if s.view, err = core.NewView(g, scores, h); err != nil {
			return nil, err
		}
	}
	if opts.Index != nil {
		// A snapshot-mapped index makes the eager neighborhood build a
		// no-op below; the differential index is not in the snapshot and
		// still builds (or is skipped) by the usual rules.
		if err := engine.AdoptNeighborhoodIndex(opts.Index); err != nil {
			return nil, err
		}
	}
	if !opts.SkipIndexes {
		// Prepared eagerly so the first queries don't stall behind index
		// construction; WithScores rebuilds share these, so it is one
		// build per server lifetime, not per generation.
		engine.PrepareNeighborhoodIndex(opts.Workers)
		if s.view == nil {
			// The differential index only pays for itself where the
			// planner reaches for Forward on live traffic: directed graphs.
			// With a view, live SUM/AVG/COUNT never touch the engine, and
			// the first structural edit (live or replayed below) would
			// drop the index anyway; an explicit "forward" request still
			// builds it lazily.
			engine.PrepareDifferentialIndex(opts.Workers)
		}
	}
	// The boot generation enters the retention ring first; any replayed
	// commits below retain their own generations through the apply
	// helpers, exactly like live batches.
	s.retainGeneration()
	if j := opts.Journal; j != nil {
		// Replay the journal suffix past the boot state's generation
		// through the exact incremental apply paths a live batch takes —
		// snapshot@g + replay(g..h) reconstructs generation h
		// bit-identically. This runs before the cluster is constructed,
		// so replay never fans out (workers catch up by their own replay)
		// and never re-appends.
		for _, c := range j.Suffix(s.gen) {
			if err := s.replayCommit(c); err != nil {
				return nil, fmt.Errorf("server: journal replay to generation %d: %w", c.Gen, err)
			}
		}
		// Replay may have advanced past the boot state; the cluster
		// below must shard the CURRENT generation, not the one the
		// caller handed in.
		g, scores = s.g, s.engine.Scores()
	}
	switch {
	case opts.Shards > 1:
		local, err := cluster.NewLocal(g, scores, h, opts.Shards)
		if err != nil {
			return nil, err
		}
		if !opts.SkipIndexes {
			local.PrepareIndexes(opts.Workers)
		}
		s.cl = newClusterState(cluster.NewCoordinator(local, cluster.Options{}), false)
	case len(opts.ShardWorkers) > 0:
		transport, err := cluster.NewHTTP(context.Background(), opts.ShardWorkers, nil)
		if err != nil {
			return nil, err
		}
		if transport.Nodes() != g.NumNodes() {
			return nil, fmt.Errorf("server: shard workers serve %d nodes, this server loaded %d — different datasets",
				transport.Nodes(), g.NumNodes())
		}
		if transport.H() != h {
			return nil, fmt.Errorf("server: shard workers serve h=%d, this server runs h=%d — answers would mix radii",
				transport.H(), h)
		}
		s.cl = newClusterState(cluster.NewCoordinator(transport, cluster.Options{}), true)
	}
	return s, nil
}

// Shards returns how many shards queries fan out across (1 = unsharded).
func (s *Server) Shards() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.cl == nil {
		return 1
	}
	return s.cl.shards
}

// Generation returns the current score generation: the boot snapshot's
// stamped generation when the server was restored from one (0 when built
// from scratch), +1 per applied update or edit batch.
func (s *Server) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// Graph returns the current-generation graph (immutable; structural
// edits swap in a successor rather than mutating it).
func (s *Server) Graph() *graph.Graph {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.g
}

// Scores returns a copy of the current-generation relevance vector.
func (s *Server) Scores() []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]float64(nil), s.engine.Scores()...)
}

// numNodes returns the current-generation node count. Structural edits
// only ever grow it, so a candidate validated against one generation
// stays valid for every later one.
func (s *Server) numNodes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.g.NumNodes()
}

// QueryRequest is the decoded /v1/topk body. Aggregate and Algorithm are
// the lowercase names cmd/lona uses; Algorithm additionally accepts "auto"
// (the view answers live SUM/AVG/COUNT, the planner decides the rest) and
// "view" (serve from the materialized view or fail).
type QueryRequest struct {
	K         int    `json:"k"`
	Aggregate string `json:"aggregate"`
	Algorithm string `json:"algorithm,omitempty"` // default "auto"
	// TimeoutMS is a server-side deadline for this request in
	// milliseconds; 0 means no extra deadline beyond the caller's context.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Budget caps the query's h-hop traversals (core.Query.Budget); a
	// truncated answer sets "truncated": true.
	Budget int `json:"budget,omitempty"`
	// Candidates restricts which nodes may be ranked
	// (core.Query.Candidates). Empty means every node.
	Candidates []int `json:"candidates,omitempty"`
	// Trace asks for the execution timeline in the answer. Like
	// timeout_ms it never changes the results, so it is excluded from the
	// cache key; unlike timeout_ms a traced miss bypasses the
	// singleflight collapse and is never cached, because its trace
	// describes that one execution.
	Trace bool `json:"trace,omitempty"`
	// AsOf pins the query to a retained generation. The answer IS the
	// cached live answer when one is still resident (the time-travel fast
	// path); otherwise it executes on that generation's retained engine —
	// byte-identical to the live answer for explicitly named algorithms,
	// equal up to summation-order ulps where the live "auto" answer came
	// from the view. 0 (and the live generation) mean "now"; generations
	// outside the retention ring are rejected, and so is "view", which
	// serves only the live generation.
	AsOf uint64 `json:"as_of,omitempty"`
}

// algoView is the extra serving-only "algorithm": answer from the
// materialized view's O(n) scan, no traversal at all.
const algoView = "view"

// normalize validates the request and fills defaults.
func (r *QueryRequest) normalize(s *Server) (core.Aggregate, error) {
	if r.K <= 0 {
		return 0, fmt.Errorf("k must be positive, got %d", r.K)
	}
	// Canonicalize the strings that participate in the cache key.
	r.Aggregate = strings.ToLower(r.Aggregate)
	r.Algorithm = strings.ToLower(r.Algorithm)
	agg, err := ParseAggregate(r.Aggregate)
	if err != nil {
		return 0, err
	}
	if r.Algorithm == "" {
		r.Algorithm = "auto"
	}
	switch r.Algorithm {
	case "auto":
	case algoView:
		if s.view == nil {
			return 0, errors.New(`algorithm "view" requires an undirected graph`)
		}
		if r.AsOf != 0 {
			return 0, errors.New(`algorithm "view" serves only the live generation (drop as_of)`)
		}
	default:
		if _, err := ParseAlgorithm(r.Algorithm); err != nil {
			return 0, err
		}
	}
	if r.TimeoutMS < 0 {
		return 0, fmt.Errorf("timeout_ms %d is negative", r.TimeoutMS)
	}
	if r.Budget < 0 {
		return 0, fmt.Errorf("budget %d is negative", r.Budget)
	}
	if r.Algorithm == algoView {
		// The view scan performs no traversals to budget; zero it so
		// equivalent requests share one cache key.
		r.Budget = 0
	}
	return agg, r.canonicalizeCandidates(s.numNodes())
}

// canonicalizeCandidates validates the candidate ids and rewrites them
// sorted and deduplicated, so requests naming the same set in any order
// share one cache key and one in-flight execution.
func (r *QueryRequest) canonicalizeCandidates(n int) error {
	if len(r.Candidates) == 0 {
		r.Candidates = nil
		return nil
	}
	seen := make(map[int]struct{}, len(r.Candidates))
	out := make([]int, 0, len(r.Candidates))
	for _, v := range r.Candidates {
		if v < 0 || v >= n {
			return fmt.Errorf("candidate node %d out of range [0,%d)", v, n)
		}
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	sort.Ints(out)
	r.Candidates = out
	return nil
}

// cacheKey identifies a query result within one generation. Everything
// that can change the response body participates; timeout_ms does not —
// it changes only whether the query finishes, never its answer. Neither
// does as_of: a time-travel query reuses the key the live query wrote at
// that generation (gen IS as_of), which is exactly what makes retained
// cache entries the fast path.
func (r *QueryRequest) cacheKey(gen uint64) string {
	var b strings.Builder
	b.WriteString(strconv.FormatUint(gen, 10))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(r.K))
	b.WriteByte('|')
	b.WriteString(r.Aggregate)
	b.WriteByte('|')
	b.WriteString(r.Algorithm)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(r.Budget))
	b.WriteByte('|')
	for i, v := range r.Candidates {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// Run answers a query under ctx, consulting the cache first and collapsing
// concurrent identical cold queries. The request's timeout_ms, when set,
// tightens ctx with a deadline. A context error (the caller went away or
// the deadline passed) is returned as-is and recorded in the
// timeout/cancellation counters. Every call — hit, miss, collapsed, or
// failed — emits exactly one wide event through the configured logger.
func (s *Server) Run(ctx context.Context, req QueryRequest) (*Answer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	ans, outcome, err := s.runCached(ctx, &req)
	s.emitQueryEvent(ctx, req, ans, outcome, time.Since(start), err)
	return ans, err
}

// runCached is Run's cache/singleflight machinery; it additionally
// reports which cache outcome the caller experienced (for the wide
// event): "hit", "miss" (executed, cacheable), "collapsed" (rode another
// caller's execution), or "bypass" (executed outside the cache — traced
// request or caching disabled).
func (s *Server) runCached(ctx context.Context, req *QueryRequest) (*Answer, string, error) {
	agg, err := req.normalize(s)
	if err != nil {
		return nil, wideevent.CacheBypass, err
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	snap := s.snapshot()
	asOf := req.AsOf != 0 && req.AsOf != snap.gen
	if asOf {
		// Time travel: swap the execution snapshot for the retained
		// generation. The cache key below is built from the entry's
		// generation, so a still-resident live answer from that
		// generation serves this query byte-identically.
		entry, oldest, ok := s.retained(req.AsOf)
		if !ok {
			return nil, wideevent.CacheBypass,
				fmt.Errorf("as_of generation %d is not retained (oldest retained is %d, live is %d)",
					req.AsOf, oldest, snap.gen)
		}
		s.metrics.asOfQueries.Add(1)
		snap = snapshot{gen: entry.gen, engine: entry.engine}
	}

	key := req.cacheKey(snap.gen)
	if s.cache != nil {
		if ans, ok := s.cache.get(key); ok {
			if asOf {
				s.metrics.asOfHits.Add(1)
			}
			s.metrics.hits.Add(1)
			s.metrics.hist("cache").observe(0)
			hit := *ans
			hit.Cached = true
			// The cached answer's execution-scoped fields describe the
			// run that populated the cache, not this hit.
			hit.traceID, hit.slow, hit.breakdown = "", false, nil
			if req.Trace {
				rec := trace.New()
				rec.Emit(trace.KindCacheHit, len(hit.Results), 0, "served from result cache")
				hit.Trace = &TraceOut{ID: rec.ID(), Events: rec.Snapshot().Events}
				hit.traceID = rec.ID()
			}
			return &hit, wideevent.CacheHit, nil
		}
	}

	if req.Trace {
		// A trace narrates one concrete execution, so a traced miss
		// neither joins the singleflight collapse (a shared answer's
		// trace would describe someone else's run) nor lands in the
		// cache (replaying a stale timeline as if it just happened).
		ans, err := s.execute(ctx, *req, agg, snap)
		if err != nil {
			s.metrics.noteQueryAborted(err)
			return nil, wideevent.CacheBypass, err
		}
		s.metrics.misses.Add(1)
		return ans, wideevent.CacheBypass, nil
	}

	run := func() (*Answer, error) {
		return s.execute(ctx, *req, agg, snap)
	}
	ans, err, shared := s.flight.do(ctx, key, run)
	// A shared context error means the caller that executed the flight was
	// cancelled — not necessarily us (our own expiry mid-wait yields
	// ctx.Err() != nil and falls through). Live callers retry through the
	// flight group, so all survivors of an abandoned flight collapse onto
	// one re-execution instead of stampeding the engine; after repeated
	// leader cancellations, fall back to executing directly.
	for retries := 0; shared && isContextErr(err) && ctx.Err() == nil && retries < 2; retries++ {
		ans, err, shared = s.flight.do(ctx, key, run)
	}
	if shared && isContextErr(err) && ctx.Err() == nil {
		ans, err = run()
		shared = false
	}
	if err != nil {
		s.metrics.noteQueryAborted(err)
		return nil, wideevent.CacheBypass, err
	}
	if shared {
		s.metrics.collapsed.Add(1)
		return ans, wideevent.CacheCollapsed, nil
	}
	s.metrics.misses.Add(1)
	if s.cache == nil {
		return ans, wideevent.CacheBypass, nil
	}
	s.cache.put(key, ans)
	return ans, wideevent.CacheMiss, nil
}

// emitQueryEvent renders one query's canonical wide event: the full
// dimensional story (trace id, algorithm, fan-out, cache outcome, bytes,
// duration, status) in a single slog record, escalated to WARN when the
// execution crossed the slow-query threshold and ERROR when it failed.
func (s *Server) emitQueryEvent(ctx context.Context, req QueryRequest, ans *Answer, outcome string,
	dur time.Duration, err error) {

	ev := wideevent.Query{
		Algo: req.Algorithm, Agg: req.Aggregate, K: req.K,
		Cache: outcome, Duration: dur, Status: wideevent.StatusOK,
	}
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		ev.Status, ev.Err = wideevent.StatusTimeout, err.Error()
	case errors.Is(err, context.Canceled):
		ev.Status, ev.Err = wideevent.StatusCanceled, err.Error()
	default:
		ev.Status, ev.Err = wideevent.StatusError, err.Error()
	}
	if ans != nil {
		ev.TraceID = ans.traceID
		ev.Algo = ans.Algorithm
		ev.Generation = ans.Generation
		ev.Results = len(ans.Results)
		ev.Evaluated = ans.Stats.Evaluated
		ev.Truncated = ans.Truncated
		ev.Bytes = entrySize("", ans)
		ev.Slow = ans.slow
		if bd := ans.breakdown; bd != nil {
			ev.Shards = bd.Shards
			ev.ShardsCut = bd.ShardsCut
			ev.LambdaRaises = bd.LambdaRaises
			ev.LambdaPrimed = bd.LambdaPrimed
			ev.PartialBatches = bd.PartialBatches
			ev.Messages = bd.Messages
			ev.BudgetRedist = bd.BudgetRedistributed
			ev.GrantRequests = bd.GrantRequests
		}
	}
	if ev.TraceID == "" {
		// Untraced paths (hits, plain misses with tracing off) still get
		// a non-empty id so the event is greppable and correlatable.
		ev.TraceID = trace.NewID()
	}
	ev.Log(ctx, s.log)
}

// isContextErr reports whether err is (or wraps) a context cancellation
// or deadline error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// execute runs the query against the live view (SUM/AVG/COUNT under
// "auto" or "view" at the live generation — see runView), or else against
// the snapshot's immutable engine or its pinned shard set. Every answer is
// computed at snap.gen: callers key caches and collapsed flights by it.
func (s *Server) execute(ctx context.Context, req QueryRequest, agg core.Aggregate, snap snapshot) (*Answer, error) {
	ans := &Answer{Generation: snap.gen, Algorithm: req.Algorithm}
	start := time.Now()

	// One recorder per traced execution. SlowQuery > 0 and a configured
	// OTLP exporter both trace every execution so a slow one can explain
	// itself after the fact; plain requests with all knobs off keep
	// q.Tracer nil and pay nothing.
	var rec *trace.Recorder
	if req.Trace || s.opts.SlowQuery > 0 || s.opts.TraceExporter != nil {
		rec = trace.New()
		if req.Trace {
			rec.Emit(trace.KindCacheMiss, 0, 0, "executing")
		}
	}

	// The routing rule: what the view maintains, the view answers. Every
	// write already repaired it, so a live SUM/AVG/COUNT read is one O(n)
	// scan instead of a traversal per candidate.
	if snap.view != nil && (req.Algorithm == algoView || req.Algorithm == "auto" && snap.view.Maintains(agg)) {
		served, err := s.runView(ctx, req, agg, snap, rec, ans)
		if err != nil {
			return nil, err
		}
		if served {
			s.finishExecute(ans, req, rec, start)
			return ans, nil
		}
		// A write got in between the snapshot and the scan. The cache key
		// and any collapsed waiters are bound to snap.gen, so answer from
		// the snapshot's engine, which is immutable at that generation.
	}

	q := core.Query{K: req.K, Aggregate: agg, Candidates: req.Candidates, Budget: req.Budget, Tracer: rec}
	if req.Algorithm != "auto" && req.Algorithm != algoView {
		q.Algorithm, _ = ParseAlgorithm(req.Algorithm) // validated in normalize
		q.Options = core.Options{Workers: s.opts.Workers}
	}
	res, err := s.dispatch(ctx, snap, ans, q)
	if err != nil {
		return nil, err
	}
	ans.Results, ans.Stats, ans.Truncated = res.Results, res.Stats, res.Truncated
	if q.Algorithm == core.AlgoAuto {
		// AlgoAuto delegates to the planner; the engine memoizes the
		// decision per instance, and each generation is a fresh WithScores
		// engine, so the plan's O(n) statistics scan runs once per
		// (generation, aggregate), not per cold query. When sharded, each
		// shard engine plans for its own score distribution.
		ans.Planned = true
		if res.Plan != nil {
			ans.Algorithm = res.Plan.Algorithm.String()
			ans.Reason = res.Plan.Reason
		}
	} else {
		// Report core's canonical name so explicitly requested and
		// planner-chosen runs share one latency histogram per algorithm.
		ans.Algorithm = q.Algorithm.String()
	}

	s.finishExecute(ans, req, rec, start)
	return ans, nil
}

// viewReason is the plan rationale a view-routed "auto" answer carries.
const viewReason = "live generation: the materialized view already holds this aggregate for every node"

// runView answers from the materialized view, provided the live
// generation is still the one the caller snapshotted. The view is mutated
// in place by write batches, so the scan holds the read lock (View's
// documented RWMutex discipline); served=false means a write advanced the
// generation first and nothing was computed. Sharding never applies here:
// the view is a whole-graph structure answering with one O(n) scan, and
// the scan performs no traversals for a budget to cap.
func (s *Server) runView(ctx context.Context, req QueryRequest, agg core.Aggregate, snap snapshot,
	rec *trace.Recorder, ans *Answer) (served bool, err error) {

	s.mu.RLock()
	if s.gen != snap.gen {
		s.mu.RUnlock()
		return false, nil
	}
	ans.Algorithm = algoView
	if req.Algorithm == "auto" {
		ans.Planned, ans.Reason = true, viewReason
		rec.Emit(trace.KindPlan, 0, 0, algoView+": "+viewReason)
	}
	scanStart := time.Now()
	res, err := snap.view.Run(ctx, core.Query{K: req.K, Aggregate: agg, Candidates: req.Candidates})
	s.mu.RUnlock()
	if err != nil {
		return false, err
	}
	rec.Span(trace.KindExec, scanStart, len(res.Results), 0, "materialized view scan")
	ans.Results = res.Results
	return true, nil
}

// finishExecute settles one execution's timing, metrics, slow flag, and
// trace assembly/export — the common tail of every execute path.
func (s *Server) finishExecute(ans *Answer, req QueryRequest, rec *trace.Recorder, start time.Time) {
	elapsed := time.Since(start)
	ans.ElapsedUS = elapsed.Microseconds()
	if ans.Results == nil {
		ans.Results = []core.Result{}
	}
	s.metrics.recordQuery(ans.Algorithm, elapsed, ans.Stats)
	s.metrics.window.observe(elapsed, s.opts.SLO.enabled() && elapsed > s.opts.SLO.Latency)
	if s.opts.SlowQuery > 0 && elapsed >= s.opts.SlowQuery {
		s.metrics.slowQueries.Add(1)
		ans.slow = true
	}
	if rec != nil {
		ans.traceID = rec.ID()
		if req.Trace {
			ans.Trace = &TraceOut{ID: rec.ID(), Events: rec.Snapshot().Events, PerShard: ans.perShard}
		}
		if exp := s.opts.TraceExporter; exp != nil {
			exp.Export(otlp.FromTrace(rec.Snapshot(), otlp.Meta{
				RootName: "lona.query",
				Attrs: []otlp.KeyValue{
					otlp.Str("lona.algorithm", ans.Algorithm),
					otlp.Str("lona.aggregate", req.Aggregate),
					otlp.Int("lona.k", int64(req.K)),
					otlp.Int("lona.generation", int64(ans.Generation)),
				},
			}), ans.slow)
		}
	}
}

// dispatch runs an engine query on the snapshot: through the cluster
// coordinator's fan-out when the server is sharded (recording the
// distributed-execution counters), directly on the whole-graph engine
// otherwise. Either path returns the same byte-identical answer — that
// is the cluster package's core guarantee.
func (s *Server) dispatch(ctx context.Context, snap snapshot, ans *Answer, q core.Query) (core.Answer, error) {
	if snap.cl == nil {
		return snap.engine.Run(ctx, q)
	}
	res, bd, err := snap.cl.coord.RunOn(ctx, snap.qv, q)
	if err != nil {
		// A non-context failure mid-fan-out is where shard drift shows
		// up: probe the workers' health and name the divergence instead
		// of failing opaquely.
		if !isContextErr(err) {
			s.warnShardHealth(ctx, snap, q.Tracer.ID())
		}
		return core.Answer{}, err
	}
	ans.Shards = snap.cl.shards
	ans.perShard = bd.PerShard
	ans.breakdown = &bd
	s.metrics.clusterMessages.Add(bd.Messages)
	s.metrics.shardsCut.Add(int64(bd.ShardsCut))
	s.metrics.partialBatches.Add(bd.PartialBatches)
	s.metrics.budgetRedistributed.Add(int64(bd.BudgetRedistributed))
	s.metrics.lambdaRaises.Add(int64(bd.LambdaRaises))
	s.metrics.lambdaPerQuery.observeValue(int64(bd.LambdaRaises))
	if bd.LambdaPrimed > 0 {
		s.metrics.lambdaPrimed.Add(1)
	}
	s.metrics.grantRequests.Add(bd.GrantRequests)
	for _, r := range bd.PerShard {
		if !r.Launched {
			continue
		}
		s.metrics.shardQueries.Add(1)
		s.metrics.shardItems.observeValue(int64(r.Items))
		if r.Shard < len(snap.cl.hists) {
			d := time.Duration(r.ElapsedUS) * time.Microsecond
			snap.cl.hists[r.Shard].observe(d)
			snap.cl.windows[r.Shard].observe(d, false)
		}
	}
	return res, nil
}

// warnShardHealth probes the shard workers after a failed fan-out and
// emits a wide warn event for every shard that is unreachable or whose
// generation diverged from the coordinator's — the opaque "query failed
// mid-fan-out" turned into an actionable per-shard story. Transports
// without health reporting (in-process shards share the coordinator's
// state by construction) are skipped.
func (s *Server) warnShardHealth(ctx context.Context, snap snapshot, traceID string) {
	prober, ok := snap.cl.coord.Transport().(cluster.HealthProber)
	if !ok {
		return
	}
	if traceID == "" {
		traceID = trace.NewID()
	}
	pctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, r := range prober.ProbeHealth(pctx) {
		switch {
		case r.Err != nil:
			wideevent.ShardWarn{
				TraceID: traceID, Shard: r.Shard, WantGen: snap.gen,
				Detail: "health probe failed: " + r.Err.Error(),
			}.Log(ctx, s.log)
		case r.Generation != snap.gen:
			wideevent.ShardWarn{
				TraceID: traceID, Shard: r.Shard, WantGen: snap.gen, GotGen: r.Generation,
				Detail: "worker generation diverged from coordinator",
			}.Log(ctx, s.log)
		}
	}
}

// ScoreUpdate is one relevance mutation of an update batch.
type ScoreUpdate struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// UpdateResult reports what an applied batch did.
type UpdateResult struct {
	Generation uint64 `json:"generation"` // generation after the batch
	Applied    int    `json:"applied"`    // mutations applied
	Touched    int    `json:"touched"`    // aggregates repaired in the view (0 when engine-only)
	ElapsedUS  int64  `json:"elapsed_us"`
}

// ApplyUpdates applies a score batch atomically: the batch is validated up
// front, then applied under the write lock; the engine is rebuilt on a
// snapshot of the new scores and the generation is bumped, implicitly
// invalidating every cached result. Queries already in flight finish
// against the previous generation's engine.
func (s *Server) ApplyUpdates(updates []ScoreUpdate) (res *UpdateResult, err error) {
	start := time.Now()
	defer func() {
		var gen uint64
		if res != nil {
			gen = res.Generation
		}
		s.emitEditEvent(len(updates), 0, "scores", gen, time.Since(start), err)
	}()
	if len(updates) == 0 {
		return nil, errors.New("empty update batch")
	}
	n := s.numNodes() // node ids only grow, so pre-lock validation stays sound
	for i, u := range updates {
		if u.Node < 0 || u.Node >= n {
			return nil, fmt.Errorf("update %d: node %d out of range [0,%d)", i, u.Node, n)
		}
		if math.IsNaN(u.Score) || u.Score < 0 || u.Score > 1 {
			return nil, fmt.Errorf("update %d: score %v outside [0,1]", i, u.Score)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	// Propagate to the shards first, while local state is still at the
	// old generation: if a remote worker rejects the batch the server
	// aborts cleanly un-mutated. The HTTP fan-out is not transactional —
	// a mid-batch worker crash leaves earlier workers updated and this
	// server at the old generation; re-sending the (idempotent) batch
	// converges. In-process shards swap atomically and cannot fail after
	// the upfront validation. The deadline matters: this runs under the
	// write lock, so a wedged worker must fail the batch, not wedge every
	// query snapshot behind it.
	if s.cl != nil {
		batch := make([]cluster.ScoreUpdate, len(updates))
		for i, u := range updates {
			batch[i] = cluster.ScoreUpdate{Node: u.Node, Score: u.Score}
		}
		fanCtx, cancel := context.WithTimeout(context.Background(), shardUpdateTimeout)
		err := s.cl.coord.Transport().ApplyScores(fanCtx, batch)
		cancel()
		if err != nil {
			// With a journal configured, a failed leg is often a worker
			// that restarted and fell behind: catch it up by replaying the
			// journal suffix it lacks, then re-send this batch once.
			// Re-applying score writes is value-idempotent, so workers
			// whose first leg did land converge to the same scores.
			err = s.catchUpAndRetry(fmt.Errorf("shard update fan-out: %w", err),
				func(ctx context.Context) error {
					return s.cl.coord.Transport().ApplyScores(ctx, batch)
				})
			if err != nil {
				return nil, err
			}
		}
	}

	res, err = s.applyScoresLocked(updates)
	if err != nil {
		return nil, err
	}
	// Journal after the apply succeeded, so the log never records a batch
	// the server rejected. An append failure is surfaced as a batch error
	// even though the in-memory state advanced: the caller must know its
	// mutation is not durable.
	if err := s.journalAppendLocked(journal.Commit{Gen: s.gen, Scores: journalScores(updates)}); err != nil {
		return nil, err
	}
	res.ElapsedUS = time.Since(start).Microseconds()
	return res, nil
}

// applyScoresLocked is the score-apply core shared by the live
// /v1/scores path and boot-time journal replay: view repair (or plain
// writes), engine rebuild, generation bump, retention. Caller holds the
// write lock (or exclusive access during New) and has validated the
// batch; shard fan-out and journaling stay with the caller.
func (s *Server) applyScoresLocked(updates []ScoreUpdate) (*UpdateResult, error) {
	res := &UpdateResult{Applied: len(updates)}
	var newScores []float64
	if s.view != nil {
		for _, u := range updates {
			touched, err := s.view.UpdateScore(u.Node, u.Score)
			if err != nil {
				// Unreachable after upfront validation; surface it anyway.
				return nil, err
			}
			res.Touched += touched
		}
		newScores = s.view.ScoresCopy()
	} else {
		newScores = append([]float64(nil), s.engine.Scores()...)
		for _, u := range updates {
			newScores[u.Node] = u.Score
		}
	}

	engine, err := s.engine.WithScores(newScores)
	if err != nil {
		return nil, err
	}
	s.engine = engine
	s.gen++
	res.Generation = s.gen
	s.metrics.updates.Add(1)
	s.metrics.mutations.Add(int64(len(updates)))
	s.retainGeneration()
	return res, nil
}

// journalScores converts a wire batch to journal form.
func journalScores(updates []ScoreUpdate) []journal.ScoreUpdate {
	out := make([]journal.ScoreUpdate, len(updates))
	for i, u := range updates {
		out[i] = journal.ScoreUpdate{Node: u.Node, Score: u.Score}
	}
	return out
}

// journalAppendLocked durably records one applied batch; a no-op
// without a configured journal. Caller holds the write lock.
func (s *Server) journalAppendLocked(c journal.Commit) error {
	j := s.opts.Journal
	if j == nil {
		return nil
	}
	if err := j.Append(c); err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	s.metrics.journalAppends.Add(1)
	return nil
}

// replayCommit applies one journal commit during New, following the
// journal's generation numbering. Exclusive access (pre-serving).
func (s *Server) replayCommit(c journal.Commit) error {
	if len(c.Edits) > 0 {
		if _, err := s.applyEditsLocked(context.Background(), c.Edits, nil, nil); err != nil {
			return err
		}
	} else {
		n := s.g.NumNodes()
		updates := make([]ScoreUpdate, len(c.Scores))
		for i, u := range c.Scores {
			if u.Node < 0 || u.Node >= n {
				return fmt.Errorf("score update for node %d outside [0,%d)", u.Node, n)
			}
			if math.IsNaN(u.Score) || u.Score < 0 || u.Score > 1 {
				return fmt.Errorf("score %v for node %d outside [0,1]", u.Score, u.Node)
			}
			updates[i] = ScoreUpdate{Node: u.Node, Score: u.Score}
		}
		if _, err := s.applyScoresLocked(updates); err != nil {
			return err
		}
	}
	if s.gen != c.Gen {
		// The apply helpers advance one generation per batch; journals
		// are appended the same way, so the numbering must line up.
		return fmt.Errorf("replay produced generation %d, journal says %d (snapshot from a different lineage?)", s.gen, c.Gen)
	}
	s.metrics.journalReplayed.Add(1)
	return nil
}

// retainGeneration pushes the current generation onto the retention
// ring and trims it to the configured depth. Caller holds the write
// lock (or exclusive access during New).
func (s *Server) retainGeneration() {
	s.ring = append(s.ring, genEntry{gen: s.gen, engine: s.engine})
	if over := len(s.ring) - s.opts.RetainGenerations; over > 0 {
		// Slide rather than re-slice so retired engines drop their
		// references and can be collected.
		copy(s.ring, s.ring[over:])
		for i := len(s.ring) - over; i < len(s.ring); i++ {
			s.ring[i] = genEntry{}
		}
		s.ring = s.ring[:len(s.ring)-over]
	}
}

// retained looks up a retained generation (including the live one).
// The second result names the oldest retained generation for error
// messages; ok=false when gen is outside the ring.
func (s *Server) retained(gen uint64) (entry genEntry, oldest uint64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.ring) == 0 {
		return genEntry{}, 0, false
	}
	oldest = s.ring[0].gen
	for i := range s.ring {
		if s.ring[i].gen == gen {
			return s.ring[i], oldest, true
		}
	}
	return genEntry{}, oldest, false
}

// EditRequest is one structural mutation of a /v1/edges batch. Op is a
// graph.EditOp wire name: "add-edge", "remove-edge", or "add-node" (U
// and V are ignored for add-node; the new node's id is the node count at
// the point the edit applies, so later edits in the batch can wire it).
type EditRequest struct {
	Op string `json:"op"`
	U  int    `json:"u,omitempty"`
	V  int    `json:"v,omitempty"`
}

// EditsResult reports what an applied edit batch did.
type EditsResult struct {
	Generation   uint64 `json:"generation"`    // generation after the batch
	NodesAdded   int    `json:"nodes_added"`   // nodes appended (relevance 0)
	EdgesAdded   int    `json:"edges_added"`   // inserts that were not duplicates
	EdgesRemoved int    `json:"edges_removed"` // removals that hit a real edge
	Repaired     int    `json:"repaired"`      // nodes whose index/view state was recomputed
	Rebuilt      bool   `json:"rebuilt"`       // the view took the from-scratch rebuild path
	Nodes        int    `json:"nodes"`         // post-batch graph shape
	Edges        int    `json:"edges"`
	ElapsedUS    int64  `json:"elapsed_us"`
}

// ApplyEdits applies a structural edit batch atomically: the batch is
// validated by deriving the successor graph up front (any invalid edit
// rejects the whole batch un-mutated), propagated to the shards, and then
// committed under the write lock — the materialized view repairs itself
// incrementally (only nodes whose h-hop neighborhood changed are
// recomputed), the engine is rebuilt over the successor graph adopting
// the incrementally repaired neighborhood index, and the generation bump
// retires every cached answer. Queries already in flight finish against
// the generation they snapshotted.
//
// The differential index, whose entries parallel arc positions that any
// edit shifts, is dropped rather than repaired: the planner avoids
// Forward until a later explicit Forward query rebuilds it lazily — the
// same contract as a server started with SkipIndexes.
func (s *Server) ApplyEdits(reqs []EditRequest) (res *EditsResult, err error) {
	start := time.Now()
	// rec is declared up here so the wide-event defer below (and the
	// OTLP export) can see whatever recorder the body ends up creating.
	var rec *trace.Recorder
	defer func() {
		mode := "repair"
		var gen uint64
		if res != nil {
			gen = res.Generation
			if res.Rebuilt {
				mode = "rebuild"
			}
		}
		ev := s.emitEditEvent(0, len(reqs), mode, gen, time.Since(start), err)
		if exp := s.opts.TraceExporter; exp != nil && rec != nil {
			exp.Export(otlp.FromTrace(rec.Snapshot(), otlp.Meta{
				RootName: "lona.edits",
				Attrs: []otlp.KeyValue{
					otlp.Str("lona.edit_mode", mode),
					otlp.Int("lona.edits", int64(len(reqs))),
				},
			}), ev.Slow)
		}
	}()
	if len(reqs) == 0 {
		return nil, errors.New("empty edit batch")
	}
	edits := make([]graph.Edit, len(reqs))
	for i, r := range reqs {
		op, err := graph.ParseEditOp(r.Op)
		if err != nil {
			return nil, fmt.Errorf("edit %d: %w", i, err)
		}
		edits[i] = graph.Edit{Op: op, U: r.U, V: r.V}
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	// When shards must be notified, or there is no view to do it for us,
	// validate by deriving the successor up front — pure with respect to
	// server state, so any rejection leaves everything (including the
	// not-yet-notified shards) at the old generation. In the common
	// unsharded-undirected case this derivation is skipped: the view's
	// own ApplyEdits validates and derives exactly once.
	var newG *graph.Graph
	var delta *graph.EditDelta
	if s.cl != nil || s.view == nil {
		var err error
		if newG, delta, err = s.g.ApplyEdits(edits); err != nil {
			return nil, err
		}
	}

	// Propagate to the shards while local state is still old, mirroring
	// ApplyUpdates: in-process shard sets swap atomically; the HTTP
	// fan-out is not transactional, but re-sending the identical batch
	// converges — it keeps its sequence number, so workers that already
	// applied it answer idempotently.
	if s.cl != nil {
		fanCtx, cancel := context.WithTimeout(context.Background(), shardUpdateTimeout)
		err := s.cl.coord.Transport().ApplyEdits(fanCtx, edits)
		cancel()
		if err != nil {
			// Journal catch-up then one re-send, mirroring ApplyUpdates.
			// The batch keeps its sequence number across the retry, so
			// workers that already applied it answer idempotently.
			err = s.catchUpAndRetry(fmt.Errorf("shard edit fan-out: %w", err),
				func(ctx context.Context) error {
					return s.cl.coord.Transport().ApplyEdits(ctx, edits)
				})
			if err != nil {
				return nil, err
			}
		}
	}

	// With slow-query escalation or OTLP export on, carry a recorder
	// through the view's repair-vs-rebuild decision so a pathological
	// batch can explain itself in the exported trace.
	ectx := context.Background()
	if s.opts.SlowQuery > 0 || s.opts.TraceExporter != nil {
		rec = trace.New()
		ectx = trace.NewContext(ectx, rec)
	}
	res, err = s.applyEditsLocked(ectx, edits, newG, delta)
	if err != nil {
		return nil, err
	}
	// Journal after the apply succeeded (see ApplyUpdates): an append
	// failure surfaces as a batch error so the caller knows the mutation
	// is not durable.
	if err := s.journalAppendLocked(journal.Commit{Gen: s.gen, Edits: edits}); err != nil {
		return nil, err
	}
	res.ElapsedUS = time.Since(start).Microseconds()
	return res, nil
}

// applyEditsLocked is the edit-apply core shared by the live /v1/edges
// path and boot-time journal replay: view (or engine-only) repair,
// generation bump, retention. newG/delta may carry the caller's upfront
// successor derivation for the engine-only path (nil = derive here);
// the view path always derives its own, deterministically equal. Caller
// holds the write lock (or exclusive access during New); shard fan-out
// and journaling stay with the caller.
func (s *Server) applyEditsLocked(ectx context.Context, edits []graph.Edit,
	newG *graph.Graph, delta *graph.EditDelta) (*EditsResult, error) {

	res := &EditsResult{}
	h := s.engine.H()
	var engine *core.Engine
	if s.view != nil {
		// The view derives the successor itself (deterministically equal
		// to any pre-derivation above) and repairs its aggregates and
		// N(v) index incrementally; the server adopts the view's graph
		// instance and repaired index so view and engine share one
		// topology.
		viewRes, err := s.view.ApplyEdits(ectx, edits)
		if err != nil {
			return nil, err
		}
		res.NodesAdded = viewRes.NodesAdded
		res.EdgesAdded = viewRes.EdgesAdded
		res.EdgesRemoved = viewRes.EdgesRemoved
		res.Repaired = viewRes.Repaired
		res.Rebuilt = viewRes.Rebuilt
		newG = s.view.Graph()
		engine, err = core.NewEngine(newG, s.view.ScoresCopy(), h)
		if err != nil {
			return nil, err
		}
		if err := engine.AdoptNeighborhoodIndex(s.view.NeighborhoodIndex()); err != nil {
			return nil, err
		}
	} else {
		// Directed graphs serve engine-only; added nodes start unscored.
		if newG == nil {
			var err error
			if newG, delta, err = s.g.ApplyEdits(edits); err != nil {
				return nil, err
			}
		}
		res.NodesAdded = delta.NodesAdded
		res.EdgesAdded = delta.EdgesAdded
		res.EdgesRemoved = delta.EdgesRemoved
		scores := append([]float64(nil), s.engine.Scores()...)
		for len(scores) < newG.NumNodes() {
			scores = append(scores, 0)
		}
		var err error
		engine, err = core.NewEngine(newG, scores, h)
		if err != nil {
			return nil, err
		}
		if s.engine.HasNeighborhoodIndex() {
			affected := graph.AffectedNodes(s.g, newG, delta, h)
			nix := s.engine.PrepareNeighborhoodIndex(s.opts.Workers).Repair(newG, affected, s.opts.Workers)
			if err := engine.AdoptNeighborhoodIndex(nix); err != nil {
				return nil, err
			}
			res.Repaired = len(affected)
		}
	}

	s.g = newG
	s.engine = engine
	s.gen++
	res.Generation = s.gen
	res.Nodes, res.Edges = newG.NumNodes(), newG.NumEdges()
	s.metrics.editBatches.Add(1)
	s.metrics.edgesAdded.Add(int64(res.EdgesAdded))
	s.metrics.edgesRemoved.Add(int64(res.EdgesRemoved))
	s.metrics.nodesAdded.Add(int64(res.NodesAdded))
	s.metrics.editRepaired.Add(int64(res.Repaired))
	if res.Rebuilt {
		s.metrics.editRebuilds.Add(1)
	}
	s.retainGeneration()
	return res, nil
}

// emitEditEvent renders one edit/update batch's canonical wide event —
// the same escalation rules as queries: WARN past the slow threshold,
// ERROR on failure — and returns it so callers can reuse the settled
// slow flag. It also owns the slow-batch counter bump.
func (s *Server) emitEditEvent(updates, edits int, mode string, gen uint64,
	dur time.Duration, err error) wideevent.EditBatch {

	ev := wideevent.EditBatch{
		TraceID: trace.NewID(), Generation: gen, Edits: edits, Updates: updates,
		Mode: mode, Shards: s.Shards(), Duration: dur, Status: wideevent.StatusOK,
	}
	if err != nil {
		ev.Status, ev.Err = wideevent.StatusError, err.Error()
	}
	if s.opts.SlowQuery > 0 && dur >= s.opts.SlowQuery {
		ev.Slow = true
		s.metrics.slowQueries.Add(1)
	}
	ev.Log(context.Background(), s.log)
	return ev
}

// Stats snapshots the serving metrics.
func (s *Server) Stats() Stats {
	st := s.metrics.snapshot()
	s.mu.RLock()
	st.Generation = s.gen
	g := s.engine.Graph()
	st.Nodes, st.Edges, st.H = g.NumNodes(), int64(g.NumEdges()), s.engine.H()
	cl := s.cl
	s.mu.RUnlock()
	if s.cache != nil {
		st.Cache.Entries = s.cache.len()
		st.Cache.Bytes = s.cache.bytes()
		st.Cache.CapacityBytes = s.cache.capacityBytes()
	}
	if cl != nil {
		topology := cl.coord.Transport().Topology()
		cs := &ClusterStats{
			Shards:              cl.shards,
			Remote:              cl.remote,
			EdgeCut:             topology.EdgeCut,
			BoundaryNodes:       topology.BoundaryNodes,
			ShardQueries:        s.metrics.shardQueries.Load(),
			ShardsCut:           s.metrics.shardsCut.Load(),
			Messages:            s.metrics.clusterMessages.Load(),
			PartialBatches:      s.metrics.partialBatches.Load(),
			BudgetRedistributed: s.metrics.budgetRedistributed.Load(),
			LambdaRaises:        s.metrics.lambdaRaises.Load(),
			LambdaPrimed:        s.metrics.lambdaPrimed.Load(),
			GrantRequests:       s.metrics.grantRequests.Load(),
		}
		for i, h := range cl.hists {
			sl := ShardLatency{Shard: i, Latency: h.summary()}
			if i < len(topology.OwnedSizes) {
				sl.Owned = topology.OwnedSizes[i]
			}
			cs.PerShard = append(cs.PerShard, sl)
		}
		st.Cluster = cs
	}
	st.Snapshot = s.snapshotStats()
	st.Journal = s.journalStats()
	st.LatencyWindow = s.metrics.window.snapshot().summary()
	st.SLO = s.sloStats()
	if exp := s.opts.TraceExporter; exp != nil {
		es := exp.Stats()
		st.OTLP = &es
	}
	return st
}

// journalStats assembles the versioned-lake section of /v1/stats.
func (s *Server) journalStats() *JournalStats {
	js := &JournalStats{
		Appends:        s.metrics.journalAppends.Load(),
		Replayed:       s.metrics.journalReplayed.Load(),
		AsOfQueries:    s.metrics.asOfQueries.Load(),
		AsOfHits:       s.metrics.asOfHits.Load(),
		Catchups:       s.metrics.catchups.Load(),
		CatchupCommits: s.metrics.catchupCommits.Load(),
	}
	if j := s.opts.Journal; j != nil {
		js.Enabled = true
		js.Depth = j.Depth()
		js.LastGen = j.LastGen()
	}
	s.mu.RLock()
	js.Retained = len(s.ring)
	if len(s.ring) > 0 {
		js.OldestRetained = s.ring[0].gen
	}
	s.mu.RUnlock()
	return js
}

// ParseAggregate maps the wire name of an aggregate to core's enum; the
// names match cmd/lona's flags.
func ParseAggregate(name string) (core.Aggregate, error) {
	return core.ParseAggregate(name)
}

// ParseAlgorithm maps the wire name of an engine algorithm (including
// "auto") to core's enum. The serving-level "view" mode is handled before
// this point.
func ParseAlgorithm(name string) (core.Algorithm, error) {
	algo, err := core.ParseAlgorithm(name)
	if err != nil {
		return 0, fmt.Errorf("unknown algorithm %q (want auto, view, base, parallel, forward, forward-dist, backward, or backward-naive)", name)
	}
	return algo, nil
}
