// Command lonad serves top-k neighborhood aggregation queries over HTTP as
// a long-lived daemon: a cached, concurrent front-end to the LONA engine
// with live relevance updates, per-request deadlines, and graceful
// shutdown.
//
// Examples:
//
//	lonad -dataset collaboration -scale 0.5 -addr :8080
//	lonad -graph collab.graph -scores collab.scores -hops 2 -drain 5s
//
//	# boot from an mmap-ed columnar snapshot (lonagen -snapshot): graph,
//	# scores, and N(v) index map in with no rebuild, so cold start is O(ms)
//	lonad -snapshot collab.snap
//	lonad -snapshot collab.snap.shard0 -shard-worker -addr :9001
//
//	# one process, 4 partition-local engines:
//	lonad -dataset collaboration -shards 4
//
//	# one worker process per shard, plus a coordinator fanning out to them:
//	lonad -dataset collaboration -shards 2 -shard-worker -shard-index 0 -addr :9001
//	lonad -dataset collaboration -shards 2 -shard-worker -shard-index 1 -addr :9002
//	lonad -dataset collaboration -shard-peers http://localhost:9001,http://localhost:9002
//
// Endpoints (JSON):
//
//	POST /v1/topk    {"k":10,"aggregate":"sum","algorithm":"auto",
//	                  "timeout_ms":250,"budget":0,"candidates":[]}
//	POST /v1/scores  {"updates":[{"node":17,"score":0.9}]}
//	POST /v1/edges   {"edits":[{"op":"add-edge","u":17,"v":40},
//	                  {"op":"remove-edge","u":3,"v":9},{"op":"add-node"}]}
//	POST /v1/snapshot {"path":"collab.snap"}   (anchors the journal when -journal is set)
//	POST /v1/catchup (probe shard workers; replay the journal suffix to stragglers)
//	GET  /v1/stats
//	GET  /v1/health
//	GET  /metrics    (Prometheus text exposition)
//
// With -journal DIR every applied mutation batch is durably appended to
// an append-only commit journal; a restarted daemon replays the suffix
// past its boot state (the anchored snapshot when one exists) and
// reconstructs the current generation bit-identically. /v1/topk accepts
// "as_of":G to answer from a retained past generation; -journal-retain
// bounds the retained ring.
//
// The shard count (-shards, or the -shard-peers list) is fixed at boot;
// changing it means restarting the daemon.
//
// Observability: the daemon logs one structured "wide event" per query
// and edit batch via log/slog (-log json for machine-readable lines);
// "trace":true on /v1/topk returns the query's stitched execution
// timeline; -slow-query-ms N escalates the wide event of any execution
// at or over N milliseconds to WARN; -otlp-endpoint URL exports query
// traces as OTLP/JSON spans to a collector (Jaeger, Tempo), sampled by
// -otlp-sample with slow queries always kept; -slo-latency-ms with
// -slo-target tracks a rolling-window latency SLO whose burn rate flips
// /v1/health 200 → 503; -pprof ADDR serves net/http/pprof on a side
// listener, away from the query API.
//
// In -shard-worker mode the daemon instead serves the shard protocol
// (/v1/shard/query/stream, /v1/shard/bound, /v1/shard/scores,
// /v1/shard/edits, /v1/shard/replay, /v1/shard/health) for one partition
// of the dataset; dataset flags must
// match the coordinator's so every process derives the same partitioning
// — including across structural edit batches, which every process applies
// identically.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains
// in-flight requests for up to -drain, then cancels any queries still
// running (they abort cooperatively via context) and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers its handlers on DefaultServeMux for the -pprof side listener
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	lona "repro"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		graphPath  = flag.String("graph", "", "binary graph file (from lonagen), or a .gml file")
		scoresPath = flag.String("scores", "", "binary scores file (from lonagen)")
		snapPath   = flag.String("snapshot", "", "mmap-able columnar snapshot (from lonagen -snapshot); replaces -graph/-scores/-dataset")
		dataset    = flag.String("dataset", "", "generate instead of load: collaboration | citation | intrusion")
		scale      = flag.Float64("scale", 1.0, "dataset scale when generating")
		seed       = flag.Int64("seed", 20100301, "seed when generating")
		relKind    = flag.String("relevance", "mixture", "relevance when generating: mixture | binary")
		r          = flag.Float64("r", 0.01, "blacking ratio when generating")
		h          = flag.Int("hops", 2, "neighborhood radius h")
		cacheBytes = flag.Int64("cache-bytes", 16<<20, "result cache capacity in approximate bytes (<=0 disables)")
		workers    = flag.Int("workers", 0, "index-build/parallel-scan goroutines (0 = GOMAXPROCS)")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline for in-flight requests")

		shards      = flag.Int("shards", 1, "partition the network into this many shards (in-process engines, or parts for -shard-worker)")
		shardWorker = flag.Bool("shard-worker", false, "serve one shard of the -shards partitioning instead of the full query API")
		shardIndex  = flag.Int("shard-index", 0, "which shard this worker owns (with -shard-worker)")
		shardPeers  = flag.String("shard-peers", "", "comma-separated shard-worker base URLs, in shard-index order; queries fan out to them")

		journalDir    = flag.String("journal", "", "commit-journal directory: durably append every applied /v1/scores and /v1/edges batch and replay the suffix at boot; with an anchor from POST /v1/snapshot, boot resumes from that snapshot plus replay")
		journalRetain = flag.Int("journal-retain", 0, "generations kept resident for as_of time-travel queries (0 = default)")

		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); empty disables")
		slowQueryMS = flag.Int64("slow-query-ms", 0, "escalate the wide event of queries at or over this many milliseconds to WARN; 0 disables")

		logFormat    = flag.String("log", "text", "log line format: text | json (json emits machine-parseable wide events)")
		otlpEndpoint = flag.String("otlp-endpoint", "", "export query traces as OTLP/JSON to this collector base URL (POSTs to <url>/v1/traces); empty disables")
		otlpSample   = flag.Float64("otlp-sample", 1.0, "fraction of query traces exported in (0,1]; slow queries always export")
		sloLatencyMS = flag.Int64("slo-latency-ms", 0, "rolling-window latency objective in milliseconds; 0 disables SLO tracking")
		sloTarget    = flag.Float64("slo-target", 0.99, "fraction of window queries that must meet -slo-latency-ms")
	)
	flag.Parse()
	cfg := config{
		addr: *addr, graphPath: *graphPath, scoresPath: *scoresPath, snapshot: *snapPath,
		dataset: *dataset, scale: *scale, seed: *seed, relKind: *relKind, r: *r,
		h: *h, cacheBytes: *cacheBytes, workers: *workers, drain: *drain,
		shards: *shards, shardWorker: *shardWorker, shardIndex: *shardIndex,
		shardPeers: *shardPeers,
		journalDir: *journalDir, journalRetain: *journalRetain,
		pprofAddr: *pprofAddr, slowQuery: time.Duration(*slowQueryMS) * time.Millisecond,
		logFormat: *logFormat, otlpEndpoint: *otlpEndpoint, otlpSample: *otlpSample,
		sloLatency: time.Duration(*sloLatencyMS) * time.Millisecond, sloTarget: *sloTarget,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "lonad:", err)
		os.Exit(1)
	}
}

// config carries the parsed flag set.
type config struct {
	addr                  string
	graphPath, scoresPath string
	snapshot              string
	dataset               string
	scale                 float64
	seed                  int64
	relKind               string
	r                     float64
	h                     int
	cacheBytes            int64
	workers               int
	drain                 time.Duration
	shards                int
	shardWorker           bool
	shardIndex            int
	shardPeers            string
	journalDir            string
	journalRetain         int
	pprofAddr             string
	slowQuery             time.Duration
	logFormat             string
	otlpEndpoint          string
	otlpSample            float64
	sloLatency            time.Duration
	sloTarget             float64
}

// newLogger builds the daemon's structured logger: slog text lines for
// terminals (the default), JSON for log pipelines — where the server's
// per-query wide events become machine-parseable records.
func (c config) newLogger() (*slog.Logger, error) {
	switch c.logFormat {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("-log must be text or json, got %q", c.logFormat)
	}
}

// peerList splits -shard-peers into trimmed, non-empty URLs.
func (c config) peerList() []string {
	var peers []string
	for _, p := range strings.Split(c.shardPeers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

func run(cfg config) error {
	logger, err := cfg.newLogger()
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	peers := cfg.peerList()
	switch {
	case cfg.shardWorker && len(peers) > 0:
		return fmt.Errorf("-shard-worker and -shard-peers are mutually exclusive")
	case cfg.shards > 1 && len(peers) > 0:
		return fmt.Errorf("-shards %d and -shard-peers are mutually exclusive: a coordinator's shard count is its peer list's length", cfg.shards)
	case cfg.shardWorker && cfg.snapshot == "" && (cfg.shardIndex < 0 || cfg.shardIndex >= cfg.shards):
		return fmt.Errorf("-shard-index %d outside the %d-shard partitioning", cfg.shardIndex, cfg.shards)
	case cfg.shards < 1:
		return fmt.Errorf("-shards must be at least 1, got %d", cfg.shards)
	case cfg.snapshot != "" && (cfg.dataset != "" || cfg.graphPath != "" || cfg.scoresPath != ""):
		return fmt.Errorf("-snapshot replaces -dataset/-graph/-scores; pass one or the other")
	case cfg.otlpSample <= 0 || cfg.otlpSample > 1:
		return fmt.Errorf("-otlp-sample must be in (0,1], got %g", cfg.otlpSample)
	case cfg.sloLatency > 0 && (cfg.sloTarget <= 0 || cfg.sloTarget >= 1):
		return fmt.Errorf("-slo-target must be in (0,1), got %g", cfg.sloTarget)
	case cfg.shardWorker && cfg.journalDir != "":
		return fmt.Errorf("-journal applies to the coordinator (or single server); workers catch up from its journal via /v1/shard/replay")
	case cfg.journalRetain < 0:
		return fmt.Errorf("-journal-retain must be non-negative, got %d", cfg.journalRetain)
	}

	if cfg.snapshot == "" && cfg.journalDir != "" {
		// A journal anchored by a POST /v1/snapshot knows the fastest boot
		// source: resume from the anchored snapshot and replay only the
		// commits past its generation, rather than regenerating the dataset
		// and replaying the whole log.
		if a, ok, err := lona.ReadJournalAnchor(cfg.journalDir); err != nil {
			return err
		} else if ok {
			if cfg.dataset != "" || cfg.graphPath != "" {
				logger.Info("journal anchor overrides dataset flags", "snapshot", a.Snapshot)
			}
			cfg.snapshot = a.Snapshot
			cfg.dataset, cfg.graphPath, cfg.scoresPath = "", "", ""
			logger.Info("booting from journal anchor", "snapshot", a.Snapshot, "generation", a.Generation)
		}
	}

	var (
		g        *lona.Graph
		scores   []float64
		snap     *lona.SnapshotReader
		snapLoad time.Duration
	)
	if cfg.snapshot != "" {
		// The engine's slices alias the mapping, so the reader stays open
		// for the life of the process — never Close it here.
		t0 := time.Now()
		var err error
		snap, err = lona.OpenSnapshot(cfg.snapshot)
		if err != nil {
			return err
		}
		snapLoad = time.Since(t0)
		if snap.IsShard() && !cfg.shardWorker {
			return fmt.Errorf("%s is a shard snapshot (part %d of %d); serve it with -shard-worker",
				cfg.snapshot, snap.ShardIndex(), snap.Parts())
		}
		g, scores = snap.Graph(), snap.Scores()
		if cfg.h != snap.H() {
			logger.Warn("snapshot overrides -hops", "snapshot_h", snap.H(), "flag_h", cfg.h)
			cfg.h = snap.H()
		}
		logger.Info("snapshot mapped",
			"path", cfg.snapshot, "load_ms", snapLoad.Milliseconds(),
			"bytes", snap.Size(), "generation", snap.Generation())
	} else {
		var err error
		g, scores, err = loadOrGenerate(cfg.graphPath, cfg.scoresPath, cfg.dataset, cfg.scale, cfg.seed, cfg.relKind, cfg.r)
		if err != nil {
			return err
		}
	}
	logger.Info("network loaded", "nodes", g.NumNodes(), "edges", g.NumEdges(), "h", cfg.h)

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cfg.pprofAddr != "" {
		// A side listener so profiling never shares a port (or a mux) with
		// the query API. DefaultServeMux carries the pprof handlers via
		// the blank import above.
		go func() {
			logger.Info("pprof serving", "url", "http://"+cfg.pprofAddr+"/debug/pprof/")
			if err := http.ListenAndServe(cfg.pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}

	start := time.Now()
	var handler http.Handler
	var exp *lona.OTLPExporter
	switch {
	case cfg.shardWorker && snap != nil:
		// Worker mode from a shard snapshot: the partition closure, its
		// scores, and its N(v) index all map straight in. Snapshot-booted
		// workers serve queries and score updates but reject structural
		// edits, which need the full graph.
		handler, err = lona.NewShardWorkerHandlerFromSnapshot(snap)
		if err != nil {
			return err
		}
		logger.Info("shard worker ready",
			"shard", snap.ShardIndex(), "shards", snap.Parts(),
			"boot_ms", time.Since(start).Milliseconds(), "from", "snapshot")

	case cfg.shardWorker:
		// Worker mode: build just this process's shard of the shared
		// deterministic partitioning and serve the shard protocol.
		handler, err = lona.NewShardWorkerHandler(g, scores, cfg.h, cfg.shards, cfg.shardIndex)
		if err != nil {
			return err
		}
		logger.Info("shard worker ready",
			"shard", cfg.shardIndex, "shards", cfg.shards,
			"boot_ms", time.Since(start).Milliseconds(), "from", "build")

	default:
		cacheBytes := cfg.cacheBytes
		if cacheBytes <= 0 {
			cacheBytes = -1 // ServerOptions: negative disables, zero means default
		}
		opts := lona.ServerOptions{
			CacheBytes: cacheBytes, Workers: cfg.workers,
			SlowQuery:         cfg.slowQuery,
			Logger:            logger,
			SLO:               lona.ServerSLO{Latency: cfg.sloLatency, Target: cfg.sloTarget},
			RetainGenerations: cfg.journalRetain,
		}
		if cfg.journalDir != "" {
			// The journal stays open for the life of the process; the server
			// appends every applied batch and replayed the suffix at New.
			jnl, err := lona.OpenJournal(cfg.journalDir)
			if err != nil {
				return err
			}
			opts.Journal = jnl
			logger.Info("journal open", "dir", jnl.Dir(),
				"depth", jnl.Depth(), "last_generation", jnl.LastGen())
		}
		if cfg.otlpEndpoint != "" {
			exp = lona.NewOTLPExporter(cfg.otlpEndpoint, lona.OTLPExporterOptions{
				SampleRatio: cfg.otlpSample, Logger: logger,
			})
			opts.TraceExporter = exp
			logger.Info("otlp export enabled", "endpoint", cfg.otlpEndpoint, "sample", cfg.otlpSample)
		}
		if snap != nil {
			// Adopt the snapshot's N(v) index so the server skips the eager
			// rebuild, and record boot provenance for /v1/stats and /metrics.
			// POST /v1/snapshot with no body re-persists to the boot path.
			opts.Index = snap.Index()
			opts.SnapshotPath = cfg.snapshot
			opts.SnapshotSource = &lona.ServerSnapshotSource{
				Path: snap.Path(), ModTime: snap.ModTime(), Bytes: snap.Size(),
				Generation: snap.Generation(), LoadDuration: snapLoad,
			}
		}
		if len(peers) > 0 {
			opts.ShardWorkers = peers
		} else if cfg.shards > 1 {
			opts.Shards = cfg.shards
		}
		srv, err := lona.NewServer(g, scores, cfg.h, opts)
		if err != nil {
			return err
		}
		switch {
		case len(peers) > 0:
			logger.Info("server ready", "boot_ms", time.Since(start).Milliseconds(),
				"mode", "coordinator", "shard_workers", len(peers))
		case cfg.shards > 1:
			logger.Info("server ready", "boot_ms", time.Since(start).Milliseconds(),
				"mode", "sharded", "shards", cfg.shards)
		default:
			logger.Info("server ready", "boot_ms", time.Since(start).Milliseconds(),
				"mode", "single")
		}
		handler = srv.Handler()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.shardWorker {
		logger.Info("serving", "addr", ln.Addr().String(), "api", "shard protocol")
	} else {
		logger.Info("serving", "addr", ln.Addr().String(),
			"api", "/v1/topk /v1/scores /v1/edges /v1/catchup /v1/snapshot /v1/stats /v1/health /metrics")
	}
	err = serveUntilDone(sigCtx, logger, handler, ln, cfg.drain)
	if exp != nil {
		// Flush whatever the async exporter still holds queued; spans from
		// the last in-flight queries should reach the collector before exit.
		flushCtx, cancelFlush := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelFlush()
		if cerr := exp.Close(flushCtx); cerr != nil {
			logger.Warn("otlp exporter close", "error", cerr)
		}
	}
	return err
}

// serveUntilDone serves HTTP on ln until ctx is done (a termination
// signal), then shuts down gracefully: stop accepting, drain in-flight
// requests up to the drain deadline, and cancel whatever is still running
// — in-flight engine queries observe their request contexts and abort
// cooperatively — before force-closing.
func serveUntilDone(ctx context.Context, logger *slog.Logger, handler http.Handler, ln net.Listener, drain time.Duration) error {
	// Every request context derives from baseCtx; cancelling it aborts any
	// engine queries still running once the drain deadline has passed. The
	// shutdown mark lets handlers answer those with a retryable 503
	// instead of mistaking the cancellation for a client disconnect.
	var draining atomic.Bool
	baseCtx, cancelQueries := context.WithCancel(context.Background())
	baseCtx = lona.MarkServerShutdown(baseCtx, draining.Load)
	defer cancelQueries()
	httpSrv := &http.Server{
		Handler:     handler,
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	logger.Info("shutdown draining", "deadline", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := httpSrv.Shutdown(shutdownCtx)
	// Only now do cancellations mean "the server aborted you" (503); a
	// client that disconnected during the drain window itself still
	// classified as a client abandonment (499).
	draining.Store(true)
	cancelQueries()
	if err != nil {
		logger.Warn("shutdown drain deadline exceeded, aborting in-flight queries")
		// The cancelled queries return within a poll stride; give their
		// handlers a moment to flush the 503s before force-closing.
		flushCtx, cancelFlush := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancelFlush()
		if err := httpSrv.Shutdown(flushCtx); err != nil {
			_ = httpSrv.Close()
		}
	}
	if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	logger.Info("shutdown done")
	return nil
}

// loadOrGenerate mirrors cmd/lona's input handling so the two binaries
// accept the same dataset flags.
func loadOrGenerate(graphPath, scoresPath, dataset string, scale float64, seed int64,
	relKind string, r float64) (*lona.Graph, []float64, error) {

	if dataset != "" {
		var g *lona.Graph
		switch dataset {
		case "collaboration":
			g = lona.CollaborationNetwork(scale, seed)
		case "citation":
			g = lona.CitationNetwork(scale, seed)
		case "intrusion":
			g = lona.IntrusionNetwork(scale, seed)
		default:
			return nil, nil, fmt.Errorf("unknown dataset %q", dataset)
		}
		var scores []float64
		switch relKind {
		case "mixture":
			scores = lona.MixtureScores(g, r, seed+1)
		case "binary":
			scores = lona.BinaryScores(g.NumNodes(), r, seed+1)
		default:
			return nil, nil, fmt.Errorf("unknown relevance %q", relKind)
		}
		return g, scores, nil
	}

	if graphPath == "" || scoresPath == "" {
		return nil, nil, fmt.Errorf("pass either -dataset, or both -graph and -scores")
	}
	gf, err := os.Open(graphPath)
	if err != nil {
		return nil, nil, err
	}
	defer gf.Close()
	var g *lona.Graph
	if strings.HasSuffix(graphPath, ".gml") {
		g, _, err = lona.ReadGML(gf)
	} else {
		g, err = lona.ReadGraph(gf)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", graphPath, err)
	}
	sf, err := os.Open(scoresPath)
	if err != nil {
		return nil, nil, err
	}
	defer sf.Close()
	scores, err := lona.ReadScores(sf)
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", scoresPath, err)
	}
	return g, scores, nil
}
