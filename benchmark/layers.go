package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/partition"
	"repro/internal/server"
)

// The traced pass. It runs in this process, on one goroutine, and times
// calls into each module's public functions from outside: for every request
// of the cycle it climbs a ladder — HTTP round trip, handler, Server.Run,
// Engine.Run — and a rung's self time is its duration minus the rung below
// it. Spans inside lonad are a later change; until then a layer's share is
// what these differences say.

// span is one timed call. Spans of one request share Req; Parent names the
// rung that contains this one.
type span struct {
	Name   string  `json:"name"`
	Req    int     `json:"req"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// time runs f and returns how long it took in microseconds, recording a
// span when tracing is on.
func (t *tracer) time(name string, req int, parent string, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	if t.on {
		t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent,
			Start: us(start.Sub(t.t0)), End: us(end.Sub(t.t0))})
	}
	return us(end.Sub(start))
}

// layers is the state of one traced pass.
type layers struct {
	cfg runConfig
	in  *inputs
	tr  *tracer
	ctx context.Context

	m        map[string]float64            // the per_layer rows
	perShape map[string]map[string]float64 // rung → shape → µs; trace.json only
	err      error                         // first failure of a timed call

	nix    *graph.NeighborhoodIndex
	engine *core.Engine
	view   *core.View

	engineUS   map[shape]float64 // warmed Engine.Run per shape
	engineEval map[shape]int
}

func (l *layers) fail(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

func (l *layers) shapeValue(rung string, s shape, v float64) {
	if l.perShape[rung] == nil {
		l.perShape[rung] = map[string]float64{}
	}
	l.perShape[rung][s.String()] = v
}

// runLayers produces every per_layer metric and writes trace.json.
func runLayers(cfg runConfig, in *inputs, e *e2e, tracePath string) (map[string]float64, error) {
	l := &layers{
		cfg: cfg, in: in, ctx: context.Background(),
		tr:         &tracer{on: true, t0: time.Now()},
		m:          map[string]float64{},
		perShape:   map[string]map[string]float64{},
		engineUS:   map[shape]float64{},
		engineEval: map[shape]int{},
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"core+graph", l.coreAndGraph},
		{"server reads", l.serverReads},
		{"writes", l.writes},
		{"cluster", l.clusterLadder},
	}
	for _, s := range steps {
		t0 := time.Now()
		if err := s.run(); err != nil {
			return nil, fmt.Errorf("traced pass, %s: %w", s.name, err)
		}
		if l.err != nil {
			return nil, fmt.Errorf("traced pass, %s: %w", s.name, l.err)
		}
		fmt.Fprintf(cfg.log, "  [trace] %s: %.1fs\n", s.name, time.Since(t0).Seconds())
	}
	l.fromInputs()
	l.fromWindow(e)
	return l.m, l.writeTrace(tracePath)
}

func (l *layers) query(s shape) core.Query {
	agg, err := core.ParseAggregate(s.Agg)
	l.fail(err)
	q := core.Query{K: s.K, Aggregate: agg}
	if s.Cand {
		q.Candidates = l.in.candidates
	}
	return q
}

func (l *layers) request(s shape) server.QueryRequest {
	req := server.QueryRequest{K: s.K, Aggregate: s.Agg}
	if s.View {
		req.Algorithm = "view"
	}
	if s.Cand {
		req.Candidates = l.in.candidates
	}
	return req
}

// coreAndGraph times the index builds, the traversal kernel, and the
// engine, planner and view on every shape of the cycle.
func (l *layers) coreAndGraph() error {
	g, scores := l.in.g, l.in.scores
	var err error
	if l.engine, err = core.NewEngine(g, scores, hops); err != nil {
		return err
	}
	l.m["graph.build_nix_us"] = l.tr.time("graph.build_nix", -1, "", func() { l.nix = l.engine.PrepareNeighborhoodIndex(0) })
	l.m["graph.build_dix_us"] = l.tr.time("graph.build_dix", -1, "", func() { l.engine.PrepareDifferentialIndex(0) })
	l.m["core.new_view_us"] = l.tr.time("core.new_view", -1, "", func() { l.view, err = core.NewView(g, scores, hops) })
	if err != nil {
		return err
	}

	// The h-hop expansion every algorithm is made of, per visited node.
	rng := rand.New(rand.NewSource(l.cfg.seed))
	tv := graph.NewTraverser(g)
	visited := 0
	sumUS := l.tr.time("graph.sum_within", -1, "", func() {
		for i := 0; i < 2000; i++ {
			_, size := tv.SumWithin(rng.Intn(g.NumNodes()), hops, scores)
			visited += size
		}
	})
	l.m["graph.sum_within_ns_per_visit"] = sumUS * 1000 / float64(visited)

	// One run per aggregate first: the engine memoizes its plan and its
	// score-ordered structures, and the cycle below measures it warm.
	var planUS []float64
	for _, name := range aggregates {
		agg, err := core.ParseAggregate(name)
		if err != nil {
			return err
		}
		planUS = append(planUS, l.tr.time("core.plan", -1, "", func() { core.NewPlanner(l.engine).Choose(100, agg) }))
		if _, err := l.engine.Run(l.ctx, core.Query{K: 1, Aggregate: agg}); err != nil {
			return err
		}
	}
	l.m["core.plan_us"] = median(planUS)

	var runUS, viewUS []float64
	var evaluated, prunedN, visitedN int
	for i, s := range l.in.cycle {
		q := l.query(s)
		if !s.View {
			var ans core.Answer
			d := l.tr.time("core.engine_run", i, "server.run_miss", func() { ans, err = l.engine.Run(l.ctx, q) })
			l.fail(err)
			runUS = append(runUS, d)
			l.engineUS[s], l.engineEval[s] = d, ans.Stats.Evaluated
			l.shapeValue("core.engine_run_us", s, d)
			evaluated += ans.Stats.Evaluated
			prunedN += ans.Stats.Pruned
			visitedN += ans.Stats.Visited
		}
		if s.Agg == "sum" || s.Agg == "avg" || s.Agg == "count" {
			parent := ""
			if s.View {
				parent = "server.run_miss"
			}
			d := l.tr.time("core.view_run", i, parent, func() { _, err = l.view.Run(l.ctx, q) })
			l.fail(err)
			viewUS = append(viewUS, d)
			l.shapeValue("core.view_run_us", s, d)
		}
	}
	queries := float64(len(runUS))
	l.m["core.engine_run_us"] = median(runUS)
	l.m["core.view_run_us"] = median(viewUS)
	l.m["core.evaluated_per_query"] = float64(evaluated) / queries
	l.m["core.visited_per_query"] = float64(visitedN) / queries
	l.m["core.pruned_ratio"] = float64(prunedN) / float64(prunedN+evaluated)
	l.m["core.us_per_evaluated"] = mean(runUS) * queries / float64(evaluated)

	// The reference scan, on the shape ROADMAP quotes.
	ref := shape{Agg: "sum", K: 100}
	q := l.query(ref)
	q.Algorithm = core.AlgoBase
	l.m["core.base_run_us"] = l.tr.time("core.base_run", -1, "", func() { _, err = l.engine.Run(l.ctx, q) })
	l.fail(err)
	l.m["core.speedup_vs_base"] = l.m["core.base_run_us"] / l.engineUS[ref]

	// What a read pays right after a write: a new engine over new scores
	// runs its first query cold.
	var withUS, firstUS []float64
	for i, s := range l.in.cycle[:8] {
		if s.View {
			continue
		}
		var fresh *core.Engine
		withUS = append(withUS, l.tr.time("core.with_scores", i, "", func() {
			fresh, err = l.engine.WithScores(append([]float64(nil), scores...))
		}))
		if err != nil {
			return err
		}
		firstUS = append(firstUS, l.tr.time("core.engine_first_run", i, "", func() { _, err = fresh.Run(l.ctx, l.query(s)) }))
		l.fail(err)
	}
	l.m["core.with_scores_us"] = median(withUS)
	l.m["core.engine_first_run_us"] = median(firstUS)
	return nil
}

// rungs times one request on the three server rungs and returns the
// durations, outermost first.
func (l *layers) rungs(kind string, i int, s shape, srv *server.Server, hc *http.Client, url string) (rt, handler, run float64) {
	body := l.in.queryBody(s)
	rt = l.tr.time("server.roundtrip_"+kind, i, "", func() {
		resp, err := hc.Post(url+"/v1/topk", "application/json", bytes.NewReader(body))
		if err != nil {
			l.fail(err)
			return
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		l.fail(err)
		if resp.StatusCode != http.StatusOK {
			l.fail(fmt.Errorf("%v: status %d", s, resp.StatusCode))
		}
	})
	h := srv.Handler()
	handler = l.tr.time("server.handler_"+kind, i, "server.roundtrip_"+kind, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/topk", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			l.fail(fmt.Errorf("%v: handler status %d", s, rec.Code))
		}
	})
	run = l.tr.time("server.run_"+kind, i, "server.handler_"+kind, func() {
		_, err := srv.Run(l.ctx, l.request(s))
		l.fail(err)
	})
	return rt, handler, run
}

// serverReads climbs the request ladder on a cache miss (a server with the
// cache off, so that every rung executes the query) and on a cache hit.
func (l *layers) serverReads() error {
	g, scores := l.in.g, l.in.scores
	hc := &http.Client{}

	var miss *server.Server
	var err error
	l.m["server.new_us"] = l.tr.time("server.new", -1, "", func() {
		miss, err = server.New(g, scores, hops, server.Options{CacheBytes: -1, Index: l.nix})
	})
	if err != nil {
		return err
	}
	missTS := httptest.NewServer(miss.Handler())
	defer missTS.Close()
	for _, agg := range aggregates { // warm the server's engine like the standalone one
		if _, err := miss.Run(l.ctx, server.QueryRequest{K: 1, Aggregate: agg}); err != nil {
			return err
		}
	}
	var rtUS, handlerUS, runUS, transportSelf, codecSelf, runSelf []float64
	for i, s := range l.in.cycle {
		rt, handler, run := l.rungs("miss", i, s, miss, hc, missTS.URL)
		inner := l.engineUS[s]
		if s.View {
			inner = l.perShape["core.view_run_us"][s.String()]
		}
		rtUS, handlerUS, runUS = append(rtUS, rt), append(handlerUS, handler), append(runUS, run)
		transportSelf = append(transportSelf, rt-handler)
		codecSelf = append(codecSelf, handler-run)
		runSelf = append(runSelf, run-inner)
		l.shapeValue("server.roundtrip_miss_us", s, rt)
	}
	l.m["server.roundtrip_miss_us"] = median(rtUS)
	l.m["server.handler_miss_us"] = median(handlerUS)
	l.m["server.run_miss_us"] = median(runUS)
	l.m["server.transport_self_miss_us"] = median(transportSelf)
	l.m["server.codec_self_miss_us"] = median(codecSelf)
	l.m["server.run_self_miss_us"] = median(runSelf)

	// "trace":true makes the server record and return its own timeline.
	var plain, traced float64
	for i := 0; i < cycleLen; i += 4 {
		s := l.in.cycle[i]
		if s.View {
			continue
		}
		req := l.request(s)
		req.Trace = true
		traced += l.tr.time("server.run_traced", i, "", func() { _, err = miss.Run(l.ctx, req) })
		l.fail(err)
		plain += runUS[i]
	}
	l.m["server.trace_on_overhead_pct"] = 100 * (traced - plain) / plain

	hit, err := server.New(g, scores, hops, server.Options{SkipIndexes: true, Index: l.nix})
	if err != nil {
		return err
	}
	hitTS := httptest.NewServer(hit.Handler())
	defer hitTS.Close()
	for _, s := range hotSet { // fill the cache
		if _, err := hit.Run(l.ctx, l.request(s)); err != nil {
			return err
		}
	}
	// Each repetition climbs the ladder twice, recording spans and not:
	// the difference on the outermost rung is what recording costs.
	const reps = 12
	var offUS []float64
	rtUS, handlerUS, runUS = nil, nil, nil
	for rep := 0; rep < reps; rep++ {
		for i, s := range hotSet {
			rt, handler, run := l.rungs("hit", rep*len(hotSet)+i, s, hit, hc, hitTS.URL)
			rtUS, handlerUS, runUS = append(rtUS, rt), append(handlerUS, handler), append(runUS, run)
			l.tr.on = false
			rt, _, _ = l.rungs("hit", 0, s, hit, hc, hitTS.URL)
			l.tr.on = true
			offUS = append(offUS, rt)
		}
	}
	l.m["server.roundtrip_hit_us"] = median(rtUS)
	l.m["server.handler_hit_us"] = median(handlerUS)
	l.m["server.run_hit_us"] = median(runUS)
	l.m["server.transport_self_hit_us"] = median(rtUS) - median(handlerUS)
	l.m["server.codec_self_hit_us"] = median(handlerUS) - median(runUS)
	l.m["server.run_self_hit_us"] = median(runUS) // a hit calls nothing below Server.Run
	l.m["trace.overhead_pct"] = 100 * (median(rtUS) - median(offUS)) / median(offUS)

	// The wide event: the same hit through a server that logs it as JSON.
	logged, err := server.New(g, scores, hops, server.Options{SkipIndexes: true, Index: l.nix,
		Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	if err != nil {
		return err
	}
	s := hotSet[0]
	if _, err := logged.Run(l.ctx, l.request(s)); err != nil {
		return err
	}
	body := l.in.queryBody(s)
	serve := func(name string, srv *server.Server) []float64 {
		h := srv.Handler()
		var out []float64
		for i := 0; i < 200; i++ {
			out = append(out, l.tr.time(name, i, "", func() {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/topk", bytes.NewReader(body)))
			}))
		}
		return out
	}
	l.m["server.log_self_us"] = median(serve("server.handler_hit_logged", logged)) - median(serve("server.handler_hit_silent", hit))
	return nil
}

// writes applies score and edit batches through a journaled server and, for
// each batch, applies the same batch to the pieces the server is made of:
// the view, the graph edit + affected set + N(v) repair, the engine
// refresh, the journal append.
func (l *layers) writes() error {
	g, scores := l.in.g, l.in.scores
	jdir := filepath.Join(l.cfg.work, "ladder-journal")
	srvJournal, err := journal.Open(filepath.Join(jdir, "server"))
	if err != nil {
		return err
	}
	defer srvJournal.Close()
	srv, err := server.New(g, scores, hops, server.Options{SkipIndexes: true, Index: l.nix, Journal: srvJournal})
	if err != nil {
		return err
	}
	own, err := journal.Open(filepath.Join(jdir, "own"))
	if err != nil {
		return err
	}
	defer own.Close()

	n := min(12, len(l.in.scoreSets), len(l.in.editSets))
	var gen uint64
	var applyScores, scoresSelf, updateUS, withUS, appendUS, encodeUS, recBytes []float64
	appendCommit := func(i int, parent string, c journal.Commit) float64 {
		var rec []byte
		encodeUS = append(encodeUS, l.tr.time("journal.encode", i, "journal.append", func() { rec, err = journal.EncodeRecord(c) }))
		l.fail(err)
		recBytes = append(recBytes, float64(len(rec)))
		d := l.tr.time("journal.append", i, parent, func() { l.fail(own.Append(c)) })
		appendUS = append(appendUS, d)
		return d
	}
	for i, w := range l.in.scoreSets[:n] {
		outer := l.tr.time("server.apply_scores", i, "", func() { _, err = srv.ApplyUpdates(w.Scores) })
		l.fail(err)
		inner := 0.0
		commit := journal.Commit{}
		for _, u := range w.Scores {
			d := l.tr.time("core.view_update_score", i, "server.apply_scores", func() { _, err = l.view.UpdateScore(u.Node, u.Score) })
			l.fail(err)
			updateUS = append(updateUS, d)
			inner += d
			commit.Scores = append(commit.Scores, journal.ScoreUpdate{Node: u.Node, Score: u.Score})
		}
		d := l.tr.time("core.with_scores", i, "server.apply_scores", func() { _, err = l.engine.WithScores(l.view.ScoresCopy()) })
		l.fail(err)
		withUS = append(withUS, d)
		gen++
		commit.Gen = gen
		inner += d + appendCommit(i, "server.apply_scores", commit)
		applyScores = append(applyScores, outer)
		scoresSelf = append(scoresSelf, outer-inner)
	}
	l.m["server.apply_scores_us"] = median(applyScores)
	l.m["server.apply_scores_self_us"] = median(scoresSelf)
	l.m["core.view_update_score_us"] = median(updateUS)

	var applyEdits, editsSelf, viewEdits, graphEdits, affectedUS, repairUS []float64
	curG, curNix := g, l.nix
	for i, w := range l.in.editSets[:n] {
		edits, err := toEdits(w.Edits)
		if err != nil {
			return err
		}
		outer := l.tr.time("server.apply_edits", i, "", func() { _, err = srv.ApplyEdits(w.Edits) })
		l.fail(err)
		inner := l.tr.time("core.view_apply_edits", i, "server.apply_edits", func() { _, err = l.view.ApplyEdits(l.ctx, edits) })
		l.fail(err)
		viewEdits = append(viewEdits, inner)

		var newG *graph.Graph
		var delta *graph.EditDelta
		var affected []int
		graphEdits = append(graphEdits, l.tr.time("graph.apply_edits", i, "core.view_apply_edits", func() { newG, delta, err = curG.ApplyEdits(edits) }))
		if err != nil {
			return err
		}
		affectedUS = append(affectedUS, l.tr.time("graph.affected_nodes", i, "core.view_apply_edits", func() { affected = graph.AffectedNodes(curG, newG, delta, hops) }))
		repairUS = append(repairUS, l.tr.time("graph.nix_repair", i, "core.view_apply_edits", func() { curNix = curNix.Repair(newG, affected, 0) }))
		curG = newG

		gen++
		inner += appendCommit(n+i, "server.apply_edits", journal.Commit{Gen: gen, Edits: edits})
		applyEdits = append(applyEdits, outer)
		editsSelf = append(editsSelf, outer-inner)
	}
	l.m["server.apply_edits_us"] = median(applyEdits)
	l.m["server.apply_edits_self_us"] = median(editsSelf)
	l.m["core.view_apply_edits_us"] = median(viewEdits)
	l.m["graph.apply_edits_us"] = median(graphEdits)
	l.m["graph.affected_nodes_us"] = median(affectedUS)
	l.m["graph.nix_repair_us"] = median(repairUS)
	l.m["journal.append_us"] = median(appendUS)
	l.m["journal.encode_us"] = median(encodeUS)
	l.m["journal.bytes_per_commit"] = mean(recBytes)

	// What a recovering lonad pays before it can replay: scan and verify.
	if err := own.Close(); err != nil {
		return err
	}
	l.m["journal.open_us"] = l.tr.time("journal.open", -1, "", func() {
		j, err := journal.Open(filepath.Join(jdir, "own"))
		l.fail(err)
		if err == nil {
			l.fail(j.Close())
		}
	})
	return nil
}

// clusterLadder runs the cycle through a 2-shard coordinator twice: shards
// in this process, then the same shards behind their HTTP handlers. The
// difference is the wire; the in-process run minus its slowest shard is the
// merge.
func (l *layers) clusterLadder() error {
	g, scores := l.in.g, l.in.scores
	const parts = 2
	var err error
	l.m["partition.bfs_grow_us"] = l.tr.time("partition.bfs_grow", -1, "", func() { _, err = partition.BFSGrow(g, parts) })
	if err != nil {
		return err
	}
	var local *cluster.Local
	l.m["cluster.build_shards_us"] = l.tr.time("cluster.build_shards", -1, "", func() { local, err = cluster.NewLocal(g, scores, hops, parts) })
	if err != nil {
		return err
	}
	local.PrepareIndexes(0)
	topo := local.Topology()
	l.m["partition.edge_cut_ratio"] = float64(topo.EdgeCut) / float64(g.NumEdges())
	l.m["cluster.boundary_ratio"] = float64(topo.BoundaryNodes) / float64(g.NumNodes())

	var urls []string
	for i := 0; i < parts; i++ {
		w, err := cluster.NewGraphWorker(g, scores, hops, parts, i)
		if err != nil {
			return err
		}
		w.Shard().Engine().PrepareNeighborhoodIndex(0)
		ts := httptest.NewServer(w.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	wire, err := cluster.NewHTTP(l.ctx, urls, nil)
	if err != nil {
		return err
	}
	defer wire.Close()

	inProc := cluster.NewCoordinator(local, cluster.Options{})
	overHTTP := cluster.NewCoordinator(wire, cluster.Options{})
	for _, name := range aggregates { // warm every shard engine
		agg, err := core.ParseAggregate(name)
		if err != nil {
			return err
		}
		for _, c := range []*cluster.Coordinator{inProc, overHTTP} {
			if _, err := c.Run(l.ctx, core.Query{K: 1, Aggregate: agg}); err != nil {
				return err
			}
		}
	}

	var runUS, httpUS, wireSelf, shardMax, mergeSelf []float64
	var single, evaluated, singleEval float64
	var bd struct{ messages, cut, shards, batches, raises, primed, grants float64 }
	for i, s := range l.in.cycle {
		if s.View {
			continue // the view is a whole-graph structure; sharding never applies
		}
		q := l.query(s)
		var b cluster.Breakdown
		run := l.tr.time("cluster.run", i, "cluster.http_run", func() { _, b, err = inProc.RunDetailed(l.ctx, q) })
		l.fail(err)
		slowest := 0.0
		for _, r := range b.PerShard {
			slowest = max(slowest, float64(r.ElapsedUS))
		}
		var ans core.Answer
		overWire := l.tr.time("cluster.http_run", i, "", func() { ans, b, err = overHTTP.RunDetailed(l.ctx, q) })
		l.fail(err)

		runUS, httpUS = append(runUS, run), append(httpUS, overWire)
		wireSelf = append(wireSelf, overWire-run)
		shardMax = append(shardMax, slowest)
		mergeSelf = append(mergeSelf, run-slowest)
		l.shapeValue("cluster.run_us", s, run)
		l.shapeValue("cluster.http_run_us", s, overWire)
		single += l.engineUS[s]
		singleEval += float64(l.engineEval[s])
		evaluated += float64(ans.Stats.Evaluated)
		bd.messages += float64(b.Messages)
		bd.cut += float64(b.ShardsCut)
		bd.shards += float64(b.Shards)
		bd.batches += float64(b.PartialBatches)
		bd.raises += float64(b.LambdaRaises)
		bd.grants += float64(b.GrantRequests)
		if b.LambdaPrimed > 0 {
			bd.primed++
		}
	}
	queries := float64(len(runUS))
	l.m["cluster.run_us"] = median(runUS)
	l.m["cluster.http_run_us"] = median(httpUS)
	l.m["cluster.wire_self_us"] = median(wireSelf)
	l.m["cluster.shard_run_max_us"] = median(shardMax)
	l.m["cluster.merge_self_us"] = median(mergeSelf)
	l.m["cluster.speedup_vs_single"] = single / (mean(runUS) * queries)
	l.m["cluster.evaluated_ratio"] = evaluated / singleEval
	l.m["cluster.messages_per_query"] = bd.messages / queries
	l.m["cluster.shards_cut_ratio"] = bd.cut / bd.shards
	l.m["cluster.partial_batches_per_query"] = bd.batches / queries
	l.m["cluster.lambda_raises_per_query"] = bd.raises / queries
	l.m["cluster.primed_ratio"] = bd.primed / queries
	l.m["cluster.grant_requests_per_query"] = bd.grants / queries

	// The write fan-out the coordinator performs under its write lock.
	n := min(8, len(l.in.scoreSets), len(l.in.editSets))
	var scoresUS, editsUS []float64
	for i, w := range l.in.scoreSets[:n] {
		batch := make([]cluster.ScoreUpdate, len(w.Scores))
		for k, u := range w.Scores {
			batch[k] = cluster.ScoreUpdate{Node: u.Node, Score: u.Score}
		}
		scoresUS = append(scoresUS, l.tr.time("cluster.apply_scores", i, "", func() { l.fail(wire.ApplyScores(l.ctx, batch)) }))
	}
	for i, w := range l.in.editSets[:n] {
		edits, err := toEdits(w.Edits)
		if err != nil {
			return err
		}
		editsUS = append(editsUS, l.tr.time("cluster.apply_edits", i, "", func() { l.fail(wire.ApplyEdits(l.ctx, edits)) }))
	}
	l.m["cluster.apply_scores_us"] = median(scoresUS)
	l.m["cluster.apply_edits_us"] = median(editsUS)
	return nil
}

// fromInputs reports the file-layer timings taken while the inputs were
// written and read back.
func (l *layers) fromInputs() {
	l.m["snapshot.write_us"] = us(l.in.snapshotWrite)
	l.m["snapshot.open_us"] = us(l.in.snapshotOpen)
	l.m["netio.read_graph_us"] = us(l.in.graphRead)
}

// fromWindow derives the counts that only a real lonad under the
// workload's own traffic can give, from /v1/stats before and after the
// window and from the acknowledgement bodies.
func (l *layers) fromWindow(e *e2e) {
	before, after := e.statsBefore.Cache, e.statsAfter.Cache
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	l.m["server.cache_hit_ratio"] = hits / (hits + misses)
	l.m["server.collapsed_per_kop"] = 1000 * float64(after.Collapsed-before.Collapsed) / float64(e.reads)
	l.m["server.view_touched_per_batch"] = mean(e.touched)
	l.m["server.repaired_per_batch"] = mean(e.repaired)
	l.m["server.rebuilds"] = float64(e.statsAfter.Edits.Rebuilds - e.statsBefore.Edits.Rebuilds)
	l.m["loadgen.writer_late_p95_ms"] = 0
	if len(e.late) > 0 {
		l.m["loadgen.writer_late_p95_ms"] = quantile(e.late, 0.95)
	}
	l.m["loadgen.calib_ms_before"] = ms(e.calibBefore)
	l.m["loadgen.calib_ms_after"] = ms(e.calibAfter)
}

// writeTrace stores the spans and the per-shape values.
func (l *layers) writeTrace(path string) error {
	out := struct {
		Workload string                        `json:"workload"`
		Seed     int64                         `json:"seed"`
		Scale    float64                       `json:"scale"`
		InputSHA string                        `json:"input_sha256"`
		Metrics  map[string]float64            `json:"metrics"`
		PerShape map[string]map[string]float64 `json:"per_shape_us"`
		Spans    []span                        `json:"spans"`
	}{l.cfg.workload, l.cfg.seed, l.cfg.scale, l.in.sha, l.m, l.perShape, l.tr.spans}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
