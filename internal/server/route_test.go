package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/trace"
	"repro/internal/wideevent"
)

// viewAggs are the aggregates the view maintains, and so the ones a live
// "auto" query is routed to it for.
var viewAggs = []string{"sum", "avg", "count"}

// agree is the repo's equivalence rule for answers computed in different
// summation orders: values within approxEq rank by rank, nodes equal
// except among values tied with the cut.
func agree(a, b []core.Result) bool { return sameResults(a, b) && sameResults(b, a) }

// routeServers builds the three deployments the routing rule must hold on:
// a single server, in-process shards, and a coordinator over HTTP workers.
func routeServers(t *testing.T, g *graph.Graph, scores []float64) map[string]*Server {
	t.Helper()
	const parts = 3
	urls := make([]string, parts)
	for i := range urls {
		w, err := cluster.NewGraphWorker(g, append([]float64(nil), scores...), 2, parts, i)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	fresh := func() []float64 { return append([]float64(nil), scores...) }
	return map[string]*Server{
		"single":  mustServer(t, g, fresh(), 2, Options{SkipIndexes: true}),
		"shards":  mustServer(t, g, fresh(), 2, Options{SkipIndexes: true, Shards: parts}),
		"workers": mustServer(t, g, fresh(), 2, Options{SkipIndexes: true, ShardWorkers: urls}),
	}
}

// TestAutoServedFromView is the routing rule end to end: on every
// deployment, across a script of score and edit batches, a live "auto"
// SUM/AVG/COUNT query — candidates or not, budget or not, any k — is
// answered by the view, says so, never fans out, and agrees with the
// explicit scan of the same server.
func TestAutoServedFromView(t *testing.T) {
	const n = 500
	g := testGraph(n, 1200, 83)
	cands := []int{3, 17, 42, 99, 100, 101, 250, 251, 333, 404, 405, 499}
	script := []func(s *Server) error{
		func(s *Server) error { return nil }, // the boot generation
		func(s *Server) error {
			_, err := s.ApplyUpdates([]ScoreUpdate{{Node: 42, Score: 1}, {Node: 7, Score: 0}, {Node: 333, Score: 0.5}})
			return err
		},
		func(s *Server) error { _, err := s.ApplyEdits(editBatch(s.Graph())); return err },
		func(s *Server) error {
			_, err := s.ApplyUpdates([]ScoreUpdate{{Node: n, Score: 0.9}, {Node: 42, Score: 0.25}})
			return err
		},
		func(s *Server) error {
			_, err := s.ApplyEdits([]EditRequest{{Op: "add-edge", U: 17, V: 404}, {Op: "remove-edge", U: n, V: 1}})
			return err
		},
	}
	for name, s := range routeServers(t, g, testScores(n, 83)) {
		for step, write := range script {
			if err := write(s); err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			for _, agg := range viewAggs {
				for _, k := range []int{1, 10, 300} {
					for _, c := range [][]int{nil, cands} {
						label := fmt.Sprintf("%s step %d %s k=%d cands=%d", name, step, agg, k, len(c))
						auto, err := s.Run(ctx, QueryRequest{K: k, Aggregate: agg, Candidates: c, Budget: step})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if auto.Algorithm != algoView || !auto.Planned || auto.Reason == "" ||
							auto.Shards != 0 || auto.Truncated || auto.Generation != uint64(step) {
							t.Fatalf("%s: not a view-routed answer: %+v", label, auto)
						}
						base, err := s.Run(ctx, QueryRequest{K: k, Aggregate: agg, Candidates: c, Algorithm: "base"})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if base.Algorithm != "Base" || base.Planned {
							t.Fatalf("%s: explicit base answered as %+v", label, base)
						}
						if !agree(auto.Results, base.Results) {
							t.Fatalf("%s: view-routed auto diverged from base\nauto %v\nbase %v", label, auto.Results, base.Results)
						}
					}
				}
			}
			// What the view does not maintain still reaches the engines.
			for _, agg := range []string{"wsum", "max"} {
				ans, err := s.Run(ctx, QueryRequest{K: 10, Aggregate: agg})
				if err != nil {
					t.Fatal(err)
				}
				if ans.Algorithm == algoView || !ans.Planned || (name != "single") != (ans.Shards > 0) {
					t.Fatalf("%s step %d auto %s: %+v", name, step, agg, ans)
				}
			}
		}
	}
}

// TestAutoDirectedStaysOnEngine: no view, no routing.
func TestAutoDirectedStaysOnEngine(t *testing.T) {
	b := graph.NewBuilder(40, true)
	for v := 1; v < 40; v++ {
		b.AddEdge(v, v/2)
	}
	s := mustServer(t, b.Build(), testScores(40, 3), 2, Options{})
	ans, err := s.Run(ctx, QueryRequest{K: 5, Aggregate: "sum"})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Algorithm != "Forward" || !ans.Planned {
		t.Fatalf("directed auto SUM (differential index built at boot): %+v", ans)
	}
}

// TestAutoTimeTravelStaysOnEngines: "auto" with as_of executes on the
// retained engines, never the live view, and agrees with the live
// (view-routed) answer recorded at that generation — up to summation order
// on a fresh execution, to the byte on a retained cache hit.
func TestAutoTimeTravelStaysOnEngines(t *testing.T) {
	const n = 300
	g := testGraph(n, 800, 89)
	steps := [][]ScoreUpdate{
		{{Node: 3, Score: 0.8}},
		{{Node: 50, Score: 0.1}, {Node: 3, Score: 0}},
		{{Node: 120, Score: 0.95}},
		{{Node: 7, Score: 0.6}},
	}
	for _, cached := range []bool{false, true} {
		opts := Options{SkipIndexes: true}
		if !cached {
			opts.CacheBytes = -1
		}
		s := mustServer(t, g, testScores(n, 89), 2, opts)
		live := make(map[string][]core.Result) // "agg@gen"
		record := func() {
			for _, agg := range viewAggs {
				ans, err := s.Run(ctx, QueryRequest{K: 10, Aggregate: agg})
				if err != nil {
					t.Fatal(err)
				}
				if ans.Algorithm != algoView {
					t.Fatalf("live auto %s answered by %s", agg, ans.Algorithm)
				}
				live[fmt.Sprintf("%s@%d", agg, ans.Generation)] = ans.Results
			}
		}
		record()
		for _, ups := range steps {
			if _, err := s.ApplyUpdates(ups); err != nil {
				t.Fatal(err)
			}
			record()
		}
		for gen := uint64(1); gen < 4; gen++ {
			for _, agg := range viewAggs {
				label := fmt.Sprintf("cached=%v %s as_of=%d", cached, agg, gen)
				want := live[fmt.Sprintf("%s@%d", agg, gen)]
				ans, err := s.Run(ctx, QueryRequest{K: 10, Aggregate: agg, AsOf: gen})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if ans.Generation != gen || ans.Cached != cached {
					t.Fatalf("%s: generation %d cached=%v", label, ans.Generation, ans.Cached)
				}
				if cached {
					// The resident live answer, view label and all.
					identicalResults(t, label, ans.Results, want)
					continue
				}
				if ans.Algorithm == algoView || !ans.Planned {
					t.Fatalf("%s: executed as %+v, want a planned engine run", label, ans)
				}
				if !agree(ans.Results, want) {
					t.Fatalf("%s: retained engine diverged from the recorded live answer\n got %v\nwant %v", label, ans.Results, want)
				}
			}
		}
	}
}

// TestAutoReadersRaceWriters: "auto" readers race score and edit batches
// (run it under -race). Every answer must be the answer of the generation
// it names — the view scan holds the read lock, and a scan that lost the
// race to a write falls back to the snapshot's engine instead of labelling
// or caching the newer view state under the older generation. Afterwards
// as_of replays of every generation, which reuse the keys the live reads
// cached under, must still answer that generation.
func TestAutoReadersRaceWriters(t *testing.T) {
	const n, writes, readers = 200, 40, 4
	g := testGraph(n, 500, 97)
	s := mustServer(t, g, testScores(n, 97), 2, Options{SkipIndexes: true, RetainGenerations: writes + 1})

	type state struct {
		g      *graph.Graph
		scores []float64
	}
	states := map[uint64]state{0: {s.Graph(), s.Scores()}}
	type reading struct {
		agg string
		ans *Answer
	}
	got := make([][]reading, readers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				agg := viewAggs[(r+i)%len(viewAggs)]
				ans, err := s.Run(ctx, QueryRequest{K: 10, Aggregate: agg})
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				got[r] = append(got[r], reading{agg, ans})
			}
		}(r)
	}
	for i := 1; i <= writes; i++ {
		var err error
		if i%4 == 0 {
			_, err = s.ApplyEdits([]EditRequest{{Op: "add-edge", U: i, V: n - i}})
		} else {
			_, err = s.ApplyUpdates([]ScoreUpdate{{Node: (i * 37) % n, Score: float64(i%10) / 10}})
		}
		if err != nil {
			t.Fatal(err)
		}
		states[uint64(i)] = state{s.Graph(), s.Scores()} // the only writer: consistent
	}
	close(stop)
	wg.Wait()

	oracle := make(map[string][]core.Result)
	want := func(agg string, gen uint64) []core.Result {
		key := fmt.Sprintf("%s@%d", agg, gen)
		if res, ok := oracle[key]; ok {
			return res
		}
		st, ok := states[gen]
		if !ok {
			t.Fatalf("answer names generation %d, which never existed", gen)
		}
		e, err := core.NewEngine(st.g, st.scores, 2)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := core.ParseAggregate(agg)
		ans, err := e.Run(ctx, core.Query{Algorithm: core.AlgoBase, K: 10, Aggregate: a})
		if err != nil {
			t.Fatal(err)
		}
		oracle[key] = ans.Results
		return ans.Results
	}
	reads := 0
	for _, rs := range got {
		for _, rd := range rs {
			reads++
			if !agree(rd.ans.Results, want(rd.agg, rd.ans.Generation)) {
				t.Fatalf("%s read labelled generation %d (algorithm %s, cached %v) is not that generation's answer",
					rd.agg, rd.ans.Generation, rd.ans.Algorithm, rd.ans.Cached)
			}
		}
	}
	if reads == 0 {
		t.Fatal("no reads completed")
	}
	for gen := uint64(1); gen < writes; gen++ {
		for _, agg := range viewAggs {
			ans, err := s.Run(ctx, QueryRequest{K: 10, Aggregate: agg, AsOf: gen})
			if err != nil {
				t.Fatal(err)
			}
			if ans.Generation != gen || !agree(ans.Results, want(agg, gen)) {
				t.Fatalf("as_of=%d %s (cached %v, algorithm %s) answered generation %d's state",
					gen, agg, ans.Cached, ans.Algorithm, ans.Generation)
			}
		}
	}
}

// TestViewRoutedObservability: a view-routed answer shows up under the
// existing names — the "view" algorithm label in /v1/stats, /metrics and
// the wide event, a plan event plus an exec span in the trace — with no
// traversal work to report.
func TestViewRoutedObservability(t *testing.T) {
	g := testGraph(150, 300, 101)
	var buf lockedBuffer
	s := mustServer(t, g, testScores(150, 101), 2, Options{
		SkipIndexes: true,
		Logger:      slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	ans, err := s.Run(ctx, QueryRequest{K: 5, Aggregate: "avg", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Algorithm != algoView || !ans.Planned || ans.Reason != viewReason || ans.Stats != (core.QueryStats{}) {
		t.Fatalf("traced auto AVG: %+v", ans)
	}
	kinds := map[string]string{}
	for _, e := range ans.Trace.Events {
		kinds[e.Kind] = e.Note
	}
	if !strings.HasPrefix(kinds[trace.KindPlan], algoView+": ") || kinds[trace.KindExec] == "" {
		t.Fatalf("trace lacks the plan event or the exec span: %+v", ans.Trace.Events)
	}
	if got := s.Stats().Latency[algoView].Count; got != 1 {
		t.Fatalf("/v1/stats latency[view].count = %d, want 1", got)
	}
	if body := s.renderMetrics(); !strings.Contains(body, `lona_query_duration_seconds_count{algorithm="view"} 1`) {
		t.Fatalf("/metrics lacks the view-labelled query histogram:\n%s", body)
	}
	lines := buf.Lines()
	if len(lines) != 1 {
		t.Fatalf("got %d wide events, want 1", len(lines))
	}
	if isWide, err := wideevent.Validate([]byte(lines[0])); !isWide || err != nil {
		t.Fatalf("not a valid wide event (wide=%v err=%v): %s", isWide, err, lines[0])
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev[wideevent.KeyAlgo] != algoView || ev[wideevent.KeyTraceID] != ans.Trace.ID {
		t.Fatalf("wide event algo=%v trace_id=%v, want view / %s", ev[wideevent.KeyAlgo], ev[wideevent.KeyTraceID], ans.Trace.ID)
	}

	// The explicit spelling is the same scan minus the plan.
	named, err := s.Run(ctx, QueryRequest{K: 5, Aggregate: "avg", Algorithm: "view"})
	if err != nil {
		t.Fatal(err)
	}
	if named.Planned || named.Reason != "" || !bytes.Equal(mustJSON(t, named.Results), mustJSON(t, ans.Results)) {
		t.Fatalf("explicit view answer: %+v", named)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
