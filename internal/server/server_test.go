package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// ctx is the background context shared by the tests that do not exercise
// cancellation; see cancel_test.go for the ones that do.
var ctx = context.Background()

// testGraph builds a connected random undirected graph, mirroring the
// core package's test helper.
func testGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, false)
	for v := 1; v < n; v++ {
		b.AddEdge(v, rng.Intn(v))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func testScores(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed + 1000))
	scores := make([]float64, n)
	for i := range scores {
		if rng.Float64() < 0.5 {
			scores[i] = rng.Float64()
		}
	}
	return scores
}

func mustServer(t *testing.T, g *graph.Graph, scores []float64, h int, opts Options) *Server {
	t.Helper()
	s, err := New(g, scores, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// approxEq is the same FP tolerance the core tests use.
func approxEq(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*(1+scale)
}

// sameResults compares two top-k answers, tolerating boundary permutation
// among tied values (FP jitter can legally reorder equal values).
func sameResults(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !approxEq(a[i].Value, b[i].Value) {
			return false
		}
	}
	if len(a) == 0 {
		return true
	}
	kth := a[len(a)-1].Value
	inB := make(map[int]struct{}, len(b))
	for _, r := range b {
		inB[r.Node] = struct{}{}
	}
	for _, r := range a {
		if _, ok := inB[r.Node]; !ok && !approxEq(r.Value, kth) {
			return false
		}
	}
	return true
}

// TestConcurrentQueriesAndUpdates is acceptance test (a): queries across
// every serving mode race update batches under -race, and once updates
// quiesce the served answers match a fresh Engine built on the post-update
// scores.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	const n = 150
	g := testGraph(n, 450, 31)
	scores := testScores(n, 31)
	s := mustServer(t, g, scores, 2, Options{Workers: 2})

	algos := []string{"auto", "view", "base", "backward", "backward-naive", "forward"}
	stop := make(chan struct{})
	errs := make(chan error, len(algos))
	var wg sync.WaitGroup
	for i, algo := range algos {
		wg.Add(1)
		go func(i int, algo string) {
			defer wg.Done()
			var firstErr error
			for {
				select {
				case <-stop:
					errs <- firstErr
					return
				default:
				}
				_, err := s.Run(ctx, QueryRequest{K: 5 + i, Aggregate: "sum", Algorithm: algo})
				if err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}(i, algo)
	}

	rng := rand.New(rand.NewSource(32))
	for batch := 0; batch < 50; batch++ {
		updates := make([]ScoreUpdate, 1+rng.Intn(4))
		for i := range updates {
			updates[i] = ScoreUpdate{Node: rng.Intn(n), Score: rng.Float64()}
		}
		if _, err := s.ApplyUpdates(updates); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for range algos {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	if got := s.Generation(); got != 50 {
		t.Fatalf("generation = %d after 50 batches, want 50", got)
	}

	// Fresh ground truth on the post-update scores.
	finalScores := make([]float64, n)
	for u := 0; u < n; u++ {
		finalScores[u] = s.view.Score(u)
	}
	fresh, err := core.NewEngine(g, finalScores, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []string{"sum", "avg", "count"} {
		coreAgg, _ := ParseAggregate(agg)
		want, _, err := fresh.Base(10, coreAgg)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []string{"auto", "view", "base", "backward"} {
			ans, err := s.Run(ctx, QueryRequest{K: 10, Aggregate: agg, Algorithm: algo})
			if err != nil {
				t.Fatalf("%s/%s: %v", agg, algo, err)
			}
			if !sameResults(ans.Results, want) {
				t.Fatalf("%s/%s after updates: got %v, want %v", agg, algo, ans.Results, want)
			}
		}
	}
}

// TestCacheHitOnRepeat is acceptance test (b): a repeated identical query
// at an unchanged generation is served from cache — the hit counter
// increments and the engine work counters stay flat.
func TestCacheHitOnRepeat(t *testing.T) {
	g := testGraph(80, 240, 33)
	s := mustServer(t, g, testScores(80, 33), 2, Options{})

	req := QueryRequest{K: 10, Aggregate: "sum", Algorithm: "backward"}
	cold, err := s.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first query reported cached")
	}
	st := s.Stats()
	if st.Cache.Hits != 0 || st.Cache.Misses != 1 {
		t.Fatalf("after cold query: hits=%d misses=%d", st.Cache.Hits, st.Cache.Misses)
	}
	visitedAfterCold := st.Engine.Visited
	evaluatedAfterCold := st.Engine.Evaluated

	for i := 0; i < 3; i++ {
		hit, err := s.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Cached {
			t.Fatalf("repeat %d not served from cache", i)
		}
		if !sameResults(hit.Results, cold.Results) {
			t.Fatalf("cached answer drifted: %v vs %v", hit.Results, cold.Results)
		}
	}
	st = s.Stats()
	if st.Cache.Hits != 3 {
		t.Fatalf("hits = %d, want 3", st.Cache.Hits)
	}
	if st.Engine.Visited != visitedAfterCold || st.Engine.Evaluated != evaluatedAfterCold {
		t.Fatalf("cache hits did engine work: visited %d→%d, evaluated %d→%d",
			visitedAfterCold, st.Engine.Visited, evaluatedAfterCold, st.Engine.Evaluated)
	}
}

// TestUpdateInvalidatesCache is acceptance test (c): an update batch bumps
// the generation, so the same request is recomputed and reflects the new
// scores.
func TestUpdateInvalidatesCache(t *testing.T) {
	// Star graph: node 0 sees every leaf within 1 hop.
	n := 10
	b := graph.NewBuilder(n, false)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	scores := make([]float64, n) // all zero
	s := mustServer(t, b.Build(), scores, 1, Options{SkipIndexes: true})

	req := QueryRequest{K: 1, Aggregate: "sum", Algorithm: "base"}
	before, err := s.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if before.Generation != 0 || before.Results[0].Value != 0 {
		t.Fatalf("unexpected initial answer %+v", before)
	}
	if _, err := s.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Cache.Hits != 1 {
		t.Fatalf("warmup repeat missed the cache (hits=%d)", st.Cache.Hits)
	}

	res, err := s.ApplyUpdates([]ScoreUpdate{{Node: 3, Score: 1}, {Node: 4, Score: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 1 || res.Applied != 2 {
		t.Fatalf("unexpected update result %+v", res)
	}
	// Star, h=1: each update touches the leaf itself plus the hub and …
	// actually S_1(leaf) = {leaf, hub}, so 2 per update.
	if res.Touched != 4 {
		t.Fatalf("touched = %d, want 4", res.Touched)
	}

	after, err := s.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("post-update query served a stale cached answer")
	}
	if after.Generation != 1 {
		t.Fatalf("post-update generation = %d, want 1", after.Generation)
	}
	if after.Results[0].Node != 0 || !approxEq(after.Results[0].Value, 1.5) {
		t.Fatalf("post-update answer %+v, want hub with 1.5", after.Results[0])
	}

	// Invalid batches are rejected atomically: nothing applied.
	if _, err := s.ApplyUpdates([]ScoreUpdate{{Node: 1, Score: 0.9}, {Node: n, Score: 0.1}}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := s.ApplyUpdates([]ScoreUpdate{{Node: 1, Score: 1.5}}); err == nil {
		t.Fatal("out-of-range score accepted")
	}
	if _, err := s.ApplyUpdates(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if got := s.Generation(); got != 1 {
		t.Fatalf("rejected batches changed the generation to %d", got)
	}
	if s.view.Score(1) != 0 {
		t.Fatal("rejected batch leaked a partial write")
	}
}

// TestQueryValidation exercises the request validation surface.
func TestQueryValidation(t *testing.T) {
	g := testGraph(20, 40, 35)
	s := mustServer(t, g, testScores(20, 35), 1, Options{SkipIndexes: true})
	bad := []QueryRequest{
		{K: 0, Aggregate: "sum"},
		{K: -2, Aggregate: "sum"},
		{K: 5, Aggregate: "median"},
		{K: 5, Aggregate: "sum", Algorithm: "dijkstra"},
		{K: 5, Aggregate: "max", Algorithm: "forward"}, // MAX has no forward bound
	}
	for _, req := range bad {
		if _, err := s.Run(ctx, req); err == nil {
			t.Errorf("request %+v accepted", req)
		}
	}
	// Uppercase names and the default algorithm are fine.
	if _, err := s.Run(ctx, QueryRequest{K: 5, Aggregate: "SUM"}); err != nil {
		t.Errorf("uppercase aggregate rejected: %v", err)
	}
	if _, err := s.Run(ctx, QueryRequest{K: 3, Aggregate: "max", Algorithm: "base"}); err != nil {
		t.Errorf("MAX via base rejected: %v", err)
	}
}

// TestHTTPEndpoints drives the JSON API end to end over httptest.
func TestHTTPEndpoints(t *testing.T) {
	g := testGraph(60, 180, 37)
	s := mustServer(t, g, testScores(60, 37), 2, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path string, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	// Query, then repeat: second answer must be flagged cached.
	resp, body := post("/v1/topk", `{"k":5,"aggregate":"sum","algorithm":"auto"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk status %d: %s", resp.StatusCode, body)
	}
	var ans struct {
		Algorithm string        `json:"algorithm"`
		Planned   bool          `json:"planned"`
		Cached    bool          `json:"cached"`
		Results   []core.Result `json:"results"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatalf("bad topk body %s: %v", body, err)
	}
	if !ans.Planned || ans.Algorithm == "auto" || len(ans.Results) != 5 {
		t.Fatalf("unexpected planned answer %+v", ans)
	}
	_, body = post("/v1/topk", `{"k":5,"aggregate":"sum","algorithm":"auto"}`)
	if err := json.Unmarshal(body, &ans); err != nil || !ans.Cached {
		t.Fatalf("repeat not cached: %s (err=%v)", body, err)
	}

	// Bad requests are 400 with a JSON error — including fields outside
	// the request schema, such as the library's engine knobs (gamma,
	// order, workers) or a temporal window: the strict decoder rejects
	// them rather than silently answering a different query.
	for _, bad := range []string{
		`{`, `{"k":0,"aggregate":"sum"}`, `{"k":5,"aggregate":"sum","bogus":1}`,
		`{"k":5,"aggregate":"sum","algorithm":"backward","gamma":0.5}`,
		`{"k":5,"aggregate":"sum","algorithm":"forward","order":"degree-desc"}`,
		`{"k":5,"aggregate":"sum","algorithm":"parallel","workers":2}`,
		`{"k":5,"aggregate":"sum","window":2}`,
		`{"k":5,"aggregate":"sum","window_agg":"max"}`,
		`{"k":5,"aggregate":"sum","decay":0.5}`,
	} {
		resp, body = post("/v1/topk", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q gave status %d", bad, resp.StatusCode)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("non-JSON error response %s", body)
		}
	}
	// The shard count is fixed at boot: there is no reshard endpoint.
	if resp, body = post("/v1/reshard", `{"shards":2}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/reshard gave status %d (%s), want 404", resp.StatusCode, body)
	}

	// Score update bumps the generation.
	resp, body = post("/v1/scores", `{"updates":[{"node":1,"score":0.7}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scores status %d: %s", resp.StatusCode, body)
	}
	var upd UpdateResult
	if err := json.Unmarshal(body, &upd); err != nil || upd.Generation != 1 {
		t.Fatalf("unexpected update response %s (err=%v)", body, err)
	}

	// GET endpoints.
	for _, path := range []string{"/v1/stats", "/v1/health"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	var st Stats
	resp2, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if st.Generation != 1 || st.Cache.Hits < 1 || st.Nodes != 60 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if _, ok := st.Latency[ans.Algorithm]; !ok {
		t.Fatalf("stats missing latency histogram for %q (have %v)", ans.Algorithm, st.Latency)
	}

	// POST-only endpoints reject GET.
	resp3, err := http.Get(srv.URL + "/v1/topk")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/topk status %d", resp3.StatusCode)
	}
}

// TestDirectedGraphServing covers the engine-only path: no view, "view"
// algorithm rejected, updates still applied and invalidating.
func TestDirectedGraphServing(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	b := graph.NewBuilder(40, true)
	for i := 0; i < 160; i++ {
		u, v := rng.Intn(40), rng.Intn(40)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	scores := testScores(40, 39)
	s := mustServer(t, b.Build(), scores, 2, Options{SkipIndexes: true})
	if s.view != nil {
		t.Fatal("directed server built a view")
	}
	if _, err := s.Run(ctx, QueryRequest{K: 5, Aggregate: "sum", Algorithm: "view"}); err == nil {
		t.Fatal(`"view" accepted on a directed graph`)
	}
	if _, err := s.Run(ctx, QueryRequest{K: 5, Aggregate: "sum", Algorithm: "backward"}); err == nil {
		t.Fatal("backward accepted on a directed graph")
	}
	before, err := s.Run(ctx, QueryRequest{K: 5, Aggregate: "sum", Algorithm: "base"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyUpdates([]ScoreUpdate{{Node: before.Results[0].Node, Score: 0}}); err != nil {
		t.Fatal(err)
	}
	after, err := s.Run(ctx, QueryRequest{K: 5, Aggregate: "sum", Algorithm: "base"})
	if err != nil {
		t.Fatal(err)
	}
	if after.Generation != 1 || after.Cached {
		t.Fatalf("post-update answer not recomputed: %+v", after)
	}
}

// TestConcurrentUpdateBatchesAndLazyIndexes races multiple ApplyUpdates
// callers against queries that trigger core's lazy index builds
// (SkipIndexes), all under -race: the regression surface for the unlocked
// engine read in validation and the unguarded index construction.
func TestConcurrentUpdateBatchesAndLazyIndexes(t *testing.T) {
	const n = 100
	g := testGraph(n, 300, 43)
	s := mustServer(t, g, testScores(n, 43), 2, Options{SkipIndexes: true})

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for b := 0; b < 20; b++ {
				if _, err := s.ApplyUpdates([]ScoreUpdate{{Node: rng.Intn(n), Score: rng.Float64()}}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			algo := []string{"forward", "backward", "auto", "view"}[w%4]
			for q := 0; q < 15; q++ {
				if _, err := s.Run(ctx, QueryRequest{K: 5, Aggregate: "sum", Algorithm: algo}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Generation(); got != 80 {
		t.Fatalf("generation = %d after 4×20 batches, want 80", got)
	}
	// Post-quiesce consistency against a fresh engine.
	fresh, err := core.NewEngine(g, s.view.ScoresCopy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fresh.Base(8, core.Sum)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Run(ctx, QueryRequest{K: 8, Aggregate: "sum"})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(got.Results, want) {
		t.Fatalf("post-quiesce answer %v != fresh engine %v", got.Results, want)
	}
}
