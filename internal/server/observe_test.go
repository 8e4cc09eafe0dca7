package server

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
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/otlp"
	"repro/internal/promtext"
	"repro/internal/trace"
	"repro/internal/wideevent"
)

// lockedBuffer is a concurrency-safe log sink for slog's JSON handler.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for _, l := range strings.Split(b.buf.String(), "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

// scrape GETs path and returns the body.
func scrape(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	return body
}

// TestMetricsAndStatsUnderLoad hammers /metrics and /v1/stats while
// sharded streamed queries and structural edit batches run concurrently.
// Every scrape must be well-formed Prometheus exposition, and the
// counters both surfaces report must be monotone across scrapes. Run
// with -race this doubles as the torn-read check on the stats path.
func TestMetricsAndStatsUnderLoad(t *testing.T) {
	g := testGraph(300, 600, 11)
	scores := testScores(300, 12)
	s := mustServer(t, g, scores, 2, Options{Shards: 3, SkipIndexes: true})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	wg.Add(1)
	go func() { // queries: mixed k and aggregates, some traced
		defer wg.Done()
		for i := 0; i < 40; i++ {
			body := fmt.Sprintf(`{"k":%d,"aggregate":"wsum","trace":%v}`, 1+i%7, i%5 == 0)
			resp, err := http.Post(srv.URL+"/v1/topk", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("topk %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // structural edits, racing the queries
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 10; i++ {
			u, v := rng.Intn(300), rng.Intn(300)
			if u == v {
				continue
			}
			body := fmt.Sprintf(`{"edits":[{"op":"add-edge","u":%d,"v":%d}]}`, u, v)
			resp, err := http.Post(srv.URL+"/v1/edges", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("edits %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // scrape both surfaces, checking form and monotonicity
		defer wg.Done()
		var prev Stats
		var prevSince string
		for i := 0; i < 15; i++ {
			if err := promtext.Validate(scrape(t, srv.URL, "/metrics")); err != nil {
				errs <- fmt.Errorf("scrape %d: %w", i, err)
				return
			}
			var st Stats
			if err := json.Unmarshal(scrape(t, srv.URL, "/v1/stats"), &st); err != nil {
				errs <- err
				return
			}
			if _, err := time.Parse(time.RFC3339, st.Since); err != nil {
				errs <- fmt.Errorf("since %q is not RFC3339: %w", st.Since, err)
				return
			}
			if prevSince != "" && st.Since != prevSince {
				errs <- fmt.Errorf("since moved: %q -> %q", prevSince, st.Since)
				return
			}
			prevSince = st.Since
			type mono struct {
				name       string
				prev, curr int64
			}
			checks := []mono{
				{"executed", prev.Cache.Hits + prev.Cache.Misses, st.Cache.Hits + st.Cache.Misses},
				{"evaluated", prev.Engine.Evaluated, st.Engine.Evaluated},
				{"edit batches", prev.Edits.Batches, st.Edits.Batches},
				{"uptime", int64(prev.UptimeS * 1e6), int64(st.UptimeS * 1e6)},
			}
			if prev.Cluster != nil && st.Cluster != nil {
				checks = append(checks,
					mono{"shard queries", prev.Cluster.ShardQueries, st.Cluster.ShardQueries},
					mono{"partial batches", prev.Cluster.PartialBatches, st.Cluster.PartialBatches},
					mono{"lambda raises", prev.Cluster.LambdaRaises, st.Cluster.LambdaRaises})
			}
			for _, c := range checks {
				if c.curr < c.prev {
					errs <- fmt.Errorf("scrape %d: %s went backwards: %d -> %d", i, c.name, c.prev, c.curr)
					return
				}
			}
			prev = st
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTraceSurface pins the /v1/topk EXPLAIN contract: "trace": true
// returns one stitched timeline, traced answers never come from or land
// in the cache, and untraced answers carry no trace at all.
func TestTraceSurface(t *testing.T) {
	g := testGraph(200, 400, 21)
	scores := testScores(200, 22)
	s := mustServer(t, g, scores, 2, Options{Shards: 2, SkipIndexes: true})

	req := QueryRequest{K: 5, Aggregate: "wsum"} // auto WSUM fans out; SUM would be view-served
	plain, err := s.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced request returned a trace")
	}

	// The identical traced request hits the cache and says so.
	req.Trace = true
	hit, err := s.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Trace == nil {
		t.Fatalf("expected a cached traced answer, got cached=%v trace=%v", hit.Cached, hit.Trace)
	}
	if len(hit.Trace.Events) != 1 || hit.Trace.Events[0].Kind != trace.KindCacheHit {
		t.Fatalf("cache-hit trace should be exactly one cache-hit event, got %+v", hit.Trace.Events)
	}

	// A traced cold query returns the real stitched timeline...
	req.K = 7 // different cache key
	cold, err := s.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached || cold.Trace == nil || cold.Trace.ID == "" {
		t.Fatalf("traced cold query: cached=%v trace=%+v", cold.Cached, cold.Trace)
	}
	kinds := map[string]bool{}
	for _, e := range cold.Trace.Events {
		kinds[e.Kind] = true
	}
	for _, want := range []string{trace.KindCacheMiss, trace.KindProbe, trace.KindLaunch, trace.KindExec, trace.KindShardStats} {
		if !kinds[want] {
			t.Errorf("stitched trace missing a %q event; kinds seen: %v", want, kinds)
		}
	}
	if len(cold.Trace.PerShard) != 2 {
		t.Errorf("traced sharded answer has %d shard reports, want 2", len(cold.Trace.PerShard))
	}

	// ...and never populates the cache: the same query untraced must
	// execute, not hit.
	misses := s.Stats().Cache.Misses
	req.Trace = false
	again, err := s.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("traced execution leaked into the result cache")
	}
	if got := s.Stats().Cache.Misses; got != misses+1 {
		t.Fatalf("expected one more miss (traced answers are uncacheable), got %d -> %d", misses, got)
	}
}

// TestSlowQueryWideEvent checks the -slow-query-ms path: with a
// nanosecond threshold every execution qualifies, the configured logger
// receives exactly one wide event per query — escalated to WARN with
// slow=true, not a separate multi-line dump — and the counter advances.
func TestSlowQueryWideEvent(t *testing.T) {
	g := testGraph(150, 300, 31)
	scores := testScores(150, 32)
	var buf lockedBuffer
	opts := Options{
		SkipIndexes: true,
		SlowQuery:   time.Nanosecond,
		Logger:      slog.New(slog.NewJSONHandler(&buf, nil)),
	}
	s := mustServer(t, g, scores, 2, opts)
	if _, err := s.Run(ctx, QueryRequest{K: 3, Aggregate: "sum"}); err != nil {
		t.Fatal(err)
	}
	lines := buf.Lines()
	if len(lines) != 1 {
		t.Fatalf("got %d log lines, want 1: %q", len(lines), lines)
	}
	if isWide, err := wideevent.Validate([]byte(lines[0])); !isWide || err != nil {
		t.Fatalf("slow-query line is not a valid wide event (wide=%v err=%v): %s", isWide, err, lines[0])
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["level"] != "WARN" || ev["slow"] != true || ev["event"] != string(wideevent.EventQuery) {
		t.Fatalf("slow query not escalated: level=%v slow=%v event=%v", ev["level"], ev["slow"], ev["event"])
	}
	if id, _ := ev["trace_id"].(string); id == "" {
		t.Fatalf("wide event carries no trace id: %s", lines[0])
	}
	if got := s.Stats().SlowQueries; got != 1 {
		t.Fatalf("slow-query counter = %d, want 1", got)
	}
}

// TestWideEventsUnderLoad hammers sharded queries past the SlowQuery
// threshold — interleaved with score batches — while /metrics is being
// scraped. Run with -race this is the torn-emission check: every line
// the server logs must validate against the wide-event schema and carry
// a non-empty trace id.
func TestWideEventsUnderLoad(t *testing.T) {
	g := testGraph(300, 600, 61)
	scores := testScores(300, 62)
	var buf lockedBuffer
	s := mustServer(t, g, scores, 2, Options{
		Shards: 3, SkipIndexes: true, CacheBytes: -1,
		SlowQuery: time.Nanosecond,
		Logger:    slog.New(slog.NewJSONHandler(&buf, nil)),
		SLO:       SLO{Latency: 5 * time.Millisecond, Target: 0.99},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	const workers, perWorker = 3, 25
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body := fmt.Sprintf(`{"k":%d,"aggregate":"wsum"}`, 1+(w+i)%6)
				resp, err := http.Post(srv.URL+"/v1/topk", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("topk %d/%d: status %d", w, i, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // score batches, racing the queries
		defer wg.Done()
		for i := 0; i < 8; i++ {
			body := fmt.Sprintf(`{"updates":[{"node":%d,"score":%f}]}`, i*7%300, 0.1*float64(i))
			resp, err := http.Post(srv.URL+"/v1/scores", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("scores %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // scrape the window-bearing exposition concurrently
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := promtext.Validate(scrape(t, srv.URL, "/metrics")); err != nil {
				errs <- fmt.Errorf("scrape %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	lines := buf.Lines()
	var wide, queries int
	for _, l := range lines {
		isWide, err := wideevent.Validate([]byte(l))
		if err != nil {
			t.Errorf("invalid wide event: %v\n%s", err, l)
		}
		if isWide {
			wide++
		}
		if strings.Contains(l, `"event":"query"`) {
			queries++
		}
	}
	if queries != workers*perWorker {
		t.Errorf("got %d query wide events, want %d", queries, workers*perWorker)
	}
	if wide < queries {
		t.Errorf("only %d of %d lines are wide events", wide, len(lines))
	}

	body := s.renderMetrics()
	for _, want := range []string{
		"lona_latency_window_seconds_bucket", "lona_latency_window_queries",
		"lona_shard_window_queries", "lona_slo_burn_rate",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestWindowDecayAndSLOBurn marches an injected clock through the
// rolling window: a burst of over-objective latencies flips /v1/health
// to 503 "degraded", then advancing the clock past the window decays the
// window histogram back to empty — while the cumulative histograms stay
// exactly where they were — and health recovers to 200.
func TestWindowDecayAndSLOBurn(t *testing.T) {
	g := testGraph(120, 240, 71)
	scores := testScores(120, 72)
	s := mustServer(t, g, scores, 2, Options{
		SkipIndexes: true,
		SLO:         SLO{Latency: 10 * time.Millisecond, Target: 0.9},
	})
	base := time.Unix(1_700_000_000, 0)
	var clock atomic.Int64
	clock.Store(base.Unix())
	s.metrics.window.now = func() time.Time { return time.Unix(clock.Load(), 0) }

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for i := 1; i <= 3; i++ { // real queries fill the cumulative hists
		if _, err := s.Run(ctx, QueryRequest{K: i, Aggregate: "sum"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ { // and a burst of objective violations
		s.metrics.window.observe(50*time.Millisecond, true)
	}

	st := s.Stats()
	if st.SLO == nil || !st.SLO.Burning || st.SLO.BurnRate < 1 {
		t.Fatalf("burst did not trip the SLO: %+v", st.SLO)
	}
	if st.LatencyWindow.Count < 50 {
		t.Fatalf("window count %d after 50 observations", st.LatencyWindow.Count)
	}
	resp, err := http.Get(srv.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK     bool      `json:"ok"`
		Status string    `json:"status"`
		SLO    *SLOStats `json:"slo"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health.Status != "degraded" {
		t.Fatalf("burning SLO answered %d %q, want 503 degraded", resp.StatusCode, health.Status)
	}
	if !health.OK || health.SLO == nil || !health.SLO.Burning {
		t.Fatalf("degraded health body malformed: %+v", health)
	}

	var cumulative int64
	for _, l := range st.Latency {
		cumulative += l.Count
	}

	// March the clock past the whole window: every slot expires.
	clock.Store(base.Add((windowSlots + 1) * windowSlotSeconds * time.Second).Unix())

	st2 := s.Stats()
	if st2.LatencyWindow.Count != 0 {
		t.Fatalf("window did not decay: count %d", st2.LatencyWindow.Count)
	}
	if st2.SLO.Burning || st2.SLO.BurnRate != 0 {
		t.Fatalf("SLO still burning on an empty window: %+v", st2.SLO)
	}
	var cumulative2 int64
	for _, l := range st2.Latency {
		cumulative2 += l.Count
	}
	if cumulative2 != cumulative {
		t.Fatalf("cumulative histograms moved with the window: %d -> %d", cumulative, cumulative2)
	}
	resp, err = http.Get(srv.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered window still answers %d", resp.StatusCode)
	}
}

// TestOTLPExportStitchesShardSpans runs a coordinator over HTTP shard
// workers with a trace exporter pointed at a collector stub: one query
// must arrive as one OTLP trace whose coordinator root span and
// per-shard worker spans all share a single trace id.
func TestOTLPExportStitchesShardSpans(t *testing.T) {
	var mu sync.Mutex
	var got []otlp.Request
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req otlp.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		got = append(got, req)
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer collector.Close()

	g := testGraph(300, 900, 81)
	scores := testScores(300, 81)
	const parts = 2
	shards, _, err := cluster.BuildShards(g, scores, 2, parts)
	if err != nil {
		t.Fatal(err)
	}
	workerURLs := make([]string, parts)
	for i, sh := range shards {
		w := httptest.NewServer(cluster.NewWorker(sh).Handler())
		defer w.Close()
		workerURLs[i] = w.URL
	}

	exp := otlp.NewExporter(collector.URL, otlp.ExporterOptions{})
	s := mustServer(t, g, scores, 2, Options{
		SkipIndexes: true, ShardWorkers: workerURLs,
		TraceExporter: exp, CacheBytes: -1,
	})
	if _, err := s.Run(ctx, QueryRequest{K: 5, Aggregate: "wsum"}); err != nil {
		t.Fatal(err)
	}
	closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := exp.Close(closeCtx); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("collector received %d batches, want 1", len(got))
	}
	var spans []otlp.Span
	for _, rs := range got[0].ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			spans = append(spans, ss.Spans...)
		}
	}
	ids := map[string]bool{}
	names := map[string]bool{}
	var rootID string
	for _, sp := range spans {
		ids[sp.TraceID] = true
		names[sp.Name] = true
		if sp.ParentSpanID == "" {
			rootID = sp.SpanID
		}
	}
	if len(ids) != 1 {
		t.Fatalf("spans carry %d distinct trace ids, want 1: %v", len(ids), ids)
	}
	for _, want := range []string{"lona.query", "lona.shard/0", "lona.shard/1", "exec"} {
		if !names[want] {
			t.Errorf("trace missing a %q span; got %v", want, names)
		}
	}
	if rootID == "" {
		t.Fatal("no root span in the exported trace")
	}
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "lona.shard/") && sp.ParentSpanID != rootID {
			t.Errorf("shard span %s not parented to the root", sp.Name)
		}
	}
	if st := s.Stats(); st.OTLP == nil || st.OTLP.Exported != 1 {
		t.Errorf("exporter stats not surfaced: %+v", st.OTLP)
	}
}

// TestRenderMetricsIsValid validates the exposition on quiet, busy, and
// unsharded servers — including the histogram families, whose log2
// buckets must satisfy the cumulative invariants promtext enforces.
func TestRenderMetricsIsValid(t *testing.T) {
	g := testGraph(150, 300, 51)
	scores := testScores(150, 52)
	for _, shards := range []int{0, 2} {
		s := mustServer(t, g, scores, 2, Options{Shards: shards, SkipIndexes: true})
		if err := promtext.Validate([]byte(s.renderMetrics())); err != nil {
			t.Fatalf("quiet server (shards=%d): %v", shards, err)
		}
		for i := 1; i <= 4; i++ {
			// WSUM fans out when sharded; SUM exercises the "view" label.
			for _, agg := range []string{"wsum", "sum"} {
				if _, err := s.Run(ctx, QueryRequest{K: i, Aggregate: agg}); err != nil {
					t.Fatal(err)
				}
			}
		}
		body := s.renderMetrics()
		if err := promtext.Validate([]byte(body)); err != nil {
			t.Fatalf("busy server (shards=%d): %v\n%s", shards, err, body)
		}
		if !strings.Contains(body, `lona_query_duration_seconds_bucket{algorithm="view",`) {
			t.Fatal("view-routed queries missing from the per-algorithm latency histogram in /metrics")
		}
		if shards > 1 && !strings.Contains(body, `lona_shard_query_duration_seconds_bucket{shard="0",`) {
			t.Fatal("per-shard latency histogram missing from /metrics")
		}
	}
}
