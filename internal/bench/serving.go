package bench

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// ServingSummary is the machine-readable result of the S1 serving
// benchmark — cmd/lonabench writes it as BENCH_serving.json so the
// serving-path performance trajectory is tracked mechanically across PRs.
type ServingSummary struct {
	Dataset string  `json:"dataset"`
	Scale   float64 `json:"scale"`
	Nodes   int     `json:"nodes"`
	Edges   int     `json:"edges"`
	H       int     `json:"h"`
	K       int     `json:"k"`

	ColdP50US       float64 `json:"cold_p50_us"`
	ColdP99US       float64 `json:"cold_p99_us"`
	CachedP50US     float64 `json:"cached_p50_us"`
	CachedP99US     float64 `json:"cached_p99_us"`
	PostUpdateP50US float64 `json:"post_update_p50_us"`
	PostUpdateP99US float64 `json:"post_update_p99_us"`

	// SpeedupP50 is cold p50 / cached p50 — the headline cache win.
	SpeedupP50 float64 `json:"speedup_p50"`
	// CachedQPS is the sustained throughput of concurrent cache-hit
	// queries through the full HTTP handler.
	CachedQPS float64 `json:"cached_qps"`
	// CacheHitRate is the server's lifetime hit rate over the whole run.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// UpdateMeanUS is the mean wall-clock cost of a one-node score batch
	// (view repair + engine rebuild + generation bump).
	UpdateMeanUS float64 `json:"update_mean_us"`
}

// servingSamples per phase. Cold and post-update queries run a real engine
// query each, so they stay modest; cached hits are near-free.
const (
	servingColdSamples   = 12
	servingCachedSamples = 2000
	servingUpdateSamples = 12
	servingQPSWorkers    = 4
	servingQPSPerWorker  = 500
)

// RunServing executes S1 and returns only the Result grid.
func (w *Workspace) RunServing() (*Result, error) {
	res, _, err := w.RunServingDetailed()
	return res, err
}

// RunServingDetailed benchmarks the serving subsystem on the default
// synthetic dataset (Collaboration, mixture relevance, r=0.01, 2-hop):
// per-request latency through the full HTTP handler for cold queries
// (distinct requests, every one a cache miss), cached repeats (unchanged
// generation), and post-update queries (first query after a score batch,
// i.e. a fresh generation), plus sustained cache-hit throughput under
// concurrency.
func (w *Workspace) RunServingDetailed() (*Result, *ServingSummary, error) {
	g, err := w.Graph(Collaboration)
	if err != nil {
		return nil, nil, err
	}
	scores, err := w.Scores(g, MixtureScores, 0.01)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	srv, err := server.New(g, scores, hops, server.Options{Workers: w.cfg.Workers})
	if err != nil {
		return nil, nil, err
	}
	w.logf("S1 server ready in %.1fs (%d nodes, %d edges)",
		time.Since(start).Seconds(), g.NumNodes(), g.NumEdges())
	handler := srv.Handler()

	do := func(body string) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/topk", strings.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("S1 query failed (%d): %s", rec.Code, rec.Body.String())
		}
		return d, nil
	}
	// WSUM, not SUM: the server answers live auto SUM/AVG/COUNT from its
	// materialized view, and S1's cold and post-update rows exist to price
	// a planner-chosen engine query against a cache hit.
	topkBody := func(k int) string {
		return fmt.Sprintf(`{"k":%d,"aggregate":"wsum","algorithm":"auto"}`, k)
	}
	const servedK = 100 // the middle of the paper's 1..300 sweep

	// Cold: distinct k per request, so every query misses the cache and
	// runs the planner-chosen engine algorithm.
	var cold []time.Duration
	for i := 0; i < servingColdSamples; i++ {
		d, err := do(topkBody(servedK + i))
		if err != nil {
			return nil, nil, err
		}
		cold = append(cold, d)
	}
	w.logf("S1 cold: p50 %.0fµs p99 %.0fµs", quantileUS(cold, 0.5), quantileUS(cold, 0.99))

	// Cached: one request repeated at an unchanged generation.
	var cached []time.Duration
	for i := 0; i < servingCachedSamples; i++ {
		d, err := do(topkBody(servedK))
		if err != nil {
			return nil, nil, err
		}
		cached = append(cached, d)
	}
	w.logf("S1 cached: p50 %.0fµs p99 %.0fµs", quantileUS(cached, 0.5), quantileUS(cached, 0.99))

	// Post-update: each score batch bumps the generation, so the next
	// query pays a full recomputation — the serving cost of freshness.
	var postUpdate []time.Duration
	var updateUS float64
	for i := 0; i < servingUpdateSamples; i++ {
		node := (i * 7919) % g.NumNodes()
		score := float64(i%10) / 10
		t0 := time.Now()
		updReq := httptest.NewRequest(http.MethodPost, "/v1/scores",
			strings.NewReader(fmt.Sprintf(`{"updates":[{"node":%d,"score":%g}]}`, node, score)))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, updReq)
		if rec.Code != http.StatusOK {
			return nil, nil, fmt.Errorf("S1 update failed (%d): %s", rec.Code, rec.Body.String())
		}
		updateUS += float64(time.Since(t0).Microseconds())
		d, err := do(topkBody(servedK))
		if err != nil {
			return nil, nil, err
		}
		postUpdate = append(postUpdate, d)
	}
	updateUS /= servingUpdateSamples
	w.logf("S1 post-update: p50 %.0fµs p99 %.0fµs (update mean %.0fµs)",
		quantileUS(postUpdate, 0.5), quantileUS(postUpdate, 0.99), updateUS)

	// Throughput: concurrent identical cache-hit queries.
	if _, err := do(topkBody(servedK)); err != nil { // ensure the entry is warm
		return nil, nil, err
	}
	var wg sync.WaitGroup
	qpsErrs := make(chan error, servingQPSWorkers)
	t0 := time.Now()
	for wk := 0; wk < servingQPSWorkers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < servingQPSPerWorker; i++ {
				if _, err := do(topkBody(servedK)); err != nil {
					qpsErrs <- err
					return
				}
			}
			qpsErrs <- nil
		}()
	}
	wg.Wait()
	for wk := 0; wk < servingQPSWorkers; wk++ {
		if err := <-qpsErrs; err != nil {
			return nil, nil, err
		}
	}
	qps := float64(servingQPSWorkers*servingQPSPerWorker) / time.Since(t0).Seconds()
	stats := srv.Stats()
	w.logf("S1 throughput: %.0f QPS (hit rate %.3f)", qps, stats.Cache.HitRate)

	sum := &ServingSummary{
		Dataset: Collaboration.String(), Scale: w.cfg.Scale,
		Nodes: g.NumNodes(), Edges: g.NumEdges(), H: hops, K: servedK,
		ColdP50US: quantileUS(cold, 0.5), ColdP99US: quantileUS(cold, 0.99),
		CachedP50US: quantileUS(cached, 0.5), CachedP99US: quantileUS(cached, 0.99),
		PostUpdateP50US: quantileUS(postUpdate, 0.5), PostUpdateP99US: quantileUS(postUpdate, 0.99),
		CachedQPS: qps, CacheHitRate: stats.Cache.HitRate, UpdateMeanUS: updateUS,
	}
	if sum.CachedP50US > 0 {
		sum.SpeedupP50 = sum.ColdP50US / sum.CachedP50US
	}

	res := &Result{
		ID:    "S1",
		Title: "Serving: cold vs cached vs post-update latency (lonad, WSUM, auto)",
		XName: "k",
		Notes: fmt.Sprintf("%s @ scale %v (%d nodes, %d edges), h=%d; latency through the HTTP handler; QPS over %d concurrent workers",
			Collaboration, w.cfg.Scale, g.NumNodes(), g.NumEdges(), hops, servingQPSWorkers),
	}
	addPhase := func(label string, samples []time.Duration, extra map[string]float64) {
		row := Row{
			X: float64(servedK), Label: label,
			Sec: quantileUS(samples, 0.5) / 1e6,
			Extra: map[string]float64{
				"p50_us":  quantileUS(samples, 0.5),
				"p99_us":  quantileUS(samples, 0.99),
				"samples": float64(len(samples)),
			},
		}
		for k, v := range extra {
			row.Extra[k] = v
		}
		res.Rows = append(res.Rows, row)
	}
	addPhase("cold", cold, nil)
	addPhase("cached", cached, map[string]float64{"qps": qps, "hit_rate": stats.Cache.HitRate})
	addPhase("post-update", postUpdate, map[string]float64{"update_mean_us": updateUS})
	return res, sum, nil
}

// quantileUS returns the exact q-quantile of the samples in microseconds.
func quantileUS(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Nanoseconds()) / 1e3
}
