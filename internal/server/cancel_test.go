package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/relevance"
)

// collabServer builds the acceptance-scale server once: the scale-0.2
// collaboration network at h=3, heavy enough that an uncancelled "base"
// query runs for hundreds of milliseconds — far above the scheduler's
// timer-delivery granularity. Indexes are skipped: the deadline tests
// force "base", which needs none.
var (
	collabOnce sync.Once
	collabSrv  *Server
)

func collabServer(t *testing.T) *Server {
	t.Helper()
	collabOnce.Do(func() {
		g := gen.Collaboration(gen.DatasetScale(0.2), 20100301)
		scores := relevance.Mixture(g, relevance.MixtureParams{BlackingRatio: 0.01}, 20100302)
		s, err := New(g, scores, 3, Options{SkipIndexes: true})
		if err != nil {
			panic(err)
		}
		collabSrv = s
	})
	return collabSrv
}

// slowQuery is the request the deadline/disconnect tests abandon.
var slowQuery = QueryRequest{K: 100, Aggregate: "sum", Algorithm: "base"}

// TestTimeoutMSDeadlinesInProcess is the serving half of the acceptance
// test: a timeout_ms far below the query's runtime returns
// context.DeadlineExceeded well before the uncancelled runtime, the
// timeout counter increments, and the server keeps serving.
func TestTimeoutMSDeadlinesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance-scale graph")
	}
	s := collabServer(t)

	start := time.Now()
	if _, err := s.Run(context.Background(), slowQuery); err != nil {
		t.Fatal(err)
	}
	uncancelled := time.Since(start)

	timeoutsBefore := s.Stats().QueryTimeouts
	// A fresh k dodges the result cache (a cached answer would — correctly
	// — beat any deadline) so the timeout hits a live engine query.
	deadlined := slowQuery
	deadlined.K = 110
	deadlined.TimeoutMS = 25
	start = time.Now()
	_, err := s.Run(context.Background(), deadlined)
	aborted := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v after %v, want context.DeadlineExceeded", err, aborted)
	}
	if uncancelled > 100*time.Millisecond && aborted > uncancelled/2 {
		t.Fatalf("deadlined query took %v, want well under the uncancelled %v", aborted, uncancelled)
	}
	if got := s.Stats().QueryTimeouts; got != timeoutsBefore+1 {
		t.Fatalf("QueryTimeouts = %d, want %d", got, timeoutsBefore+1)
	}

	// Deadlined answers are not cached, and the server still serves: the
	// same request with a generous timeout completes cold.
	generous := deadlined
	generous.TimeoutMS = 120000
	ans, err := s.Run(context.Background(), generous)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Cached {
		t.Fatal("deadlined failure left a cached entry behind")
	}
	if len(ans.Results) != generous.K {
		t.Fatalf("post-timeout query returned %d results", len(ans.Results))
	}
}

// TestTimeoutMSOverHTTP drives the same acceptance through the full
// handler: timeout_ms surfaces as 504 with a JSON error, well before the
// uncancelled runtime.
func TestTimeoutMSOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance-scale graph")
	}
	s := collabServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/topk", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, blob
	}

	start := time.Now()
	resp, body := post(`{"k":100,"aggregate":"sum","algorithm":"base"}`)
	uncancelled := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query status %d: %s", resp.StatusCode, body)
	}

	// A fresh k dodges the result cache so the deadline hits a live query.
	start = time.Now()
	resp, body = post(`{"k":101,"aggregate":"sum","algorithm":"base","timeout_ms":25}`)
	aborted := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("non-JSON 504 body %q", body)
	}
	if uncancelled > 100*time.Millisecond && aborted > uncancelled/2 {
		t.Fatalf("deadlined request took %v, want well under the uncancelled %v", aborted, uncancelled)
	}
}

// TestClientDisconnectAbortsQuery: dropping the HTTP connection mid-query
// cancels the engine work (the cancel counter moves) and leaves the server
// fully serving.
func TestClientDisconnectAbortsQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance-scale graph")
	}
	s := collabServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	cancelsBefore := s.Stats().QueryCancels
	ctx, cancel := context.WithCancel(context.Background())
	// A fresh k dodges the cache; cancel the client a moment in.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/topk",
		strings.NewReader(`{"k":102,"aggregate":"sum","algorithm":"base"}`))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("request succeeded despite client cancellation")
	}

	// The handler goroutine notices asynchronously; wait for the counter.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().QueryCancels == cancelsBefore {
		if time.Now().After(deadline) {
			t.Fatal("query cancellation never recorded after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The server still answers.
	ans, err := s.Run(context.Background(), QueryRequest{K: 5, Aggregate: "sum", Algorithm: "base"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) != 5 {
		t.Fatalf("post-disconnect query returned %d results", len(ans.Results))
	}
}

// TestRequestBudgetAndCandidatesOverWire: the new Query fields round-trip
// through the JSON API — budget truncation is flagged, candidate
// restriction binds, and both participate in the cache key.
func TestRequestBudgetAndCandidatesOverWire(t *testing.T) {
	g := testGraph(80, 240, 51)
	s := mustServer(t, g, testScores(80, 51), 2, Options{SkipIndexes: true})

	full, err := s.Run(ctx, QueryRequest{K: 10, Aggregate: "sum", Algorithm: "base"})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Fatal("unbudgeted answer flagged truncated")
	}

	capped, err := s.Run(ctx, QueryRequest{K: 10, Aggregate: "sum", Algorithm: "base", Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Truncated || capped.Stats.Evaluated != 5 {
		t.Fatalf("budget 5: truncated=%v evaluated=%d", capped.Truncated, capped.Stats.Evaluated)
	}
	if capped.Cached {
		t.Fatal("budgeted request wrongly hit the unbudgeted cache entry")
	}

	// Candidate restriction binds and is canonicalized into the cache key:
	// the same set in a different order (with duplicates) is a cache hit.
	restricted, err := s.Run(ctx, QueryRequest{K: 3, Aggregate: "sum", Algorithm: "base", Candidates: []int{7, 3, 11}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range restricted.Results {
		if r.Node != 3 && r.Node != 7 && r.Node != 11 {
			t.Fatalf("non-candidate node %d in restricted answer", r.Node)
		}
	}
	again, err := s.Run(ctx, QueryRequest{K: 3, Aggregate: "sum", Algorithm: "base", Candidates: []int{11, 7, 3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("equivalent candidate sets did not share a cache key")
	}

	// Validation errors surface for the new fields.
	if _, err := s.Run(ctx, QueryRequest{K: 3, Aggregate: "sum", Budget: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := s.Run(ctx, QueryRequest{K: 3, Aggregate: "sum", TimeoutMS: -5}); err == nil {
		t.Fatal("negative timeout_ms accepted")
	}
	if _, err := s.Run(ctx, QueryRequest{K: 3, Aggregate: "sum", Candidates: []int{80}}); err == nil {
		t.Fatal("out-of-range candidate accepted")
	}

	// The stats report byte-accounted cache usage.
	st := s.Stats()
	if st.Cache.Bytes <= 0 || st.Cache.CapacityBytes <= 0 {
		t.Fatalf("cache byte stats not populated: %+v", st.Cache)
	}
	if st.Cache.Bytes > st.Cache.CapacityBytes {
		t.Fatalf("cache bytes %d exceed capacity %d", st.Cache.Bytes, st.Cache.CapacityBytes)
	}
}

// TestSingleflightSurvivorReexecutes: when the caller that executes a
// collapsed query is cancelled, a waiter with a live context re-executes
// instead of inheriting the cancellation.
func TestSingleflightSurvivorReexecutes(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance-scale graph")
	}
	s := collabServer(t)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()

	req := QueryRequest{K: 103, Aggregate: "sum", Algorithm: "base"}
	var wg sync.WaitGroup
	wg.Add(2)
	leaderErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := s.Run(leaderCtx, req)
		leaderErr <- err
	}()
	go func() {
		defer wg.Done()
		time.Sleep(20 * time.Millisecond) // let the leader take the flight
		cancelLeader()
	}()
	// This caller may join the leader's flight and see it cancelled; the
	// retry path must still deliver a real answer.
	ans, err := s.Run(context.Background(), req)
	wg.Wait()
	if err != nil {
		t.Fatalf("surviving caller got %v", err)
	}
	if len(ans.Results) != 103 {
		t.Fatalf("surviving caller got %d results", len(ans.Results))
	}
	if err := <-leaderErr; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("leader got %v, want nil or context.Canceled", err)
	}
}
