package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// postJSON POSTs a JSON body and returns the response body, failing the
// test on a non-200 status.
func postJSON(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s answered %d: %s", url, resp.StatusCode, blob)
	}
	return string(blob)
}

// shardedPair builds an unsharded and a P-sharded server over the same
// dataset, both without eager indexes (tiny test graphs).
func shardedPair(t *testing.T, n, m int, seed int64, parts int) (*Server, *Server) {
	t.Helper()
	g := testGraph(n, m, seed)
	scores := testScores(n, seed)
	plain := mustServer(t, g, scores, 2, Options{SkipIndexes: true})
	sharded := mustServer(t, g, scores, 2, Options{SkipIndexes: true, Shards: parts})
	return plain, sharded
}

// TestShardedMatchesUnsharded: every algorithm the wire accepts returns
// the identical answer through the coordinator fan-out.
func TestShardedMatchesUnsharded(t *testing.T) {
	plain, sharded := shardedPair(t, 400, 1200, 7, 4)
	if got := sharded.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	for _, algo := range []string{"auto", "base", "parallel", "forward-dist", "backward", "backward-naive"} {
		aggs := []string{"sum", "avg", "count"}
		if algo == "auto" {
			// Live auto SUM/AVG/COUNT is answered by the view (below);
			// WSUM and MAX are what auto still fans out.
			aggs = []string{"wsum", "max"}
		}
		for _, agg := range aggs {
			req := QueryRequest{K: 10, Aggregate: agg, Algorithm: algo}
			want, err := plain.Run(ctx, req)
			if err != nil {
				t.Fatalf("%s/%s plain: %v", algo, agg, err)
			}
			got, err := sharded.Run(ctx, req)
			if err != nil {
				t.Fatalf("%s/%s sharded: %v", algo, agg, err)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("%s/%s: sharded results diverge", algo, agg)
			}
			if got.Shards != 4 && !got.Cached {
				t.Fatalf("%s/%s: answer did not report its shard count: %+v", algo, agg, got)
			}
		}
	}
	// The view path — named, or routed to by auto — stays whole-graph and
	// unsharded.
	for _, algo := range []string{"view", "auto"} {
		vans, err := sharded.Run(ctx, QueryRequest{K: 10, Aggregate: "sum", Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		if vans.Algorithm != "view" || vans.Shards != 0 {
			t.Fatalf("%s/sum: want an unsharded view answer, got %+v", algo, vans)
		}
	}
}

// TestShardedScoreUpdates: update batches reach the shard engines, and
// post-update answers match an unsharded server fed the same batch.
func TestShardedScoreUpdates(t *testing.T) {
	plain, sharded := shardedPair(t, 300, 900, 11, 4)
	updates := []ScoreUpdate{{Node: 5, Score: 1}, {Node: 200, Score: 0}, {Node: 77, Score: 0.25}}
	if _, err := plain.ApplyUpdates(updates); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.ApplyUpdates(updates); err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{K: 10, Aggregate: "sum", Algorithm: "base"}
	want, err := plain.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached || got.Generation != 1 {
		t.Fatalf("post-update answer not fresh: %+v", got)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatal("sharded post-update results diverge")
	}
}

// TestShardedStatsFollowTopology checks the /v1/stats cluster section
// describes the boot-time shard topology and that its per-shard latency
// rows account for every shard query.
func TestShardedStatsFollowTopology(t *testing.T) {
	g := testGraph(200, 600, 17)
	s := mustServer(t, g, testScores(200, 17), 2, Options{SkipIndexes: true, Shards: 3})
	if _, err := s.Run(ctx, QueryRequest{K: 5, Aggregate: "wsum"}); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.Cluster == nil || stats.Cluster.Shards != 3 || len(stats.Cluster.PerShard) != 3 {
		t.Fatalf("cluster stats do not describe 3 shards: %+v", stats.Cluster)
	}
	if stats.Cluster.ShardQueries == 0 || stats.Cluster.Messages == 0 {
		t.Fatalf("cluster counters flat after a query: %+v", stats.Cluster)
	}
	var perShardQueries int64
	for _, sh := range stats.Cluster.PerShard {
		perShardQueries += sh.Latency.Count
	}
	if perShardQueries != stats.Cluster.ShardQueries {
		t.Fatalf("per-shard latency counts %d != shard queries %d", perShardQueries, stats.Cluster.ShardQueries)
	}
}

// TestServerOverShardWorkers runs a full coordinator server over HTTP
// shard workers and cross-checks results and updates.
func TestServerOverShardWorkers(t *testing.T) {
	g := testGraph(300, 900, 19)
	scores := testScores(300, 19)
	const parts = 3

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

	plain := mustServer(t, g, scores, 2, Options{SkipIndexes: true})
	coord := mustServer(t, g, scores, 2, Options{SkipIndexes: true, ShardWorkers: workerURLs})

	req := QueryRequest{K: 10, Aggregate: "sum", Algorithm: "base"}
	want, err := plain.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatal("worker-backed results diverge")
	}
	if got.Shards != parts {
		t.Fatalf("answer reports %d shards, want %d", got.Shards, parts)
	}

	// Updates fan out to the workers before the local generation bumps.
	updates := []ScoreUpdate{{Node: 3, Score: 0.9}, {Node: 250, Score: 0}}
	if _, err := plain.ApplyUpdates(updates); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.ApplyUpdates(updates); err != nil {
		t.Fatal(err)
	}
	want, err = plain.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err = coord.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatal("worker-backed post-update results diverge")
	}

	st := coord.Stats()
	if st.Cluster == nil || !st.Cluster.Remote {
		t.Fatalf("worker-backed stats not marked remote: %+v", st.Cluster)
	}

	// A worker list from a different dataset is refused at startup.
	other := testGraph(100, 300, 23)
	if _, err := New(other, testScores(100, 23), 2, Options{SkipIndexes: true, ShardWorkers: workerURLs}); err == nil {
		t.Fatal("mismatched worker dataset accepted")
	}
	// So is a hop-radius mismatch: same nodes, different h.
	if _, err := New(g, scores, 3, Options{SkipIndexes: true, ShardWorkers: workerURLs}); err == nil {
		t.Fatal("mismatched hop radius accepted")
	}
	// Shards and ShardWorkers are mutually exclusive.
	if _, err := New(g, scores, 2, Options{SkipIndexes: true, Shards: 2, ShardWorkers: workerURLs}); err == nil {
		t.Fatal("Shards+ShardWorkers accepted")
	}
}
