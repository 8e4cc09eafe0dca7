package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/journal"
	snapfmt "repro/internal/snapshot"
)

// ringGraph builds a deterministic cycle with a few chords — the
// low-degree, high-diameter shape the random generators never produce.
func ringGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	for v := 0; v < n; v += 7 {
		b.AddEdge(v, (v+n/3)%n)
	}
	return b.Build()
}

// mustJournal opens a journal handle in dir, failing the test on error.
func mustJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// driveMutations applies the canonical 5-commit sequence (scores, edits,
// scores-on-the-new-node, edits, scores) used by the replay-equivalence
// and temporal tests.
func driveMutations(t *testing.T, s *Server, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	batch := func(nodes ...int) []ScoreUpdate {
		ups := make([]ScoreUpdate, len(nodes))
		for i, v := range nodes {
			ups[i] = ScoreUpdate{Node: v, Score: rng.Float64()}
		}
		return ups
	}
	n := s.Graph().NumNodes()
	if _, err := s.ApplyUpdates(batch(1, 5, n-1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyEdits(editBatch(s.Graph())); err != nil {
		t.Fatal(err)
	}
	// The node the edit batch just appended gets a score of its own.
	if _, err := s.ApplyUpdates(batch(n, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyEdits(editBatch(s.Graph())); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyUpdates(batch(0, n/2)); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplayEquivalence is the versioned-lake property: for every
// graph shape, snapshot@0 (the pristine boot inputs) + journal replay of
// the full commit history reconstructs the live server bit-identically —
// same generation, and byte-identical answers for every aggregate,
// because replay drives the exact incremental apply paths the live
// batches took.
func TestJournalReplayEquivalence(t *testing.T) {
	shapes := []struct {
		name string
		g    *graph.Graph
	}{
		{"sparse", testGraph(200, 300, 3)},
		{"dense", testGraph(120, 2000, 5)},
		{"scale-free", gen.BarabasiAlbert(250, 3, 9)},
		{"ring", ringGraph(180)},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			g := shape.g
			scores := testScores(g.NumNodes(), 11)
			dir := t.TempDir()

			live := mustServer(t, g, append([]float64(nil), scores...), 2,
				Options{SkipIndexes: true, Journal: mustJournal(t, dir)})
			driveMutations(t, live, 17)

			replayed := mustServer(t, g, append([]float64(nil), scores...), 2,
				Options{SkipIndexes: true, Journal: mustJournal(t, dir)})
			if got, want := replayed.Generation(), live.Generation(); got != want {
				t.Fatalf("replayed generation %d, live %d", got, want)
			}
			if js := replayed.Stats().Journal; js == nil || js.Replayed != 5 {
				t.Fatalf("replayed-commit counter wrong: %+v", js)
			} else if js.Retained != 6 || js.OldestRetained != 0 {
				// The boot generation plus every replayed one is
				// addressable: replay rebuilds the ring, not just the tip.
				t.Fatalf("retention ring after replay: %+v", js)
			}
			for _, agg := range []string{"sum", "avg", "count"} {
				for _, algo := range []string{"base", "backward", "view"} {
					req := QueryRequest{K: 12, Aggregate: agg, Algorithm: algo}
					want, err := live.Run(ctx, req)
					if err != nil {
						t.Fatalf("%s/%s live: %v", agg, algo, err)
					}
					got, err := replayed.Run(ctx, req)
					if err != nil {
						t.Fatalf("%s/%s replayed: %v", agg, algo, err)
					}
					identicalResults(t, agg+"/"+algo, got.Results, want.Results)
				}
			}
		})
	}
}

// TestJournalReplayEquivalenceSharded: a server BOOTED from a journal
// shards the replayed (current) generation, not the stale boot inputs —
// its fan-out answers match the unsharded live server.
func TestJournalReplayEquivalenceSharded(t *testing.T) {
	g := testGraph(300, 900, 7)
	scores := testScores(300, 7)
	dir := t.TempDir()

	live := mustServer(t, g, append([]float64(nil), scores...), 2,
		Options{SkipIndexes: true, Journal: mustJournal(t, dir)})
	driveMutations(t, live, 23)

	sharded := mustServer(t, g, append([]float64(nil), scores...), 2,
		Options{SkipIndexes: true, Shards: 3, Journal: mustJournal(t, dir)})
	if got, want := sharded.Generation(), live.Generation(); got != want {
		t.Fatalf("sharded replay landed at generation %d, live is %d", got, want)
	}
	for _, agg := range []string{"sum", "avg", "count"} {
		req := QueryRequest{K: 10, Aggregate: agg, Algorithm: "base"}
		want, err := live.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, agg, got.Results, want.Results)
		if got.Shards != 3 {
			t.Fatalf("%s: answer reports %d shards, want 3", agg, got.Shards)
		}
	}
}

// TestAsOfByteIdentity is acceptance criterion (b): an as_of query is
// byte-identical to the answer the live query returned at that
// generation — both on the cache fast path (the resident live answer)
// and on a fresh execution against the retained engine.
func TestAsOfByteIdentity(t *testing.T) {
	g := testGraph(200, 600, 13)
	s := mustServer(t, g, testScores(200, 13), 2, Options{SkipIndexes: true})
	req := QueryRequest{K: 10, Aggregate: "sum", Algorithm: "base"}

	recorded := make(map[uint64][]byte)
	record := func() {
		ans, err := s.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(ans.Results)
		if err != nil {
			t.Fatal(err)
		}
		recorded[ans.Generation] = blob
	}
	driveSteps := [][]ScoreUpdate{
		{{Node: 3, Score: 0.8}},
		{{Node: 50, Score: 0.1}, {Node: 3, Score: 0}},
		{{Node: 120, Score: 0.95}},
		{{Node: 7, Score: 0.6}},
	}
	record() // generation 0 (live baseline; not addressable via as_of)
	for _, ups := range driveSteps {
		if _, err := s.ApplyUpdates(ups); err != nil {
			t.Fatal(err)
		}
		record()
	}

	for gen := uint64(1); gen <= 4; gen++ {
		// Fast path: the cached live answer at that generation.
		tr := req
		tr.AsOf = gen
		ans, err := s.Run(ctx, tr)
		if err != nil {
			t.Fatalf("as_of %d: %v", gen, err)
		}
		if ans.Generation != gen {
			t.Fatalf("as_of %d answered generation %d", gen, ans.Generation)
		}
		if gen != 4 && !ans.Cached {
			t.Fatalf("as_of %d missed the resident live answer", gen)
		}
		blob, _ := json.Marshal(ans.Results)
		if !bytes.Equal(blob, recorded[gen]) {
			t.Fatalf("as_of %d diverged from the recorded live answer:\n%s\nvs\n%s", gen, blob, recorded[gen])
		}
		// Fresh execution on the retained engine: "backward" was never
		// cached at this generation, so this cannot ride the resident
		// answer — and the exact algorithms agree to the byte.
		tr.Algorithm = "backward"
		fresh, err := s.Run(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Cached {
			t.Fatal("backward as_of query served from cache")
		}
		blob, _ = json.Marshal(fresh.Results)
		if !bytes.Equal(blob, recorded[gen]) {
			t.Fatalf("fresh as_of %d execution diverged from the recorded live answer", gen)
		}
	}

	js := s.Stats().Journal
	if js == nil || js.AsOfQueries == 0 || js.AsOfHits == 0 {
		t.Fatalf("as_of counters flat: %+v", js)
	}
	if js.Retained != 5 {
		t.Fatalf("retained %d generations, want 5", js.Retained)
	}
}

// TestAsOfOutsideRetention: generations evicted from the ring are
// rejected with an error naming the oldest still-retained one.
func TestAsOfOutsideRetention(t *testing.T) {
	g := testGraph(100, 300, 17)
	s := mustServer(t, g, testScores(100, 17), 2,
		Options{SkipIndexes: true, RetainGenerations: 3})
	for i := 0; i < 5; i++ {
		if _, err := s.ApplyUpdates([]ScoreUpdate{{Node: i, Score: 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	// Ring holds generations 3,4,5.
	if _, err := s.Run(ctx, QueryRequest{K: 5, Aggregate: "sum", AsOf: 1}); err == nil ||
		!strings.Contains(err.Error(), "oldest retained is 3") {
		t.Fatalf("evicted as_of: err = %v", err)
	}
	if _, err := s.Run(ctx, QueryRequest{K: 5, Aggregate: "sum", AsOf: 3}); err != nil {
		t.Fatalf("oldest retained generation rejected: %v", err)
	}
	// as_of naming the live generation is just a live query.
	ans, err := s.Run(ctx, QueryRequest{K: 5, Aggregate: "sum", AsOf: 5})
	if err != nil || ans.Generation != 5 {
		t.Fatalf("as_of = live: ans %+v err %v", ans, err)
	}
}

// TestTemporalValidation: the malformed corners of the as_of request
// surface are rejected up front.
func TestTemporalValidation(t *testing.T) {
	g := testGraph(80, 240, 23)
	s := mustServer(t, g, testScores(80, 23), 2, Options{SkipIndexes: true})
	if _, err := s.ApplyUpdates([]ScoreUpdate{{Node: 1, Score: 0.5}}); err != nil {
		t.Fatal(err)
	}
	bad := []QueryRequest{
		{K: 5, Aggregate: "sum", Algorithm: "view", AsOf: 1}, // view is live-only
		{K: 5, Aggregate: "sum", AsOf: 99},                   // not retained
	}
	for i, req := range bad {
		if _, err := s.Run(ctx, req); err == nil {
			t.Fatalf("bad request %d accepted: %+v", i, req)
		}
	}
}

// TestSnapshotAnchorRestart is satellite (2): POST /v1/snapshot anchors
// the journal to the written snapshot, and a restart that boots from the
// anchor (snapshot@g + journal suffix g+1..h) reconstructs the live
// server bit-identically — even after Compact drops the pre-anchor
// prefix.
func TestSnapshotAnchorRestart(t *testing.T) {
	g := testGraph(220, 660, 31)
	scores := testScores(220, 31)
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snap.lona")

	live := mustServer(t, g, append([]float64(nil), scores...), 2,
		Options{SkipIndexes: true, Journal: mustJournal(t, dir), SnapshotPath: snapPath})
	if _, err := live.ApplyUpdates([]ScoreUpdate{{Node: 4, Score: 0.7}}); err != nil {
		t.Fatal(err)
	}
	if _, err := live.ApplyEdits(editBatch(live.Graph())); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(live.Handler())
	defer srv.Close()
	postJSON(t, srv.URL+"/v1/snapshot", `{}`)

	anchor, ok, err := journal.ReadAnchor(dir)
	if err != nil || !ok {
		t.Fatalf("anchor after /v1/snapshot: ok=%v err=%v", ok, err)
	}
	if anchor.Snapshot != snapPath || anchor.Generation != 2 {
		t.Fatalf("anchor = %+v, want {%s 2}", anchor, snapPath)
	}

	// More history on top of the anchored snapshot.
	if _, err := live.ApplyUpdates([]ScoreUpdate{{Node: 100, Score: 0.2}, {Node: 220, Score: 0.9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := live.ApplyEdits(editBatch(live.Graph())); err != nil {
		t.Fatal(err)
	}

	boot := func(label string) {
		t.Helper()
		reader, err := snapfmt.Open(anchor.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		defer reader.Close()
		restarted := mustServer(t, reader.Graph(), reader.Scores(), reader.H(), Options{
			SkipIndexes:    true,
			Index:          reader.Index(),
			SnapshotSource: &SnapshotSource{Path: reader.Path(), Generation: reader.Generation()},
			Journal:        mustJournal(t, dir),
		})
		if got, want := restarted.Generation(), live.Generation(); got != want {
			t.Fatalf("%s: restarted at generation %d, live is %d", label, got, want)
		}
		// The ring spans the anchored boot generation through the tip, so
		// time travel works across a restart too.
		if js := restarted.Stats().Journal; js.Retained != 3 || js.OldestRetained != 2 {
			t.Fatalf("%s: retention ring after anchored boot: %+v", label, js)
		}
		asOf, err := restarted.Run(ctx, QueryRequest{K: 10, Aggregate: "sum", Algorithm: "base", AsOf: 3})
		if err != nil || asOf.Generation != 3 {
			t.Fatalf("%s: as_of across restart: ans %+v err %v", label, asOf, err)
		}
		for _, agg := range []string{"sum", "avg", "count"} {
			req := QueryRequest{K: 10, Aggregate: agg, Algorithm: "base"}
			want, err := live.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restarted.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, label+"/"+agg, got.Results, want.Results)
		}
	}
	boot("anchored")

	// Compaction drops exactly the pre-anchor prefix; the anchored boot
	// still reconstructs the live state from what remains.
	cj := mustJournal(t, dir)
	dropped, err := cj.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Fatalf("Compact dropped %d commits, want 2", dropped)
	}
	cj.Close()
	boot("compacted")
}
