package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// editBatch is the canonical test batch: add a node, wire it to two
// hubs, and drop one existing edge.
func editBatch(g *graph.Graph) []EditRequest {
	return []EditRequest{
		{Op: "add-node"},
		{Op: "add-edge", U: g.NumNodes(), V: 0},
		{Op: "add-edge", U: g.NumNodes(), V: 1},
		{Op: "remove-edge", U: 0, V: int(g.Neighbors(0)[0])},
	}
}

// identicalResults requires byte-identical top-k lists.
func identicalResults(t *testing.T, label string, got, want []core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Node != want[i].Node || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestServerApplyEdits: an edit batch bumps the generation, retires
// cached answers, repairs the view incrementally, and leaves every
// algorithm's answers byte-identical to a server freshly built over the
// mutated graph.
func TestServerApplyEdits(t *testing.T) {
	g := testGraph(200, 400, 1)
	scores := testScores(200, 1)
	s := mustServer(t, g, scores, 2, Options{SkipIndexes: true})

	warm := QueryRequest{K: 10, Aggregate: "sum", Algorithm: "base"}
	before, err := s.Run(ctx, warm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, warm); err != nil {
		t.Fatal(err)
	}

	batch := editBatch(g)
	res, err := s.ApplyEdits(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 1 || res.NodesAdded != 1 || res.EdgesAdded != 2 || res.EdgesRemoved != 1 {
		t.Fatalf("result %+v", res)
	}
	if res.Nodes != 201 || res.Repaired == 0 {
		t.Fatalf("result %+v", res)
	}
	if res.Repaired >= 201 {
		t.Fatalf("repaired %d of 201 nodes — repair was not incremental", res.Repaired)
	}

	// The mutated-topology oracle: a fresh server over the same state.
	edits := make([]graph.Edit, len(batch))
	for i, r := range batch {
		op, err := graph.ParseEditOp(r.Op)
		if err != nil {
			t.Fatal(err)
		}
		edits[i] = graph.Edit{Op: op, U: r.U, V: r.V}
	}
	mutated, _, err := g.ApplyEdits(edits)
	if err != nil {
		t.Fatal(err)
	}
	oracle := mustServer(t, mutated, append(append([]float64(nil), scores...), 0), 2, Options{SkipIndexes: true})

	for _, algo := range []string{"base", "backward", "view", "auto"} {
		req := QueryRequest{K: 10, Aggregate: "sum", Algorithm: algo}
		got, err := s.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cached {
			t.Fatalf("%s: post-edit answer served from the pre-edit cache", algo)
		}
		want, err := oracle.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, algo, got.Results, want.Results)
	}
	if identical := func() bool {
		after, err := s.Run(ctx, warm)
		if err != nil {
			t.Fatal(err)
		}
		if len(after.Results) != len(before.Results) {
			return false
		}
		for i := range before.Results {
			if after.Results[i] != before.Results[i] {
				return false
			}
		}
		return true
	}(); identical {
		t.Fatal("edits (including an edge removal at node 0) changed no answer — test is vacuous")
	}

	st := s.Stats()
	if st.Edits.Batches != 1 || st.Edits.NodesAdded != 1 || st.Edits.EdgesAdded != 2 ||
		st.Edits.EdgesRemoved != 1 || st.Edits.Repaired == 0 {
		t.Fatalf("stats %+v", st.Edits)
	}
	if st.Nodes != 201 {
		t.Fatalf("stats report %d nodes, want 201", st.Nodes)
	}

	// A scored new node participates exactly like an original one.
	if _, err := s.ApplyUpdates([]ScoreUpdate{{Node: 200, Score: 1}}); err != nil {
		t.Fatalf("score update to added node: %v", err)
	}
}

// TestServerApplyEditsValidation: malformed ops and invalid edits reject
// the whole batch without touching the generation.
func TestServerApplyEditsValidation(t *testing.T) {
	g := testGraph(50, 80, 2)
	s := mustServer(t, g, testScores(50, 2), 2, Options{SkipIndexes: true})
	cases := [][]EditRequest{
		nil, // empty
		{{Op: "frobnicate", U: 1, V: 2}},
		{{Op: "add-edge", U: 1, V: 99}},
		{{Op: "add-edge", U: 3, V: 3}},
		{{Op: "add-node"}, {Op: "remove-edge", U: -1, V: 2}},
	}
	for i, batch := range cases {
		if _, err := s.ApplyEdits(batch); err == nil {
			t.Fatalf("case %d: invalid batch accepted", i)
		}
	}
	if s.Generation() != 0 {
		t.Fatalf("generation %d after rejected batches", s.Generation())
	}
}

// TestEdgesEndpoint drives /v1/edges over HTTP.
func TestEdgesEndpoint(t *testing.T) {
	g := testGraph(80, 150, 3)
	s := mustServer(t, g, testScores(80, 3), 2, Options{SkipIndexes: true})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(map[string]any{"edits": []map[string]any{
		{"op": "add-node"},
		{"op": "add-edge", "u": 80, "v": 3},
	}})
	resp, err := http.Post(srv.URL+"/v1/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res EditsResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Generation != 1 || res.NodesAdded != 1 || res.EdgesAdded != 1 || res.Nodes != 81 {
		t.Fatalf("response %+v", res)
	}

	for _, bad := range []string{
		`{"edits":[]}`,
		`{"edits":[{"op":"subtract-edge","u":1,"v":2}]}`,
		`{"edits":[{"op":"add-edge","u":1,"v":8080}]}`,
		`{"edit":[]}`, // unknown field
	} {
		resp, err := http.Post(srv.URL+"/v1/edges", "application/json", bytes.NewReader([]byte(bad)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	if got := s.Generation(); got != 1 {
		t.Fatalf("generation %d after rejected requests, want 1", got)
	}

	// GET is not allowed.
	resp2, err := http.Get(srv.URL + "/v1/edges")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp2.StatusCode)
	}
}

// TestShardedServerEdits: a -shards style server applies edits through
// the cluster transport and stays byte-identical to an unsharded server
// over the mutated state — the Coordinator ≡ Engine property surviving
// structural mutation end to end through the serving layer.
func TestShardedServerEdits(t *testing.T) {
	g := testGraph(300, 600, 4)
	scores := testScores(300, 4)
	sharded := mustServer(t, g, scores, 2, Options{Shards: 4, SkipIndexes: true})

	batch := editBatch(g)
	if _, err := sharded.ApplyEdits(batch); err != nil {
		t.Fatal(err)
	}
	// Score the added node through the sharded update fan-out — the
	// regression half: this used to assume a fixed node set.
	if _, err := sharded.ApplyUpdates([]ScoreUpdate{{Node: 300, Score: 0.75}}); err != nil {
		t.Fatalf("score fan-out to added node: %v", err)
	}

	flat := mustServer(t, g, scores, 2, Options{SkipIndexes: true})
	if _, err := flat.ApplyEdits(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := flat.ApplyUpdates([]ScoreUpdate{{Node: 300, Score: 0.75}}); err != nil {
		t.Fatal(err)
	}

	for _, req := range []QueryRequest{
		{K: 12, Aggregate: "sum", Algorithm: "base"},
		{K: 12, Aggregate: "avg", Algorithm: "base"},
		{K: 12, Aggregate: "wsum", Algorithm: "auto"}, // auto COUNT would be view-served, not fanned out
		{K: 1, Aggregate: "sum", Algorithm: "base", Candidates: []int{300}},
	} {
		got, err := sharded.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := flat.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, req.Aggregate+"/"+req.Algorithm, got.Results, want.Results)
	}
}
