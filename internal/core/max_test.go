package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// resultBytes is the wire form the byte-identity checks compare.
func resultBytes(t *testing.T, rs []Result) []byte {
	t.Helper()
	b, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMaxByteIdenticalToBase: the descending-score MAX path returns exactly
// Base's bytes — values and the smallest-id tie-break — on the score shapes
// that stress its stopping rule, and stops early where ties allow it to.
func TestMaxByteIdenticalToBase(t *testing.T) {
	const n = 3000
	g := gen.BarabasiAlbert(n, 3, 31)
	rng := rand.New(rand.NewSource(31))

	pinned := make([]float64, n) // 1% of nodes at 1.0 over a light background
	for v := range pinned {
		pinned[v] = 0.4 * rng.Float64()
	}
	for _, v := range rng.Perm(n)[:n/100] {
		pinned[v] = 1
	}
	equal := make([]float64, n)
	for v := range equal {
		equal[v] = 0.25
	}
	sparse := make([]float64, n) // three relevant nodes: most values are 0
	sparse[17], sparse[1800], sparse[2999] = 0.9, 0.9, 0.2
	stepped := make([]float64, n) // few distinct values: every group is a tie
	for v := range stepped {
		stepped[v] = float64(rng.Intn(5)) / 4
	}
	cands := rng.Perm(n)[:200]

	cases := []struct {
		name   string
		scores []float64
		// fewer reports that the run must distribute from fewer nodes than
		// there are non-zero scores (the early stop is the point).
		fewer bool
	}{
		{"massive ties", pinned, true},
		{"all equal", equal, false},
		{"all zero", make([]float64, n), false},
		{"sparse", sparse, false},
		{"stepped", stepped, true},
	}
	for _, c := range cases {
		e := mustEngine(t, g, c.scores, 2)
		nonZero := len(e.nonZeroFor(Max))
		for _, k := range []int{1, 10, 300, n, n + 5} {
			for _, candidates := range [][]int{nil, cands} {
				q := Query{K: k, Aggregate: Max, Candidates: candidates}
				q.Algorithm = AlgoBase
				want, err := e.Run(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				for _, algo := range []Algorithm{AlgoAuto, AlgoBackwardNaive} {
					q.Algorithm = algo
					got, err := e.Run(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(resultBytes(t, got.Results), resultBytes(t, want.Results)) {
						t.Fatalf("%s k=%d cands=%d %v: diverged from Base\n got %v\nwant %v",
							c.name, k, len(candidates), algo, got.Results, want.Results)
					}
					if got.Truncated {
						t.Fatalf("%s k=%d: unbudgeted run truncated", c.name, k)
					}
					if c.fewer && k <= 300 && got.Stats.Distributed >= nonZero {
						t.Fatalf("%s k=%d cands=%d: distributed %d of %d non-zero nodes — no early stop",
							c.name, k, len(candidates), got.Stats.Distributed, nonZero)
					}
				}
			}
		}
	}
}

// TestMaxBudget: a budget covering the distributions the run needs leaves
// the answer exact, unflagged and byte-identical to Base; a smaller one
// truncates to lower bounds of the true values without shrinking the list.
func TestMaxBudget(t *testing.T) {
	const n = 1200
	g := gen.BarabasiAlbert(n, 3, 37)
	e := mustEngine(t, g, streamTestScores(n, 37), 2)
	ctx := context.Background()
	q := Query{Algorithm: AlgoBase, K: 25, Aggregate: Max}
	want, err := e.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	q.Algorithm = AlgoAuto
	free, err := e.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	need := free.Stats.Distributed
	if need == 0 || need >= n {
		t.Fatalf("unbudgeted MAX distributed %d of %d nodes", need, n)
	}

	q.Budget = need
	exact, err := e.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Truncated || !bytes.Equal(resultBytes(t, exact.Results), resultBytes(t, want.Results)) {
		t.Fatalf("budget %d (exactly the work needed): truncated=%v results %v, want %v",
			need, exact.Truncated, exact.Results, want.Results)
	}

	truth := make(map[int]float64, n)
	all, err := e.Run(ctx, Query{Algorithm: AlgoBase, K: n, Aggregate: Max})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range all.Results {
		truth[r.Node] = r.Value
	}
	for _, b := range []int{1, need / 2, need - 1} {
		q.Budget = b
		cut, err := e.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !cut.Truncated || cut.Stats.Distributed != b {
			t.Fatalf("budget %d: truncated=%v distributed=%d", b, cut.Truncated, cut.Stats.Distributed)
		}
		if len(cut.Results) != q.K {
			t.Fatalf("budget %d returned %d results, want a full best-effort %d", b, len(cut.Results), q.K)
		}
		for _, r := range cut.Results {
			if r.Value > truth[r.Node] {
				t.Fatalf("budget %d ranked node %d at %v, above its true value %v", b, r.Node, r.Value, truth[r.Node])
			}
		}
	}
}

// TestMaxFloorEndsRun: values arrive in final order, so an external floor
// above every score ends the run before a single distribution, and one at
// the k-th value keeps the exact answer.
func TestMaxFloorEndsRun(t *testing.T) {
	const n = 1200
	g := gen.BarabasiAlbert(n, 3, 41)
	scores := streamTestScores(n, 41)
	for v := range scores {
		scores[v] *= 0.5 // leave room above every score for the floor
	}
	e := mustEngine(t, g, scores, 2)
	ans, err := e.Run(context.Background(), Query{K: 10, Aggregate: Max, Floor: fixedFloor(0.75)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) != 0 || ans.Stats.Distributed != 0 {
		t.Fatalf("floor above every score: %d results, %d distributions", len(ans.Results), ans.Stats.Distributed)
	}
}
