package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestForwardDistAgreesWithBase(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		seed := int64(900 + trial)
		n := 30 + trial*9
		g := randomGraph(n, 3*n, seed)
		scores := randomScores(n, seed)
		e := mustEngine(t, g, scores, 2)
		for _, agg := range []Aggregate{Sum, Avg, WeightedSum, Count} {
			for _, k := range []int{1, 5, n} {
				want, _, err := e.Base(k, agg)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := e.ForwardDist(k, agg)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResults(got, want) {
					t.Fatalf("trial %d %v k=%d: ForwardDist %v != Base %v", trial, agg, k, got, want)
				}
			}
		}
	}
}

func TestDistributionBoundAdmissible(t *testing.T) {
	property := func(seed int64) bool {
		n := 20 + int(seed%13+13)%13
		g := randomGraph(n, 3*n, seed)
		scores := randomScores(n, seed+1)
		e, err := NewEngine(g, scores, 2)
		if err != nil {
			return false
		}
		for _, agg := range []Aggregate{Sum, Avg, Count} {
			for v := 0; v < n; v++ {
				if e.DistributionBound(v, agg) < exactValue(e, v, agg)-1e-9 {
					t.Logf("seed=%d %v node %d: dist bound %v < exact %v",
						seed, agg, v, e.DistributionBound(v, agg), exactValue(e, v, agg))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardDistEarlyTermination(t *testing.T) {
	// The distribution bound top(N(v)) bites when neighborhood sizes are
	// skewed: five disjoint stars mean every leaf has N=2 and bound
	// 2·maxScore, far below any hub's aggregate — the N-descending scan
	// must stop right after the hubs.
	const hubs, leavesPerHub = 5, 120
	n := hubs * (leavesPerHub + 1)
	b := graph.NewBuilder(n, false)
	for hub := 0; hub < hubs; hub++ {
		base := hub * (leavesPerHub + 1)
		for leaf := 1; leaf <= leavesPerHub; leaf++ {
			b.AddEdge(base, base+leaf)
		}
	}
	g := b.Build()
	scores := make([]float64, n)
	for v := range scores {
		scores[v] = 0.5
	}
	e := mustEngine(t, g, scores, 1)
	_, stats, err := e.ForwardDist(hubs, Sum)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evaluated > hubs+1 {
		t.Fatalf("ForwardDist evaluated %d nodes, want <= %d (hubs plus one probe)", stats.Evaluated, hubs+1)
	}
	if stats.Evaluated+stats.Pruned != n {
		t.Fatalf("evaluated+pruned = %d, want %d", stats.Evaluated+stats.Pruned, n)
	}
}

func TestPlannerPicksBackwardNaiveForSparse(t *testing.T) {
	g := randomGraph(200, 600, 41)
	scores := make([]float64, 200)
	scores[3] = 1
	scores[77] = 1
	e := mustEngine(t, g, scores, 2)
	plan := NewPlanner(e).Choose(10, Sum)
	if plan.Algorithm != AlgoBackwardNaive {
		t.Fatalf("sparse scores chose %v (%s)", plan.Algorithm, plan.Reason)
	}
}

func TestPlannerMax(t *testing.T) {
	g := randomGraph(50, 150, 43)
	e := mustEngine(t, g, randomScores(50, 43), 2)
	if plan := NewPlanner(e).Choose(5, Max); plan.Algorithm != AlgoBackwardNaive {
		t.Fatalf("MAX on an undirected graph chose %v (%s)", plan.Algorithm, plan.Reason)
	}
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	d := mustEngine(t, b.Build(), []float64{0.1, 0.2, 0.3}, 2)
	if plan := NewPlanner(d).Choose(1, Max); plan.Algorithm != AlgoBase {
		t.Fatalf("MAX on a directed graph chose %v (%s)", plan.Algorithm, plan.Reason)
	}
}

// TestPlannerScansWhenEveryNodeWouldDistribute: COUNT's 0/1 mass cannot be
// split by any γ, and neither can all-equal scores, so where Backward's
// distribution set is the whole graph the planner takes the plain scan —
// and the answer stays Base's.
func TestPlannerScansWhenEveryNodeWouldDistribute(t *testing.T) {
	g := randomGraph(300, 900, 59)
	rng := rand.New(rand.NewSource(59))
	allRelevant := make([]float64, 300)
	equal := make([]float64, 300)
	for v := range allRelevant {
		allRelevant[v] = 0.01 + 0.3*rng.Float64() // light mass, nothing zero
		equal[v] = 0.7
	}
	allRelevant[7] = 1
	cases := []struct {
		name   string
		scores []float64
		agg    Aggregate
		want   Algorithm
	}{
		{"count over all-relevant nodes", allRelevant, Count, AlgoBase},
		{"sum over the same scores", allRelevant, Sum, AlgoBackward},
		{"sum over all-equal scores", equal, Sum, AlgoBase},
	}
	for _, c := range cases {
		e := mustEngine(t, g, c.scores, 2)
		plan := NewPlanner(e).Choose(10, c.agg)
		if plan.Algorithm != c.want {
			t.Errorf("%s: chose %v (%s), want %v", c.name, plan.Algorithm, plan.Reason, c.want)
		}
		auto, err := e.Run(context.Background(), Query{K: 10, Aggregate: c.agg})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := e.Base(10, c.agg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(auto.Results, want) {
			t.Errorf("%s: auto %v != Base %v", c.name, auto.Results, want)
		}
	}

	// Half the nodes relevant: COUNT still distributes only those.
	half := append([]float64(nil), allRelevant...)
	for v := 0; v < len(half); v += 2 {
		half[v] = 0
	}
	e := mustEngine(t, g, half, 2)
	if plan := NewPlanner(e).Choose(10, Count); plan.Algorithm != AlgoBackward {
		t.Errorf("count over half-relevant nodes chose %v (%s)", plan.Algorithm, plan.Reason)
	}
}

func TestPlannerDirectedGraph(t *testing.T) {
	b := graph.NewBuilder(20, true)
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 50; i++ {
		u, v := rng.Intn(20), rng.Intn(20)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	e := mustEngine(t, g, randomScores(20, 47), 2)
	plan := NewPlanner(e).Choose(5, Sum)
	if plan.Algorithm != AlgoBase {
		t.Fatalf("directed graph without index chose %v", plan.Algorithm)
	}
	e.PrepareDifferentialIndex(1)
	plan = NewPlanner(e).Choose(5, Sum)
	if plan.Algorithm != AlgoForward {
		t.Fatalf("directed graph with index chose %v", plan.Algorithm)
	}
}

func TestPlannerMixtureChoosesBackward(t *testing.T) {
	// Dense-but-light scores (most nodes small, few heavy) without an
	// index: partial distribution should win the plan.
	g := randomGraph(300, 900, 53)
	rng := rand.New(rand.NewSource(53))
	scores := make([]float64, 300)
	for v := range scores {
		scores[v] = rng.Float64() * 0.3 // dense, light
	}
	scores[7] = 1
	e := mustEngine(t, g, scores, 2)
	plan := NewPlanner(e).Choose(10, Sum)
	if plan.Algorithm != AlgoBackward {
		t.Fatalf("light-mass scores chose %v (%s)", plan.Algorithm, plan.Reason)
	}
	if plan.Options.Gamma <= 0 || plan.Options.Gamma > 1 {
		t.Fatalf("planner gamma %v out of range", plan.Options.Gamma)
	}
}

func TestPlannerTopKExecutes(t *testing.T) {
	g := randomGraph(80, 240, 59)
	scores := randomScores(80, 59)
	e := mustEngine(t, g, scores, 2)
	want, _, err := e.Base(7, Sum)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := NewPlanner(e).Run(context.Background(), Query{K: 7, Aggregate: Sum})
	if err != nil {
		t.Fatalf("plan %v: %v", ans.Plan, err)
	}
	if !sameResults(ans.Results, want) {
		t.Fatalf("planned execution (%v) disagreed with Base", ans.Plan.Algorithm)
	}
	if ans.Plan == nil || ans.Plan.Reason == "" {
		t.Fatal("plan has no rationale")
	}
}

func TestPlannerEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0, false).Build()
	e := mustEngine(t, g, nil, 2)
	plan := NewPlanner(e).Choose(1, Sum)
	if plan.Algorithm != AlgoBase {
		t.Fatalf("empty graph chose %v", plan.Algorithm)
	}
}
