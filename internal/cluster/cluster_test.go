package cluster

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/relevance"
)

// aggregates every algorithm supports, plus the Max special case.
var allAggregates = []core.Aggregate{core.Sum, core.Avg, core.WeightedSum, core.Count, core.Max}

// supportsAgg mirrors core.checkQuery's aggregate/algorithm matrix.
func supportsAgg(algo core.Algorithm, agg core.Aggregate) bool {
	if agg != core.Max {
		return true
	}
	switch algo {
	case core.AlgoForward, core.AlgoBackward, core.AlgoForwardDist:
		return false
	}
	return true
}

// testScores builds a deterministic relevance vector with deliberate
// ties (quantized to 1/8ths) so the (value desc, id asc) tie-break is
// exercised, not just float equality.
func testScores(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = float64(rng.Intn(9)) / 8
	}
	return scores
}

// assertSameResults fails unless got is byte-identical to want —
// including ordering and float bits.
func assertSameResults(t *testing.T, label string, got, want []core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		limit := len(got)
		if len(want) < limit {
			limit = len(want)
		}
		for i := 0; i < limit; i++ {
			if got[i] != want[i] {
				t.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
			}
		}
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
}

// TestCoordinatorMatchesEngine is the central property: for every
// aggregate, every algorithm that supports it, and P ∈ {1,2,4,8}, the
// coordinator's merged answer is byte-identical (results and ordering,
// tie-breaks included) to a single-engine run on the full graph.
func TestCoordinatorMatchesEngine(t *testing.T) {
	const h, k = 2, 12
	graphs := map[string]*graph.Graph{
		"ba-400":   gen.BarabasiAlbert(400, 3, 7),
		"ba-900":   gen.BarabasiAlbert(900, 2, 11),
		"er-500":   gen.ErdosRenyi(500, 1200, 13), // disconnected components cross shards
		"directed": gen.Citation(gen.DatasetScale(0.02), 17),
	}
	for name, g := range graphs {
		scores := testScores(g.NumNodes(), 23)
		engine, err := core.NewEngine(g, scores, h)
		if err != nil {
			t.Fatal(err)
		}
		engine.PrepareDifferentialIndex(0) // let the planner and Forward run
		for _, parts := range []int{1, 2, 4, 8} {
			local, err := NewLocal(g, scores, h, parts)
			if err != nil {
				t.Fatalf("%s parts=%d: %v", name, parts, err)
			}
			coord := NewCoordinator(local, Options{})
			for _, agg := range allAggregates {
				for _, algo := range append([]core.Algorithm{core.AlgoAuto}, core.Algorithms...) {
					if !supportsAgg(algo, agg) {
						continue
					}
					q := core.Query{Algorithm: algo, K: k, Aggregate: agg}
					want, errWant := engine.Run(context.Background(), q)
					got, errGot := coord.Run(context.Background(), q)
					label := name + "/" + agg.String() + "/" + algo.String() +
						"/parts=" + string(rune('0'+parts))
					if (errWant == nil) != (errGot == nil) {
						t.Fatalf("%s: engine err=%v, coordinator err=%v", label, errWant, errGot)
					}
					if errWant != nil {
						continue // e.g. backward on the directed graph
					}
					assertSameResults(t, label, got.Results, want.Results)
				}
			}
		}
	}
}

// TestCoordinatorCandidates checks the candidate restriction splits
// correctly across shards, including sets owned entirely by one shard.
func TestCoordinatorCandidates(t *testing.T) {
	g := gen.BarabasiAlbert(600, 3, 5)
	scores := testScores(600, 31)
	engine, err := core.NewEngine(g, scores, 2)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewLocal(g, scores, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(local, Options{})

	rng := rand.New(rand.NewSource(41))
	cases := [][]int{
		{5},               // single node
		{0, 1, 2, 3},      // a contiguous prefix (likely one shard)
		{599, 0, 300, 17}, // spread, unsorted
	}
	var random []int
	for v := 0; v < 600; v++ {
		if rng.Intn(3) == 0 {
			random = append(random, v)
		}
	}
	cases = append(cases, random)
	for i, cand := range cases {
		q := core.Query{K: 10, Aggregate: core.Sum, Algorithm: core.AlgoBase, Candidates: cand}
		want, err := engine.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "candidates case "+string(rune('0'+i)), got.Results, want.Results)
	}

	// Out-of-range candidates are rejected before any fan-out.
	if _, err := coord.Run(context.Background(), core.Query{K: 1, Aggregate: core.Sum, Candidates: []int{600}}); err == nil {
		t.Fatal("out-of-range candidate accepted")
	}
}

// TestCoordinatorCutsAreLossless proves TA early termination never
// changes the answer: with parallelism 1 and skewed scores (all mass in
// one shard's region), trailing shards are cut, and the merged result
// still matches both the uncut coordinator and the single engine.
func TestCoordinatorCutsAreLossless(t *testing.T) {
	// Four disconnected communities (pout=0): BFS growth keeps each
	// community's shards self-contained, so putting every non-zero score
	// in community 0 gives the other communities' shards a zero upper
	// bound — once k results arrive they are all cut.
	g := gen.PlantedPartition(800, 4, 0.05, 0, 9)
	scores := make([]float64, 800)
	for v := 0; v < 800; v += 4 { // community 0 = ids ≡ 0 (mod 4)
		scores[v] = 0.25 + 0.75*float64(v%13)/13
	}
	engine, err := core.NewEngine(g, scores, 2)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewLocal(g, scores, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	local.PrepareIndexes(0) // tight distribution bounds so cuts trigger

	cut := NewCoordinator(local, Options{Parallel: 1})
	uncut := NewCoordinator(local, Options{Parallel: 1, DisableCut: true})
	for _, agg := range []core.Aggregate{core.Sum, core.Count, core.Max} {
		q := core.Query{K: 5, Aggregate: agg, Algorithm: core.AlgoBase}
		want, err := engine.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		gotCut, bd, err := cut.RunDetailed(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		gotUncut, err := uncut.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, agg.String()+"/cut", gotCut.Results, want.Results)
		assertSameResults(t, agg.String()+"/uncut", gotUncut.Results, want.Results)
		if agg == core.Sum && bd.ShardsCut == 0 {
			t.Fatalf("%v: expected the skewed-mass topology to cut at least one shard, got %+v", agg, bd)
		}
	}
}

// TestCoordinatorBudget checks the per-shard budget split: a budgeted
// run reports Truncated, returns at most k results, and a budget large
// enough for every shard reproduces the exact answer.
func TestCoordinatorBudget(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 3)
	scores := testScores(500, 29)
	engine, err := core.NewEngine(g, scores, 2)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewLocal(g, scores, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(local, Options{})

	tiny, err := coord.Run(context.Background(), core.Query{K: 10, Aggregate: core.Sum, Algorithm: core.AlgoBase, Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !tiny.Truncated {
		t.Fatal("budget 8 over 500 nodes did not truncate")
	}
	if len(tiny.Results) > 10 {
		t.Fatalf("truncated run returned %d results for k=10", len(tiny.Results))
	}

	want, err := engine.Run(context.Background(), core.Query{K: 10, Aggregate: core.Sum, Algorithm: core.AlgoBase})
	if err != nil {
		t.Fatal(err)
	}
	ample, err := coord.Run(context.Background(), core.Query{K: 10, Aggregate: core.Sum, Algorithm: core.AlgoBase, Budget: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if ample.Truncated {
		t.Fatal("budget 4000 over 500 nodes truncated")
	}
	assertSameResults(t, "ample budget", ample.Results, want.Results)
}

// TestCoordinatorValidation mirrors Engine.Run's input rejection.
func TestCoordinatorValidation(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 1)
	local, err := NewLocal(g, testScores(100, 1), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(local, Options{})
	bad := []core.Query{
		{K: 0, Aggregate: core.Sum},
		{K: -3, Aggregate: core.Sum},
		{K: 5, Aggregate: core.Sum, Budget: -1},
		{K: 5, Aggregate: core.Sum, Candidates: []int{-1}},
		{K: 5, Aggregate: core.Aggregate(200)},
		{K: 5, Aggregate: core.Max, Algorithm: core.AlgoForward},
	}
	for i, q := range bad {
		if _, err := coord.Run(context.Background(), q); err == nil {
			t.Fatalf("case %d: invalid query %+v accepted", i, q)
		}
	}
}

// TestCoordinatorApplyScores checks score updates reach owned and ghost
// copies alike: after a batch, the coordinator still matches a fresh
// single engine over the updated vector.
func TestCoordinatorApplyScores(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 19)
	scores := testScores(400, 37)
	local, err := NewLocal(g, scores, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(local, Options{})

	updated := append([]float64(nil), scores...)
	var batch []ScoreUpdate
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 50; i++ {
		node := rng.Intn(400)
		score := float64(rng.Intn(9)) / 8
		updated[node] = score
		batch = append(batch, ScoreUpdate{Node: node, Score: score})
	}
	if err := local.ApplyScores(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(g, updated, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []core.Aggregate{core.Sum, core.Avg, core.Count} {
		q := core.Query{K: 10, Aggregate: agg, Algorithm: core.AlgoBase}
		want, err := engine.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "post-update "+agg.String(), got.Results, want.Results)
	}

	if err := local.ApplyScores(context.Background(), []ScoreUpdate{{Node: 9999, Score: 0.5}}); err == nil {
		t.Fatal("out-of-range update accepted")
	}
}

// TestUpperBoundAdmissible checks the merge bound really bounds every
// owned node's aggregate — the property TA cutting depends on — both
// index-free and with the neighborhood index built.
func TestUpperBoundAdmissible(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 13)
	scores := relevance.Mixture(g, relevance.MixtureParams{BlackingRatio: 0.05}, 3)
	engine, err := core.NewEngine(g, scores, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, prepared := range []bool{false, true} {
		shards, _, err := BuildShards(g, scores, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range shards {
			if prepared {
				s.Engine().PrepareNeighborhoodIndex(0)
			}
			for _, agg := range allAggregates {
				bound, err := s.UpperBound(agg)
				if err != nil {
					t.Fatal(err)
				}
				// The shard's full owned top-1 must sit at or below it.
				ans, err := engine.Run(context.Background(), core.Query{
					K: 1, Aggregate: agg, Algorithm: core.AlgoBase, Candidates: ownedOf(s),
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(ans.Results) > 0 && ans.Results[0].Value > bound {
					t.Fatalf("prepared=%v shard %d %v: true max %v exceeds bound %v",
						prepared, s.Index(), agg, ans.Results[0].Value, bound)
				}
			}
		}
	}
}

// ownedOf lists a shard's owned nodes as global ints.
func ownedOf(s *Shard) []int {
	out := make([]int, len(s.owned))
	for i, v := range s.owned {
		out[i] = int(v)
	}
	return out
}

// faultyView wraps a QueryView, failing one shard's query on both the
// whole-answer and the streaming path.
type faultyView struct {
	QueryView
	fail int
}

func (f faultyView) Query(ctx context.Context, shard int, q core.Query) (core.Answer, error) {
	if shard == f.fail {
		return core.Answer{}, errFault
	}
	return f.QueryView.Query(ctx, shard, q)
}

func (f faultyView) QueryStream(ctx context.Context, shard int, q core.Query,
	ctrl *StreamControl, emit func(StreamBatch)) (core.Answer, error) {
	if shard == f.fail {
		return core.Answer{}, errFault
	}
	return f.QueryView.QueryStream(ctx, shard, q, ctrl, emit)
}

var errFault = errors.New("injected shard fault")

// TestCoordinatorShardFaultAborts: one shard failing surfaces its error
// (not a collateral cancellation) and the fan-out still terminates with
// the coordinator reusable.
func TestCoordinatorShardFaultAborts(t *testing.T) {
	g := gen.BarabasiAlbert(600, 3, 53)
	scores := testScores(600, 53)
	local, err := NewLocal(g, scores, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(local, Options{})
	q := core.Query{K: 10, Aggregate: core.Sum, Algorithm: core.AlgoBase}

	for fail := 0; fail < 4; fail++ {
		view := faultyView{QueryView: local.Snapshot(), fail: fail}
		_, _, err := coord.RunOn(context.Background(), view, q)
		if !errors.Is(err, errFault) {
			t.Fatalf("fail=%d: err = %v, want the injected fault", fail, err)
		}
	}
	if _, err := coord.Run(context.Background(), q); err != nil {
		t.Fatalf("coordinator unusable after shard faults: %v", err)
	}
}

// TestHopClosureMatchesSingleSource cross-checks the multi-source BFS
// against per-source traversals.
func TestHopClosureMatchesSingleSource(t *testing.T) {
	g := gen.ErdosRenyi(200, 500, 7)
	tr := graph.NewTraverser(g)
	sources := []int{3, 77, 150, 3} // duplicate tolerated
	for h := 0; h <= 3; h++ {
		closure, err := graph.HopClosure(g, sources, h)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int]bool{}
		for _, s := range sources {
			tr.VisitWithin(s, h, func(v, _ int) { want[v] = true })
		}
		if len(closure) != len(want) {
			t.Fatalf("h=%d: closure size %d, want %d", h, len(closure), len(want))
		}
		for i, v := range closure {
			if !want[v] {
				t.Fatalf("h=%d: closure contains %d, not reachable", h, v)
			}
			if i > 0 && closure[i-1] >= v {
				t.Fatalf("h=%d: closure not sorted ascending at %d", h, i)
			}
		}
	}
	if _, err := graph.HopClosure(g, []int{200}, 1); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := graph.HopClosure(g, []int{0}, -1); err == nil {
		t.Fatal("negative hop radius accepted")
	}
}

// TestCoordinatorMaxMatchesBase: the descending-score MAX path each shard
// plans for "auto" — streaming partial batches up and taking the merge
// threshold λ back down, in process and over the wire — merges to exactly
// the bytes of a single-engine Base scan, on the score shapes that stress
// its stopping rule.
func TestCoordinatorMaxMatchesBase(t *testing.T) {
	const n = 1200
	g := gen.BarabasiAlbert(n, 3, 29)
	rng := rand.New(rand.NewSource(29))
	pinned := make([]float64, n) // 1% of nodes at 1.0 over a light background
	for v := range pinned {
		pinned[v] = 0.4 * rng.Float64()
	}
	for _, v := range rng.Perm(n)[:n/100] {
		pinned[v] = 1
	}
	equal := make([]float64, n)
	for v := range equal {
		equal[v] = 0.5
	}
	sparse := make([]float64, n)
	sparse[11], sparse[700] = 0.9, 0.3
	cands := rng.Perm(n)[:150]

	for name, scores := range map[string][]float64{
		"massive ties": pinned, "all equal": equal, "all zero": make([]float64, n),
		"sparse": sparse, "eighths": testScores(n, 29),
	} {
		engine, err := core.NewEngine(g, scores, 2)
		if err != nil {
			t.Fatal(err)
		}
		local, err := NewLocal(g, scores, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		urls, _ := startWorkers(t, g, scores, 2, 3)
		wire, err := NewHTTP(context.Background(), urls, nil)
		if err != nil {
			t.Fatal(err)
		}
		coords := map[string]*Coordinator{
			"local": NewCoordinator(local, Options{}), // streaming and priming on
			"http":  NewCoordinator(wire, Options{}),
		}
		for _, k := range []int{1, 10, 300, n + 1} {
			for _, c := range [][]int{nil, cands} {
				want, err := engine.Run(context.Background(),
					core.Query{Algorithm: core.AlgoBase, K: k, Aggregate: core.Max, Candidates: c})
				if err != nil {
					t.Fatal(err)
				}
				for via, coord := range coords {
					got, err := coord.Run(context.Background(), core.Query{K: k, Aggregate: core.Max, Candidates: c})
					if err != nil {
						t.Fatal(err)
					}
					if got.Truncated {
						t.Fatalf("%s/%s k=%d: unbudgeted MAX truncated", name, via, k)
					}
					assertSameResults(t, name+"/"+via, got.Results, want.Results)
				}
			}
		}
		wire.Close()
	}
}
