package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/topk"
	"repro/internal/trace"
)

// View is a materialized neighborhood-aggregate view with incremental
// maintenance — the dynamic-network extension the paper's introduction
// motivates ("the intrusion packets could formulate a large, dynamic
// intrusion network") and its related work points at via materialized
// top-k views [Yi et al., ICDE 2003].
//
// The view materializes F_sum(u) for every node once (one backward
// distribution pass) and then maintains it under relevance updates: when
// f(v) changes by δ, exactly the nodes of S_h(v) change their aggregate,
// and by symmetry of undirected h-hop membership the view fixes them with
// a single BFS from v — O(|S_h(v)|) per update instead of a full
// recomputation. Top-k answers then cost one O(n) heap scan.
//
// Only SUM and AVG are maintainable this way (COUNT changes only on
// zero-crossings, which this view also handles; MAX is not decrementable
// without recount and is unsupported).
//
// # Concurrency contract
//
// A View is NOT internally synchronized. It is safe under the standard
// RWMutex discipline, which internal/server relies on and
// TestViewRWMutexDiscipline verifies under the race detector:
//
//   - Readers (Score, Sum, Run, TopK, ScoresCopy) may run concurrently
//     with each other: they only load from scores/sums/counts and never
//     touch the shared Traverser.
//   - Writers (UpdateScore, ApplyEdits, Rebuild) require exclusive access:
//     they mutate the materialized arrays (and, for structural edits, swap
//     the graph and index) and reuse the View's single Traverser.
//
// Concurrent readers with no writer are safe; any writer must exclude both
// readers and other writers.
type View struct {
	g      *graph.Graph
	h      int
	scores []float64 // owned copy; mutated by UpdateScore
	sums   []float64 // materialized F_sum
	counts []int32   // materialized positive-score counts (for COUNT)
	nix    *graph.NeighborhoodIndex
	t      *graph.Traverser
}

// NewView materializes the view. Cost: one full distribution pass, the
// same as BackwardNaive over a fully non-zero score vector.
func NewView(g *graph.Graph, scores []float64, h int) (*View, error) {
	if g.Directed() {
		return nil, fmt.Errorf("core: View requires an undirected graph")
	}
	e, err := NewEngine(g, scores, h)
	if err != nil {
		return nil, err
	}
	v := &View{
		g:      g,
		h:      h,
		scores: append([]float64(nil), scores...),
		sums:   make([]float64, g.NumNodes()),
		counts: make([]int32, g.NumNodes()),
		nix:    e.PrepareNeighborhoodIndex(0),
		t:      graph.NewTraverser(g),
	}
	if err := distributePass(context.Background(), g, v.t, scores, h, v.sums, v.counts); err != nil {
		return nil, err // unreachable with a background context
	}
	return v, nil
}

// distributePass runs the canonical backward distribution — every
// non-zero node u adds its mass to all of S_h(u), in ascending u — into
// zeroed sums/counts arrays. NewView, Rebuild, and ApplyEdits' rebuild
// fallback all share this one loop, so the float summation order that
// the byte-identical repair guarantee replays can never drift between
// them. The context is polled every few sources; on cancellation the
// output arrays are partially filled and must be discarded.
func distributePass(ctx context.Context, g *graph.Graph, t *graph.Traverser,
	scores []float64, h int, sums []float64, counts []int32) error {
	const pollEvery = 64
	for u := 0; u < g.NumNodes(); u++ {
		mass := scores[u]
		if mass == 0 {
			continue
		}
		if u%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		t.VisitWithin(u, h, func(w, _ int) {
			sums[w] += mass
			counts[w]++
		})
	}
	return nil
}

// Score returns the current relevance of node u.
func (v *View) Score(u int) float64 { return v.scores[u] }

// Graph returns the view's current graph — the successor graph after any
// ApplyEdits, which the serving layer adopts as its own current topology.
func (v *View) Graph() *graph.Graph { return v.g }

// NeighborhoodIndex returns the view's current N(v) index (repaired in
// step with structural edits). Callers treat it as immutable; ApplyEdits
// replaces rather than mutates it, so an Engine seeded with it stays
// consistent even while the view moves on.
func (v *View) NeighborhoodIndex() *graph.NeighborhoodIndex { return v.nix }

// ScoresCopy returns a snapshot copy of the current relevance vector —
// what a server hands to Engine.WithScores after an update batch.
func (v *View) ScoresCopy() []float64 { return append([]float64(nil), v.scores...) }

// Sum returns the materialized F_sum(u).
func (v *View) Sum(u int) float64 { return v.sums[u] }

// UpdateScore changes f(node) to newScore and repairs every affected
// aggregate with one h-hop BFS. It returns how many aggregates changed.
func (v *View) UpdateScore(node int, newScore float64) (touched int, err error) {
	if node < 0 || node >= v.g.NumNodes() {
		return 0, fmt.Errorf("core: node %d out of range [0,%d)", node, v.g.NumNodes())
	}
	if math.IsNaN(newScore) || newScore < 0 || newScore > 1 {
		return 0, fmt.Errorf("core: new score %v outside [0,1]", newScore)
	}
	old := v.scores[node]
	if old == newScore {
		return 0, nil
	}
	delta := newScore - old
	var countDelta int32
	if old == 0 && newScore > 0 {
		countDelta = 1
	}
	if old > 0 && newScore == 0 {
		countDelta = -1
	}
	v.scores[node] = newScore
	v.t.VisitWithin(node, v.h, func(w, _ int) {
		v.sums[w] += delta
		v.counts[w] += countDelta
		touched++
	})
	return touched, nil
}

// EditResult reports what one structural edit batch did to a View.
type EditResult struct {
	NodesAdded   int  // nodes appended (relevance 0 until updated)
	EdgesAdded   int  // logical edges inserted (duplicates were no-ops)
	EdgesRemoved int  // logical edges deleted (absent deletes were no-ops)
	Repaired     int  // nodes whose aggregates and N(v) were recomputed
	Rebuilt      bool // the batch took the from-scratch rebuild path
}

// ApplyEdits applies a structural edit batch — edge insertions/removals
// and node additions — and repairs the materialized state incrementally:
// only the nodes whose h-hop neighborhood changed (the old∪new h-hop
// closures of the touched endpoints) have their aggregates and N(v)
// recomputed, instead of the full distribution pass a rebuild costs.
// When the affected closure covers most of the graph (≥ two thirds of
// its nodes) the incremental path loses to a from-scratch rebuild, and
// ApplyEdits automatically falls back to one — same results, same float
// bits, different cost curve. Added nodes start at relevance 0; follow
// with UpdateScore to score them.
//
// Repaired aggregates are byte-identical to a from-scratch Rebuild: each
// affected node's sum is re-accumulated over its sorted neighborhood in
// ascending node-id order, exactly the summation order the full
// distribution pass produces, so float bits never drift between the
// incremental and rebuilt states (mutate_equiv_test.go enforces this).
//
// ApplyEdits is a writer under the View's RWMutex discipline. The batch
// is atomic: a validation error, or ctx expiring mid-repair, leaves the
// view at its pre-batch state (all repair work lands in fresh arrays that
// are swapped in only on success).
func (v *View) ApplyEdits(ctx context.Context, edits []graph.Edit) (EditResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var res EditResult
	newG, delta, err := v.g.ApplyEdits(edits)
	if err != nil {
		return res, err
	}
	if newG.Directed() {
		// Unreachable (NewView rejects directed graphs); guard anyway so
		// the undirected closure reasoning below can rely on symmetry.
		return res, fmt.Errorf("core: View.ApplyEdits requires an undirected graph")
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	affected := graph.AffectedNodes(v.g, newG, delta, v.h)

	// Crossover: per-node incremental repair pays one BFS per affected
	// node (the ascending-order accumulation rides the same pass via a
	// bitset drain — no sort), while a rebuild pays one distribution pass
	// over the non-zero nodes plus one index build. With the sort gone,
	// repair stays cheaper until the affected closure covers nearly the
	// whole graph, so the threshold sits at ⅚ rather than the old ⅔ —
	// and the rebuild still produces byte-identical state, since repair
	// reproduces its ascending-id summation order exactly.
	if 6*len(affected) >= 5*newG.NumNodes() {
		trace.FromContext(ctx).Emit(trace.KindRebuild, len(affected),
			0, "affected closure covers most of the graph")
		return v.rebuildFrom(ctx, newG, delta)
	}
	trace.FromContext(ctx).Emit(trace.KindRepair, len(affected), 0, "")

	n := newG.NumNodes()
	scores := make([]float64, n)
	copy(scores, v.scores) // added nodes start at relevance 0
	sums := make([]float64, n)
	copy(sums, v.sums)
	counts := make([]int32, n)
	copy(counts, v.counts)
	sizes := make([]int32, n)
	copy(sizes, v.nix.Size)

	// Repair the affected nodes in parallel: one BFS per node serves the
	// aggregate AND its N(v) entry (fusing what a separate index Repair
	// would re-traverse), each worker with its own traverser and marker
	// bitset, writing disjoint indices of the fresh arrays. The bitset
	// drain accumulates each neighborhood in ascending id order without
	// sorting it, reproducing the rebuild's summation order (the full
	// pass distributes node masses in ascending u, and by undirected
	// symmetry u ∈ S_h(w) ⇔ w ∈ S_h(u)), so float bits cannot drift.
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(affected) {
		workers = len(affected)
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (len(affected) + workers - 1) / workers
	const editPollEvery = 64
	for lo := 0; lo < len(affected); lo += chunk {
		hi := lo + chunk
		if hi > len(affected) {
			hi = len(affected)
		}
		wg.Add(1)
		go func(part []int) {
			defer wg.Done()
			t := graph.NewTraverser(newG)
			bs := ds.NewBitset(n)
			for i, w := range part {
				if i%editPollEvery == 0 && (cancelled.Load() || ctx.Err() != nil) {
					cancelled.Store(true)
					return
				}
				sums[w], counts[w], sizes[w] = t.SumCountWithinOrdered(w, v.h, scores, bs)
			}
		}(affected[lo:hi])
	}
	wg.Wait()
	if cancelled.Load() || ctx.Err() != nil {
		return EditResult{}, ctx.Err() // nothing swapped in; view unchanged
	}

	v.g, v.t = newG, graph.NewTraverser(newG)
	v.nix = &graph.NeighborhoodIndex{H: v.h, Size: sizes}
	v.scores, v.sums, v.counts = scores, sums, counts
	return EditResult{
		NodesAdded:   delta.NodesAdded,
		EdgesAdded:   delta.EdgesAdded,
		EdgesRemoved: delta.EdgesRemoved,
		Repaired:     len(affected),
	}, nil
}

// rebuildFrom is ApplyEdits' large-batch path: recompute the whole
// materialized state over the successor graph from scratch — the exact
// NewView/Rebuild distribution pass, so the resulting float bits match
// the incremental path's (which replays this pass's summation order
// node-locally). Like the incremental path, everything lands in fresh
// arrays swapped in only on success, so cancellation leaves the view at
// its pre-batch state.
func (v *View) rebuildFrom(ctx context.Context, newG *graph.Graph, delta *graph.EditDelta) (EditResult, error) {
	n := newG.NumNodes()
	scores := make([]float64, n)
	copy(scores, v.scores) // added nodes start at relevance 0
	sums := make([]float64, n)
	counts := make([]int32, n)
	if err := distributePass(ctx, newG, graph.NewTraverser(newG), scores, v.h, sums, counts); err != nil {
		return EditResult{}, err
	}
	nix := graph.BuildNeighborhoodIndex(newG, v.h, 0)
	if err := ctx.Err(); err != nil {
		return EditResult{}, err
	}

	v.g, v.t = newG, graph.NewTraverser(newG)
	v.nix = nix
	v.scores, v.sums, v.counts = scores, sums, counts
	return EditResult{
		NodesAdded:   delta.NodesAdded,
		EdgesAdded:   delta.EdgesAdded,
		EdgesRemoved: delta.EdgesRemoved,
		Repaired:     n,
		Rebuilt:      true,
	}, nil
}

// Maintains reports whether the view materializes agg — whether Run can
// answer it.
func (v *View) Maintains(agg Aggregate) bool {
	return agg == Sum || agg == Avg || agg == Count
}

// Run answers a top-k query from the materialized state — the same
// context-aware Query shape as Engine.Run, served by one linear heap scan
// with no traversal. Supported aggregates: Sum, Avg, Count. The Algorithm
// field is ignored (the view has exactly one way to answer) and Budget is
// moot: the scan performs no h-hop traversals, so nothing spends budget.
// Candidates restrict the scan; the context is polled periodically so even
// the O(n) scan of a huge network is abandonable.
//
// This is the read path internal/server routes every live "auto"
// SUM/AVG/COUNT query to: the maintenance above is paid per write, so the
// read must not re-traverse. Sums accumulate in update order here and in
// BFS order in the engines, so a View answer equals Base's up to the last
// ulps of a float sum (ranks may swap among values tied at that precision);
// COUNT is integral and exact.
//
// Run is a reader under the View's RWMutex discipline (see the type docs).
func (v *View) Run(ctx context.Context, q Query) (Answer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if q.K <= 0 {
		return Answer{}, fmt.Errorf("core: k must be positive, got %d", q.K)
	}
	var value func(u int) float64
	switch q.Aggregate {
	case Sum:
		value = func(u int) float64 { return v.sums[u] }
	case Avg:
		value = func(u int) float64 { return v.sums[u] / float64(v.nix.N(u)) }
	case Count:
		value = func(u int) float64 { return float64(v.counts[u]) }
	default:
		return Answer{}, fmt.Errorf("core: View does not support %v (only SUM, AVG, COUNT)", q.Aggregate)
	}
	cand, err := candidateMask(v.g.NumNodes(), q.Candidates)
	if err != nil {
		return Answer{}, err
	}

	// Polling granularity: the per-node work here is a couple of loads,
	// so a coarser stride than the engine's per-traversal cadence still
	// cancels within microseconds.
	const viewPollEvery = 8192
	list := topk.New(q.K)
	for u := range v.sums {
		if u%viewPollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Answer{}, err
			}
		}
		if cand != nil && !cand[u] {
			continue
		}
		list.Offer(u, value(u))
	}
	return Answer{Results: list.Items()}, nil
}

// Rebuild recomputes the materialized state from scratch; used by tests to
// verify incremental maintenance never drifts (floating-point drift stays
// within normal summation tolerance).
func (v *View) Rebuild() {
	for i := range v.sums {
		v.sums[i] = 0
		v.counts[i] = 0
	}
	_ = distributePass(context.Background(), v.g, v.t, v.scores, v.h, v.sums, v.counts)
}
