// Package core implements the paper's contribution: the LONA (Local
// Neighborhood Aggregation) framework for top-k neighborhood aggregation
// queries over large networks.
//
// Given a graph G, a relevance function f : V -> [0,1], and a hop radius h,
// a query asks for the k nodes u maximizing an aggregate F(u) over the
// h-hop neighborhood S_h(u) (which includes u itself; see DESIGN.md §1 for
// the convention). Four algorithms answer it:
//
//   - Base          — naive forward processing: BFS + aggregate per node.
//   - Forward       — Algorithm 1: forward processing with differential-
//     index pruning (Equations 1 and 2).
//   - BackwardNaive — Algorithm 2: score distribution from non-zero nodes.
//   - Backward      — LONA-Backward: partial distribution above a
//     threshold γ, Equation 3 upper bounds, then bound-ordered
//     verification with early termination.
//
// All four return identical (node, value) result lists; the extensive
// cross-checking tests in this package rely on that.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/topk"
)

// Aggregate selects the neighborhood aggregation function F (problem P2).
type Aggregate uint8

const (
	// Sum is F(u) = Σ_{v ∈ S_h(u)} f(v).
	Sum Aggregate = iota
	// Avg is F(u) = Sum(u) / N(u).
	Avg
	// WeightedSum is footnote 1's variant: Σ f(v)·w(u,v) with
	// w(u,v) = 1/shortest-distance(u,v) and w(u,u) = 1.
	WeightedSum
	// Count is the number of relevant (score > 0) nodes in S_h(u).
	Count
	// Max is the largest relevance in S_h(u). Only Base and BackwardNaive
	// support it: the paper's bounds do not transfer to Max, but on an
	// undirected graph BackwardNaive needs none (see runBackwardMax).
	Max
)

// String returns the aggregate's conventional name.
func (a Aggregate) String() string {
	switch a {
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case WeightedSum:
		return "WSUM"
	case Count:
		return "COUNT"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("Aggregate(%d)", uint8(a))
	}
}

// Algorithm identifies one of the query strategies; the bench harness
// sweeps over these.
type Algorithm uint8

const (
	// AlgoAuto — the zero value, so a zero Query plans itself — delegates
	// the choice of strategy to the cost-based Planner; the Answer then
	// carries the Plan it picked.
	AlgoAuto Algorithm = iota
	// AlgoBase is naive forward processing (the paper's "Base").
	AlgoBase
	// AlgoBaseParallel is Base fanned out over worker goroutines; an
	// engineering baseline showing pruning wins even against parallelism.
	AlgoBaseParallel
	// AlgoForward is LONA-Forward (Algorithm 1).
	AlgoForward
	// AlgoBackwardNaive is Algorithm 2's full backward distribution.
	AlgoBackwardNaive
	// AlgoBackward is LONA-Backward (partial distribution + Eq. 3).
	AlgoBackward
	// AlgoForwardDist is forward processing pruned by the index-free
	// distribution bound top(N(v)) — the paper's "given the distribution
	// of attribute values, it is possible to estimate the upper-bound
	// value of aggregates" property as a standalone technique.
	AlgoForwardDist
)

// String returns the algorithm's name as used in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "Auto"
	case AlgoBase:
		return "Base"
	case AlgoBaseParallel:
		return "Base-Parallel"
	case AlgoForward:
		return "Forward"
	case AlgoBackwardNaive:
		return "Backward-Naive"
	case AlgoBackward:
		return "Backward"
	case AlgoForwardDist:
		return "Forward-Dist"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// Algorithms lists every executable strategy (AlgoAuto, a planner
// delegation rather than a strategy, is excluded), in bench display order.
var Algorithms = []Algorithm{AlgoBase, AlgoBaseParallel, AlgoForward, AlgoForwardDist, AlgoBackwardNaive, AlgoBackward}

// Result is one entry of a top-k answer.
type Result = topk.Item

// QueryStats reports what a query execution did — the quantities the
// paper's pruning techniques are designed to shrink.
// The JSON names are the serving API's wire format (internal/server).
type QueryStats struct {
	Evaluated   int `json:"evaluated"`   // nodes whose neighborhood was exactly aggregated
	Pruned      int `json:"pruned"`      // nodes skipped by a pruning bound
	Distributed int `json:"distributed"` // nodes that backward-distributed their score
	Visited     int `json:"visited"`     // total neighborhood memberships touched (BFS work)
}

// Options tunes a query beyond (algorithm, k, aggregate).
type Options struct {
	// Gamma is LONA-Backward's distribution threshold γ: only nodes with
	// bound-score >= Gamma distribute. Zero distributes every non-zero
	// node (the tightest, most expensive choice).
	Gamma float64
	// Order chooses LONA-Forward's processing queue order.
	Order QueueOrder
	// Workers bounds parallelism for AlgoBaseParallel (<=0 = GOMAXPROCS).
	Workers int
}

// QueueOrder selects how LONA-Forward's node queue is ordered. The paper's
// Algorithm 1 does not fix an order; the ablation benchmark A4 compares
// these.
type QueueOrder uint8

const (
	// OrderNatural processes nodes in id order.
	OrderNatural QueueOrder = iota
	// OrderDegreeDesc processes high-degree nodes first: they tend to have
	// large aggregates, raising the pruning bound early.
	OrderDegreeDesc
	// OrderScoreDesc processes high-relevance nodes first.
	OrderScoreDesc
)

// String names the order for bench output.
func (o QueueOrder) String() string {
	switch o {
	case OrderNatural:
		return "natural"
	case OrderDegreeDesc:
		return "degree-desc"
	case OrderScoreDesc:
		return "score-desc"
	default:
		return fmt.Sprintf("QueueOrder(%d)", uint8(o))
	}
}

// Engine answers top-k neighborhood aggregation queries over one
// (graph, relevance, h) triple. Indexes are built lazily and cached;
// Prepare* methods build them eagerly so benchmarks can separate index
// construction from query time, matching the paper's treatment of the
// differential index as precomputed.
//
// An Engine is safe for concurrent queries; the first query to need an
// index builds it under ixMu while racing queries wait for the result.
type Engine struct {
	g      *graph.Graph
	scores []float64
	h      int

	// ixMu guards the lazy builds of the topology-only indexes, so
	// concurrent first queries (or a long-lived server skipping eager
	// preparation) are safe.
	ixMu sync.Mutex
	nix  *graph.NeighborhoodIndex
	dix  *graph.DifferentialIndex

	// Lazily built, immutable once published (scores and topology never
	// change): processing queues per order and descending non-zero score
	// lists for backward distribution. Guarded by mu so concurrent
	// queries may trigger the first build safely.
	mu           sync.Mutex
	queues       map[QueueOrder][]int32
	nonZeroSum   []scoredNode // boundScore under SUM-family, descending
	nonZeroCount []scoredNode // boundScore under COUNT, descending
	prefixSum    []float64    // distributionPrefix under SUM-family
	prefixCount  []float64    // distributionPrefix under COUNT
	distOrder    []int32      // nodes in descending N(v), for ForwardDist
	plans        map[planKey]Plan

	// scratchPool recycles the dense per-query working arrays (see
	// queryScratch); sync.Pool is internally synchronized, so concurrent
	// queries each check out their own scratch.
	scratchPool sync.Pool
}

// planKey caches planner decisions per aggregate and index presence — the
// only inputs to Choose that are not frozen at engine construction
// (HasDifferentialIndex flips false→true at most once).
type planKey struct {
	agg    Aggregate
	hasDix bool
}

// scoredNode pairs a node with its bound-score for distribution ordering.
type scoredNode struct {
	node  int32
	score float64
}

// NewEngine validates the inputs and returns an Engine. scores must have
// one entry per node, each within [0,1] (Definition 1); h must be
// non-negative.
func NewEngine(g *graph.Graph, scores []float64, h int) (*Engine, error) {
	if g == nil {
		return nil, errors.New("core: nil graph")
	}
	if h < 0 {
		return nil, fmt.Errorf("core: negative hop radius %d", h)
	}
	if len(scores) != g.NumNodes() {
		return nil, fmt.Errorf("core: %d scores for %d nodes", len(scores), g.NumNodes())
	}
	for v, s := range scores {
		if math.IsNaN(s) || s < 0 || s > 1 {
			return nil, fmt.Errorf("core: node %d has relevance %v outside [0,1]", v, s)
		}
	}
	return &Engine{g: g, scores: scores, h: h}, nil
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Scores returns the engine's relevance vector (shared; do not modify).
func (e *Engine) Scores() []float64 { return e.scores }

// H returns the hop radius.
func (e *Engine) H() int { return e.h }

// WithScores returns a new Engine over the same (graph, h) pair with a
// different relevance vector. The topology-only indexes (neighborhood and
// differential) are shared with the receiver — they depend only on (G, h),
// so a long-lived server can refresh its scores without paying index
// construction again. Score-dependent caches (processing queues, non-zero
// distribution lists) are rebuilt lazily by the new engine.
func (e *Engine) WithScores(scores []float64) (*Engine, error) {
	ne, err := NewEngine(e.g, scores, e.h)
	if err != nil {
		return nil, err
	}
	e.ixMu.Lock()
	ne.nix = e.nix
	ne.dix = e.dix
	e.ixMu.Unlock()
	return ne, nil
}

// HasDifferentialIndex reports whether the differential index is already
// built, without building it — what the planner's "is the index free?"
// heuristic asks.
func (e *Engine) HasDifferentialIndex() bool {
	e.ixMu.Lock()
	defer e.ixMu.Unlock()
	return e.dix != nil
}

// PrepareNeighborhoodIndex builds (or returns) the N(v) index.
func (e *Engine) PrepareNeighborhoodIndex(workers int) *graph.NeighborhoodIndex {
	e.ixMu.Lock()
	defer e.ixMu.Unlock()
	if e.nix == nil {
		e.nix = graph.BuildNeighborhoodIndex(e.g, e.h, workers)
	}
	return e.nix
}

// AdoptNeighborhoodIndex installs a prebuilt N(v) index — typically one
// incrementally repaired after a structural edit batch
// (graph.NeighborhoodIndex.Repair) — so a successor engine over the
// edited graph does not re-pay the full index build. The index must match
// the engine's hop radius and node count; the engine takes the pointer
// as-is (indexes are immutable by convention), so callers must hand over
// an index they will not mutate.
//
// The differential index is deliberately NOT adoptable across edits: its
// entries parallel arc positions, which any structural edit shifts. A
// post-edit engine starts without one and rebuilds it lazily if Forward
// is explicitly requested; until then the planner avoids Forward, the
// same contract as a server started with SkipIndexes.
func (e *Engine) AdoptNeighborhoodIndex(nix *graph.NeighborhoodIndex) error {
	if nix == nil {
		return errors.New("core: nil neighborhood index")
	}
	if nix.H != e.h {
		return fmt.Errorf("core: adopting index built for h=%d into engine with h=%d", nix.H, e.h)
	}
	if len(nix.Size) != e.g.NumNodes() {
		return fmt.Errorf("core: adopting index over %d nodes into engine over %d", len(nix.Size), e.g.NumNodes())
	}
	e.ixMu.Lock()
	e.nix = nix
	e.ixMu.Unlock()
	return nil
}

// PrepareDifferentialIndex builds (or returns) the per-edge differential
// index used by LONA-Forward.
func (e *Engine) PrepareDifferentialIndex(workers int) *graph.DifferentialIndex {
	e.ixMu.Lock()
	defer e.ixMu.Unlock()
	if e.dix == nil {
		e.dix = graph.BuildDifferentialIndex(e.g, e.h, workers)
	}
	return e.dix
}

// positional adapts Run to the positional methods' return shape with an
// uncancellable context.
func (e *Engine) positional(q Query) ([]Result, QueryStats, error) {
	ans, err := e.Run(context.Background(), q)
	return ans.Results, ans.Stats, err
}

// checkQuery validates common parameters and aggregate support.
func (e *Engine) checkQuery(k int, agg Aggregate, algo Algorithm) error {
	if k <= 0 {
		return fmt.Errorf("core: k must be positive, got %d", k)
	}
	switch agg {
	case Sum, Avg, WeightedSum, Count:
		// supported everywhere
	case Max:
		if algo == AlgoForward || algo == AlgoBackward || algo == AlgoForwardDist {
			return fmt.Errorf("core: %v does not support MAX (no transferable bound)", algo)
		}
	default:
		return fmt.Errorf("core: unknown aggregate %v", agg)
	}
	if algo == AlgoBackward || algo == AlgoBackwardNaive {
		if e.g.Directed() {
			return fmt.Errorf("core: %v requires an undirected graph (distribution relies on v ∈ S_h(u) ⇔ u ∈ S_h(v))", algo)
		}
	}
	return nil
}

// boundScore returns the per-node mass the pruning bounds reason about:
// the relevance itself for SUM-family aggregates, the 0/1 relevance
// indicator for COUNT. Both satisfy 0 <= mass <= 1, which Equations 1 and
// 3 require.
func (e *Engine) boundScore(v int, agg Aggregate) float64 {
	if agg == Count {
		if e.scores[v] > 0 {
			return 1
		}
		return 0
	}
	return e.scores[v]
}

// evaluate exactly computes u's aggregate with the given traverser.
// It returns the reported value, the SUM-domain quantity pruning bounds
// compare against (see boundScore), and N(u).
func (e *Engine) evaluate(t *graph.Traverser, u int, agg Aggregate) (value, boundSum float64, size int) {
	switch agg {
	case Sum:
		sum, n := t.SumWithin(u, e.h, e.scores)
		return sum, sum, n
	case Avg:
		sum, n := t.SumWithin(u, e.h, e.scores)
		return sum / float64(n), sum, n
	case WeightedSum:
		// One BFS computes both the weighted value and the plain sum the
		// bounds need (weighted <= plain because every weight <= 1).
		wsum, sum, n := t.WeightedPlainSumWithin(u, e.h, e.scores)
		return wsum, sum, n
	case Count:
		count, n := t.CountPositiveWithin(u, e.h, e.scores)
		return float64(count), float64(count), n
	case Max:
		max, n := t.MaxWithin(u, e.h, e.scores)
		return max, max, n
	default:
		panic(fmt.Sprintf("core: evaluate on unknown aggregate %v", agg))
	}
}

// finishValue converts a SUM-domain upper bound into the aggregate's value
// domain for comparison against the top-k threshold (Equation 2 for AVG).
func finishValue(agg Aggregate, boundSum float64, n int) float64 {
	if agg == Avg {
		return boundSum / float64(n)
	}
	return boundSum
}

// queueFor returns the cached node processing order for LONA-Forward.
// Orders depend only on immutable engine state, so they are built once.
func (e *Engine) queueFor(order QueueOrder) []int32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.queues == nil {
		e.queues = make(map[QueueOrder][]int32)
	}
	if q, ok := e.queues[order]; ok {
		return q
	}
	q := e.makeQueue(order)
	e.queues[order] = q
	return q
}

func (e *Engine) makeQueue(order QueueOrder) []int32 {
	n := e.g.NumNodes()
	queue := make([]int32, n)
	switch order {
	case OrderDegreeDesc:
		// Counting sort: descending degree, ascending id within a degree —
		// deterministic and O(n + maxDegree), cheap even on million-node
		// graphs.
		maxDeg := e.g.MaxDegree()
		counts := make([]int32, maxDeg+2)
		for u := 0; u < n; u++ {
			counts[maxDeg-e.g.Degree(u)+1]++
		}
		for d := 1; d < len(counts); d++ {
			counts[d] += counts[d-1]
		}
		for u := 0; u < n; u++ {
			slot := maxDeg - e.g.Degree(u)
			queue[counts[slot]] = int32(u)
			counts[slot]++
		}
	case OrderScoreDesc:
		for i := range queue {
			queue[i] = int32(i)
		}
		sort.SliceStable(queue, func(i, j int) bool {
			return e.scores[queue[i]] > e.scores[queue[j]]
		})
	default: // OrderNatural
		for i := range queue {
			queue[i] = int32(i)
		}
	}
	return queue
}

// nonZeroFor returns the nodes with positive bound-score under agg, sorted
// by descending score (ascending id among ties). Built once per score
// semantics and shared by every backward query.
func (e *Engine) nonZeroFor(agg Aggregate) []scoredNode {
	e.mu.Lock()
	defer e.mu.Unlock()
	cache := &e.nonZeroSum
	if agg == Count {
		cache = &e.nonZeroCount
	}
	if *cache != nil {
		return *cache
	}
	n := e.g.NumNodes()
	list := make([]scoredNode, 0, n/4)
	for v := 0; v < n; v++ {
		if s := e.boundScore(v, agg); s > 0 {
			list = append(list, scoredNode{int32(v), s})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].score != list[j].score {
			return list[i].score > list[j].score
		}
		return list[i].node < list[j].node
	})
	if len(list) == 0 {
		list = []scoredNode{} // non-nil sentinel so the cache hits
	}
	*cache = list
	return list
}
