package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/topk"
	"repro/internal/trace"
)

// runBackwardNaive answers a top-k query with Algorithm 2: every node with
// a non-zero score distributes it to all nodes within h hops (itself
// included), after which the accumulated values are exact and the top k
// are selected. Its cost equals Base on dense score vectors but shrinks
// proportionally when scores are sparse — the 0-1 binary setting the paper
// highlights, where zero nodes "have no contribution to the aggregate
// values" and are skipped outright.
//
// Candidates restrict only the final selection: every non-zero node still
// distributes, because non-candidate scores contribute to candidate
// aggregates.
//
// MAX takes its own path (runBackwardMax): a maximum needs no accumulation,
// so distributing in descending score order fixes every node at its first
// touch and the run stops long before the last node has distributed.
//
// Requires an undirected graph: distribution relies on v ∈ S_h(u) ⇔
// u ∈ S_h(v).
func (e *Engine) runBackwardNaive(x *exec) (Answer, error) {
	n := e.g.NumNodes()
	agg := x.q.Aggregate
	if agg == Max {
		return e.runBackwardMax(x)
	}
	acc := clearedF64(&x.s.acc, n)
	t := x.s.traverser(e.g)
	var stats QueryStats

	undistributedFrom := n // first node the budget prevented from distributing
	for u := 0; u < n; u++ {
		mass := e.scores[u]
		if mass == 0 {
			continue
		}
		if err := x.tick(&stats); err != nil {
			return Answer{}, err
		}
		if !x.spend() {
			undistributedFrom = u
			break
		}
		size := 0
		switch agg {
		case Sum, Avg:
			size = t.AddWithin(u, e.h, mass, acc)
		case WeightedSum:
			// Undirected BFS distances are symmetric, so distributing
			// mass/dist accumulates exactly Σ f(v)/dist(u,v) at each node.
			size = t.AddWeightedWithin(u, e.h, mass, acc)
		case Count:
			size = t.AddWithin(u, e.h, 1, acc)
		}
		stats.Distributed++
		stats.Visited += size
	}
	// Budget truncation: nodes past the cutoff never distributed, so they
	// have not credited even their own exactly-known mass. Add it so the
	// best-effort ranking matches runBackward's truncation fallback.
	for v := undistributedFrom; v < n; v++ {
		mass := e.scores[v]
		if mass == 0 {
			continue
		}
		switch agg {
		case Sum, Avg, WeightedSum:
			acc[v] += mass
		case Count:
			acc[v]++
		}
	}

	// Selection: values are final once every node has distributed, so the
	// kept offers stream as certified results (estimates only when the
	// budget truncated the distribution — then they are lower bounds).
	list := topk.New(x.q.K)
	offer := func(v int, value float64) {
		if list.Offer(v, value) {
			x.sink.kept(v, value, &stats)
		}
	}
	if agg == Avg {
		nix := e.PrepareNeighborhoodIndex(0)
		for v := 0; v < n; v++ {
			if x.eligible(v) {
				offer(v, acc[v]/float64(nix.N(v)))
			}
		}
	} else {
		for v := 0; v < n; v++ {
			if x.eligible(v) {
				offer(v, acc[v])
			}
		}
	}
	return Answer{Results: list.Items(), Stats: stats}, nil
}

// runBackwardMax answers a MAX query by distributing in descending score
// order. F_max(v) is the largest score within h hops of v, so the first
// source to reach v — the highest-scoring one that ever will — fixes v's
// exact value, and later touches are no-ops. Values are therefore produced
// in final rank order, score group by score group, and the run ends at the
// first group boundary where k eligible nodes (or every eligible node) are
// fixed: every node whose value ties the k-th has been enumerated by then
// (all sources of that score have distributed), so the list's smallest-id
// tie-break sees the same population Base does and the answer is
// byte-identical to Base's, at the cost of the distributed sources'
// traversals instead of n.
//
// Because values arrive in final order, an external floor λ ends the run
// outright once the next score falls below it. A budget-truncated run
// credits each undistributed node its own score (a lower bound of its
// value), like the accumulating path above.
func (e *Engine) runBackwardMax(x *exec) (Answer, error) {
	n := e.g.NumNodes()
	acc := clearedF64(&x.s.acc, n) // 0 = not reached yet; distributed scores are > 0
	fixed := emptyI32(&x.s.scans, n)
	t := x.s.traverser(e.g)
	var stats QueryStats
	list := topk.New(x.q.K)
	// offer ranks v at value if the query may rank it at all.
	offer := func(v int, value float64) bool {
		if !x.eligible(v) {
			return false
		}
		if list.Offer(v, value) {
			x.sink.kept(v, value, &stats)
		}
		return true
	}

	// Sorted access by partial selection: a max-heap over the non-zero
	// scores costs O(n) to build and O(log n) per source actually popped,
	// where a full sort would charge every fresh score generation
	// O(n log n) for an order the run abandons after the first few groups.
	srcNode := emptyI32(&x.s.heapNode, n)
	srcScore := emptyF64(&x.s.heapBound, n)
	for v, s := range e.scores {
		if s > 0 {
			srcNode, srcScore = append(srcNode, int32(v)), append(srcScore, s)
		}
	}
	heapifyCandidates(srcNode, srcScore)

	need := min(x.q.K, x.candCount) // eligible nodes to fix before the run may stop
	ranked := 0                     // eligible nodes fixed so far
	group := 0.0                    // score of the last source that distributed
	for len(srcNode) > 0 {
		u, score := int(srcNode[0]), srcScore[0]
		if ranked >= need && score < group {
			x.tr.Emit(trace.KindCut, len(srcNode), score, "k nodes fixed and their ties enumerated")
			break
		}
		if err := x.tick(&stats); err != nil {
			return Answer{}, err
		}
		if score < x.floor() {
			x.tr.Emit(trace.KindCut, len(srcNode), x.floor(), "remaining scores below λ")
			break
		}
		if !x.spend() {
			break
		}
		srcNode, srcScore = popCandidate(srcNode, srcScore)
		group = score
		var size int
		fixed, size = t.FixWithin(u, e.h, score, acc, fixed[:0])
		stats.Distributed++
		stats.Visited += size
		for _, v := range fixed {
			if offer(int(v), score) {
				ranked++
			}
		}
	}
	if x.truncated {
		for i, u := range srcNode {
			if v := int(u); acc[v] == 0 {
				acc[v] = srcScore[i]
				offer(v, srcScore[i])
			}
		}
	}
	// Every source distributed (or the budget ran out) and the list still
	// has room: the nodes nothing reached have value 0 and fill it in id
	// order, as in Base — unless a positive floor already rules them out.
	if (len(srcNode) == 0 || x.truncated) && x.floor() == 0 {
		for v := 0; v < n && !list.Full(); v++ {
			if acc[v] == 0 {
				offer(v, 0)
			}
		}
	}
	return Answer{Results: list.Items(), Stats: stats}, nil
}

// BackwardNaive is runBackwardNaive behind the positional convenience
// signature, with no cancellation, candidates, or budget.
func (e *Engine) BackwardNaive(k int, agg Aggregate) ([]Result, QueryStats, error) {
	return e.positional(Query{Algorithm: AlgoBackwardNaive, K: k, Aggregate: agg})
}

// runBackward answers a top-k query with LONA-Backward: nodes whose
// bound-score is at least gamma distribute it backward in descending score
// order; Equation 3 (tightened — see below) then upper-bounds every node's
// aggregate, and nodes are exactly verified in descending bound order,
// stopping as soon as no remaining bound can beat the k-th exact value.
//
// With P(v) the partial sum accumulated at v, l(v) the number of nodes
// that scanned v, and fRest the largest score among nodes that did NOT
// distribute (known exactly because scores are sorted — a tightening of
// the paper's f(u_l), which is always >= fRest):
//
//	F̄_sum(v) = P(v) + f(v)·[v undistributed] + fRest·(N(v) − l(v) − [v undistributed])
//
// gamma = 0 distributes every non-zero node, making the SUM bounds exact
// at BackwardNaive's distribution cost; larger gamma trades bound
// tightness for less distribution work (ablation benchmark A2 sweeps it).
//
// Candidates restrict the bound heap and the verification loop, not the
// distribution. Both distributions and verifications spend budget; a
// truncated run returns the best verified prefix.
func (e *Engine) runBackward(x *exec) (Answer, error) {
	gamma := x.q.Options.Gamma
	if gamma < 0 || gamma > 1 {
		return Answer{}, fmt.Errorf("core: backward threshold γ=%v outside [0,1]", gamma)
	}
	agg := x.q.Aggregate
	nix := e.PrepareNeighborhoodIndex(0)
	n := e.g.NumNodes()
	var stats QueryStats

	// The cached non-zero list is sorted by descending bound-score; the
	// prefix with score >= gamma distributes, and the first score below
	// gamma bounds every undistributed node's mass (fRest).
	nonZero := e.nonZeroFor(agg)
	cut := sort.Search(len(nonZero), func(i int) bool { return nonZero[i].score < gamma })
	fRest := 0.0
	if cut < len(nonZero) {
		fRest = nonZero[cut].score
	}

	partial := clearedF64(&x.s.acc, n)
	scanCount := clearedI32(&x.s.scans, n)
	distributed := clearedBools(&x.s.distributed, n)
	t := x.s.traverser(e.g)
	for _, sc := range nonZero[:cut] {
		if err := x.tick(&stats); err != nil {
			return Answer{}, err
		}
		if !x.spend() {
			break
		}
		u := int(sc.node)
		distributed[u] = true
		size := t.AddScanWithin(u, e.h, sc.score, partial, scanCount)
		stats.Distributed++
		stats.Visited += size
	}
	x.tr.Emit(trace.KindPhase, stats.Distributed, fRest, "backward distribution done")
	// estimate is the best-effort value a budget-truncated run reports for
	// an unverified node: its accumulated partial sum plus its own exactly
	// known mass when it has not distributed. Both truncation paths below
	// must use it — the budget-monotonicity guarantee TestRunBudgetTruncates
	// guards depends on the two estimates agreeing.
	estimate := func(v int) float64 {
		est := partial[v]
		if !distributed[v] {
			est += e.boundScore(v, agg)
		}
		return finishValue(agg, est, nix.N(v))
	}
	if x.truncated {
		// The partial sums are incomplete, so Equation 3 no longer bounds
		// anything; fall back to ranking candidates by what did accumulate
		// (each estimate is a lower bound of the true value, so streaming
		// the kept ones keeps any downstream merge floor admissible).
		list := topk.New(x.q.K)
		for v := 0; v < n; v++ {
			if x.eligible(v) {
				if est := estimate(v); list.Offer(v, est) {
					x.sink.kept(v, est, &stats)
				}
			}
		}
		return Answer{Results: list.Items(), Stats: stats}, nil
	}

	// Upper-bound every candidate (Equation 3, tightened) in the
	// aggregate's value domain, then verify candidates in descending bound
	// order via a max-heap — only the nodes whose bound can still beat the
	// running k-th value are ever exactly evaluated.
	heapNode := emptyI32(&x.s.heapNode, n)
	heapBound := emptyF64(&x.s.heapBound, n)
	for v := 0; v < n; v++ {
		if !x.eligible(v) {
			continue
		}
		unknown := float64(nix.N(v)) - float64(scanCount[v])
		boundSum := partial[v]
		if !distributed[v] {
			boundSum += e.boundScore(v, agg) // v's own mass is known exactly
			unknown--
		}
		if unknown > 0 {
			boundSum += fRest * unknown
		}
		heapNode = append(heapNode, int32(v))
		heapBound = append(heapBound, finishValue(agg, boundSum, nix.N(v)))
	}
	heapifyCandidates(heapNode, heapBound)

	// Stopping is strict (<) so value ties resolve identically to Base.
	// The stop threshold folds the external floor λ in: the heap is
	// bound-descending, so once the top bound falls below either the local
	// topklbound or λ, no remaining candidate can matter — locally or in
	// the global top-k the floor certifies.
	list := topk.New(x.q.K)
	for len(heapNode) > 0 {
		topNode, topBound := heapNode[0], heapBound[0]
		if threshold := x.threshold(list); threshold > 0 && topBound < threshold {
			x.tr.Emit(trace.KindCut, len(heapNode), threshold, "verification stop")
			break
		}
		if err := x.tick(&stats); err != nil {
			return Answer{}, err
		}
		if !x.spend() {
			// Budget died mid-verification. Top the list up with the
			// unverified candidates' estimates so the best-effort answer
			// never shrinks when the budget grows (a budget landing exactly
			// between distribution and verification must not return fewer
			// results than a smaller one).
			for _, node := range heapNode {
				if est := estimate(int(node)); list.Offer(int(node), est) {
					x.sink.kept(int(node), est, &stats)
				}
			}
			break
		}
		heapNode, heapBound = popCandidate(heapNode, heapBound)
		value, _, size := e.evaluate(t, int(topNode), agg)
		stats.Evaluated++
		stats.Visited += size
		if list.Offer(int(topNode), value) {
			x.sink.kept(int(topNode), value, &stats)
		}
	}
	return Answer{Results: list.Items(), Stats: stats}, nil
}

// Backward is runBackward behind the positional convenience signature,
// with no cancellation, candidates, or budget.
func (e *Engine) Backward(k int, agg Aggregate, gamma float64) ([]Result, QueryStats, error) {
	return e.positional(Query{Algorithm: AlgoBackward, K: k, Aggregate: agg, Options: Options{Gamma: gamma}})
}

// heapifyCandidates arranges the parallel (node, bound) arrays as a
// max-heap on bound. Struct-of-arrays keeps the sift loop's comparisons
// reading a dense float64 stream instead of 16-byte records.
func heapifyCandidates(nodes []int32, bounds []float64) {
	for i := len(nodes)/2 - 1; i >= 0; i-- {
		downCandidate(nodes, bounds, i)
	}
}

// popCandidate removes the heap's top entry.
func popCandidate(nodes []int32, bounds []float64) ([]int32, []float64) {
	last := len(nodes) - 1
	nodes[0], bounds[0] = nodes[last], bounds[last]
	nodes, bounds = nodes[:last], bounds[:last]
	if last > 0 {
		downCandidate(nodes, bounds, 0)
	}
	return nodes, bounds
}

func downCandidate(nodes []int32, bounds []float64, i int) {
	n := len(nodes)
	for {
		left, right := 2*i+1, 2*i+2
		largest := i
		if left < n && bounds[left] > bounds[largest] {
			largest = left
		}
		if right < n && bounds[right] > bounds[largest] {
			largest = right
		}
		if largest == i {
			return
		}
		nodes[i], nodes[largest] = nodes[largest], nodes[i]
		bounds[i], bounds[largest] = bounds[largest], bounds[i]
		i = largest
	}
}

// BackwardBound exposes the Equation 3 upper bound LONA-Backward would
// assign to node v under threshold gamma. Tests use it to verify bound
// admissibility; it re-runs the distribution, so it is test-only in cost.
func (e *Engine) BackwardBound(v int, agg Aggregate, gamma float64) float64 {
	nix := e.PrepareNeighborhoodIndex(0)
	n := e.g.NumNodes()
	type scored struct {
		node  int32
		score float64
	}
	nonZero := make([]scored, 0, n/4)
	for u := 0; u < n; u++ {
		if s := e.boundScore(u, agg); s > 0 {
			nonZero = append(nonZero, scored{int32(u), s})
		}
	}
	sort.SliceStable(nonZero, func(i, j int) bool { return nonZero[i].score > nonZero[j].score })

	partialV := 0.0
	scans := 0
	selfDistributed := false
	fRest := 0.0
	t := graph.NewTraverser(e.g)
	for _, sc := range nonZero {
		if sc.score < gamma {
			fRest = sc.score
			break
		}
		if int(sc.node) == v {
			selfDistributed = true
		}
		t.VisitWithin(int(sc.node), e.h, func(w, _ int) {
			if w == v {
				partialV += sc.score
				scans++
			}
		})
	}
	unknown := float64(nix.N(v)) - float64(scans)
	boundSum := partialV
	if !selfDistributed {
		boundSum += e.boundScore(v, agg)
		unknown--
	}
	if unknown > 0 {
		boundSum += fRest * unknown
	}
	return finishValue(agg, boundSum, nix.N(v))
}
