package core

import "repro/internal/graph"

// queryScratch holds the dense per-query working arrays — candidate
// mask, pruning flags, backward accumulators, and the struct-of-arrays
// verification heap — so that steady-state queries perform no O(n)
// allocations. One scratch is checked out of the engine's pool per Run
// and returned when the query finishes; each algorithm clears exactly
// the arrays it uses (a memclr, the same work make() did before, minus
// the allocation and the garbage).
//
// The verification heap is struct-of-arrays on purpose: the heap's sift
// loop compares bounds only, and splitting nodes from bounds halves the
// bytes the comparisons pull through the cache.
type queryScratch struct {
	mask        []bool    // candidate membership
	pruned      []bool    // forward: pruned-by-bound flags
	processed   []bool    // forward: already-dequeued flags
	acc         []float64 // backward: accumulated mass P(v)
	scans       []int32   // backward: scan counts l(v); MAX: nodes one source fixed
	distributed []bool    // backward: did v distribute?
	heapNode    []int32   // backward: verification heap, nodes; MAX: source heap
	heapBound   []float64 // backward: verification heap, bounds; MAX: source scores
	trav        *graph.Traverser
}

// traverser returns the scratch's reusable BFS traverser for g (epoch
// marks plus the frontier queue — the last O(n) per-query allocation).
// Reuse is safe because every traversal Resets the epoch before walking,
// and a scratch pool belongs to one engine whose graph never changes;
// the identity check covers pools reached through WithScores clones.
func (s *queryScratch) traverser(g *graph.Graph) *graph.Traverser {
	if s.trav == nil || s.trav.Graph() != g {
		s.trav = graph.NewTraverser(g)
	}
	return s.trav
}

// scratch returns a queryScratch for this engine's node count.
func (e *Engine) scratch() *queryScratch {
	if s, ok := e.scratchPool.Get().(*queryScratch); ok {
		return s
	}
	return &queryScratch{}
}

// release returns s to the pool. Callers must not retain any view of its
// arrays past this call.
func (e *Engine) release(s *queryScratch) { e.scratchPool.Put(s) }

// clearedBools returns *buf resized to n and zeroed.
func clearedBools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

// clearedF64 returns *buf resized to n and zeroed.
func clearedF64(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

// clearedI32 returns *buf resized to n and zeroed.
func clearedI32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

// emptyI32 returns *buf with capacity >= n and length 0 (no clearing —
// heap storage is overwritten before use).
func emptyI32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, 0, n)
	}
	return (*buf)[:0]
}

// emptyF64 returns *buf with capacity >= n and length 0.
func emptyF64(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, 0, n)
	}
	return (*buf)[:0]
}
