package graph

import (
	"math/bits"

	"repro/internal/ds"
)

// Traverser runs h-hop breadth-first expansions over one graph while
// reusing all scratch state (visited marks, frontier queue). A Traverser is
// not safe for concurrent use; create one per goroutine — they are cheap
// relative to the graph and amortize to zero allocation per traversal.
//
// The aggregation methods (SumWithin et al.) are deliberately flat: each
// carries its own copy of the level-by-level BFS loop with the aggregation
// fused in, rather than calling VisitWithin with a closure. The indirect
// call per visited node is the single hottest instruction in every
// forward scan, and the flat forms visit nodes — and accumulate floats —
// in exactly the order VisitWithin does, so the two families are
// interchangeable to the byte.
type Traverser struct {
	g     *Graph
	seen  *ds.Epoch
	queue []int32 // frontier storage: nodes in BFS order, level-delimited by counts
}

// NewTraverser returns a Traverser over g.
func NewTraverser(g *Graph) *Traverser {
	return &Traverser{g: g, seen: ds.NewEpoch(g.NumNodes())}
}

// Graph returns the graph this traverser walks.
func (t *Traverser) Graph() *Graph { return t.g }

// VisitWithin calls visit(v, dist) exactly once for every node v whose
// BFS distance from src is at most h, including src itself at distance 0.
// Visits occur in non-decreasing distance order. h < 0 visits nothing.
func (t *Traverser) VisitWithin(src, h int, visit func(v, dist int)) {
	if h < 0 {
		return
	}
	t.seen.Reset()
	t.queue = t.queue[:0]
	t.seen.Mark(src)
	t.queue = append(t.queue, int32(src))
	visit(src, 0)

	levelStart := 0
	for dist := 1; dist <= h; dist++ {
		levelEnd := len(t.queue)
		if levelStart == levelEnd {
			return // frontier exhausted before reaching h hops
		}
		for i := levelStart; i < levelEnd; i++ {
			u := int(t.queue[i])
			for _, v := range t.g.Neighbors(u) {
				if t.seen.Mark(int(v)) {
					continue
				}
				t.queue = append(t.queue, v)
				visit(int(v), dist)
			}
		}
		levelStart = levelEnd
	}
}

// CountWithin returns N(src) = |S_h(src)|, the number of nodes within h
// hops of src including src itself.
func (t *Traverser) CountWithin(src, h int) int {
	if h < 0 {
		return 0
	}
	t.seen.Reset()
	t.queue = t.queue[:0]
	t.seen.Mark(src)
	t.queue = append(t.queue, int32(src))
	adj, offsets := t.g.adj, t.g.offsets
	levelStart := 0
	for dist := 1; dist <= h; dist++ {
		levelEnd := len(t.queue)
		if levelStart == levelEnd {
			break
		}
		for i := levelStart; i < levelEnd; i++ {
			u := int(t.queue[i])
			for _, v := range adj[offsets[u]:offsets[u+1]] {
				if !t.seen.Mark(int(v)) {
					t.queue = append(t.queue, v)
				}
			}
		}
		levelStart = levelEnd
	}
	return len(t.queue)
}

// CollectWithin appends S_h(src), in BFS order, to buf and returns it.
// Pass buf[:0] to reuse a previous buffer.
func (t *Traverser) CollectWithin(src, h int, buf []int32) []int32 {
	t.VisitWithin(src, h, func(v, _ int) { buf = append(buf, int32(v)) })
	return buf
}

// SumCountWithinOrdered returns Σ score[v] over S_h(src) accumulated in
// ascending node-id order, the count of strictly positive-or-negative
// (non-zero) scores among them, and |S_h(src)| — the fused form of
// CollectWithin + sort + ascending accumulation that incremental view
// repair needs for byte-identical float sums, without the sort. The BFS
// marks members in bs (which must cover the graph's id range and be
// empty); the drain then scans only the word span the neighborhood
// actually touched, in ascending order, zeroing words as it goes — bs
// comes back empty, ready for the caller's next node.
func (t *Traverser) SumCountWithinOrdered(src, h int, score []float64, bs *ds.Bitset) (sum float64, cnt, size int32) {
	if h < 0 {
		return 0, 0, 0
	}
	t.seen.Reset()
	t.queue = t.queue[:0]
	t.seen.Mark(src)
	t.queue = append(t.queue, int32(src))
	words := bs.Words()
	lo, hi := src>>6, src>>6
	words[src>>6] |= 1 << uint(src&63)
	adj, offsets := t.g.adj, t.g.offsets
	levelStart := 0
	for dist := 1; dist <= h; dist++ {
		levelEnd := len(t.queue)
		if levelStart == levelEnd {
			break
		}
		for i := levelStart; i < levelEnd; i++ {
			u := int(t.queue[i])
			for _, v := range adj[offsets[u]:offsets[u+1]] {
				if t.seen.Mark(int(v)) {
					continue
				}
				t.queue = append(t.queue, v)
				w := int(v) >> 6
				words[w] |= 1 << uint(v&63)
				if w < lo {
					lo = w
				} else if w > hi {
					hi = w
				}
			}
		}
		levelStart = levelEnd
	}
	// Ascending drain: words low to high, bits low to high within each —
	// exactly the summation order a sorted id list produces. Skipping
	// zero scores keeps the adds identical to the sorted-loop's (which
	// also skipped them), so the float bits cannot differ.
	for w := lo; w <= hi; w++ {
		word := words[w]
		if word == 0 {
			continue
		}
		words[w] = 0
		base := w << 6
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			if s := score[base+b]; s != 0 {
				sum += s
				cnt++
			}
		}
	}
	return sum, cnt, int32(len(t.queue))
}

// SumWithin returns the sum of score[v] over v in S_h(src) together with
// N(src). This is the exact forward evaluation F_sum(src) from
// Definition 2, fused with the neighborhood count so one BFS serves both
// SUM and AVG.
func (t *Traverser) SumWithin(src, h int, score []float64) (sum float64, size int) {
	if h < 0 {
		return 0, 0
	}
	t.seen.Reset()
	t.queue = t.queue[:0]
	t.seen.Mark(src)
	t.queue = append(t.queue, int32(src))
	sum = score[src]
	adj, offsets := t.g.adj, t.g.offsets
	levelStart := 0
	for dist := 1; dist <= h; dist++ {
		levelEnd := len(t.queue)
		if levelStart == levelEnd {
			break
		}
		for i := levelStart; i < levelEnd; i++ {
			u := int(t.queue[i])
			for _, v := range adj[offsets[u]:offsets[u+1]] {
				if t.seen.Mark(int(v)) {
					continue
				}
				t.queue = append(t.queue, v)
				sum += score[v]
			}
		}
		levelStart = levelEnd
	}
	return sum, len(t.queue)
}

// WeightedSumWithin returns Σ score[v] / dist(src, v) over S_h(src)\{src}
// plus score[src] itself, following footnote 1 of the paper with
// w(u, v) = 1/shortest-distance. The source's own score has weight 1.
func (t *Traverser) WeightedSumWithin(src, h int, score []float64) (sum float64, size int) {
	if h < 0 {
		return 0, 0
	}
	t.seen.Reset()
	t.queue = t.queue[:0]
	t.seen.Mark(src)
	t.queue = append(t.queue, int32(src))
	sum = score[src]
	adj, offsets := t.g.adj, t.g.offsets
	levelStart := 0
	for dist := 1; dist <= h; dist++ {
		levelEnd := len(t.queue)
		if levelStart == levelEnd {
			break
		}
		fdist := float64(dist)
		for i := levelStart; i < levelEnd; i++ {
			u := int(t.queue[i])
			for _, v := range adj[offsets[u]:offsets[u+1]] {
				if t.seen.Mark(int(v)) {
					continue
				}
				t.queue = append(t.queue, v)
				sum += score[v] / fdist
			}
		}
		levelStart = levelEnd
	}
	return sum, len(t.queue)
}

// WeightedPlainSumWithin computes, in one BFS, both the weighted sum the
// WSUM aggregate reports (weight 1 at distance <= 1, 1/dist beyond) and
// the plain sum the pruning bounds compare against.
func (t *Traverser) WeightedPlainSumWithin(src, h int, score []float64) (wsum, sum float64, size int) {
	if h < 0 {
		return 0, 0, 0
	}
	t.seen.Reset()
	t.queue = t.queue[:0]
	t.seen.Mark(src)
	t.queue = append(t.queue, int32(src))
	sum = score[src]
	wsum = score[src]
	adj, offsets := t.g.adj, t.g.offsets
	levelStart := 0
	for dist := 1; dist <= h; dist++ {
		levelEnd := len(t.queue)
		if levelStart == levelEnd {
			break
		}
		fdist := float64(dist)
		for i := levelStart; i < levelEnd; i++ {
			u := int(t.queue[i])
			for _, v := range adj[offsets[u]:offsets[u+1]] {
				if t.seen.Mark(int(v)) {
					continue
				}
				t.queue = append(t.queue, v)
				sum += score[v]
				if dist <= 1 {
					wsum += score[v]
				} else {
					wsum += score[v] / fdist
				}
			}
		}
		levelStart = levelEnd
	}
	return wsum, sum, len(t.queue)
}

// MaxWithin returns the maximum score over S_h(src) and N(src).
// The maximum of an empty neighborhood cannot occur (src is always
// included), so the result is well-defined.
func (t *Traverser) MaxWithin(src, h int, score []float64) (max float64, size int) {
	if h < 0 {
		return 0, 0
	}
	t.seen.Reset()
	t.queue = t.queue[:0]
	t.seen.Mark(src)
	t.queue = append(t.queue, int32(src))
	max = score[src]
	adj, offsets := t.g.adj, t.g.offsets
	levelStart := 0
	for dist := 1; dist <= h; dist++ {
		levelEnd := len(t.queue)
		if levelStart == levelEnd {
			break
		}
		for i := levelStart; i < levelEnd; i++ {
			u := int(t.queue[i])
			for _, v := range adj[offsets[u]:offsets[u+1]] {
				if t.seen.Mark(int(v)) {
					continue
				}
				t.queue = append(t.queue, v)
				if score[v] > max {
					max = score[v]
				}
			}
		}
		levelStart = levelEnd
	}
	return max, len(t.queue)
}

// CountPositiveWithin returns the number of nodes in S_h(src) with a
// strictly positive score (the COUNT aggregate over relevant nodes) and
// N(src).
func (t *Traverser) CountPositiveWithin(src, h int, score []float64) (count, size int) {
	if h < 0 {
		return 0, 0
	}
	t.seen.Reset()
	t.queue = t.queue[:0]
	t.seen.Mark(src)
	t.queue = append(t.queue, int32(src))
	if score[src] > 0 {
		count++
	}
	adj, offsets := t.g.adj, t.g.offsets
	levelStart := 0
	for dist := 1; dist <= h; dist++ {
		levelEnd := len(t.queue)
		if levelStart == levelEnd {
			break
		}
		for i := levelStart; i < levelEnd; i++ {
			u := int(t.queue[i])
			for _, v := range adj[offsets[u]:offsets[u+1]] {
				if t.seen.Mark(int(v)) {
					continue
				}
				t.queue = append(t.queue, v)
				if score[v] > 0 {
					count++
				}
			}
		}
		levelStart = levelEnd
	}
	return count, len(t.queue)
}

// AddWithin adds mass to acc[v] for every v in S_h(src) and returns
// |S_h(src)| — one backward-distribution step for the SUM family (and,
// with mass 1, for COUNT).
func (t *Traverser) AddWithin(src, h int, mass float64, acc []float64) (size int) {
	if h < 0 {
		return 0
	}
	t.seen.Reset()
	t.queue = t.queue[:0]
	t.seen.Mark(src)
	t.queue = append(t.queue, int32(src))
	acc[src] += mass
	adj, offsets := t.g.adj, t.g.offsets
	levelStart := 0
	for dist := 1; dist <= h; dist++ {
		levelEnd := len(t.queue)
		if levelStart == levelEnd {
			break
		}
		for i := levelStart; i < levelEnd; i++ {
			u := int(t.queue[i])
			for _, v := range adj[offsets[u]:offsets[u+1]] {
				if t.seen.Mark(int(v)) {
					continue
				}
				t.queue = append(t.queue, v)
				acc[v] += mass
			}
		}
		levelStart = levelEnd
	}
	return len(t.queue)
}

// AddWeightedWithin distributes mass/dist to acc over S_h(src) (weight 1
// at distance <= 1) and returns |S_h(src)| — the WSUM backward step.
// Undirected BFS distances are symmetric, so accumulating mass/dist at
// each neighbor reconstructs Σ f(v)/dist(u,v) exactly.
func (t *Traverser) AddWeightedWithin(src, h int, mass float64, acc []float64) (size int) {
	if h < 0 {
		return 0
	}
	t.seen.Reset()
	t.queue = t.queue[:0]
	t.seen.Mark(src)
	t.queue = append(t.queue, int32(src))
	acc[src] += mass
	adj, offsets := t.g.adj, t.g.offsets
	levelStart := 0
	for dist := 1; dist <= h; dist++ {
		levelEnd := len(t.queue)
		if levelStart == levelEnd {
			break
		}
		fdist := float64(dist)
		for i := levelStart; i < levelEnd; i++ {
			u := int(t.queue[i])
			for _, v := range adj[offsets[u]:offsets[u+1]] {
				if t.seen.Mark(int(v)) {
					continue
				}
				t.queue = append(t.queue, v)
				if dist <= 1 {
					acc[v] += mass
				} else {
					acc[v] += mass / fdist
				}
			}
		}
		levelStart = levelEnd
	}
	return len(t.queue)
}

// FixWithin sets acc[v] = mass for every v in S_h(src) whose acc[v] is still
// zero, appends those nodes to fixed, and returns the extended slice with
// |S_h(src)| — the MAX backward step. When sources distribute in descending
// mass order the first mass to reach a node is its neighborhood maximum, so
// a fixed value is final. mass must be positive: zero means "not reached".
func (t *Traverser) FixWithin(src, h int, mass float64, acc []float64, fixed []int32) ([]int32, int) {
	if h < 0 {
		return fixed, 0
	}
	t.seen.Reset()
	t.queue = t.queue[:0]
	t.seen.Mark(src)
	t.queue = append(t.queue, int32(src))
	if acc[src] == 0 {
		acc[src] = mass
		fixed = append(fixed, int32(src))
	}
	adj, offsets := t.g.adj, t.g.offsets
	levelStart := 0
	for dist := 1; dist <= h; dist++ {
		levelEnd := len(t.queue)
		if levelStart == levelEnd {
			break
		}
		for i := levelStart; i < levelEnd; i++ {
			u := int(t.queue[i])
			for _, v := range adj[offsets[u]:offsets[u+1]] {
				if t.seen.Mark(int(v)) {
					continue
				}
				t.queue = append(t.queue, v)
				if acc[v] == 0 {
					acc[v] = mass
					fixed = append(fixed, v)
				}
			}
		}
		levelStart = levelEnd
	}
	return fixed, len(t.queue)
}

// AddScanWithin adds mass to acc[v] and increments scans[v] for every v
// in S_h(src), returning |S_h(src)| — the partial-distribution step of
// LONA-Backward, which needs both the accumulated mass P(v) and the scan
// count l(v) for Equation 3.
func (t *Traverser) AddScanWithin(src, h int, mass float64, acc []float64, scans []int32) (size int) {
	if h < 0 {
		return 0
	}
	t.seen.Reset()
	t.queue = t.queue[:0]
	t.seen.Mark(src)
	t.queue = append(t.queue, int32(src))
	acc[src] += mass
	scans[src]++
	adj, offsets := t.g.adj, t.g.offsets
	levelStart := 0
	for dist := 1; dist <= h; dist++ {
		levelEnd := len(t.queue)
		if levelStart == levelEnd {
			break
		}
		for i := levelStart; i < levelEnd; i++ {
			u := int(t.queue[i])
			for _, v := range adj[offsets[u]:offsets[u+1]] {
				if t.seen.Mark(int(v)) {
					continue
				}
				t.queue = append(t.queue, v)
				acc[v] += mass
				scans[v]++
			}
		}
		levelStart = levelEnd
	}
	return len(t.queue)
}

// CountUnmarkedWithin returns how many nodes of S_h(src) are not marked
// in marks — the inner step of the differential-index build, flattened
// for the same reason as the aggregation methods (it runs once per arc
// of the whole graph).
func (t *Traverser) CountUnmarkedWithin(src, h int, marks *ds.Epoch) (missing int) {
	if h < 0 {
		return 0
	}
	t.seen.Reset()
	t.queue = t.queue[:0]
	t.seen.Mark(src)
	t.queue = append(t.queue, int32(src))
	if !marks.Marked(src) {
		missing++
	}
	adj, offsets := t.g.adj, t.g.offsets
	levelStart := 0
	for dist := 1; dist <= h; dist++ {
		levelEnd := len(t.queue)
		if levelStart == levelEnd {
			break
		}
		for i := levelStart; i < levelEnd; i++ {
			u := int(t.queue[i])
			for _, v := range adj[offsets[u]:offsets[u+1]] {
				if t.seen.Mark(int(v)) {
					continue
				}
				t.queue = append(t.queue, v)
				if !marks.Marked(int(v)) {
					missing++
				}
			}
		}
		levelStart = levelEnd
	}
	return missing
}

// Eccentricity returns the largest BFS distance reachable from src within
// limit hops (capped at limit). Useful for dataset statistics.
func (t *Traverser) Eccentricity(src, limit int) int {
	far := 0
	t.VisitWithin(src, limit, func(_, dist int) {
		if dist > far {
			far = dist
		}
	})
	return far
}
