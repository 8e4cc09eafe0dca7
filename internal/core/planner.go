package core

import (
	"context"
	"fmt"
	"sort"
)

// Planner chooses a query strategy from cheap statistics of the engine's
// inputs — the decision a database optimizer would make. The evaluation
// (Figures 1–6 and ablation A1) shows no single LONA algorithm dominates:
// backward processing wins when high scores are rare (small effective
// blacking mass), forward pruning wins when scores are dense and the
// differential index already exists, and the naive scan is unbeatable on
// tiny graphs where setup costs dominate.
type Planner struct {
	e *Engine
}

// NewPlanner returns a planner over e.
func NewPlanner(e *Engine) *Planner { return &Planner{e: e} }

// Plan is the planner's decision with its rationale.
type Plan struct {
	Algorithm Algorithm
	Options   Options
	Reason    string
}

// Choose picks a strategy for a (k, aggregate) query.
//
// Heuristics, in order:
//   - MAX needs no bound on an undirected graph: BackwardNaive's MAX path
//     distributes in descending score order, fixes every node at its first
//     touch and stops once k nodes and their ties are fixed
//     (runBackwardMax). Directed graphs cannot distribute backward and MAX
//     has no transferable pruning bound there: Base.
//   - Directed graphs cannot distribute backward: Forward if the
//     differential index exists, otherwise Base.
//   - Sparse scores (few non-zero) make distribution almost free:
//     BackwardNaive below ~5% density, LONA-Backward below ~40% "heavy"
//     density with γ at the distribution knee.
//   - Otherwise Forward when the differential index is already built
//     (its offline cost must not be charged to one query), else
//     LONA-Backward with a γ that distributes roughly the top decile.
//   - Wherever LONA-Backward would be chosen but its γ lets (nearly) every
//     node distribute — COUNT over all-relevant nodes, where the 0/1 mass
//     cannot be split by any γ, or all-equal scores — the "partial"
//     distribution is a full one plus a verification pass: Base instead.
func (p *Planner) Choose(k int, agg Aggregate) Plan {
	e := p.e
	n := e.g.NumNodes()
	if n == 0 {
		return Plan{Algorithm: AlgoBase, Reason: "empty graph"}
	}
	if agg == Max {
		if e.g.Directed() {
			return Plan{Algorithm: AlgoBase, Reason: "MAX on a directed graph has no pruning bound"}
		}
		return Plan{Algorithm: AlgoBackwardNaive,
			Reason: "MAX: descending-score distribution fixes each node at first touch"}
	}
	if e.g.Directed() {
		if e.HasDifferentialIndex() {
			return Plan{Algorithm: AlgoForward, Options: Options{Order: orderForAgg(agg)},
				Reason: "directed graph; differential index available"}
		}
		return Plan{Algorithm: AlgoBase, Reason: "directed graph without differential index"}
	}

	nonZero := 0
	heavy := 0 // scores >= 0.5: the mass that dominates SUM answers
	for v := 0; v < n; v++ {
		s := e.boundScore(v, agg)
		if s > 0 {
			nonZero++
		}
		if s >= 0.5 {
			heavy++
		}
	}
	density := float64(nonZero) / float64(n)
	switch {
	case density <= 0.05:
		return Plan{Algorithm: AlgoBackwardNaive,
			Reason: fmt.Sprintf("only %.1f%% non-zero scores: full distribution is cheap and exact", 100*density)}
	case float64(heavy)/float64(n) <= 0.4:
		return p.backwardOrScan(agg, fmt.Sprintf("light score mass (%.1f%% heavy)", 100*float64(heavy)/float64(n)))
	case e.HasDifferentialIndex():
		return Plan{Algorithm: AlgoForward, Options: Options{Order: orderForAgg(agg)},
			Reason: "dense scores with a prebuilt differential index"}
	default:
		return p.backwardOrScan(agg, "dense scores, no index")
	}
}

// backwardOrScan plans LONA-Backward at the distribution knee — unless that
// γ would have at least nine nodes in ten distribute. Then every bound is
// (nearly) exact before verification starts, so Backward costs a full
// distribution plus the verification pass, and the plain scan — the same
// number of traversals, gathering instead of scattering — is cheaper.
func (p *Planner) backwardOrScan(agg Aggregate, why string) Plan {
	e := p.e
	n := e.g.NumNodes()
	gamma := p.gammaKnee() // always positive, so zero-score nodes never count
	dist := 0
	for v := 0; v < n; v++ {
		if e.boundScore(v, agg) >= gamma {
			dist++
		}
	}
	if 10*dist >= 9*n {
		return Plan{Algorithm: AlgoBase,
			Reason: fmt.Sprintf("%s, but %d of %d nodes would distribute at γ=%.2f: scan instead", why, dist, n, gamma)}
	}
	return Plan{Algorithm: AlgoBackward, Options: Options{Gamma: gamma},
		Reason: fmt.Sprintf("%s: partial distribution at γ=%.2f", why, gamma)}
}

// gammaKnee picks the distribution threshold so that roughly the top 10%
// of non-zero scores distribute — the knee the A2 ablation identifies
// (lower γ over-distributes, higher γ over-verifies).
func (p *Planner) gammaKnee() float64 {
	scores := p.e.scores
	nonZero := make([]float64, 0, len(scores)/4)
	for _, s := range scores {
		if s > 0 {
			nonZero = append(nonZero, s)
		}
	}
	if len(nonZero) == 0 {
		return 0.5
	}
	sort.Float64s(nonZero)
	idx := len(nonZero) - 1 - len(nonZero)/10 // 90th percentile
	if idx < 0 {
		idx = 0
	}
	gamma := nonZero[idx]
	if gamma > 1 {
		gamma = 1
	}
	return gamma
}

func orderForAgg(agg Aggregate) QueueOrder {
	if agg == Avg {
		return OrderScoreDesc
	}
	return OrderDegreeDesc
}

// Run plans and executes in one call — the same context-aware shape as
// Engine.Run, with the algorithm choice always delegated to the planner
// (q.Algorithm is overridden by AlgoAuto). The returned Answer carries the
// chosen Plan.
func (p *Planner) Run(ctx context.Context, q Query) (Answer, error) {
	q.Algorithm = AlgoAuto
	return p.e.Run(ctx, q)
}
