package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/server"
)

// oracle holds the reference answers for one (graph, scores) state: one
// AlgoBase scan per aggregate at the deepest k any request asks for — every
// top-k is a prefix of it — plus one per aggregate restricted to the
// candidate set.
type oracle struct {
	full map[string][]core.Result
	cand map[string][]core.Result
}

// buildOracle runs the scans two at a time: the box has two cores and
// nothing else runs while the oracle is built.
func buildOracle(g *graph.Graph, scores []float64, k int, candidates []int) (*oracle, error) {
	engine, err := core.NewEngine(g, scores, hops)
	if err != nil {
		return nil, err
	}
	o := &oracle{full: map[string][]core.Result{}, cand: map[string][]core.Result{}}
	type job struct {
		agg  string
		cand []int
	}
	var jobs []job
	for _, agg := range aggregates {
		jobs = append(jobs, job{agg: agg})
		if candidates != nil {
			jobs = append(jobs, job{agg: agg, cand: candidates})
		}
	}
	results := make([][]core.Result, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, j := range jobs {
		i, j := i, j
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			agg, err := core.ParseAggregate(j.agg)
			if err != nil {
				errs[i] = err
				return
			}
			ans, err := engine.Run(context.Background(), core.Query{
				Algorithm: core.AlgoBase, K: min(k, g.NumNodes()), Aggregate: agg, Candidates: j.cand,
			})
			results[i], errs[i] = ans.Results, err
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, fmt.Errorf("oracle %s: %w", j.agg, errs[i])
		}
		if j.cand != nil {
			o.cand[j.agg] = results[i]
		} else {
			o.full[j.agg] = results[i]
		}
	}
	return o, nil
}

// check compares one response's results with the oracle's prefix: the
// same values rank by rank, within 1e-9 relative, and at every rank a node
// whose reference value is the one reported. Nodes tied within that
// tolerance may swap ranks — the view sums in a different order than the
// scan — which is why the oracle is built deeper than any request's k.
func (o *oracle) check(s shape, got []core.Result) error {
	k := s.K
	want := o.full[s.Agg]
	if s.Cand {
		want = o.cand[s.Agg]
	}
	value := make(map[int]float64, len(want))
	for _, r := range want {
		value[r.Node] = r.Value
	}
	if k < len(want) {
		want = want[:k]
	}
	if len(got) != len(want) {
		return fmt.Errorf("%v k=%d: %d results, want %d", s, k, len(got), len(want))
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	seen := make(map[int]bool, len(got))
	for i, r := range got {
		ref, ok := value[r.Node]
		switch {
		case !near(r.Value, want[i].Value):
			return fmt.Errorf("%v k=%d: rank %d value %v, want %v", s, k, i, r.Value, want[i].Value)
		case !ok || !near(r.Value, ref):
			return fmt.Errorf("%v k=%d: rank %d is node %d (value %v), want node %d", s, k, i, r.Node, r.Value, want[i].Node)
		case seen[r.Node]:
			return fmt.Errorf("%v k=%d: node %d ranked twice", s, k, r.Node)
		}
		seen[r.Node] = true
	}
	return nil
}

// wellFormed is the check a read racing the writer gets: its generation is
// unknown, so only the shape of the answer can be judged.
func wellFormed(s shape, got []core.Result) error {
	if len(got) == 0 || len(got) > s.K {
		return fmt.Errorf("%v: %d results", s, len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Value > got[i-1].Value {
			return fmt.Errorf("%v: results not sorted at rank %d", s, i)
		}
	}
	return nil
}

// replay applies the acknowledged writes, in order, to a local copy of the
// original network: the state lonad must be in afterwards.
func replay(g *graph.Graph, scores []float64, acked []writeBatch) (*graph.Graph, []float64, error) {
	scores = append([]float64(nil), scores...)
	for i, w := range acked {
		for _, u := range w.Scores {
			scores[u.Node] = u.Score
		}
		if len(w.Edits) == 0 {
			continue
		}
		edits, err := toEdits(w.Edits)
		if err != nil {
			return nil, nil, err
		}
		if g, _, err = g.ApplyEdits(edits); err != nil {
			return nil, nil, fmt.Errorf("replaying write %d: %w", i, err)
		}
	}
	return g, scores, nil
}

func toEdits(reqs []server.EditRequest) ([]graph.Edit, error) {
	edits := make([]graph.Edit, len(reqs))
	for i, r := range reqs {
		op, err := graph.ParseEditOp(r.Op)
		if err != nil {
			return nil, err
		}
		edits[i] = graph.Edit{Op: op, U: r.U, V: r.V}
	}
	return edits, nil
}
