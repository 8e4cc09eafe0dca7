package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	lona "repro"
	"repro/internal/graph"
	"repro/internal/server"
)

const (
	// datasetSeed fixes the network and its relevance scores. The run's
	// --seed drives the workload — request order, candidate set, popularity
	// draws, write schedule — but not the dataset: two collaboration
	// networks of the same scale differ by 4-7 % in query cost, which would
	// drown the bounds, and a real deployment is benchmarked on its one
	// dataset anyway. input_pin.json pins the dataset's hash.
	datasetSeed   = 20100301
	benchScale    = 2.5 // 100 000 nodes, 446 118 edges
	hops          = 2
	blackingRatio = 0.01
	cycleLen      = 32
	finalK        = 300 // final-state comparison depth per aggregate
	tieMargin     = 64  // the oracle reaches this far past the deepest k, to resolve ties at the cut
	scoresPerSet  = 16  // score updates per /v1/scores batch
)

var aggregates = []string{"sum", "avg", "wsum", "count", "max"}

// shape is one entry of the request cycle.
type shape struct {
	Agg  string
	K    int
	View bool // "algorithm":"view"
	Cand bool // restricted to the seeded candidate set
}

func (s shape) String() string {
	name := s.Agg + "/k=" + strconv.Itoa(s.K)
	switch {
	case s.View:
		return "view:" + name
	case s.Cand:
		return "cand:" + name
	}
	return name
}

// writeBatch is one mutation request: exactly one of the two is set.
type writeBatch struct {
	Scores []server.ScoreUpdate
	Edits  []server.EditRequest
}

func (w writeBatch) path() string {
	if len(w.Edits) > 0 {
		return "/v1/edges"
	}
	return "/v1/scores"
}

func (w writeBatch) body() []byte {
	var v any = map[string]any{"updates": w.Scores}
	if len(w.Edits) > 0 {
		v = map[string]any{"edits": w.Edits}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of ints and finite floats
	}
	return b
}

// hotSet is hot-repeat's working set, most popular first: small answers
// are asked for most. Its order is fixed so that the mean answer size — and
// with it the cost of a hit — does not depend on the seed.
var hotSet = func() (set []shape) {
	for _, k := range []int{1, 5, 10, 20, 50, 100, 150, 200} {
		set = append(set, shape{Agg: "sum", K: k}, shape{Agg: "avg", K: k})
	}
	return set
}()

// inputs is everything one run feeds lonad: the fixed dataset and the
// seeded workload. lonad itself only ever sees the three files.
type inputs struct {
	g      *graph.Graph
	scores []float64

	graphPath, scoresPath, snapPath string
	datasetSHA                      string // the three files
	sha                             string // the files plus the seeded workload

	cycle      []shape
	candidates []int
	candJSON   string // the candidate ids rendered once, for request bodies

	scoreSets []writeBatch
	editSets  []writeBatch

	// File-layer timings taken while writing and re-reading the inputs,
	// reported by the traced pass.
	snapshotWrite, snapshotOpen, graphRead time.Duration
}

// makeInputs generates the network, and from the seed the request cycle,
// the candidate set, nScores score batches and nEdits edit batches; it
// writes the files under dir.
func makeInputs(dir string, scale float64, seed int64, nScores, nEdits int) (*inputs, error) {
	in := &inputs{
		graphPath:  filepath.Join(dir, "net.graph"),
		scoresPath: filepath.Join(dir, "net.scores"),
		snapPath:   filepath.Join(dir, "net.snap"),
	}
	in.g = lona.CollaborationNetwork(scale, datasetSeed)
	in.scores = lona.MixtureScores(in.g, blackingRatio, datasetSeed+1)
	n := in.g.NumNodes()
	if n < finalK+tieMargin {
		return nil, fmt.Errorf("scale %g gives %d nodes; the oracle needs at least %d", scale, n, finalK+tieMargin)
	}

	if err := writeFile(in.graphPath, func(w io.Writer) error { return lona.WriteGraph(w, in.g) }); err != nil {
		return nil, err
	}
	if err := writeFile(in.scoresPath, func(w io.Writer) error { return lona.WriteScores(w, in.scores) }); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := lona.WriteSnapshot(in.snapPath, in.g, in.scores, hops); err != nil {
		return nil, fmt.Errorf("writing snapshot: %w", err)
	}
	in.snapshotWrite = time.Since(t0)
	if err := in.timeReads(); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	in.cycle = makeCycle(rng)
	in.candidates = rng.Perm(n)[:min(1000, n/2)]
	sort.Ints(in.candidates)
	ids := make([]string, len(in.candidates))
	for i, v := range in.candidates {
		ids[i] = strconv.Itoa(v)
	}
	in.candJSON = "[" + strings.Join(ids, ",") + "]"
	in.makeWrites(rng, nScores, nEdits)

	if err := in.hash(); err != nil {
		return nil, err
	}
	return in, nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// timeReads times the two ways lonad loads what was just written.
func (in *inputs) timeReads() error {
	t0 := time.Now()
	r, err := lona.OpenSnapshot(in.snapPath)
	if err != nil {
		return fmt.Errorf("re-opening snapshot: %w", err)
	}
	in.snapshotOpen = time.Since(t0)
	r.Close()

	f, err := os.Open(in.graphPath)
	if err != nil {
		return err
	}
	defer f.Close()
	t0 = time.Now()
	if _, err := lona.ReadGraph(bufio.NewReader(f)); err != nil {
		return fmt.Errorf("re-reading graph: %w", err)
	}
	in.graphRead = time.Since(t0)
	return nil
}

// makeCycle builds the 32 shapes and shuffles them.
func makeCycle(rng *rand.Rand) []shape {
	var c []shape
	for _, agg := range []string{"sum", "avg"} {
		for _, k := range []int{1, 5, 10, 20, 50, 100, 150, 200, 250, 300} {
			c = append(c, shape{Agg: agg, K: k})
		}
	}
	for _, agg := range []string{"count", "max", "wsum"} {
		for _, k := range []int{10, 100} {
			c = append(c, shape{Agg: agg, K: k})
		}
	}
	for _, agg := range []string{"sum", "avg"} {
		c = append(c, shape{Agg: agg, K: 100, View: true})
	}
	for _, agg := range []string{"sum", "avg", "count", "max"} {
		c = append(c, shape{Agg: agg, K: 50, Cand: true})
	}
	if len(c) != cycleLen {
		panic("cycle length drifted")
	}
	rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	return c
}

// makeWrites draws the mutation batches. Every edit is valid against the
// original graph and no pair is used twice, so a batch's validity does not
// depend on which earlier batches were applied; two adds and two removes
// per batch keep the edge count stationary. New scores are resampled from
// the original vector, so the score distribution stays stationary too.
func (in *inputs) makeWrites(rng *rand.Rand, nScores, nEdits int) {
	n := in.g.NumNodes()
	used := make(map[[2]int]bool)
	pair := func(wantEdge bool) (int, int) {
		for {
			u := rng.Intn(n)
			var v int
			if wantEdge {
				nb := in.g.Neighbors(u)
				if len(nb) == 0 {
					continue
				}
				v = int(nb[rng.Intn(len(nb))])
			} else {
				v = rng.Intn(n)
				if u == v || in.g.HasEdge(u, v) {
					continue
				}
			}
			key := [2]int{min(u, v), max(u, v)}
			if used[key] {
				continue
			}
			used[key] = true
			return u, v
		}
	}
	for i := 0; i < nScores; i++ {
		ups := make([]server.ScoreUpdate, scoresPerSet)
		for j := range ups {
			ups[j] = server.ScoreUpdate{Node: rng.Intn(n), Score: in.scores[rng.Intn(n)]}
		}
		in.scoreSets = append(in.scoreSets, writeBatch{Scores: ups})
	}
	for i := 0; i < nEdits; i++ {
		var edits []server.EditRequest
		for _, op := range []string{"add-edge", "remove-edge", "add-edge", "remove-edge"} {
			u, v := pair(op == "remove-edge")
			edits = append(edits, server.EditRequest{Op: op, U: u, V: v})
		}
		in.editSets = append(in.editSets, writeBatch{Edits: edits})
	}
}

// hash fingerprints the dataset files, and then everything the run
// depends on: the files plus the request cycle, candidate set and writes.
func (in *inputs) hash() error {
	h := sha256.New()
	for _, p := range []string{in.graphPath, in.scoresPath, in.snapPath} {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	in.datasetSHA = hex.EncodeToString(h.Sum(nil))
	enc := json.NewEncoder(h)
	for _, v := range []any{in.cycle, in.candidates, in.scoreSets, in.editSets} {
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	in.sha = hex.EncodeToString(h.Sum(nil))
	return nil
}

// queryBody renders the /v1/topk request for a shape.
func (in *inputs) queryBody(s shape) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `{"k":%d,"aggregate":%q`, s.K, s.Agg)
	if s.View {
		b.WriteString(`,"algorithm":"view"`)
	}
	if s.Cand {
		b.WriteString(`,"candidates":`)
		b.WriteString(in.candJSON)
	}
	b.WriteByte('}')
	return []byte(b.String())
}

// writeSchedule interleaves the batches the way mixed-rw paces them: four
// score batches, then one edit batch. n may not exceed the batches drawn.
func (in *inputs) writeSchedule(n int) []writeBatch {
	out := make([]writeBatch, 0, n)
	si, ei := 0, 0
	for i := 0; i < n; i++ {
		if i%5 == 4 {
			out = append(out, in.editSets[ei])
			ei++
		} else {
			out = append(out, in.scoreSets[si])
			si++
		}
	}
	return out
}
