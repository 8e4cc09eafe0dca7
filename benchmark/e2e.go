package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

const (
	writePace = 50 * time.Millisecond // mixed-rw: one batch per slot
	bootCount = 3                     // set-up is booted this often; the median is reported
)

// e2e drives one workload against real lonad processes over loopback HTTP.
type e2e struct {
	cfg runConfig
	in  *inputs
	orc *oracle
	t   *tally
	cl  *client
	dep *deployment

	acked   []writeBatch // writes lonad acknowledged, in order
	lastGen uint64       // generation of the last acknowledgement

	// What the run measured.
	setup               []float64 // seconds per boot
	reads               int       // reads completed in the measured window
	scoresAck, edgesAck []float64 // ms
	late                []float64 // ms the paced writer sent after a slot was due
	touched, repaired   []float64 // per acked batch, from the response bodies
	windowSecs          float64
	// Per stretch of the window (see slice); the medians are reported.
	sliceQPS, sliceCPU []float64
	p50, p90           float64 // ms, see slice
	rssPeak            float64
	recovery           float64
	calibBefore        time.Duration
	calibAfter         time.Duration
	statsBefore        server.Stats
	statsAfter         server.Stats
}

func (e *e2e) sharded() bool { return e.cfg.workload == wlSharded }

// cacheOn says whether the workload's lonad keeps its default result
// cache. hot-repeat is about hits. mixed-rw needs no help to miss — the
// writer retires every cached answer within 50 ms — and exercises put and
// invalidation. The two read-only cycle workloads must execute every
// request, and nothing a request may vary keeps both its cost and its cache
// key apart from every other request's (adding the pass number to k, the
// obvious trick, makes sum/k=5 on pass 5 hit sum/k=10 of pass 0: 15 % hits).
func (e *e2e) cacheOn() bool { return e.cfg.workload == wlHot || e.cfg.workload == wlMixed }

// run executes boot → warm-up → measured window → writes → verification →
// crash recovery. Harness trouble is an error; wrong answers and failed
// requests are tallied and reported in the result instead.
func (e *e2e) run() error {
	defer func() {
		if e.dep != nil {
			e.dep.kill()
		}
	}()
	boots := bootCount
	if e.cfg.trace {
		boots = 1
	}
	for b := 0; b < boots; b++ {
		if e.dep != nil {
			e.dep.kill()
		}
		t0 := time.Now()
		dep, err := boot(e.cl.hc, e.cfg.lonad, e.in, e.sharded(), e.cacheOn(), filepath.Join(e.cfg.work, fmt.Sprintf("journal%d", b)))
		if err != nil {
			return err
		}
		e.setup = append(e.setup, time.Since(t0).Seconds())
		e.dep = dep
	}
	e.cl.base = e.dep.front.url
	e.progress("booted in %.2fs (median of %d)", median(e.setup), boots)

	readers, plan := e.readPlan()
	e.warmUp(readers, plan)
	e.progress("warm")

	if e.cfg.trace {
		if err := e.dep.front.getJSON(e.cl.hc, "/v1/stats", &e.statsBefore); err != nil {
			return err
		}
	}
	e.calibBefore = calibrate()
	if err := e.window(readers, plan); err != nil {
		return err
	}
	e.calibAfter = calibrate()
	e.progress("window: %d reads in %.2fs, %d stretches", e.reads, e.windowSecs, len(e.sliceQPS))

	if e.cfg.workload != wlMixed {
		e.writePhase()
	}
	if e.cfg.trace {
		if err := e.dep.front.getJSON(e.cl.hc, "/v1/stats", &e.statsAfter); err != nil {
			return err
		}
	}
	var err error
	if e.rssPeak, err = e.dep.rssPeakMB(); err != nil {
		return err
	}
	e.progress("writes: %d scores + %d edges acknowledged, generation %d", len(e.scoresAck), len(e.edgesAck), e.lastGen)

	finalG, finalScores, err := replay(e.in.g, e.in.scores, e.acked)
	if err != nil {
		return err
	}
	final, err := buildOracle(finalG, finalScores, finalK+tieMargin, nil)
	if err != nil {
		return err
	}
	e.verifyFinal(final)
	if e.cfg.trace {
		return nil
	}
	if err := e.recover(); err != nil {
		return err
	}
	e.verifyFinal(final)
	e.progress("recovered in %.2fs", e.recovery)
	return nil
}

func (e *e2e) progress(format string, args ...any) {
	fmt.Fprintf(e.cfg.log, "  [%s] "+format+"\n", append([]any{e.cfg.workload}, args...)...)
}

// readPlan says how the workload's readers choose and check requests.
type readPlan struct {
	// next returns the shape of reader r's next request and its place in
	// the run's request sequence; seq/cycleLen is the pass.
	next func(r int) (s shape, seq int)
	// wholePasses says the sequence walks the cycle in order, so latency
	// statistics can be cut at the last complete pass.
	wholePasses bool
	// check judges a 200 body.
	check func(s shape, body []byte) error
}

// topkBody is the part of a /v1/topk answer the harness judges.
type topkBody struct {
	Results []core.Result `json:"results"`
}

// judge decodes a /v1/topk answer and hands its results to check.
func judge(check func(shape, []core.Result) error) func(shape, []byte) error {
	return func(s shape, body []byte) error {
		var ans topkBody
		if err := json.Unmarshal(body, &ans); err != nil {
			return fmt.Errorf("%v: %w", s, err)
		}
		return check(s, ans.Results)
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (e *e2e) readPlan() (readers int, p readPlan) {
	// Distinct requests walk the cycle pass after pass; pass 0 is the
	// warm-up. One counter serves all readers so the mix stays in cycle
	// order however the readers interleave. Every pass asks the very same
	// 32 questions, so their lonad runs with the result cache off (see
	// cacheOn) and every request executes.
	var seq atomic.Int64
	distinct := func(int) (shape, int) {
		i := int(seq.Add(1) - 1)
		return e.in.cycle[i%cycleLen], i
	}
	switch e.cfg.workload {
	case wlDistinct:
		return 2, readPlan{next: distinct, wholePasses: true, check: judge(e.orc.check)}
	case wlSharded:
		return 1, readPlan{next: distinct, wholePasses: true, check: judge(e.orc.check)}
	case wlMixed:
		// The writer moves the generation under every read, so only the
		// answer's form can be judged here; the final state is compared
		// with the replayed oracle after the window.
		return 1, readPlan{next: distinct, wholePasses: true, check: judge(wellFormed)}
	}
	// hot-repeat: Zipf-popular shapes, all answered from the cache. The
	// warm-up verifies each hit body once in full and keeps its checksum;
	// measured hits are compared by checksum so the client does not spend
	// the window parsing JSON.
	zipf := make([]*rand.Zipf, 2)
	for r := range zipf {
		zipf[r] = rand.NewZipf(rand.New(rand.NewSource(e.cfg.seed+int64(r)+1)), 1.1, 1, uint64(len(hotSet)-1))
	}
	var mu sync.RWMutex
	sums := make(map[shape]uint32, len(hotSet))
	full := judge(e.orc.check)
	return 2, readPlan{
		next: func(r int) (shape, int) {
			if i := int(seq.Add(1) - 1); i < 2*len(hotSet) {
				return hotSet[i%len(hotSet)], 0 // warm-up: every shape twice, miss then hit
			}
			return hotSet[zipf[r].Uint64()], 0 // no passes to tell apart
		},
		check: func(s shape, body []byte) error {
			sum := crc32.Checksum(body, castagnoli)
			mu.RLock()
			want, known := sums[s]
			mu.RUnlock()
			if known && want == sum {
				return nil
			}
			if err := full(s, body); err != nil {
				return err
			}
			var hit struct {
				Cached bool `json:"cached"`
			}
			if !known && json.Unmarshal(body, &hit) == nil && hit.Cached {
				mu.Lock()
				sums[s] = sum
				mu.Unlock()
			}
			return nil
		},
	}
}

// read sends one request chosen by the plan and returns its place in the
// sequence and its latency, or false when it failed.
func (e *e2e) read(r int, p readPlan) (int, time.Duration, bool) {
	s, seq := p.next(r)
	body, dur := e.cl.post("/v1/topk", e.in.queryBody(s))
	if body == nil {
		return 0, 0, false
	}
	if err := p.check(s, body); err != nil {
		e.t.fail("%v", err)
		return 0, 0, false
	}
	return seq, dur, true
}

// warmUp runs one untimed pass of the cycle (for hot-repeat: every hot
// shape twice, which fills the cache and records the hit checksums).
func (e *e2e) warmUp(readers int, p readPlan) {
	n := cycleLen
	if e.cfg.workload == wlHot {
		n = 2 * len(hotSet)
		readers = 1 // sequential, so the second request of a shape is the hit
	}
	var left atomic.Int64
	left.Store(int64(n))
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for left.Add(-1) >= 0 {
				e.read(r, p)
			}
		}(r)
	}
	wg.Wait()
}

// sample is one completed read of the window.
type sample struct {
	seq int
	end time.Time
	ms  float64
}

// sliceLen is how the window of a workload without passes is cut up.
const sliceLen = 500 * time.Millisecond

// window is the measured part: closed-loop readers for cfg.window, and for
// mixed-rw the paced writer beside them.
func (e *e2e) window(readers int, p readPlan) error {
	var writes []writeBatch
	var bodies [][]byte
	if e.cfg.workload == wlMixed {
		writes = e.in.writeSchedule(int(e.cfg.window / writePace))
		for _, w := range writes {
			bodies = append(bodies, w.body())
		}
	}
	start := time.Now()
	deadline := start.Add(e.cfg.window)

	// lonad's CPU clock, sampled beside the load so that any stretch of
	// the window can be priced afterwards.
	var cpu cpuSeries
	if err := cpu.sample(e.dep); err != nil {
		return err
	}
	stopCPU := make(chan struct{})
	cpuDone := make(chan error, 1)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopCPU:
				cpuDone <- cpu.sample(e.dep)
				return
			case <-tick.C:
				if err := cpu.sample(e.dep); err != nil {
					cpuDone <- err
					return
				}
			}
		}
	}()

	perReader := make([][]sample, readers)
	var ackEnds []time.Time
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if seq, dur, ok := e.read(r, p); ok {
					perReader[r] = append(perReader[r], sample{seq, time.Now(), ms(dur)})
				}
			}
		}(r)
	}
	if writes != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, w := range writes {
				due := start.Add(time.Duration(i) * writePace)
				time.Sleep(time.Until(due))
				// Open loop: the ack is timed from when the slot was due,
				// so a stalled server delays — and is charged for — the
				// slots queued behind it.
				e.late = append(e.late, ms(time.Since(due)))
				if body, _ := e.cl.post(w.path(), bodies[i]); body != nil {
					e.noteAck(w, body, time.Since(due))
					ackEnds = append(ackEnds, time.Now())
				}
			}
		}()
	}
	wg.Wait()
	e.windowSecs = time.Since(start).Seconds()
	close(stopCPU)
	if err := <-cpuDone; err != nil {
		return err
	}

	var reads []sample
	for _, rs := range perReader {
		reads = append(reads, rs...)
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].end.Before(reads[j].end) })
	e.reads = len(reads)
	e.slice(start, reads, ackEnds, &cpu, p.wholePasses)
	return nil
}

// slice cuts the window into stretches and takes throughput and CPU per
// stretch; the run reports the median over stretches, so a disturbance
// shorter than half the window — this is a shared two-core box — cannot
// move a metric. The workloads that walk the cycle are cut into passes,
// hot-repeat by the clock.
func (e *e2e) slice(start time.Time, reads []sample, ackEnds []time.Time, cpu *cpuSeries, wholePasses bool) {
	var bounds []time.Time
	if passes := len(reads) / cycleLen; wholePasses && passes > 0 {
		bounds = e.cutByPass(reads, passes)
	} else {
		bounds = e.cutByClock(start, reads)
	}
	// Whatever completed between two bounds counts for that stretch,
	// whichever pass it belonged to.
	readEnds := make([]time.Time, len(reads))
	for i, r := range reads {
		readEnds[i] = r.end
	}
	count := func(ts []time.Time, from, to time.Time) (n int) {
		for _, t := range ts {
			if t.After(from) && !t.After(to) {
				n++
			}
		}
		return n
	}
	from := start
	for _, to := range bounds {
		n := count(readEnds, from, to)
		if n == 0 {
			continue
		}
		e.sliceQPS = append(e.sliceQPS, float64(n)/to.Sub(from).Seconds())
		e.sliceCPU = append(e.sliceCPU, (cpu.at(to)-cpu.at(from))/float64(n+count(ackEnds, from, to)))
		from = to
	}
}

// cutByPass ends a stretch where a whole pass of the cycle ends; a trailing
// partial pass is dropped. The shapes differ tenfold in cost, and only
// whole passes weight each shape equally whatever order the seed shuffled
// them into. The latency percentiles are taken over the shapes' median
// latencies: the plain percentile of such a mix is one order statistic in a
// sparse stretch of the distribution, and moves by several percent with
// nothing but scheduling.
func (e *e2e) cutByPass(reads []sample, passes int) []time.Time {
	bounds := make([]time.Time, passes)
	byShape := make([][]float64, cycleLen)
	for _, r := range reads {
		if i := r.seq/cycleLen - 1; i < passes { // the warm-up was pass 0
			if r.end.After(bounds[i]) {
				bounds[i] = r.end
			}
			byShape[r.seq%cycleLen] = append(byShape[r.seq%cycleLen], r.ms)
		}
	}
	typical := make([]float64, cycleLen)
	for i, lat := range byShape {
		typical[i] = median(lat)
	}
	e.p50, e.p90 = median(typical), quantile(typical, 0.90)
	return bounds
}

// cutByClock ends a stretch at the last read completed in each sliceLen of
// the window and reports the median stretch's percentiles. reads are in
// completion order.
func (e *e2e) cutByClock(start time.Time, reads []sample) []time.Time {
	var bounds []time.Time
	var p50s, p90s, lat []float64
	limit := start.Add(sliceLen)
	for i, r := range reads {
		lat = append(lat, r.ms)
		if last := i == len(reads)-1; last || reads[i+1].end.After(limit) {
			bounds = append(bounds, r.end)
			p50s, p90s = append(p50s, median(lat)), append(p90s, quantile(lat, 0.90))
			lat = lat[:0]
			if !last {
				for !limit.After(reads[i+1].end) {
					limit = limit.Add(sliceLen)
				}
			}
		}
	}
	e.p50, e.p90 = median(p50s), median(p90s)
	return bounds
}

// cpuSeries is lonad's cumulative CPU time sampled over the window.
type cpuSeries struct {
	t  []time.Time
	ms []float64
}

func (c *cpuSeries) sample(d *deployment) error {
	v, err := d.cpuMS()
	if err != nil {
		return err
	}
	c.t = append(c.t, time.Now())
	c.ms = append(c.ms, v)
	return nil
}

// at interpolates the series at t.
func (c *cpuSeries) at(t time.Time) float64 {
	i := sort.Search(len(c.t), func(i int) bool { return !c.t[i].Before(t) })
	switch {
	case i == 0:
		return c.ms[0]
	case i == len(c.t):
		return c.ms[len(c.ms)-1]
	}
	span := c.t[i].Sub(c.t[i-1]).Seconds()
	return c.ms[i-1] + (c.ms[i]-c.ms[i-1])*t.Sub(c.t[i-1]).Seconds()/span
}

// ackBody is the part of a /v1/scores or /v1/edges answer the harness reads.
type ackBody struct {
	Generation uint64 `json:"generation"`
	Touched    int    `json:"touched"`
	Repaired   int    `json:"repaired"`
}

func (e *e2e) noteAck(w writeBatch, body []byte, ack time.Duration) {
	var a ackBody
	if err := json.Unmarshal(body, &a); err != nil || a.Generation <= e.lastGen {
		e.t.fail("%s ack %q: generation did not advance past %d", w.path(), body, e.lastGen)
		return
	}
	e.lastGen = a.Generation
	e.acked = append(e.acked, w)
	if len(w.Edits) > 0 {
		e.edgesAck = append(e.edgesAck, ms(ack))
		e.repaired = append(e.repaired, float64(a.Repaired))
	} else {
		e.scoresAck = append(e.scoresAck, ms(ack))
		e.touched = append(e.touched, float64(a.Touched))
	}
}

// writePhase issues the score batches and then the edit batches back to
// back from one client, with no reads beside them.
func (e *e2e) writePhase() {
	for _, set := range [][]writeBatch{e.in.scoreSets, e.in.editSets} {
		for _, w := range set {
			if body, dur := e.cl.post(w.path(), w.body()); body != nil {
				e.noteAck(w, body, dur)
			}
		}
	}
}

// verifyFinal compares lonad's top-300 per aggregate with the oracle built
// from the replayed writes.
func (e *e2e) verifyFinal(final *oracle) {
	check := judge(final.check)
	for _, agg := range aggregates {
		s := shape{Agg: agg, K: finalK}
		body, _ := e.cl.post("/v1/topk", e.in.queryBody(s))
		if body == nil {
			continue
		}
		if err := check(s, body); err != nil {
			e.t.fail("final state: %v", err)
		}
	}
}

// recover crashes the deployment and times its return to the last
// acknowledged generation. A single lonad is SIGKILLed and rebooted from
// snapshot + journal. In the sharded topology a worker is SIGKILLed,
// rebooted from the original files, and caught up from the coordinator's
// journal through POST /v1/catchup.
func (e *e2e) recover() error {
	if !e.sharded() {
		e.dep.front.kill()
		t0 := time.Now()
		p, err := e.dep.front.respawn()
		if err != nil {
			return err
		}
		e.dep.front = p
		if err := p.waitHealthy(e.cl.hc, "/v1/health"); err != nil {
			return err
		}
		var health struct {
			Generation uint64 `json:"generation"`
		}
		if err := p.getJSON(e.cl.hc, "/v1/health", &health); err != nil {
			return err
		}
		e.recovery = time.Since(t0).Seconds()
		e.t.attempted.Add(1)
		if health.Generation != e.lastGen {
			e.t.fail("recovered at generation %d, last acknowledged was %d", health.Generation, e.lastGen)
		}
		return nil
	}

	last := len(e.dep.workers) - 1
	e.dep.workers[last].kill()
	t0 := time.Now()
	w, err := e.dep.workers[last].respawn()
	if err != nil {
		return err
	}
	e.dep.workers[last] = w
	if err := w.waitHealthy(e.cl.hc, "/v1/shard/health"); err != nil {
		return err
	}
	body, _ := e.cl.post("/v1/catchup", nil)
	e.recovery = time.Since(t0).Seconds()
	if body == nil {
		return nil // tallied by post
	}
	var res server.CatchUpResult
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("decoding /v1/catchup answer: %w", err)
	}
	if res.Target != e.lastGen {
		e.t.fail("catch-up targets generation %d, last acknowledged was %d", res.Target, e.lastGen)
	}
	for _, wc := range res.Workers {
		if wc.Error != "" || wc.To != res.Target {
			e.t.fail("catch-up left shard %d at generation %d (%s)", wc.Shard, wc.To, wc.Error)
		}
	}
	return nil
}
