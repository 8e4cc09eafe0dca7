// Command lonabench is the repository's benchmark: it boots real lonad
// processes, drives one of four workloads against them over loopback HTTP,
// verifies every answer against a brute-force oracle, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a traced
// in-process pass) as one JSON object on the last line of standard output.
//
// Run it through benchmark/run.sh, which builds lonad and this program:
//
//	bash benchmark/run.sh --workload distinct-topk --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -aa 5          # spread of every metric over 5 seeds
//
// See benchmark/README.md for the workloads and every metric.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload     string
	seed         int64
	window       time.Duration
	trace        bool
	lonad        string  // path of the lonad binary
	work         string  // scratch directory of this run, removed afterwards
	scale        float64 // dataset scale: benchScale, or the smoke test's toy
	scoreBatches int     // write phase: score batches sent back to back,
	editBatches  int     // then this many edit batches
	log          io.Writer
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "distinct-topk | hot-repeat | mixed-rw | sharded-topk")
		seed      = flag.Int64("seed", 1, "every input derives from it")
		seconds   = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace     = flag.Int("trace", 0, "1 = traced pass reporting the per-layer metrics; 0 = end-to-end metrics")
		lonad     = flag.String("lonad", "", "path of the lonad binary (run.sh builds it)")
		workRoot  = flag.String("work", ".bench_build", "directory that holds each run's scratch directory and trace.json")
		aa        = flag.Int("aa", 0, "run every workload on this many seeds and gate each metric's spread against its bound")
		printSpec = flag.Bool("print-spec", false, "print BENCHMARK.json as derived from the metric tables and exit")
	)
	flag.Parse()
	if *printSpec {
		spec, err := specJSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(spec))
		return
	}
	if *lonad == "" {
		fatal(errors.New("-lonad is required (use benchmark/run.sh)"))
	}

	// No exit path may leave a lonad behind: signals (and runOnce's
	// watchdog) kill the children before the process ends.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	base := runConfig{
		seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace != 0,
		lonad: *lonad, scale: benchScale, scoreBatches: 160, editBatches: 40, log: os.Stdout,
	}
	if *aa > 0 {
		if err := runAA(base, *workRoot, *aa); err != nil {
			fatal(err)
		}
		return
	}

	base.workload = *workload
	res, err := runOnce(base, *workRoot)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(2)
	}
}

func fatal(err error) {
	killAll()
	fmt.Fprintln(os.Stderr, "lonabench:", err)
	os.Exit(1)
}

// runOnce makes the inputs in a fresh scratch directory, runs the
// workload, and assembles the result. It prints the stamps and every
// metric by name as it goes.
func runOnce(cfg runConfig, workRoot string) (*result, error) {
	watchdog := time.AfterFunc(170*time.Second, func() {
		killAll()
		fmt.Fprintln(os.Stderr, "lonabench: run exceeded 170s, aborted")
		os.Exit(1)
	})
	defer watchdog.Stop()
	known := false
	for _, w := range workloads {
		known = known || w.Name == cfg.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	if work, err = filepath.Abs(work); err != nil {
		return nil, err
	}
	cfg.work = work
	if cfg.lonad, err = filepath.Abs(cfg.lonad); err != nil {
		return nil, err
	}

	// mixed-rw sends one batch per slot of the window, four score batches
	// to each edit batch; the others send the write phase's counts.
	nScores, nEdits := cfg.scoreBatches, cfg.editBatches
	if cfg.workload == wlMixed {
		slots := int(cfg.window / writePace)
		nScores, nEdits = slots, slots/5+1
	}
	in, err := makeInputs(work, cfg.scale, cfg.seed, nScores, nEdits)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "workload=%s seed=%d seconds=%g trace=%v scale=%g\n",
		cfg.workload, cfg.seed, cfg.window.Seconds(), cfg.trace, cfg.scale)
	fmt.Fprintf(cfg.log, "input_sha256=%s dataset_sha256=%s nodes=%d edges=%d git_sha=%s go=%s nproc=%d lonad_GOMAXPROCS=2\n",
		in.sha, in.datasetSHA, in.g.NumNodes(), in.g.NumEdges(), gitSHA(), runtime.Version(), runtime.NumCPU())
	if err := checkPin(cfg, in); err != nil {
		return nil, err
	}

	orc, err := buildOracle(in.g, in.scores, finalK+tieMargin, in.candidates)
	if err != nil {
		return nil, err
	}
	t := &tally{}
	e := &e2e{cfg: cfg, in: in, orc: orc, t: t, cl: &client{hc: newHTTPClient(), t: t}}
	if err := e.run(); err != nil {
		return nil, err
	}

	var metrics map[string]float64
	table := endToEnd
	if cfg.trace {
		table = perLayer
		lay, err := runLayers(cfg, in, e, filepath.Join(workRoot, "trace.json"))
		if err != nil {
			return nil, err
		}
		metrics = lay
	} else {
		metrics = e.endToEndMetrics()
	}

	res := &result{Attempted: t.attempted.Load(), Failed: t.failed.Load(), Metrics: map[string]value{}}
	res.Correct = res.Failed == 0
	for _, m := range table {
		v, ok := metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", m.Name, v)
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
		fmt.Fprintf(cfg.log, "%-36s %14.4f %s\n", m.Name, v, m.Unit)
	}
	if len(metrics) != len(table) {
		return nil, fmt.Errorf("measured %d metrics, the table has %d", len(metrics), len(table))
	}
	for _, msg := range t.first {
		fmt.Fprintln(cfg.log, "FAILED:", msg)
	}
	if late := quantile(e.late, 0.95); late > ms(writePace) {
		fmt.Fprintf(cfg.log, "DISTURBED: the paced writer ran %.1f ms late at p95 — a backlog; the ack times of this run are not comparable\n", late)
	}
	if a, b := ms(e.calibBefore), ms(e.calibAfter); math.Abs(a-b) > 0.1*math.Min(a, b) {
		fmt.Fprintf(cfg.log, "DISTURBED: calibration loop took %.1f ms before and %.1f ms after the window\n", a, b)
	}
	fmt.Fprintf(cfg.log, "samples: reads=%d in %d stretches, scores_acks=%d edges_acks=%d boots=%d\n",
		e.reads, len(e.sliceQPS), len(e.scoresAck), len(e.edgesAck), len(e.setup))
	return res, nil
}

// endToEndMetrics turns the run's raw samples into the end_to_end rows.
func (e *e2e) endToEndMetrics() map[string]float64 {
	return map[string]float64{
		"setup_s":           median(e.setup),
		"read_qps":          median(e.sliceQPS),
		"read_p50_ms":       e.p50,
		"read_p90_ms":       e.p90,
		"scores_ack_p50_ms": median(e.scoresAck),
		"edges_ack_p50_ms":  median(e.edgesAck),
		"cpu_ms_per_op":     median(e.sliceCPU),
		"rss_peak_mb":       e.rssPeak,
		"recovery_s":        e.recovery,
	}
}

// pin is benchmark/input_pin.json: the hash of the dataset files at the
// benchmark's scale. A generator change that moves it must not read as a
// speed change, so every run at that scale fails on drift.
type pin struct {
	Scale         float64 `json:"scale"`
	DatasetSeed   int64   `json:"dataset_seed"`
	DatasetSHA256 string  `json:"dataset_sha256"`
}

//go:embed input_pin.json
var pinJSON []byte

func checkPin(cfg runConfig, in *inputs) error {
	var p pin
	if err := json.Unmarshal(pinJSON, &p); err != nil {
		return fmt.Errorf("benchmark/input_pin.json: %w", err)
	}
	if p.Scale != cfg.scale || p.DatasetSeed != datasetSeed {
		return nil
	}
	if p.DatasetSHA256 != in.datasetSHA {
		return fmt.Errorf("input drift: the scale-%g dataset hashes to %s, benchmark/input_pin.json pins %s — if the generator change is intended, re-pin",
			cfg.scale, in.datasetSHA, p.DatasetSHA256)
	}
	return nil
}

func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
