package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs all four workloads and one traced pass at a scale where
// everything takes about a second, and checks the contract the driver
// relies on: BENCHMARK.json is the metric tables, every workload answers
// correctly, and every named metric comes out once, finite, with its unit.
func TestSmoke(t *testing.T) {
	spec, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(committed), spec) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with `lonabench -print-spec`")
	}

	dir := t.TempDir()
	lonad := filepath.Join(dir, "lonad")
	if out, err := exec.Command("go", "build", "-o", lonad, "repro/cmd/lonad").CombinedOutput(); err != nil {
		t.Fatalf("building lonad: %v\n%s", err, out)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(t *testing.T, cfg runConfig, table []metric) {
		res, err := runOnce(cfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(table) {
			t.Errorf("%d metrics reported, the table has %d", len(res.Metrics), len(table))
		}
		for _, m := range table {
			v, ok := res.Metrics[m.Name]
			switch {
			case !name.MatchString(m.Name):
				t.Errorf("metric name %q is not one the driver accepts", m.Name)
			case !ok:
				t.Errorf("%s not reported", m.Name)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s = %v", m.Name, v.Value)
			case v.Unit != m.Unit:
				t.Errorf("%s reported in %q, the table says %q", m.Name, v.Unit, m.Unit)
			case m.Bound > 0 && v.Value <= 0:
				t.Errorf("%s = %v; an end-to-end metric must never be 0", m.Name, v.Value)
			}
		}
	}
	cfg := runConfig{seed: 7, window: time.Second, lonad: lonad, scale: 0.02, scoreBatches: 6, editBatches: 6, log: io.Discard}
	for _, w := range workloads {
		cfg.workload = w.Name
		t.Run(w.Name, func(t *testing.T) { check(t, cfg, endToEnd) })
	}
	cfg.workload, cfg.trace = wlMixed, true
	t.Run("traced", func(t *testing.T) {
		check(t, cfg, perLayer)
		if _, err := os.Stat(filepath.Join(dir, "trace.json")); err != nil {
			t.Error(err)
		}
	})
}
