package main

import (
	"fmt"
	"io"
	"sort"
)

// runAA is the benchmark's own steadiness gate: every workload is run on n
// consecutive seeds with identical code, and for each end-to-end metric the
// distance between the first and third quartile of the n values, as a share
// of their median, must stay within the metric's bound — the same rule the
// driver applies before it trusts a comparison. set-up time is printed but
// not gated: it is judged on medians only.
func runAA(base runConfig, workRoot string, n int) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs, got %d", n)
	}
	base.log = io.Discard
	over := 0
	for _, w := range workloads {
		cfg := base
		cfg.workload = w.Name
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			cfg.seed = base.seed + int64(i)
			res, err := runOnce(cfg, workRoot)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, cfg.seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", w.Name, cfg.seed, res.Failed, res.Attempted)
			}
			fmt.Printf("%s seed %d:", w.Name, cfg.seed)
			for _, name := range sortedKeys(res.Metrics) {
				v := res.Metrics[name].Value
				values[name] = append(values[name], v)
				if !base.trace {
					fmt.Printf(" %s=%.4g", name, v)
				}
			}
			fmt.Println()
		}
		table := endToEnd
		if base.trace {
			table = perLayer
		}
		fmt.Printf("\n%s, %d seeds from %d\n%-36s %12s %12s %12s %8s %8s %s\n", w.Name, n, base.seed,
			"metric", "median", "min", "max", "spread", "bound", "spread/bound")
		for _, m := range table {
			xs := append([]float64(nil), values[m.Name]...)
			sort.Float64s(xs)
			q1, q3 := quartiles(xs)
			med := median(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			line := fmt.Sprintf("%-36s %12.4f %12.4f %12.4f %7.1f%%", m.Name, med, xs[0], xs[len(xs)-1], 100*spread)
			if m.Bound > 0 {
				line += fmt.Sprintf(" %7.0f%% %.2f", 100*m.Bound, spread/m.Bound)
				if spread > m.Bound && m.Name != "setup_s" {
					line += "  OVER"
					over++
				}
			}
			fmt.Println(line)
		}
		fmt.Println()
	}
	if over > 0 {
		return fmt.Errorf("%d end-to-end metrics spread wider than their bound", over)
	}
	return nil
}

// quartiles returns the first and third quartile of sorted xs the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	at := func(i int) float64 {
		m := len(xs) + 1
		j := max(1, min(i*m/4, len(xs)-1))
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(3)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
