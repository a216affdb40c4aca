package main

import (
	"testing"
)

// TestTracedCountersRepeat runs a shortened traced pass of every workload
// twice and requires every deterministic counter to repeat exactly.
func TestTracedCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the program's planner and solvers")
	}
	short := map[string]int{"te-online": 3, "scenario-stress": 1, "availability-sweep": 12}
	for _, w := range workloads {
		w := *w
		w.passOps = short[w.name]
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 7, workers: defaultWorkers()}
			var runs []*passResult
			for k := 0; k < 2; k++ {
				pr, err := runPass(&w, cfg, true)
				if err != nil {
					t.Fatal(err)
				}
				if len(pr.failures) > 0 {
					t.Fatalf("ops failed: %v", pr.failures)
				}
				runs = append(runs, pr)
			}
			n := 0
			for k := range runs[0].counters {
				if deterministic(k) {
					n++
				}
			}
			if n == 0 {
				t.Fatal("traced pass recorded no deterministic counters")
			}
			if d := counterDiffs(runs[0].counters, runs[1].counters); len(d) > 0 {
				t.Errorf("counters differ between traced runs: %v", d)
			}
			if c := runs[0].counters["lp.cert_failures"]; c != 0 {
				t.Errorf("%d LP certificates failed", c)
			}
			if runs[0].cpu.total == 0 {
				t.Error("CPU profile has no samples")
			}
		})
	}
}
