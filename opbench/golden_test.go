package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/topo"
)

// TestGoldenMatchesExperiments ties golden.json to the experiments it was
// recorded from: the fast fig13 grid at the default seed, and the fast
// stress-scenarios enumeration.
func TestGoldenMatchesExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig13 sweep and the stress build")
	}
	exp, ok := eval.ByID("fig13")
	if !ok {
		t.Fatal("fig13 not registered")
	}
	res, err := exp.Run(eval.Config{Fast: true, Seed: defaultSeed, Parallelism: defaultWorkers()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(goldenData.Fig13) || len(res.Rows) != len(sweepScales) {
		t.Fatalf("fig13 has %d rows, golden %d, sweep scales %d", len(res.Rows), len(goldenData.Fig13), len(sweepScales))
	}
	for si, row := range res.Rows {
		for zi, want := range goldenData.Fig13[si] {
			if got := row[2+zi]; got != want {
				t.Errorf("fig13 scale %s scheme %d: %s, golden %s", row[1], zi, got, want)
			}
		}
	}
	if len(eval.AllSchemes())*len(sweepScales) != sweepCells {
		t.Errorf("sweepCells %d does not match the grid", sweepCells)
	}

	tp, err := topo.B4(defaultSeed + 5)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := eval.BuildPipeline(tp, eval.PipelineOptions{
		NumTickets: stressTickets, Seed: defaultSeed, Parallelism: defaultWorkers(),
		MaxCutSize: stressCutSize, UseSRLGs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mass := pl.Set.HealthyProb
	for _, sc := range pl.Set.Scenarios {
		mass += sc.Prob
	}
	if n := len(pl.Set.Scenarios); n != goldenData.Stress.Scenarios {
		t.Errorf("stress enumerates %d scenarios, golden %d", n, goldenData.Stress.Scenarios)
	}
	if math.Abs(mass-goldenData.Stress.CoverageMass) > 1e-12 {
		t.Errorf("stress covers %.17g, golden %.17g", mass, goldenData.Stress.CoverageMass)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark")
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, b.Workloads[i].Name, w.name)
		}
	}
}
