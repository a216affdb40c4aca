package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	arrow "github.com/arrow-te/arrow"
)

func TestCheckLoads(t *testing.T) {
	caps := []float64{10, 10}
	ok := []flowUse{{demand: 8, admitted: 8, ratios: []float64{0.5, 0.5}, tunnels: [][]int{{0}, {1}}}}
	if err := checkLoads(caps, ok); err != nil {
		t.Errorf("feasible allocation rejected: %v", err)
	}
	over := []flowUse{
		{demand: 8, admitted: 8, ratios: []float64{1}, tunnels: [][]int{{0}}},
		{demand: 8, admitted: 4, ratios: []float64{1}, tunnels: [][]int{{0, 1}}},
	}
	if err := checkLoads(caps, over); err == nil || !strings.Contains(err.Error(), "link 0") {
		t.Errorf("overloaded link 0 not reported: %v", err)
	}
	greedy := []flowUse{{demand: 5, admitted: 6, ratios: []float64{1}, tunnels: [][]int{{0}}}}
	if err := checkLoads(caps, greedy); err == nil {
		t.Error("over-admitted flow not reported")
	}
}

func TestCheckReaction(t *testing.T) {
	caps := []float64{100, 100, 100}
	r := &arrow.Reaction{Failed: []arrow.LinkID{1, 2}, RestoredGbps: map[arrow.LinkID]float64{1: 100, 2: 40}}
	if err := checkReaction(caps, r); err != nil {
		t.Errorf("valid reaction rejected: %v", err)
	}
	r.RestoredGbps[2] = 140
	if checkReaction(caps, r) == nil {
		t.Error("restoring beyond capacity not reported")
	}
	r.RestoredGbps = map[arrow.LinkID]float64{0: 10}
	if checkReaction(caps, r) == nil {
		t.Error("restoring a link the cut left up not reported")
	}
}

func TestCheckProbability(t *testing.T) {
	for _, v := range []float64{0, 0.5, 1} {
		if checkProbability("p", v) != nil {
			t.Errorf("%v rejected", v)
		}
	}
	for _, v := range []float64{-0.1, 1.1} {
		if checkProbability("p", v) == nil {
			t.Errorf("%v accepted", v)
		}
	}
}

// flaky fails every third op.
type flaky struct{}

func (flaky) op(i int) outcome {
	if i%3 == 2 {
		return outcome{err: errors.New("check failed")}
	}
	return outcome{latency: time.Millisecond, scenarios: 2, coverage: 0.5, avail: -1, admitted: -1}
}

// TestFailuresCounted checks that failed ops count against attempted ones,
// stay out of the latency figures, and make the run incorrect.
func TestFailuresCounted(t *testing.T) {
	w := &workload{name: "flaky", setupRepeats: 2, round: 9,
		setup: func(*env) (instance, error) { return flaky{}, nil }}
	rep, err := runMeasured(w, config{seconds: 1e-9, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.result
	if res.Attempted != 9 || res.Failed != 3 || res.Correct {
		t.Errorf("attempted %d failed %d correct %v, want 9, 3, false", res.Attempted, res.Failed, res.Correct)
	}
	if got := res.Metrics["ops_per_s"].Value; got != 1000 {
		t.Errorf("ops_per_s %v, want 1000 from the 6 ops that passed", got)
	}
	var frac float64
	for _, e := range rep.extra {
		if e.name == "failed_frac" {
			frac = e.Value
		}
	}
	if frac != 3.0/9 {
		t.Errorf("failed_frac %v, want 1/3", frac)
	}
	for _, d := range endToEnd {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("metric %s missing", d.name)
		}
	}
}
