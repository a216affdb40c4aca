package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	arrow "github.com/arrow-te/arrow"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/te"
)

// checkTol absorbs LP round-off in the capacity and probability checks.
const checkTol = 1e-6

// flowUse is one flow as the routers see it: the rate admitted and how it
// splits over the tunnels, each a list of link indices.
type flowUse struct {
	demand, admitted float64
	ratios           []float64
	tunnels          [][]int
}

// checkLoads rebuilds each link's load from the admitted rates and split
// ratios and checks it against the link's capacity, and checks that no
// flow is admitted beyond its demand.
func checkLoads(caps []float64, flows []flowUse) error {
	load := make([]float64, len(caps))
	for f, fl := range flows {
		if fl.admitted < -checkTol || fl.admitted > fl.demand*(1+checkTol)+checkTol {
			return fmt.Errorf("flow %d admitted %g of %g demanded", f, fl.admitted, fl.demand)
		}
		for t, links := range fl.tunnels {
			for _, l := range links {
				if l < 0 || l >= len(caps) {
					return fmt.Errorf("flow %d tunnel %d uses unknown link %d", f, t, l)
				}
				load[l] += fl.admitted * fl.ratios[t]
			}
		}
	}
	for l, c := range caps {
		if load[l] > c*(1+checkTol)+checkTol {
			return fmt.Errorf("link %d carries %g over its %g capacity", l, load[l], c)
		}
	}
	return nil
}

// checkProbability checks that v lies in [0, 1].
func checkProbability(what string, v float64) error {
	if !(v >= -checkTol && v <= 1+checkTol) {
		return fmt.Errorf("%s %v outside [0, 1]", what, v)
	}
	return nil
}

// checkReaction checks that a reaction restores capacity only on the links
// the cut failed, and at most their healthy capacity.
func checkReaction(caps []float64, r *arrow.Reaction) error {
	failed := map[arrow.LinkID]bool{}
	for _, l := range r.Failed {
		failed[l] = true
	}
	for l, g := range r.RestoredGbps {
		if !failed[l] {
			return fmt.Errorf("reaction restores link %d, which the cut left up", l)
		}
		if g < -checkTol || g > caps[l]*(1+checkTol)+checkTol {
			return fmt.Errorf("reaction restores %g Gbps on link %d of %g capacity", g, l, caps[l])
		}
	}
	return nil
}

// checkCell checks one sweep cell: the allocation fits the network, its
// optimality certificate holds, and the availability is a probability.
func checkCell(n *te.Network, al *te.Allocation, avail float64) error {
	ratios := al.SplitRatios()
	flows := make([]flowUse, len(n.Flows))
	for f := range n.Flows {
		flows[f] = flowUse{demand: n.Flows[f].Demand, admitted: al.B[f], ratios: ratios[f]}
		for _, tn := range n.Tunnels[f] {
			flows[f].tunnels = append(flows[f].tunnels, tn.Links)
		}
	}
	if err := checkLoads(n.LinkCap, flows); err != nil {
		return err
	}
	if al.Cert != nil {
		if err := lp.CheckCertificate(al.Cert, lp.DefaultCertTol); err != nil {
			return fmt.Errorf("certificate: %w", err)
		}
	}
	return checkProbability("availability", avail)
}

// golden holds outputs recorded from the experiments at the default seed:
// the fast fig13 grid as arrow-experiments -exp fig13 prints it, and the
// fast stress-scenarios plan's scenario count and covered mass.
type golden struct {
	Fig13  [][]string `json:"fig13_b4"`
	Stress struct {
		Scenarios    int     `json:"scenarios"`
		CoverageMass float64 `json:"coverage_mass"`
	} `json:"stress"`
}

//go:embed golden.json
var goldenJSON []byte

var goldenData = func() golden {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("golden.json: %v", err))
	}
	return g
}()
