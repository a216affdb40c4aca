package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	arrow "github.com/arrow-te/arrow"
	"github.com/arrow-te/arrow/internal/availability"
	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/scenario"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// defaultSeed is the seed of the repository's experiments; with it, op 0 of
// each workload reproduces the experiments' inputs exactly.
const defaultSeed = 1

// workload is one named, seeded input stream and the calls it makes.
type workload struct {
	name string
	// setup builds the instance the ops run against; its time is setup_s.
	setup func(e *env) (instance, error)
	// setupRepeats is how many times an untimed run sets up; setup_s is
	// the median.
	setupRepeats int
	// round is the op count a run never stops inside (a whole fig13 grid
	// for the sweep), so every run measures the same mix of ops.
	round int
	// passOps is the op count of one traced pass; a whole number of rounds.
	passOps int
}

var workloads = []*workload{
	{name: "te-online", setup: setupTEOnline, setupRepeats: 11, round: 1, passOps: 16},
	{name: "scenario-stress", setup: setupStress, setupRepeats: 31, round: 1, passOps: 2},
	{name: "availability-sweep", setup: setupSweep, setupRepeats: 21, round: sweepCells, passOps: sweepCells},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// env is what a set-up receives: the run's seed and worker count, plus the
// program's own hooks (nil on an untraced run).
type env struct {
	seed    int64
	workers int
	rec     obs.Recorder
	prof    *obs.StageProfiler
	tr      *tracer
}

// ctx carries the recorder into the public API, the way the CLIs attach it.
func (e *env) ctx() context.Context {
	if e.rec == nil {
		return context.Background()
	}
	return obs.WithRecorder(context.Background(), e.rec)
}

// instance runs the ops of one set-up workload.
type instance interface {
	// op runs op i of the seeded stream, times the calls into the program,
	// and checks their outputs.
	op(i int) outcome
}

// outcome is one op's measurement. err is set when a call failed or an
// output check did not hold; the op then counts as failed and its other
// fields are ignored.
type outcome struct {
	latency   time.Duration
	reacts    []time.Duration
	scenarios int     // failure scenarios the op planned or solved over
	coverage  float64 // probability mass of the states the plan covers
	avail     float64 // availability of the op's TE solution, -1 if none
	admitted  float64 // admitted / demanded of the op's TE solution, -1 if none
	err       error
}

// streamSeed is the seed of op (or round) i's generated inputs.
func streamSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// canonicalB4 is the network every workload runs on: the B4 overlay the
// experiments build at the default seed. The network stays fixed so that
// --seed varies traffic and failure draws, not the problem size.
func canonicalB4() (*topo.Topology, error) { return topo.B4(defaultSeed + 5) }

// buildNetwork rebuilds a topology through the public Builder.
func buildNetwork(tp *topo.Topology, srlgs bool) (*arrow.Network, error) {
	b := arrow.NewBuilder(tp.Opt.NumROADMs, tp.Opt.SlotCount)
	for _, f := range tp.Opt.Fibers {
		b.AddFiber(int(f.A), int(f.B), f.LengthKm)
	}
	for _, l := range tp.Opt.IPLinks {
		w0 := l.Waves[0]
		path := make([]arrow.FiberID, len(w0.FiberPath))
		for i, f := range w0.FiberPath {
			path[i] = arrow.FiberID(f)
		}
		if _, err := b.AddIPLink(int(l.Src), int(l.Dst), len(l.Waves), w0.Modulation.GbpsPerWavelength, path); err != nil {
			return nil, fmt.Errorf("link %d: %w", l.ID, err)
		}
	}
	if srlgs {
		for _, g := range tp.SRLGs {
			fs := make([]arrow.FiberID, len(g.Fibers))
			for i, f := range g.Fibers {
				fs[i] = arrow.FiberID(f)
			}
			b.AddSRLG(g.Prob, fs...)
		}
	}
	return b.Build()
}

// ---- te-online -------------------------------------------------------------

// teLoad is the total offered demand as a share of the summed IP link
// capacity: enough that the TE leaves some demand unadmitted, so the LPs
// do real work.
const teLoad = 0.1

// teCutoff is the planner's default scenario cutoff.
const teCutoff = 1e-3

// weekEpochs is the length of the traffic generator's diurnal/weekly cycle
// (four matrices a day).
const weekEpochs = 28

type teOnline struct {
	e       *env
	net     *arrow.Network
	planner *arrow.Planner
	cuts    []arrow.FiberID
	total   float64
	weekOf  int
	week    []traffic.Matrix
}

func setupTEOnline(e *env) (instance, error) {
	tp, err := canonicalB4()
	if err != nil {
		return nil, err
	}
	net, err := buildNetwork(tp, false)
	if err != nil {
		return nil, err
	}
	probs := scenario.FailureProbabilities(net.NumFibers(), scenario.DefaultShape, scenario.DefaultScale, defaultSeed)
	end := e.tr.begin("arrow.Plan")
	planner, err := net.PlanContext(e.ctx(), arrow.PlanOptions{
		FailureProbs: probs, Cutoff: teCutoff, Seed: defaultSeed, Parallelism: e.workers,
	})
	end()
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	w := &teOnline{e: e, net: net, planner: planner, weekOf: -1}
	// The replayed cuts are the planned single-fiber scenarios.
	for _, sc := range scenario.Enumerate(probs, teCutoff).Scenarios {
		if len(sc.Cut) == 1 && len(net.FailedLinks(arrow.FiberID(sc.Cut[0]))) > 0 {
			w.cuts = append(w.cuts, arrow.FiberID(sc.Cut[0]))
		}
	}
	sort.Slice(w.cuts, func(a, b int) bool { return w.cuts[a] < w.cuts[b] })
	for l := 0; l < net.NumLinks(); l++ {
		w.total += net.LinkCapacityGbps(arrow.LinkID(l))
	}
	w.total *= teLoad
	return w, nil
}

// demands is interval i's traffic matrix; the gravity model's site weights
// are re-drawn every week.
func (w *teOnline) demands(i int) []arrow.Demand {
	if week := i / weekEpochs; week != w.weekOf {
		w.weekOf = week
		w.week = traffic.Generate(traffic.Options{
			Sites: w.net.NumSites(), Count: weekEpochs, MaxFlows: 40, TotalGbps: w.total,
			Seed: streamSeed(w.e.seed, week),
		})
	}
	var ds []arrow.Demand
	for _, f := range w.week[i%weekEpochs].Flows {
		ds = append(ds, arrow.Demand{Src: f.Src, Dst: f.Dst, Gbps: f.Demand})
	}
	return ds
}

func (w *teOnline) op(i int) outcome {
	ds := w.demands(i)
	tr := w.e.tr
	start := time.Now()
	end := tr.begin("arrow.Solve")
	plan, err := w.planner.Solve(ds, arrow.SolveOptions{})
	end()
	if err != nil {
		return outcome{err: fmt.Errorf("solve: %w", err)}
	}
	end = tr.begin("arrow.Availability")
	avail := plan.Availability()
	end()
	reacts := make([]time.Duration, len(w.cuts))
	reactions := make([]*arrow.Reaction, len(w.cuts))
	for k, f := range w.cuts {
		t0 := time.Now()
		end = tr.begin("arrow.OnFiberCut")
		r, err := plan.OnFiberCut(f)
		end()
		reacts[k] = time.Since(t0)
		if err != nil {
			return outcome{err: fmt.Errorf("fiber cut %d: %w", f, err)}
		}
		reactions[k] = r
	}
	o := outcome{latency: time.Since(start), reacts: reacts, scenarios: w.planner.NumScenarios(), avail: avail}
	cov := w.planner.Coverage()
	o.coverage = cov.Healthy + cov.Planned
	demanded := 0.0
	for _, d := range ds {
		demanded += d.Gbps
	}
	o.admitted = plan.AdmittedGbps() / demanded
	o.err = checkTrafficPlan(w.net, plan, avail, reactions)
	return o
}

// checkTrafficPlan checks a public-API plan: the traffic it sends fits
// every link, no demand is over-admitted, its availability is a
// probability, and every reaction restores at most the capacity of the
// links the cut failed.
func checkTrafficPlan(net *arrow.Network, plan *arrow.TrafficPlan, avail float64, reactions []*arrow.Reaction) error {
	raw, err := plan.Export()
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	var ex arrow.PlanExport
	if err := json.Unmarshal(raw, &ex); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	caps := make([]float64, net.NumLinks())
	for l := range caps {
		caps[l] = net.LinkCapacityGbps(arrow.LinkID(l))
	}
	ratios := plan.SplitRatios()
	flows := make([]flowUse, len(ex.Demands))
	for d, de := range ex.Demands {
		flows[d] = flowUse{demand: de.Gbps, admitted: de.Admitted, ratios: ratios[d]}
		for t := range ratios[d] {
			var links []int
			for _, l := range plan.TunnelLinks(d, t) {
				links = append(links, int(l))
			}
			flows[d].tunnels = append(flows[d].tunnels, links)
		}
	}
	if err := checkLoads(caps, flows); err != nil {
		return err
	}
	if err := checkProbability("availability", avail); err != nil {
		return err
	}
	for _, r := range reactions {
		if err := checkReaction(caps, r); err != nil {
			return err
		}
	}
	return nil
}

// ---- scenario-stress -------------------------------------------------------

const (
	// stressCutSize and stressTickets are the fast stress-scenarios
	// experiment's settings: up to 3 simultaneously failed elements
	// (fibers or conduit SRLGs), 4 tickets per scenario.
	stressCutSize = 3
	stressTickets = 4
	// stressCutoff keeps every cut set of positive probability: the
	// experiment runs with no cutoff, and the public API treats 0 as
	// "use the default".
	stressCutoff = math.SmallestNonzeroFloat64
)

type stress struct {
	e   *env
	net *arrow.Network
}

func setupStress(e *env) (instance, error) {
	tp, err := canonicalB4()
	if err != nil {
		return nil, err
	}
	net, err := buildNetwork(tp, true)
	if err != nil {
		return nil, err
	}
	return &stress{e: e, net: net}, nil
}

func (w *stress) op(i int) outcome {
	s := streamSeed(w.e.seed, i)
	probs := scenario.FailureProbabilities(w.net.NumFibers(), scenario.DefaultShape, scenario.DefaultScale, s)
	start := time.Now()
	end := w.e.tr.begin("arrow.Plan")
	pl, err := w.net.PlanContext(w.e.ctx(), arrow.PlanOptions{
		Tickets: stressTickets, Cutoff: stressCutoff, FailureProbs: probs, Seed: s,
		Parallelism: w.e.workers, MaxCutSize: stressCutSize, UseSRLGs: true,
	})
	end()
	if err != nil {
		return outcome{err: fmt.Errorf("plan: %w", err)}
	}
	o := outcome{latency: time.Since(start), scenarios: pl.NumScenarios(), avail: -1, admitted: -1}
	cov := pl.Coverage()
	o.coverage = cov.Healthy + cov.Planned
	o.err = checkCoverage(pl.NumScenarios(), cov, w.e.seed == defaultSeed && i == 0)
	return o
}

// checkCoverage checks a stress plan: every cut set of up to three
// elements is planned, the probability masses add up, and on the default
// seed's first plan the count and covered mass match the recorded ones.
func checkCoverage(n int, cov arrow.Coverage, golden bool) error {
	if n != goldenData.Stress.Scenarios {
		return fmt.Errorf("planned %d scenarios, want %d", n, goldenData.Stress.Scenarios)
	}
	if sum := cov.Healthy + cov.Planned + cov.Residual; math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("coverage masses sum to %v", sum)
	}
	mass := cov.Healthy + cov.Planned
	if err := checkProbability("coverage mass", mass); err != nil {
		return err
	}
	if golden && math.Abs(mass-goldenData.Stress.CoverageMass) > 1e-12 {
		return fmt.Errorf("coverage mass %.17g, recorded %.17g", mass, goldenData.Stress.CoverageMass)
	}
	return nil
}

// ---- availability-sweep ----------------------------------------------------

// sweepScales are fig13's fast-mode demand scales; sweepCells is one grid.
var sweepScales = []float64{1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0}

const sweepCells = 9 * 6

// schemeKey names each scheme in per-layer metrics (te.<key>_s).
var schemeKey = map[eval.Scheme]string{
	eval.SchemeArrow: "arrow", eval.SchemeArrowNaive: "naive", eval.SchemeFFC1: "ffc1",
	eval.SchemeFFC2: "ffc2", eval.SchemeTeaVaR: "teavar", eval.SchemeECMP: "ecmp",
}

type sweep struct {
	e       *env
	pl      *eval.Pipeline
	week    []traffic.Matrix
	schemes []eval.Scheme
	baseOf  int
	base    *te.Network
}

func setupSweep(e *env) (instance, error) {
	tp, err := canonicalB4()
	if err != nil {
		return nil, err
	}
	// fig13's fast B4 pipeline.
	pl, err := eval.BuildPipeline(tp, eval.PipelineOptions{
		Cutoff: 0.001, NumTickets: 12, Seed: defaultSeed, MaxScenarios: 16,
		Parallelism: e.workers, Recorder: e.rec, Profiler: e.prof,
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	// fig13's traffic model: one gravity matrix (the experiments' seed+7)
	// through its diurnal week.
	week := traffic.Generate(traffic.Options{
		Sites: tp.NumRouters(), Count: weekEpochs, MaxFlows: 40, TotalGbps: 1, Seed: defaultSeed + 7,
	})
	return &sweep{e: e, pl: pl, week: week, schemes: eval.AllSchemes(), baseOf: -1}, nil
}

// sweepEpoch is the diurnal epoch grid j of a run sweeps: the seed picks
// where in the week the run starts, and each grid moves one epoch on. The
// default seed's first grid is fig13's matrix (epoch 0). Seeds that agree
// modulo weekEpochs share their inputs.
func sweepEpoch(seed int64, grid int) int {
	e := (seed - defaultSeed + int64(grid)) % weekEpochs
	if e < 0 {
		e += weekEpochs
	}
	return int(e)
}

func (w *sweep) op(i int) outcome {
	grid, cell := i/sweepCells, i%sweepCells
	if grid != w.baseOf {
		base, err := w.pl.BaseNetwork(w.week[sweepEpoch(w.e.seed, grid)], 8)
		if err != nil {
			return outcome{err: fmt.Errorf("base network: %w", err)}
		}
		w.base, w.baseOf = base, grid
	}
	si, zi := cell/len(w.schemes), cell%len(w.schemes)
	s := w.schemes[zi]
	tr := w.e.tr
	start := time.Now()
	n := w.base.Scaled(sweepScales[si])
	end := tr.begin("te." + schemeKey[s])
	al, restored, err := w.pl.SolveScheme(s, n)
	end()
	if err != nil {
		return outcome{err: fmt.Errorf("%s at scale %g: %w", s, sweepScales[si], err)}
	}
	end = tr.begin("availability.Evaluate")
	ev := &availability.Evaluator{Net: n, Alloc: al, ECMPRebalance: s == eval.SchemeECMP}
	avail := ev.Availability(w.pl.EvalScenarios(restored))
	end()
	o := outcome{latency: time.Since(start), scenarios: len(w.pl.Scenarios), avail: avail, admitted: al.Throughput(n)}
	o.coverage = w.pl.Set.HealthyProb
	for _, sc := range w.pl.Scenarios {
		o.coverage += sc.Prob
	}
	o.err = checkCell(n, al, avail)
	if o.err == nil && w.e.seed == defaultSeed && grid == 0 {
		if got, want := fmt.Sprintf("%.5f", avail), goldenData.Fig13[si][zi]; got != want {
			o.err = fmt.Errorf("%s at scale %g: availability %s, fig13 has %s", s, sweepScales[si], got, want)
		}
	}
	return o
}
