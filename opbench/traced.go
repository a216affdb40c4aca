package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/arrow-te/arrow/internal/obs"
)

// passResult is one pass: set up once, then passOps ops.
type passResult struct {
	wall      time.Duration
	attempted int
	failures  []string
	// Traced passes only.
	counters map[string]int64
	spans    []span
	cpu      cpuSplit
	opsRT    rtSnap // runtime counters over the ops
	passRT   rtSnap // runtime counters over the whole pass
	stages   *obs.StageProfile
}

// runPass runs one pass; traced attaches the registry, the stage profiler,
// the span tracer and a CPU profile.
func runPass(w *workload, cfg config, traced bool) (*passResult, error) {
	e := &env{seed: cfg.seed, workers: cfg.workers}
	var reg *obs.Registry
	var prof bytes.Buffer
	pr := &passResult{}
	var rt0 rtSnap
	if traced {
		reg = obs.NewRegistry()
		e.rec, e.prof, e.tr = reg, obs.NewStageProfiler(), newTracer()
		rt0 = readRuntime()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	endSetup := e.tr.begin("setup")
	inst, err := w.setup(e)
	endSetup()
	if err != nil {
		if traced {
			pprof.StopCPUProfile()
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var rt1 rtSnap
	if traced {
		rt1 = readRuntime()
	}
	for i := 0; i < w.passOps; i++ {
		e.tr.setOp(i)
		endOp := e.tr.begin("op")
		o := inst.op(i)
		endOp()
		pr.attempted++
		if o.err != nil {
			pr.failures = append(pr.failures, fmt.Sprintf("op %d failed: %v", i, o.err))
		}
	}
	pr.wall = time.Since(start)
	if !traced {
		return pr, nil
	}
	rt2 := readRuntime()
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	pr.cpu = p.split()
	pr.counters = reg.Snapshot().Counters
	pr.spans = e.tr.spans
	pr.opsRT, pr.passRT = rt2.sub(rt1), rt2.sub(rt0)
	pr.stages = e.prof.Snapshot()
	return pr, nil
}

func (a rtSnap) sub(b rtSnap) rtSnap {
	return rtSnap{
		allocBytes: a.allocBytes - b.allocBytes, mallocs: a.mallocs - b.mallocs,
		gcCycles: a.gcCycles - b.gcCycles, pauseNS: a.pauseNS - b.pauseNS,
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU,
	}
}

// deterministicPrefixes are the counter families whose values depend only
// on the inputs; the traced run requires them to repeat exactly.
var deterministicPrefixes = []string{"lp.", "te.", "rwa.", "ticket.", "scenario.", "pipeline."}

func deterministic(name string) bool {
	for _, p := range deterministicPrefixes {
		if strings.HasPrefix(name, p) && !strings.HasPrefix(name, "lp.health.") {
			return true
		}
	}
	return false
}

// counterDiffs lists the deterministic counters on which b differs from a.
func counterDiffs(a, b map[string]int64) []string {
	var out []string
	seen := map[string]bool{}
	for _, m := range []map[string]int64{a, b} {
		for k := range m {
			if deterministic(k) && !seen[k] && a[k] != b[k] {
				seen[k] = true
				out = append(out, fmt.Sprintf("%s %d != %d", k, a[k], b[k]))
			}
		}
	}
	sort.Strings(out)
	return out
}

// runTraced is the traced run: it alternates an untraced and a traced
// pass until the time budget is spent. Counters come from the first traced
// pass and must repeat on every later one; times are medians over the
// traced passes; CPU samples are pooled.
func runTraced(w *workload, cfg config, stdout io.Writer) (*report, error) {
	var plain, traced []*passResult
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	// Pairs alternate which pass goes first, so a drift in machine speed
	// does not bias the overhead.
	for pair := 0; len(traced) == 0 || time.Now().Before(deadline); pair++ {
		for _, tr := range []bool{pair%2 == 1, pair%2 == 0} {
			pr, err := runPass(w, cfg, tr)
			if err != nil {
				return nil, err
			}
			if tr {
				traced = append(traced, pr)
			} else {
				plain = append(plain, pr)
			}
		}
	}
	r := &report{workload: w.name}
	for _, pr := range append(plain, traced...) {
		r.result.Attempted += pr.attempted
		r.result.Failed += len(pr.failures)
		for _, f := range pr.failures {
			if len(r.notes) < maxFailureNotes {
				r.notes = append(r.notes, f)
			}
		}
	}
	first := traced[0]
	c := first.counters
	repeats := true
	for _, pr := range traced[1:] {
		if d := counterDiffs(c, pr.counters); len(d) > 0 {
			repeats = false
			r.notes = append(r.notes, "deterministic counters changed between traced passes: "+strings.Join(d, ", "))
		}
	}
	if c["lp.cert_failures"] != 0 {
		r.notes = append(r.notes, fmt.Sprintf("%d LP certificates failed", c["lp.cert_failures"]))
	}
	r.result.Correct = r.result.Failed == 0 && repeats && c["lp.cert_failures"] == 0

	var cpu cpuSplit
	totals := map[string][]float64{}
	var alloc, mallocs, gcCycles, pause, gcShare, plainWall, tracedWall []float64
	for _, pr := range traced {
		cpu.add(pr.cpu)
		total, _ := spanTimes(pr.spans)
		for name, ns := range total {
			totals[name] = append(totals[name], float64(ns)/1e9)
		}
		ops := float64(pr.attempted)
		alloc = append(alloc, float64(pr.opsRT.allocBytes)/ops)
		mallocs = append(mallocs, float64(pr.opsRT.mallocs)/ops)
		gcCycles = append(gcCycles, float64(pr.passRT.gcCycles))
		pause = append(pause, float64(pr.passRT.pauseNS)/1e9)
		if pr.passRT.totalCPU > 0 {
			gcShare = append(gcShare, pr.passRT.gcCPU/pr.passRT.totalCPU)
		}
		tracedWall = append(tracedWall, pr.wall.Seconds())
	}
	for _, pr := range plain {
		plainWall = append(plainWall, pr.wall.Seconds())
	}
	spanS := func(name string) float64 { return median(totals[name]) }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	passes := int64(len(traced))
	adapter := float64(cpu.adapter*cpu.periodNS) / 1e9 / float64(passes)
	vals := map[string]float64{
		"arrow.solve_s":   spanS("arrow.Solve"),
		"arrow.plan_s":    spanS("arrow.Plan"),
		"arrow.react_s":   spanS("arrow.OnFiberCut"),
		"arrow.adapter_s": min(adapter, spanS("arrow.Solve")),
		// The te call inside Planner.Solve cannot be spanned from here, so
		// on te-online te.arrow_s is the Solve time outside the adapter.
		"te.arrow_s":                 spanS("te.arrow") + max(0, spanS("arrow.Solve")-adapter),
		"te.naive_s":                 spanS("te.naive"),
		"te.ffc1_s":                  spanS("te.ffc1"),
		"te.ffc2_s":                  spanS("te.ffc2"),
		"te.teavar_s":                spanS("te.teavar"),
		"te.ecmp_s":                  spanS("te.ecmp"),
		"lp.phase1_share":            ratio(c["lp.phase1_pivots"], c["lp.pivots"]),
		"lp.warm_accept_ratio":       ratio(c["lp.warm_accepted"], c["lp.warm_starts"]),
		"lp.ns_per_pivot_work":       ratio(cpu.lpRecorded*cpu.periodNS, c["lp.pivot_work"]*passes),
		"ticket.yield":               ratio(c["ticket.generated"], c["ticket.rounding_attempts"]),
		"availability.busy_s":        spanS("arrow.Availability") + spanS("availability.Evaluate"),
		"par.utilization":            ratio(c["par.busy_ns"], c["par.busy_ns"]+c["par.idle_ns"]),
		"runtime.alloc_bytes_per_op": median(alloc),
		"runtime.mallocs_per_op":     median(mallocs),
		"runtime.gc_cycles":          median(gcCycles),
		"runtime.gc_pause_s":         median(pause),
		"runtime.gc_cpu_share":       median(gcShare),
		"obs.trace_overhead_frac":    median(tracedWall)/median(plainWall) - 1,
	}
	// The rest are CPU shares and the registry's own counters.
	for _, d := range perLayer {
		if _, set := vals[d.name]; set {
			continue
		}
		if layer, ok := strings.CutSuffix(d.name, ".cpu_share"); ok {
			vals[d.name] = cpu.share(layer)
		} else {
			vals[d.name] = float64(c[d.name])
		}
	}
	r.setMetrics(perLayer, vals)
	r.extra = append(r.extra,
		metricLine{"traced_passes", metric{float64(len(traced)), "count"}},
		metricLine{"pass_ops", metric{float64(w.passOps), "count"}},
		metricLine{"cpu_samples", metric{float64(cpu.total), "count"}})
	r.spans = mergeSpans(traced)
	printTraceDetail(stdout, traced[0], cpu)
	return r, nil
}

// mergeSpans concatenates the passes' spans, tagging each with its pass
// and keeping parent indices valid.
func mergeSpans(passes []*passResult) []span {
	var out []span
	for p, pr := range passes {
		off := len(out)
		for _, s := range pr.spans {
			s.Pass = p
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// printTraceDetail prints the first traced pass's span table (total and
// self time per call) and stage profile, and the pooled CPU split.
func printTraceDetail(w io.Writer, pr *passResult, cpu cpuSplit) {
	total, self := spanTimes(pr.spans)
	var names []string
	for n := range total {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return total[names[a]] > total[names[b]] })
	for _, n := range names {
		fmt.Fprintf(w, "span   %-28s total %10.4f s  self %10.4f s\n", n, float64(total[n])/1e9, float64(self[n])/1e9)
	}
	for _, st := range pr.stages.SortedByWall() {
		fmt.Fprintf(w, "stage  %-28s %10.4f s  x%d\n", st.Name, st.WallSeconds, st.Count)
	}
	var layers []string
	for l := range cpu.byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return cpu.byLayer[layers[a]] > cpu.byLayer[layers[b]] })
	for _, l := range layers {
		fmt.Fprintf(w, "cpu    %-28s %10.4f\n", l, cpu.share(l))
	}
}
