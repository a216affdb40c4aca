package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, reported by every workload;
// BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"scenarios_per_s", "1/s"},
	{"rss_mb_p50", "MB"},
	{"coverage_mass", "prob"},
}

// perLayer are the traced run's metrics, reported by every workload (0
// where the workload does not reach the layer); BENCHMARK.json lists the
// same names and units.
var perLayer = []metricDef{
	{"arrow.solve_s", "s"}, {"arrow.plan_s", "s"}, {"arrow.react_s", "s"}, {"arrow.adapter_s", "s"},
	{"te.phase1_pivots", "count"}, {"te.phase1_pivot_work", "count"},
	{"te.pricing_rounds", "count"}, {"te.tickets_deferred", "count"},
	{"te.arrow_s", "s"}, {"te.naive_s", "s"}, {"te.ffc1_s", "s"}, {"te.ffc2_s", "s"},
	{"te.teavar_s", "s"}, {"te.ecmp_s", "s"},
	{"lp.solves", "count"}, {"lp.pivots", "count"}, {"lp.pivot_work", "count"},
	{"lp.phase1_pivots", "count"}, {"lp.refactorizations", "count"}, {"lp.degenerate_pivots", "count"},
	{"lp.warm_starts", "count"}, {"lp.warm_accepted", "count"}, {"lp.warm_repairs", "count"},
	{"lp.phase1_skipped", "count"}, {"lp.columns_priced", "count"}, {"lp.cert_failures", "count"},
	{"lp.phase1_share", "ratio"}, {"lp.warm_accept_ratio", "ratio"},
	{"lp.ns_per_pivot_work", "ns"}, {"lp.cpu_share", "ratio"},
	{"rwa.solves", "count"}, {"rwa.compose_adopted", "count"}, {"rwa.cpu_share", "ratio"},
	{"graph.cpu_share", "ratio"},
	{"ticket.generated", "count"}, {"ticket.rounding_attempts", "count"}, {"ticket.yield", "ratio"},
	{"ticket.infeasible", "count"}, {"ticket.duplicates", "count"}, {"ticket.cpu_share", "ratio"},
	{"scenario.enumerated", "count"}, {"scenario.pruned", "count"},
	{"scenario.warm_from_singles", "count"}, {"scenario.cpu_share", "ratio"},
	{"availability.busy_s", "s"},
	{"par.busy_ns", "ns"}, {"par.idle_ns", "ns"}, {"par.utilization", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"}, {"runtime.mallocs_per_op", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_s", "s"}, {"runtime.gc_cpu_share", "ratio"},
	{"obs.trace_overhead_frac", "ratio"},
}

// report is one run's outcome: the result line plus the figures and notes
// printed above it.
type report struct {
	workload string
	result   result
	// extra are workload-specific figures printed by name but kept out of
	// the result line, which carries only metrics every workload has.
	extra []metricLine
	notes []string
	spans []span
}

type metricLine struct {
	name string
	metric
}

// setMetrics fills the result's metrics from vals in defs order; a
// missing or non-finite value reads 0.
func (r *report) setMetrics(defs []metricDef, vals map[string]float64) {
	r.result.Metrics = map[string]metric{}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.result.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
}

func (r *report) print(w io.Writer) {
	defs := endToEnd
	if _, ok := r.result.Metrics[perLayer[0].name]; ok {
		defs = perLayer
	}
	for _, d := range defs {
		m := r.result.Metrics[d.name]
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	for _, e := range r.extra {
		fmt.Fprintf(w, "extra  %-28s %14.6g %s\n", e.name, e.Value, e.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note   %s\n", n)
	}
	fmt.Fprintf(w, "ops    attempted=%d failed=%d correct=%v\n", r.result.Attempted, r.result.Failed, r.result.Correct)
}

// save writes the run's record (machine fingerprint, result, extras and
// notes) and, for a traced run, its spans under cfg.out.
func (r *report) save(cfg config, m machine) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	stem := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d", r.workload, cfg.seed, trace))
	extra := map[string]metric{}
	for _, e := range r.extra {
		extra[e.name] = e.metric
	}
	rec, err := json.MarshalIndent(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Seconds  float64           `json:"seconds"`
		Trace    int               `json:"trace"`
		Machine  machine           `json:"machine"`
		Result   result            `json:"result"`
		Extra    map[string]metric `json:"extra"`
		Notes    []string          `json:"notes"`
		Time     string            `json:"time"`
	}{r.workload, cfg.seed, cfg.seconds, trace, m, r.result, extra, r.notes, time.Now().UTC().Format(time.RFC3339)}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(rec, '\n'), 0o644); err != nil {
		return err
	}
	if len(r.spans) == 0 {
		return nil
	}
	return writeSpans(stem+".spans.jsonl", r.spans)
}

// tally accumulates the ops of an untraced run.
type tally struct {
	lat, reacts       []float64 // ms
	busy              time.Duration
	scenarios         int
	coverage          float64
	avail, admitted   float64
	nAvail            int
	attempted, failed int
	failures          []string
	rss               []float64 // MiB, sampled every rssEvery during the ops
}

// maxFailureNotes bounds how many failures a report lists.
const maxFailureNotes = 5

func (t *tally) add(i int, o outcome) {
	t.attempted++
	if o.err != nil {
		t.failed++
		if len(t.failures) < maxFailureNotes {
			t.failures = append(t.failures, fmt.Sprintf("op %d failed: %v", i, o.err))
		}
		return
	}
	t.lat = append(t.lat, ms(o.latency))
	for _, r := range o.reacts {
		t.reacts = append(t.reacts, ms(r))
	}
	t.busy += o.latency
	t.scenarios += o.scenarios
	t.coverage += o.coverage
	if o.avail >= 0 {
		t.avail += o.avail
		t.admitted += o.admitted
		t.nAvail++
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// report turns the tally into the untraced run's report.
func (t *tally) report(w *workload, setups []float64) *report {
	r := &report{workload: w.name}
	r.result.Attempted, r.result.Failed = t.attempted, t.failed
	ok := len(t.lat)
	r.result.Correct = t.failed == 0 && ok > 0
	busy := t.busy.Seconds()
	r.setMetrics(endToEnd, map[string]float64{
		"setup_s":         median(setups),
		"op_ms_p50":       percentile(t.lat, 50),
		"op_ms_p90":       percentile(t.lat, 90),
		"ops_per_s":       float64(ok) / busy,
		"scenarios_per_s": float64(t.scenarios) / busy,
		"rss_mb_p50":      percentile(t.rss, 50),
		"coverage_mass":   t.coverage / float64(ok),
	})
	r.extra = append(r.extra,
		metricLine{"ops", metric{float64(ok), "count"}},
		metricLine{"failed_frac", metric{float64(t.failed) / float64(t.attempted), "ratio"}},
		metricLine{"peak_rss_mb", metric{peakRSSMB(), "MB"}})
	if p, found := tailPercentile(ok); found {
		r.extra = append(r.extra, metricLine{fmt.Sprintf("op_ms_p%g", p), metric{percentile(t.lat, p), "ms"}})
	}
	if len(t.reacts) > 0 {
		r.extra = append(r.extra,
			metricLine{"react_ms_p50", metric{percentile(t.reacts, 50), "ms"}},
			metricLine{"reactions", metric{float64(len(t.reacts)), "count"}})
	}
	if t.nAvail > 0 {
		r.extra = append(r.extra,
			metricLine{"availability", metric{t.avail / float64(t.nAvail), "prob"}},
			metricLine{"admitted_frac", metric{t.admitted / float64(t.nAvail), "ratio"}})
	}
	if ok < 100 {
		r.notes = append(r.notes, fmt.Sprintf("op_ms_p90 rests on %d ops, fewer than the 100 that put 10 samples beyond it", ok))
	}
	r.notes = append(r.notes, t.failures...)
	return r
}

// runMeasured is the untraced run: set up setupRepeats times, then run ops
// closed-loop, one at a time, until the time budget is spent at a round
// boundary.
func runMeasured(w *workload, cfg config) (*report, error) {
	e := &env{seed: cfg.seed, workers: cfg.workers}
	var setups []float64
	var inst instance
	for k := 0; k < w.setupRepeats; k++ {
		runtime.GC() // start each set-up from the same heap state
		start := time.Now()
		in, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		inst = in
	}
	var t tally
	rss := startRSS()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || i%w.round != 0 || time.Now().Before(deadline); i++ {
		t.add(i, inst.op(i))
	}
	t.rss = rss.finish()
	return t.report(w, setups), nil
}
