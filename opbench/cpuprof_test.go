package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		modPath + "/internal/lp.(*simplex).pivot":            "lp",
		modPath + "/internal/par.Map[go.shape.*uint8].func1": "par",
		modPath + ".(*Planner).Solve":                        "arrow",
		modPath + ".(*Network).PlanContext.func2":            "arrow",
		modPath + "/opbench.spin":                            "bench",
		"main.(*teOnline).op":                                "bench",
		"runtime.mallocgc":                                   "",
		"compress/flate.(*compressor).deflate":               "",
		"github.com/other/mod/internal/lp.solve":             "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink int

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink += i
		}
	}
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	c := p.split()
	if c.total == 0 || c.periodNS <= 0 {
		t.Fatalf("no samples (total %d, period %d)", c.total, c.periodNS)
	}
	// Only the spin loop ran: every sample is the benchmark's or the
	// runtime's (race-detector frames do not unwind into Go frames).
	if c.byLayer["bench"] == 0 || c.byLayer["bench"]+c.byLayer["runtime"] != c.total {
		t.Errorf("samples split %v of %d, want only bench and runtime", c.byLayer, c.total)
	}
}
