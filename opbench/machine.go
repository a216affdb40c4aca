package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machine is the fingerprint every result records.
type machine struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Go         string `json:"go_version"`
}

func fingerprint(workers int) machine {
	return machine{
		NProc: runtime.NumCPU(), CPU: cpuModel(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: workers, Go: runtime.Version(),
	}
}

func (m machine) String() string {
	return fmt.Sprintf("nproc=%d cpu=%q gomaxprocs=%d workers=%d go=%s", m.NProc, m.CPU, m.GOMAXPROCS, m.Workers, m.Go)
}

// cpuModel reads the processor model name; "unknown" where /proc/cpuinfo
// is missing or has none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtSnap is a reading of the Go runtime's cumulative counters.
type rtSnap struct {
	allocBytes, mallocs, gcCycles, pauseNS uint64
	gcCPU, totalCPU                        float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{
		allocBytes: s[0].Value.Uint64(), mallocs: s[1].Value.Uint64(), gcCycles: s[2].Value.Uint64(),
		gcCPU: s[3].Value.Float64(), totalCPU: s[4].Value.Float64(), pauseNS: ms.PauseTotalNs,
	}
}

// rssEvery is the resident-set sampling period.
const rssEvery = 20 * time.Millisecond

// rssSampler samples the process's resident set in the background.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, ok := rssMB(); ok {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it, and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// rssMB reads the current resident set from /proc/self/statm.
func rssMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}
