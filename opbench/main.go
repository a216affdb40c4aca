// Command opbench is the repository's operator-facing benchmark. It times the
// calls an operator's controller makes into the arrow library — the online
// TE re-solve, correlated offline planning — and the fig13 availability
// sweep, checks every output, and prints one JSON result line last.
//
//	bash opbench/run.sh --workload te-online --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a traced run. --workload all runs every
// workload in its own child process. README.md describes the workloads, the
// metrics and how each layer metric maps to an end-to-end one.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("opbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: te-online, scenario-stress, availability-sweep, or all")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "opbench-results"), "directory for result records and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace, cfg.workers = trace == 1, defaultWorkers()
	if (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "opbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	if cfg.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "opbench: unknown workload %q (have %s, all)\n", cfg.workload, workloadNames())
		return 2
	}
	fp := fingerprint(cfg.workers)
	fmt.Fprintf(stdout, "# opbench %s seed=%d seconds=%g trace=%d\n", w.name, cfg.seed, cfg.seconds, trace)
	fmt.Fprintf(stdout, "# machine %s\n", fp)
	var rep *report
	var err error
	if cfg.trace {
		rep, err = runTraced(w, cfg, stdout)
	} else {
		rep, err = runMeasured(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "opbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout)
	if err := rep.save(cfg, fp); err != nil {
		fmt.Fprintf(stderr, "opbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(stderr, "opbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.result.Correct {
		return 1
	}
	return 0
}

// defaultWorkers caps the program's worker pools at two, or nproc when the
// machine has fewer CPUs, so runs on different machines do the same work.
func defaultWorkers() int {
	return min(2, runtime.NumCPU())
}

// runAll runs every workload in its own child process, so that memory
// figures stay per workload, and prints each one's report. The last line merges
// the results, with metric names prefixed by their workload.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "opbench: %v\n", err)
		return 1
	}
	merged := result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloads {
		childArgs := append(withoutWorkload(args), "--workload", w.name)
		var out bytes.Buffer
		cmd := exec.Command(self, childArgs...)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "opbench: %s: %v\n", w.name, err)
			code = 1
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			merged.Correct = false
			continue
		}
		merged.Correct = merged.Correct && r.Correct
		merged.Attempted += r.Attempted
		merged.Failed += r.Failed
		for k, v := range r.Metrics {
			merged.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(merged)
	if err != nil {
		fmt.Fprintf(stderr, "opbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !merged.Correct {
		code = 1
	}
	return code
}

// withoutWorkload drops any --workload/-workload flag from args.
func withoutWorkload(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "--workload" || a == "-workload":
			i++
		case strings.HasPrefix(a, "--workload=") || strings.HasPrefix(a, "-workload="):
		default:
			out = append(out, a)
		}
	}
	return out
}
