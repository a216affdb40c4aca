package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer. Start and End are
// nanoseconds since the trace began; Parent indexes the enclosing span in
// the same trace (-1 for none); Op is the op the call belongs to (-1 for
// set-up); Pass numbers the traced pass.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Pass   int    `json:"pass"`
}

// tracer records spans in memory for one traced pass. It belongs to the
// single goroutine that drives the ops; a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

func noop() {}

// begin opens a span under the innermost open one and returns its end.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return noop
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// setOp tags the spans that follow with op i.
func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = i
	}
}

// spanTimes sums, per span name, the total duration and the self time:
// each span's duration minus the part of it its children cover.
func spanTimes(spans []span) (total, self map[string]int64) {
	total, self = map[string]int64{}, map[string]int64{}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - covered(s, spans, children[i])
	}
	return total, self
}

// covered is how much of parent's interval the union of its children
// spans, clipped to the parent.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var sum, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
