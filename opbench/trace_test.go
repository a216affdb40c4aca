package main

import "testing"

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "a", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "c", Start: 25, End: 28, Parent: 2},  // grandchild: only b loses it
	}
	total, self := spanTimes(spans)
	// op: 100 long, children cover [10,50) and [90,100).
	if self["op"] != 50 || total["op"] != 100 {
		t.Errorf("op total %d self %d, want 100 and 50", total["op"], self["op"])
	}
	if total["a"] != 50 || self["a"] != 50 {
		t.Errorf("a total %d self %d, want 50 and 50", total["a"], self["a"])
	}
	if total["b"] != 30 || self["b"] != 27 {
		t.Errorf("b total %d self %d, want 30 and 27", total["b"], self["b"])
	}
	if self["c"] != 3 {
		t.Errorf("c self %d, want 3", self["c"])
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	tr.setOp(4)
	endOp := tr.begin("op")
	endA := tr.begin("a")
	endA()
	endB := tr.begin("b")
	endB()
	endOp()
	if len(tr.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.spans))
	}
	for i, want := range []int{-1, 0, 0} {
		if s := tr.spans[i]; s.Parent != want || s.Op != 4 || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d, op 4", i, s, want)
		}
	}
	var none *tracer
	none.begin("x")() // a nil tracer records nothing and does not panic
	none.setOp(1)
}

func TestMergeSpansKeepsParents(t *testing.T) {
	a := &passResult{spans: []span{{Name: "op", Parent: -1}, {Name: "x", Parent: 0}}}
	b := &passResult{spans: []span{{Name: "op", Parent: -1}, {Name: "x", Parent: 0}}}
	m := mergeSpans([]*passResult{a, b})
	if m[3].Parent != 2 || m[3].Pass != 1 || m[1].Parent != 0 || m[1].Pass != 0 {
		t.Errorf("merged spans %+v", m)
	}
}
