package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// lineGraph builds 0-1-2-...-n-1 with unit weights, bidirectional.
func lineGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddBiEdge(Node(i), Node(i+1), 1, i)
	}
	return g
}

// pathNodes expands a path to its node sequence.
func pathNodes(g *Graph, p Path) []Node {
	if len(p.Edges) == 0 {
		return nil
	}
	out := []Node{g.Edge(p.Edges[0]).From}
	for _, id := range p.Edges {
		out = append(out, g.Edge(id).To)
	}
	return out
}

func TestShortestPathLine(t *testing.T) {
	g := lineGraph(5)
	p, ok := g.ShortestPath(0, 4, nil)
	if !ok || p.Weight != 4 || len(p.Edges) != 4 {
		t.Fatalf("path %+v ok=%v", p, ok)
	}
	nodes := pathNodes(g, p)
	for i, n := range nodes {
		if n != Node(i) {
			t.Fatalf("nodes %v", nodes)
		}
	}
}

func TestShortestPathPrefersLowWeight(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 2, 10, 0) // direct but heavy
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(1, 2, 1, 2)
	p, ok := g.ShortestPath(0, 2, nil)
	if !ok || p.Weight != 2 || len(p.Edges) != 2 {
		t.Fatalf("path %+v", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1, 0)
	if _, ok := g.ShortestPath(0, 3, nil); ok {
		t.Fatal("expected unreachable")
	}
}

func TestShortestPathBannedEdges(t *testing.T) {
	g := New(3)
	short := g.AddEdge(0, 2, 1, 0)
	g.AddEdge(0, 1, 2, 1)
	g.AddEdge(1, 2, 2, 2)
	p, ok := g.ShortestPath(0, 2, func(id int) bool { return id == short })
	if !ok || p.Weight != 4 {
		t.Fatalf("detour path %+v", p)
	}
}

func TestMultigraphParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 5, 0)
	cheap := g.AddEdge(0, 1, 2, 1)
	p, ok := g.ShortestPath(0, 1, nil)
	if !ok || p.Edges[0] != cheap {
		t.Fatalf("want parallel edge %d, got %+v", cheap, p)
	}
}

func TestKShortestPathsDiamond(t *testing.T) {
	// Diamond: 0->1->3 (w 2), 0->2->3 (w 3), 0->3 (w 4).
	g := New(4)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 3, 1, 1)
	g.AddEdge(0, 2, 1, 2)
	g.AddEdge(2, 3, 2, 3)
	g.AddEdge(0, 3, 4, 4)
	ps := g.KShortestPaths(0, 3, 5, 0, nil)
	if len(ps) != 3 {
		t.Fatalf("got %d paths, want 3: %+v", len(ps), ps)
	}
	wantW := []float64{2, 3, 4}
	for i, p := range ps {
		if p.Weight != wantW[i] {
			t.Fatalf("path %d weight %g want %g", i, p.Weight, wantW[i])
		}
	}
}

func TestKShortestPathsMaxWeight(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 3, 1, 1)
	g.AddEdge(0, 2, 1, 2)
	g.AddEdge(2, 3, 2, 3)
	g.AddEdge(0, 3, 4, 4)
	ps := g.KShortestPaths(0, 3, 5, 3, nil)
	if len(ps) != 2 {
		t.Fatalf("got %d paths with reach bound 3, want 2", len(ps))
	}
}

func TestKShortestPathsLoopless(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New(8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j && rng.Float64() < 0.4 {
				g.AddEdge(Node(i), Node(j), 1+rng.Float64()*4, i*8+j)
			}
		}
	}
	ps := g.KShortestPaths(0, 7, 12, 0, nil)
	prevW := 0.0
	for pi, p := range ps {
		if p.Weight < prevW-1e-12 {
			t.Fatalf("paths not sorted: %v", ps)
		}
		prevW = p.Weight
		seen := map[Node]bool{}
		for _, n := range pathNodes(g, p) {
			if seen[n] {
				t.Fatalf("path %d revisits node %d", pi, n)
			}
			seen[n] = true
		}
		// Check connectivity of the edge sequence.
		for i := 0; i+1 < len(p.Edges); i++ {
			if g.Edge(p.Edges[i]).To != g.Edge(p.Edges[i+1]).From {
				t.Fatalf("path %d not connected", pi)
			}
		}
	}
	// All paths distinct.
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			if slices.Equal(ps[i].Edges, ps[j].Edges) {
				t.Fatalf("duplicate paths %d and %d", i, j)
			}
		}
	}
}

func TestKShortestAgainstBruteForce(t *testing.T) {
	// Enumerate all simple paths on a random small graph and compare the
	// sorted weights with Yen's output.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 5
		g := New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.5 {
					g.AddEdge(Node(i), Node(j), float64(1+rng.Intn(9)), 0)
				}
			}
		}
		var all []float64
		var dfs func(at Node, visited map[Node]bool, w float64)
		dfs = func(at Node, visited map[Node]bool, w float64) {
			if at == Node(n-1) {
				all = append(all, w)
				return
			}
			for _, id := range g.Out(at) {
				e := g.Edge(id)
				if !visited[e.To] {
					visited[e.To] = true
					dfs(e.To, visited, w+e.Weight)
					delete(visited, e.To)
				}
			}
		}
		dfs(0, map[Node]bool{0: true}, 0)
		if len(all) == 0 {
			continue
		}
		// sort ascending
		for i := range all {
			for j := i + 1; j < len(all); j++ {
				if all[j] < all[i] {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		k := len(all)
		ps := g.KShortestPaths(0, Node(n-1), k, 0, nil)
		if len(ps) != k {
			t.Fatalf("trial %d: got %d paths, brute force found %d", trial, len(ps), k)
		}
		for i := range ps {
			if math.Abs(ps[i].Weight-all[i]) > 1e-9 {
				t.Fatalf("trial %d: path %d weight %g want %g", trial, i, ps[i].Weight, all[i])
			}
		}
	}
}

func TestMaxFlowKnown(t *testing.T) {
	// Classic CLRS-style network: s=0, t=5.
	g := New(6)
	caps := map[int]float64{}
	add := func(a, b Node, c float64) {
		id := g.AddEdge(a, b, 1, 0)
		caps[id] = c
	}
	add(0, 1, 16)
	add(0, 2, 13)
	add(1, 2, 10)
	add(2, 1, 4)
	add(1, 3, 12)
	add(3, 2, 9)
	add(2, 4, 14)
	add(4, 3, 7)
	add(3, 5, 20)
	add(4, 5, 4)
	got := g.MaxFlow(0, 5, func(id int) float64 { return caps[id] })
	if math.Abs(got-23) > 1e-9 {
		t.Fatalf("max flow %g, want 23", got)
	}
	// Unreachable sink.
	g2 := New(3)
	g2.AddEdge(0, 1, 1, 0)
	if f := g2.MaxFlow(0, 2, func(int) float64 { return 5 }); f != 0 {
		t.Fatalf("flow to unreachable sink %g", f)
	}
	if f := g.MaxFlow(0, 0, func(int) float64 { return 5 }); f != 0 {
		t.Fatalf("s==t flow %g", f)
	}
}

func TestMaxFlowMatchesLPOnRandomGraphs(t *testing.T) {
	// Cross-check against the min of all s-t cut values on small random
	// graphs (max-flow = min-cut).
	rng := rand.New(rand.NewSource(77))
	// Exact check: enumerate all cuts (max-flow = min-cut) on small graphs.
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(4)
		g := New(n)
		caps := map[int]float64{}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.45 {
					id := g.AddEdge(Node(i), Node(j), 1, 0)
					caps[id] = float64(1 + rng.Intn(9))
				}
			}
		}
		flow := g.MaxFlow(0, Node(n-1), func(id int) float64 { return caps[id] })
		// Min cut by enumeration over subsets containing s but not t.
		minCut := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			if mask&1 == 0 || mask&(1<<(n-1)) != 0 {
				continue
			}
			cut := 0.0
			for id, e := range g.Edges() {
				inS := mask&(1<<int(e.From)) != 0
				inT := mask&(1<<int(e.To)) == 0
				if inS && inT {
					cut += caps[id]
				}
			}
			if cut < minCut {
				minCut = cut
			}
		}
		if math.Abs(flow-minCut) > 1e-9 {
			t.Fatalf("trial %d: max flow %g != min cut %g", trial, flow, minCut)
		}
	}
}

// labelsOf maps a path's edge IDs to their labels.
func labelsOf(g *Graph, p Path) []int {
	out := make([]int, len(p.Edges))
	for i, id := range p.Edges {
		out[i] = g.Edge(id).Label
	}
	return out
}

// TestMaskedKShortestMatchesFilteredCopy checks that Yen's search with a
// banned-label mask returns exactly what it returns on a copy of the graph
// rebuilt without the banned labels: the same label sequences with the same
// weights, in the same order. Small integer weights make equal-weight ties
// common, so the check also covers tie-breaking. The filtered copy re-adds
// the surviving undirected edges in ID order with AddBiEdge: it is the
// reference the masked surrogate-path search must match.
func TestMaskedKShortestMatchesFilteredCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.Intn(7)
		g := New(n)
		labels := 0
		for i := 0; i < n; i++ { // ring keeps most banned sets connected
			g.AddBiEdge(Node(i), Node((i+1)%n), float64(1+rng.Intn(3)), labels)
			labels++
		}
		for c := rng.Intn(2 * n); c > 0; c-- {
			a, b := Node(rng.Intn(n)), Node(rng.Intn(n))
			if a != b { // parallel edges allowed: this is a multigraph
				g.AddBiEdge(a, b, float64(1+rng.Intn(3)), labels)
				labels++
			}
		}
		cut := make([]bool, labels)
		for c := rng.Intn(4); c > 0; c-- {
			cut[rng.Intn(labels)] = true
		}
		fg := New(n)
		for _, e := range g.Edges() {
			if e.From < e.To && !cut[e.Label] {
				fg.AddBiEdge(e.From, e.To, e.Weight, e.Label)
			}
		}
		src, dst := Node(rng.Intn(n)), Node(rng.Intn(n))
		k := 1 + rng.Intn(8)
		maxW := 0.0
		if rng.Intn(3) == 0 {
			maxW = float64(2 + rng.Intn(6))
		}
		got := g.KShortestPaths(src, dst, k, maxW, func(id int) bool { return cut[g.Edge(id).Label] })
		want := fg.KShortestPaths(src, dst, k, maxW, nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d masked paths, %d on the filtered copy", trial, len(got), len(want))
		}
		for i := range got {
			gl, wl := labelsOf(g, got[i]), labelsOf(fg, want[i])
			if !slices.Equal(gl, wl) || got[i].Weight != want[i].Weight {
				t.Fatalf("trial %d path %d: masked %v (%g), filtered %v (%g)", trial, i, gl, got[i].Weight, wl, want[i].Weight)
			}
		}
	}
}

// refHeap is a container/heap queue over the same items, the reference for
// minHeap's pop order.
type refHeap []pqItem

func (q refHeap) Len() int            { return len(q) }
func (q refHeap) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refHeap) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refHeap) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refHeap) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// TestMinHeapMatchesContainerHeap checks that minHeap pops items, ties
// included, in exactly container/heap's order. Dijkstra's choice among
// equal-distance nodes, and so the paths it returns, depends on that order.
func TestMinHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var h minHeap
		ref := &refHeap{}
		for op := 0; op < 200; op++ {
			if len(h) > 0 && rng.Intn(3) == 0 {
				got, want := h.pop(), heap.Pop(ref).(pqItem)
				if got != want {
					t.Fatalf("trial %d op %d: popped %+v, container/heap popped %+v", trial, op, got, want)
				}
				continue
			}
			it := pqItem{node: Node(op), dist: float64(rng.Intn(5))}
			h.push(it)
			heap.Push(ref, it)
		}
	}
}
