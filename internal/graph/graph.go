// Package graph provides the directed multigraph and path algorithms used by
// both layers of the ARROW reproduction: the optical-layer fiber graph
// (ROADMs and fibers, where surrogate restoration paths are routed) and the
// IP-layer topology (sites and IP links, where TE tunnels are routed).
//
// It implements Dijkstra shortest paths and Yen's k-shortest loopless paths
// (used for surrogate fiber paths and tunnel selection), both of which skip
// caller-banned edges so one shared graph serves every failure scenario.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Node identifies a vertex.
type Node int

// Edge is one directed edge of a multigraph.
type Edge struct {
	ID     int // position in the graph's edge list
	From   Node
	To     Node
	Weight float64
	// Label carries the caller's identifier (e.g. fiber or IP-link index).
	Label int
}

// Graph is a directed multigraph. Add nodes implicitly by using them in
// AddEdge. Edges keep insertion order and stable IDs.
type Graph struct {
	n     int
	edges []Edge
	out   [][]int // node -> edge IDs
}

// New returns a graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{n: n, out: make([][]int, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns edge metadata by ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns all edges in insertion order. The slice is shared; treat it
// as read-only.
func (g *Graph) Edges() []Edge { return g.edges }

// AddEdge inserts a directed edge and returns its ID.
func (g *Graph) AddEdge(from, to Node, weight float64, label int) int {
	if from < 0 || int(from) >= g.n || to < 0 || int(to) >= g.n {
		panic(fmt.Sprintf("graph: edge %d->%d outside node range [0,%d)", from, to, g.n))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Weight: weight, Label: label})
	g.out[from] = append(g.out[from], id)
	return id
}

// AddBiEdge inserts a pair of opposite directed edges with the same label
// and returns their IDs.
func (g *Graph) AddBiEdge(a, b Node, weight float64, label int) (int, int) {
	return g.AddEdge(a, b, weight, label), g.AddEdge(b, a, weight, label)
}

// Out returns the IDs of edges leaving n. Read-only.
func (g *Graph) Out(n Node) []int { return g.out[n] }

// Path is a sequence of edge IDs with its total weight.
type Path struct {
	Edges  []int
	Weight float64
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node Node
	dist float64
}

// minHeap is a binary min-heap on dist. push and pop sift exactly like
// container/heap's Push and Pop, so equal-distance entries leave in the
// same order as they would from a container/heap queue.
type minHeap []pqItem

func (h *minHeap) push(it pqItem) {
	q := append(*h, it)
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

func (h *minHeap) pop() pqItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].dist < q[j].dist {
			j = j2
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// search holds Dijkstra's per-node state and queue so that the spur
// searches of one Yen's run reuse the same storage.
type search struct {
	dist []float64
	prev []int
	q    minHeap
}

// run settles nodes from src until dst, skipping banned edges (banned may
// be nil), and reports whether dst is reachable. dist[dst] is then the
// path weight and appendPath recovers the path.
func (s *search) run(g *Graph, src, dst Node, banned func(edgeID int) bool) bool {
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.prev[i] = -1
	}
	s.dist[src] = 0
	s.q = append(s.q[:0], pqItem{src, 0})
	for len(s.q) > 0 {
		it := s.q.pop()
		if it.dist > s.dist[it.node] {
			continue
		}
		if it.node == dst {
			break
		}
		for _, id := range g.out[it.node] {
			if banned != nil && banned(id) {
				continue
			}
			e := &g.edges[id]
			if e.Weight < 0 {
				panic("graph: negative edge weight")
			}
			if nd := it.dist + e.Weight; nd < s.dist[e.To] {
				s.dist[e.To] = nd
				s.prev[e.To] = id
				s.q.push(pqItem{e.To, nd})
			}
		}
	}
	return !math.IsInf(s.dist[dst], 1)
}

// appendPath appends the edge IDs of the path run found from src to dst.
func (s *search) appendPath(g *Graph, buf []int, src, dst Node) []int {
	hops := 0
	for at := dst; at != src; at = g.edges[s.prev[at]].From {
		hops++
	}
	buf = slices.Grow(buf, hops)[:len(buf)+hops]
	i := len(buf)
	for at := dst; at != src; at = g.edges[s.prev[at]].From {
		i--
		buf[i] = s.prev[at]
	}
	return buf
}

// ShortestPath returns the minimum-weight path from src to dst, skipping
// edges for which banned returns true (banned may be nil). ok is false when
// dst is unreachable.
func (g *Graph) ShortestPath(src, dst Node, banned func(edgeID int) bool) (Path, bool) {
	s := search{dist: make([]float64, g.n), prev: make([]int, g.n)}
	if !s.run(g, src, dst, banned) {
		return Path{}, false
	}
	return Path{Edges: s.appendPath(g, nil, src, dst), Weight: s.dist[dst]}, true
}

// KShortestPaths returns up to k loopless shortest paths from src to dst in
// ascending weight order (Yen's algorithm), skipping edges for which banned
// returns true (banned may be nil). maxWeight, if positive, prunes paths
// longer than it (used for modulation reach bounds). Searching with banned
// edges returns the same paths as searching a copy of the graph without
// them, as long as the copy keeps each node's remaining out-edges in order.
func (g *Graph) KShortestPaths(src, dst Node, k int, maxWeight float64, banned func(edgeID int) bool) []Path {
	if k <= 0 {
		return nil
	}
	within := func(w float64) bool { return maxWeight <= 0 || w <= maxWeight+1e-9 }
	s := search{dist: make([]float64, g.n), prev: make([]int, g.n)}
	if !s.run(g, src, dst, banned) || !within(s.dist[dst]) {
		return nil
	}
	accepted := make([]Path, 1, min(k, 16))
	accepted[0] = Path{Edges: s.appendPath(g, nil, src, dst), Weight: s.dist[dst]}
	var candidates []Path
	// Per-spur bans, cleared before each spur search.
	bannedEdges := make([]bool, len(g.edges)+g.n)
	bannedEdges, bannedNodes := bannedEdges[:len(g.edges)], bannedEdges[len(g.edges):]
	spurBanned := func(id int) bool {
		e := &g.edges[id]
		return bannedEdges[id] || bannedNodes[e.From] || bannedNodes[e.To] || (banned != nil && banned(id))
	}
	prevNodes := make([]Node, 0, g.n+1) // a loopless path visits each node at most once

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		if len(prev.Edges) == 0 {
			break // src == dst: the empty path is the only loopless one
		}
		prevNodes = append(prevNodes[:0], g.edges[prev.Edges[0]].From)
		for _, id := range prev.Edges {
			prevNodes = append(prevNodes, g.edges[id].To)
		}
		// Spur from each node of the previous path.
		for i := 0; i < len(prev.Edges); i++ {
			spurNode := prevNodes[i]
			rootEdges := prev.Edges[:i:i] // capped, so appendPath below copies it
			rootWeight := 0.0
			for _, id := range rootEdges {
				rootWeight += g.edges[id].Weight
			}
			clear(bannedEdges)
			clear(bannedNodes)
			// Ban edges that would recreate an accepted path with this root.
			for _, p := range accepted {
				if len(p.Edges) > i && slices.Equal(p.Edges[:i], rootEdges) {
					bannedEdges[p.Edges[i]] = true
				}
			}
			// Ban root nodes to keep paths loopless.
			for _, n := range prevNodes[:i] {
				bannedNodes[n] = true
			}
			if !s.run(g, spurNode, dst, spurBanned) {
				continue
			}
			weight := rootWeight + s.dist[dst]
			if !within(weight) {
				continue
			}
			total := Path{Edges: s.appendPath(g, rootEdges, spurNode, dst), Weight: weight}
			dup := false
			for _, c := range candidates {
				if slices.Equal(c.Edges, total.Edges) {
					dup = true
					break
				}
			}
			for _, a := range accepted {
				if slices.Equal(a.Edges, total.Edges) {
					dup = true
					break
				}
			}
			if !dup {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		slices.SortStableFunc(candidates, func(a, b Path) int { return cmp.Compare(a.Weight, b.Weight) })
		accepted = append(accepted, candidates[0])
		candidates = candidates[1:]
	}
	return accepted
}

// MaxFlow computes the maximum s->t flow with Edmonds-Karp (BFS augmenting
// paths). capacity gives each edge's capacity by edge ID; opposite directed
// edges are treated independently. Used for topology diagnostics (min-cut
// checks) and as a combinatorial cross-check of the LP solver.
func (g *Graph) MaxFlow(s, t Node, capacity func(edgeID int) float64) float64 {
	if s == t {
		return 0
	}
	residual := make([]float64, len(g.edges))
	for id := range g.edges {
		residual[id] = capacity(id)
	}
	// reverse[id] is the edge ID of the reverse residual arc; built lazily
	// as a virtual arc (flow pushed back along id).
	flowOn := make([]float64, len(g.edges))

	total := 0.0
	for {
		// BFS over residual graph: forward arcs with residual > 0, and
		// backward arcs with flow > 0.
		type step struct {
			edge    int
			forward bool
		}
		prev := make(map[Node]step, g.n)
		visited := make([]bool, g.n)
		visited[s] = true
		queue := []Node{s}
		found := false
		for len(queue) > 0 && !found {
			u := queue[0]
			queue = queue[1:]
			for _, id := range g.out[u] {
				e := &g.edges[id]
				if residual[id] > 1e-12 && !visited[e.To] {
					visited[e.To] = true
					prev[e.To] = step{id, true}
					if e.To == t {
						found = true
						break
					}
					queue = append(queue, e.To)
				}
			}
			if found {
				break
			}
			// Backward arcs: edges INTO u with positive flow.
			for id := range g.edges {
				e := &g.edges[id]
				if e.To == u && flowOn[id] > 1e-12 && !visited[e.From] {
					visited[e.From] = true
					prev[e.From] = step{id, false}
					if e.From == t {
						found = true
						break
					}
					queue = append(queue, e.From)
				}
			}
		}
		if !found {
			return total
		}
		// Find bottleneck.
		bottleneck := math.Inf(1)
		for at := t; at != s; {
			st := prev[at]
			e := &g.edges[st.edge]
			if st.forward {
				if residual[st.edge] < bottleneck {
					bottleneck = residual[st.edge]
				}
				at = e.From
			} else {
				if flowOn[st.edge] < bottleneck {
					bottleneck = flowOn[st.edge]
				}
				at = e.To
			}
		}
		for at := t; at != s; {
			st := prev[at]
			e := &g.edges[st.edge]
			if st.forward {
				residual[st.edge] -= bottleneck
				flowOn[st.edge] += bottleneck
				at = e.From
			} else {
				flowOn[st.edge] -= bottleneck
				residual[st.edge] += bottleneck
				at = e.To
			}
		}
		total += bottleneck
	}
}
