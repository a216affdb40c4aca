package rwa_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/arrow-te/arrow/internal/graph"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/spectrum"
	"github.com/arrow-te/arrow/internal/ticket"
	"github.com/arrow-te/arrow/internal/topo"
)

var updateRWAGolden = flag.Bool("update", false, "rewrite the golden RWA file")

// rwaGolden pins the exact output of the RWA stage. Every solve line holds
// the failed links, every surrogate option (fibers, length bits, modulation,
// slots), the bits of FracWaves and Objective, the composed-variable count,
// the LP's pivots, an FNV-64 hash of the sorted VarBasis and the greedy
// integral counts; ticket lines hold ticket.Generate output at a fixed seed.
// A change that only makes the RWA build cheaper keeps the same surrogate
// paths and the same LP, so it must leave this file untouched.
const rwaGolden = "testdata/rwa.golden"

// pivotCounter is a Recorder that keeps only the LP's pivot counter.
type pivotCounter struct{ pivots int64 }

func (c *pivotCounter) Add(name string, d int64) {
	if name == "lp.pivots" {
		c.pivots += d
	}
}
func (c *pivotCounter) Gauge(string, float64)                            {}
func (c *pivotCounter) Observe(string, float64)                          {}
func (c *pivotCounter) SpanDone(string, int64, time.Time, time.Duration) {}

// goldenNetworks returns the pinned networks with the SRLGs used for triple
// cuts: seeded B4 and IBM, the synthetic Facebook backbone, and a random
// multigraph with integer lengths so equal-length surrogate paths are common.
func goldenNetworks(t *testing.T) []goldenNet {
	t.Helper()
	var out []goldenNet
	for _, c := range []struct {
		name  string
		seed  int64
		build func(int64) (*topo.Topology, error)
	}{{"b4", 3, topo.B4}, {"ibm", 5, topo.IBM}, {"facebook", 7, topo.Facebook}} {
		tp, err := c.build(c.seed)
		if err != nil {
			t.Fatal(err)
		}
		gn := goldenNet{name: c.name, net: tp.Opt}
		for _, g := range tp.SRLGs {
			gn.srlgs = append(gn.srlgs, g.Fibers)
		}
		out = append(out, gn)
	}
	for seed := int64(1); seed <= 2; seed++ {
		out = append(out, goldenNet{name: fmt.Sprintf("random%d", seed), net: randomNetwork(t, seed)})
	}
	return out
}

type goldenNet struct {
	name  string
	net   *optical.Network
	srlgs [][]int
}

// randomNetwork builds a ring-plus-chords optical network with lengths in
// {400, 800, 1200} km (parallel fibers included) and provisions IP links
// along shortest paths on random first-fit slots with random modulations.
func randomNetwork(t *testing.T, seed int64) *optical.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nodes, slots = 9, 12
	n := optical.NewNetwork(nodes, slots)
	for i := 0; i < nodes; i++ {
		n.AddFiber(optical.ROADM(i), optical.ROADM((i+1)%nodes), float64(400*(1+rng.Intn(3))))
	}
	for c := 0; c < nodes; c++ {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		if a != b {
			n.AddFiber(optical.ROADM(a), optical.ROADM(b), float64(400*(1+rng.Intn(3))))
		}
	}
	g := n.Graph()
	for l := 0; l < 2*nodes; l++ {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		if a == b {
			continue
		}
		p, ok := g.ShortestPath(graph.Node(a), graph.Node(b), nil)
		if !ok {
			continue
		}
		var fibers []int
		for _, id := range p.Edges {
			fibers = append(fibers, g.Edge(id).Label)
		}
		mod := spectrum.Table6[rng.Intn(len(spectrum.Table6))]
		var waves []optical.Lightpath
		for s := 0; s < slots && len(waves) < 1+rng.Intn(3); s++ {
			free := true
			for _, f := range fibers {
				free = free && n.Fibers[f].Slots.Available(s)
			}
			if free && rng.Intn(2) == 0 {
				waves = append(waves, optical.Lightpath{Slot: s, Modulation: mod, FiberPath: fibers})
			}
		}
		if len(waves) == 0 {
			continue
		}
		if _, err := n.Provision(optical.ROADM(a), optical.ROADM(b), waves); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// goldenCuts picks the pinned cut sets: up to maxSingles single cuts, pairs
// of consecutive singles, triples of consecutive singles, and for every SRLG
// a triple of its fibers plus one fiber outside it (at most six SRLGs,
// spread evenly over the list).
func goldenCuts(gn goldenNet, maxSingles int) (singles []int, multi [][]int) {
	nf := len(gn.net.Fibers)
	stride := 1
	if nf > maxSingles {
		stride = nf / maxSingles
	}
	for f := 0; f < nf && len(singles) < maxSingles; f += stride {
		singles = append(singles, f)
	}
	for i := 0; i+1 < len(singles); i += 2 {
		multi = append(multi, []int{singles[i], singles[i+1]})
	}
	for i := 0; i+2 < len(singles); i += 3 {
		multi = append(multi, []int{singles[i], singles[i+1], singles[i+2]})
	}
	gstride := 1 + len(gn.srlgs)/6
	for gi := 0; gi < len(gn.srlgs); gi += gstride {
		g := gn.srlgs[gi]
		extra := (g[0] + 3 + gi) % nf
		for in(g, extra) {
			extra = (extra + 1) % nf
		}
		multi = append(multi, append(append([]int(nil), g...), extra))
	}
	return singles, multi
}

func in(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// rwaLine renders the pin line of one solve.
func rwaLine(name string, res *rwa.Result, pivots int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s failed=%v", name, res.Failed)
	for i := range res.Failed {
		fmt.Fprintf(&b, " | l%d orig=%d frac=%016x gbps=%g", res.Failed[i], res.OrigWaves[i],
			math.Float64bits(res.FracWaves[i]), res.GbpsPerWave[i])
		for _, o := range res.Options[i] {
			fmt.Fprintf(&b, " {%v %016x %s %s}", o.Fibers, math.Float64bits(o.LengthKm), o.Modulation.Name, slotRanges(o.Slots))
		}
	}
	fmt.Fprintf(&b, " | obj=%016x composed=%d pivots=%d basis=%016x integral=%v",
		math.Float64bits(res.Objective), res.ComposedVars, pivots, hashVarBasis(res.VarBasis), rwa.MaxIntegralWaves(res))
	return b.String()
}

// slotRanges renders an ascending slot list as comma-separated runs, e.g.
// "0-3,7".
func slotRanges(slots []int) string {
	var b strings.Builder
	for i := 0; i < len(slots); {
		j := i
		for j+1 < len(slots) && slots[j+1] == slots[j]+1 {
			j++
		}
		if i > 0 {
			b.WriteByte(',')
		}
		if j > i {
			fmt.Fprintf(&b, "%d-%d", slots[i], slots[j])
		} else {
			fmt.Fprintf(&b, "%d", slots[i])
		}
		i = j + 1
	}
	return b.String()
}

// hashVarBasis hashes the exported basis in (link, path, slot) order.
func hashVarBasis(vb map[rwa.WarmKey]lp.BasisStatus) uint64 {
	keys := make([]rwa.WarmKey, 0, len(vb))
	for k := range vb {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Link != keys[b].Link {
			return keys[a].Link < keys[b].Link
		}
		if keys[a].Path != keys[b].Path {
			return keys[a].Path < keys[b].Path
		}
		return keys[a].Slot < keys[b].Slot
	})
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%d/%s/%d=%d;", k.Link, k.Path, k.Slot, vb[k])
	}
	return h.Sum64()
}

// rwaGoldenLines solves every pinned case and returns one line per solve
// and per ticket batch.
func rwaGoldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, gn := range goldenNetworks(t) {
		maxSingles := 12
		if gn.name == "facebook" {
			maxSingles = 6
		}
		singles, multi := goldenCuts(gn, maxSingles)
		for _, tuning := range []bool{false, true} {
			for _, modChange := range []bool{false, true} {
				prefix := fmt.Sprintf("%s/tune=%t/mod=%t", gn.name, tuning, modChange)
				solve := func(cut []int, warmFrom []*rwa.Result) *rwa.Result {
					rec := &pivotCounter{}
					res, err := rwa.Solve(&rwa.Request{
						Net: gn.net, Cut: cut, K: 3, AllowTuning: tuning, AllowModulationChange: modChange,
						Recorder: rec, WarmFrom: warmFrom, ExportBasis: true,
					})
					if err != nil {
						t.Fatalf("%s cut %v: %v", prefix, cut, err)
					}
					name := fmt.Sprintf("%s/cut=%v", prefix, cut)
					if len(warmFrom) > 0 {
						name += "/warm"
					}
					lines = append(lines, rwaLine(name, res, rec.pivots))
					return res
				}
				single := map[int]*rwa.Result{}
				for _, f := range singles {
					single[f] = solve([]int{f}, nil)
				}
				for _, cut := range multi {
					solve(cut, nil)
					var from []*rwa.Result
					for _, f := range cut {
						if r, ok := single[f]; ok {
							from = append(from, r)
						} else {
							from = append(from, solve([]int{f}, nil))
						}
					}
					res := solve(cut, from)
					if len(res.Failed) == 0 {
						continue
					}
					tks := ticket.Generate(res, ticket.Options{Count: 12, Seed: 11, CheckFeasibility: true, Dedup: true})
					var tl []string
					for _, tk := range tks {
						tl = append(tl, fmt.Sprint(tk.Waves))
					}
					lines = append(lines, fmt.Sprintf("%s/cut=%v/tickets %s", prefix, cut, strings.Join(tl, " ")))
				}
			}
		}
	}
	return lines
}

// TestRWAGoldenPinned compares every pinned RWA solve and ticket batch
// against the committed golden file. Regenerate it with
//
//	go test ./internal/rwa -run TestRWAGoldenPinned -update
//
// only when a change is meant to alter surrogate paths, the assignment LP
// or ticket generation.
func TestRWAGoldenPinned(t *testing.T) {
	got := strings.Join(rwaGoldenLines(t), "\n") + "\n"
	path := filepath.FromSlash(rwaGolden)
	if *updateRWAGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
