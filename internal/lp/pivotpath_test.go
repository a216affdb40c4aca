package lp

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updatePivotGolden = flag.Bool("update", false, "rewrite the golden pivot-path file")

// pivotPathGolden pins the exact pivot path of the kernel. Every line is one
// solve: status, pivots, phase-1 pivots, refactorisations, the objective's
// bits and FNV-64 hashes of the bits of X and Duals. Kernel changes that only
// make FTRAN/BTRAN/factorisation cheaper keep the arithmetic that decides a
// pivot in the same order on the same operands, so they must leave this file
// untouched; a change that moves a pivot shows up here as a diff.
const pivotPathGolden = "testdata/pivot_path.golden"

// pivotLine renders the pin line of one solve.
func pivotLine(name string, sol *Solution, rec *healthFakeRecorder) string {
	line := fmt.Sprintf("%s status=%v iters=%d p1=%d refac=%d obj=%016x x=%016x duals=%016x",
		name, sol.Status, sol.Iterations, rec.counters["lp.phase1_pivots"], rec.counters["lp.refactorizations"],
		math.Float64bits(sol.Objective), hashFloatBits(sol.X), hashFloatBits(sol.Duals))
	if w := sol.Warm; w != nil {
		line += fmt.Sprintf(" warm=%t/%d/%t/%d", w.Accepted, w.Repairs, w.Phase1Skipped, w.PivotsSaved)
	}
	return line
}

func hashFloatBits(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range v {
		u := math.Float64bits(f)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// networkFlowModel is a max-flow LP over a ring with chords: one EQ
// conservation row per node, arcs to the next three nodes, and a value
// variable from node 0 to the opposite node. Big enough to refactorise.
func networkFlowModel(rng *rand.Rand, nodes int) (*Model, Var) {
	type arc struct {
		from, to int
		v        Var
	}
	m := NewModel("network")
	m.SetMaximize(true)
	var arcs []arc
	for i := 0; i < nodes; i++ {
		for d := 1; d <= 3; d++ {
			j := (i + d) % nodes
			v := m.AddVar(0, float64(5+rng.Intn(10)), 0, "arc")
			arcs = append(arcs, arc{i, j, v})
		}
	}
	t0 := m.AddVar(0, Inf, 1, "value")
	for n := 0; n < nodes; n++ {
		var e Expr
		for _, a := range arcs {
			if a.to == n {
				e = e.Plus(1, a.v)
			}
			if a.from == n {
				e = e.Plus(-1, a.v)
			}
		}
		switch n {
		case 0:
			e = e.Plus(1, t0)
		case nodes / 2:
			e = e.Plus(-1, t0)
		}
		m.AddConstr(e, EQ, 0, "conserve")
	}
	return m, t0
}

// randomBoxedModel is a small boxed LP with mixed senses, integral data and
// a random optimisation sense; some instances are infeasible.
func randomBoxedModel(rng *rand.Rand) *Model {
	n := 2 + rng.Intn(6)
	mr := 1 + rng.Intn(6)
	m := NewModel("boxed")
	m.SetMaximize(rng.Intn(2) == 0)
	vars := make([]Var, n)
	for j := range vars {
		lb := float64(rng.Intn(7) - 3)
		vars[j] = m.AddVar(lb, lb+float64(1+rng.Intn(6)), float64(rng.Intn(11)-5), "v")
	}
	for i := 0; i < mr; i++ {
		var e Expr
		for _, v := range vars {
			if rng.Float64() < 0.7 {
				e = e.Plus(float64(rng.Intn(9)-4), v)
			}
		}
		m.AddConstr(e, []Sense{LE, GE, EQ}[rng.Intn(3)], float64(rng.Intn(21)-10), "r")
	}
	return m
}

// pivotPathLines runs the seeded case table and returns one pin line per
// solve.
func pivotPathLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	add := func(name string, solve func(*Options) (*Solution, error)) *Solution {
		t.Helper()
		rec := newHealthFakeRecorder()
		sol, err := solve(&Options{Recorder: rec})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, pivotLine(name, sol, rec))
		return sol
	}
	cold := func(m *Model) func(*Options) (*Solution, error) {
		return func(o *Options) (*Solution, error) { return Solve(m, o) }
	}
	warm := func(m *Model, b *Basis) func(*Options) (*Solution, error) {
		return func(o *Options) (*Solution, error) { return SolveWithBasis(m, b, o) }
	}

	rng := rand.New(rand.NewSource(101))
	for i := 0; i < 40; i++ {
		add(fmt.Sprintf("boxed/%d", i), cold(randomBoxedModel(rng)))
	}

	// Large sparse network LPs: many eta columns with exact zeros, periodic
	// and (with a short refactor period) frequent refactorisations.
	net, _ := networkFlowModel(rand.New(rand.NewSource(35)), 60)
	netSol := add("network/60", cold(net))
	add("network/60/refactor5", func(o *Options) (*Solution, error) {
		o.Refactor = 5
		return Solve(net, o)
	})
	add("network/60/health", func(o *Options) (*Solution, error) {
		o.HealthEvery = 7
		return Solve(net, o)
	})
	big, _ := networkFlowModel(rand.New(rand.NewSource(36)), 120)
	add("network/120", cold(big))
	rwa := benchWarmModel(240, 120, 42)
	add("rwa/cold", cold(rwa))
	add("rwa/slack", warm(rwa, SlackBasis(rwa)))

	// Warm path: phase-1 skip (slack basis of an LE model, then a re-solve
	// after an objective change, which keeps the basis primal feasible),
	// then a re-solve after loosening every row.
	le := benchWarmModel(80, 50, 7)
	leSol := add("skip/base", warm(le, SlackBasis(le)))
	for j := 0; j < le.NumVars(); j += 3 {
		le.SetObj(Var(j), le.Obj(Var(j))+0.05)
	}
	add("skip/resolve", warm(le, leSol.Basis))
	for i := 0; i < le.NumConstrs(); i++ {
		le.SetRHS(Constr(i), le.RHS(Constr(i))+0.25)
	}
	add("rhs/resolve", warm(le, leSol.Basis))

	// Warm path: selective slack swap (rows appended violated at the warm
	// vertex).
	chain, vars := chainModel(40)
	chainSol := add("swap/base", warm(chain, SlackBasis(chain)))
	for i := 0; i+2 < len(vars); i += 3 {
		chain.AddConstr(Expr{}.Plus(1, vars[i]).Plus(1, vars[i+1]).Plus(1, vars[i+2]), LE, 11, "trio")
	}
	swapBasis := chainSol.Basis.Clone()
	swapBasis.ExtendTo(chain)
	add("swap/resolve", warm(chain, swapBasis))

	// Warm path: projection fallback (the network's flow value basic, then
	// capacity cuts that push structural basics out of bounds).
	for j := 0; j < net.NumVars()-1; j += 4 {
		lb, ub := net.Bounds(Var(j))
		net.SetBounds(Var(j), lb, ub/3)
	}
	add("project/network", warm(net, netSol.Basis))

	// Warm path: AppendColumn + Basis.ExtendTo onto a truncated skeleton.
	cm, cv := chainModel(12)
	baseRows := cm.NumConstrs()
	cm.AddConstr(Expr{}.Plus(1, cv[0]).Plus(1, cv[2]), LE, 9, "blk0")
	grown := add("append/grown", warm(cm, SlackBasis(cm)))
	cm.TruncateConstrs(baseRows)
	skel := grown.Basis.Clone()
	skel.RowStatus = skel.RowStatus[:baseRows]
	c := cm.AddConstr(Expr{}.Plus(1, cv[1]).Plus(1, cv[3]).Plus(1, cv[5]), LE, 14, "blk1")
	cm.AppendColumn(skel, 0, 2, 0, "relax", []ColumnEntry{{Constr: c, Coef: -1}})
	cm.AppendColumn(skel, 0, Inf, 2.5, "bypass", []ColumnEntry{{Constr: 0, Coef: 1}, {Constr: c, Coef: 1}})
	skel.ExtendTo(cm)
	add("append/resolve", warm(cm, skel))

	// Warm path: a singular warm basis patched with slacks during the
	// factorisation.
	sing := NewModel("singular")
	sing.SetMaximize(true)
	sx := sing.AddVar(0, 5, 1, "x")
	sy := sing.AddVar(0, 5, 1, "y")
	sing.AddConstr(Expr{}.Plus(1, sx).Plus(1, sy), LE, 6, "r1")
	sing.AddConstr(Expr{}.Plus(2, sx).Plus(2, sy), LE, 20, "r2")
	add("patch/singular", warm(sing, &Basis{
		VarStatus: []BasisStatus{BasisBasic, BasisBasic},
		RowStatus: []BasisStatus{BasisAtLower, BasisAtLower},
	}))

	// Randomised warm re-solves after RHS and bound perturbations: a mix of
	// every warm path.
	wrng := rand.New(rand.NewSource(7001))
	for i := 0; i < 30; i++ {
		m := randomWarmModel(wrng, "prop")
		base, err := Solve(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if base.Status != StatusOptimal {
			continue
		}
		for r := 0; r < m.NumConstrs(); r++ {
			if m.ConstrSense(Constr(r)) != EQ && wrng.Float64() < 0.5 {
				m.SetRHS(Constr(r), m.RHS(Constr(r))+wrng.NormFloat64())
			}
		}
		for j := 0; j < m.NumVars(); j++ {
			if wrng.Float64() < 0.3 {
				lb, ub := m.Bounds(Var(j))
				m.SetBounds(Var(j), lb, math.Max(lb, ub+wrng.NormFloat64()))
			}
		}
		add(fmt.Sprintf("perturb/%d", i), warm(m, base.Basis))
	}
	return lines
}

// TestPivotPathPinned compares the pivot path of every case against the
// committed golden file. Regenerate it with
//
//	go test ./internal/lp -run TestPivotPathPinned -update
//
// only when a change is meant to move pivots.
func TestPivotPathPinned(t *testing.T) {
	got := strings.Join(pivotPathLines(t), "\n") + "\n"
	path := filepath.FromSlash(pivotPathGolden)
	if *updatePivotGolden {
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
