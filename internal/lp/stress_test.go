package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestIterationLimit verifies the solver reports StatusIterLimit instead of
// spinning when the budget is tiny.
func TestIterationLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := NewModel("iter-limit")
	m.SetMaximize(true)
	const n = 40
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = m.AddVar(0, 10, 1+rng.Float64(), "v")
	}
	for i := 0; i+1 < n; i++ {
		m.AddConstr(Expr{}.Plus(1, vars[i]).Plus(1, vars[i+1]), LE, 5, "pair")
	}
	sol, err := Solve(m, &Options{MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusIterLimit {
		t.Fatalf("status %v, want iteration-limit", sol.Status)
	}
}

// TestBadlyScaledLP exercises numerical robustness: coefficients spanning
// nine orders of magnitude.
func TestBadlyScaledLP(t *testing.T) {
	m := NewModel("scaled")
	m.SetMaximize(true)
	x := m.AddVar(0, Inf, 1e-6, "x")
	y := m.AddVar(0, Inf, 1e3, "y")
	m.AddConstr(Expr{}.Plus(1e6, x).Plus(1e-3, y), LE, 2e6, "mix")
	m.AddConstr(Expr{}.Plus(1, y), LE, 500, "ycap")
	sol, err := Solve(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	// Optimal: y = 500 (worth 5e5), then x = (2e6 - 0.5)/1e6 ~ 2.
	want := 1e3*500 + 1e-6*(2e6-1e-3*500)/1e6*1e6
	_ = want
	if sol.X[y] != 500 {
		t.Fatalf("y = %g", sol.X[y])
	}
	if v := m.MaxViolation(sol.X); v > 1e-4 {
		t.Fatalf("violation %g", v)
	}
}

// TestManyEqualityRows stresses phase 1 with a larger equality system.
func TestManyEqualityRows(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const n = 80
	m := NewModel("equalities")
	vars := make([]Var, n)
	target := make([]float64, n)
	for i := range vars {
		target[i] = float64(rng.Intn(10))
		vars[i] = m.AddVar(-100, 100, rng.Float64(), "v")
	}
	// Chain: v_i + v_{i+1} = target_i + target_{i+1} with v bound tight on
	// half the variables; solution v = target is feasible.
	for i := 0; i+1 < n; i++ {
		m.AddConstr(Expr{}.Plus(1, vars[i]).Plus(1, vars[i+1]), EQ, target[i]+target[i+1], "chain")
	}
	m.AddConstr(Expr{}.Plus(1, vars[0]), EQ, target[0], "pin")
	sol, err := Solve(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	// Pinning v0 and the chain fixes everything: check a few.
	for _, i := range []int{0, 1, n / 2, n - 1} {
		if math.Abs(sol.X[vars[i]]-target[i]) > 1e-6 {
			t.Fatalf("v[%d] = %g want %g", i, sol.X[vars[i]], target[i])
		}
	}
}

// TestRepeatedSolvesIndependent confirms a model can be solved repeatedly
// with identical results (no hidden state).
func TestRepeatedSolvesIndependent(t *testing.T) {
	m := NewModel("repeat")
	m.SetMaximize(true)
	x := m.AddVar(0, Inf, 2, "x")
	y := m.AddVar(0, Inf, 3, "y")
	m.AddConstr(Expr{}.Plus(1, x).Plus(2, y), LE, 14, "a")
	m.AddConstr(Expr{}.Plus(3, x).Plus(-1, y), GE, 0, "b")
	m.AddConstr(Expr{}.Plus(1, x).Plus(-1, y), LE, 2, "c")
	var prev *Solution
	for i := 0; i < 5; i++ {
		sol, err := Solve(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if sol.Objective != prev.Objective || sol.X[x] != prev.X[x] || sol.X[y] != prev.X[y] {
				t.Fatalf("solve %d differs: %v vs %v", i, sol.X, prev.X)
			}
		}
		prev = sol
	}
	// Known optimum: x=6, y=4, obj=24.
	if math.Abs(prev.Objective-24) > 1e-6 {
		t.Fatalf("objective %g want 24", prev.Objective)
	}
}

// TestZeroObjectiveFeasibility uses the solver as a pure feasibility oracle.
func TestZeroObjectiveFeasibility(t *testing.T) {
	m := NewModel("feasibility")
	x := m.AddVar(0, 10, 0, "x")
	y := m.AddVar(0, 10, 0, "y")
	m.AddConstr(Expr{}.Plus(1, x).Plus(1, y), EQ, 7, "sum")
	m.AddConstr(Expr{}.Plus(1, x).Plus(-1, y), GE, 1, "diff")
	sol, err := Solve(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if v := m.MaxViolation(sol.X); v > 1e-7 {
		t.Fatalf("violation %g", v)
	}
}

// TestLargeSparseNetworkLP runs a bigger network-flow-shaped instance to
// exercise refactorisation and eta accumulation.
func TestLargeSparseNetworkLP(t *testing.T) {
	m, t0 := networkFlowModel(rand.New(rand.NewSource(35)), 60)
	sol, err := Solve(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.X[t0] <= 0 {
		t.Fatalf("max flow %g", sol.X[t0])
	}
	if v := m.MaxViolation(sol.X); v > 1e-6 {
		t.Fatalf("violation %g", v)
	}
}

// randomWarmModel builds a random bounded LP that is feasible by
// construction (x = 0 satisfies every row: LE rows get rhs >= 0, GE rows
// rhs <= 0, and the occasional EQ row rhs 0).
func randomWarmModel(rng *rand.Rand, name string) *Model {
	m := NewModel(name)
	m.SetMaximize(rng.Intn(2) == 0)
	nv := 4 + rng.Intn(8)
	nr := 3 + rng.Intn(8)
	vars := make([]Var, nv)
	for j := range vars {
		obj := rng.NormFloat64() * 3
		vars[j] = m.AddVar(0, 1+rng.Float64()*9, obj, "v")
	}
	for i := 0; i < nr; i++ {
		var e Expr
		for j := range vars {
			if rng.Float64() < 0.5 {
				e = e.Plus(math.Round(rng.NormFloat64()*40)/10, vars[j])
			}
		}
		if len(e) == 0 {
			e = e.Plus(1, vars[rng.Intn(nv)])
		}
		switch rng.Intn(10) {
		case 0:
			m.AddConstr(e, EQ, 0, "eq")
		case 1, 2, 3:
			m.AddConstr(e, GE, -(1 + rng.Float64()*20), "ge")
		default:
			m.AddConstr(e, LE, 1+rng.Float64()*20, "le")
		}
	}
	return m
}

// TestWarmColdObjectivesAgree is the warm-start property test: across ~200
// random models, perturb the bounds and right-hand sides of a solved base
// model, then solve the perturbation cold and warm (from the base basis).
// Both must agree on status, agree on the objective within 1e-9, and both
// certificates must pass CheckCertificate. A second warm solve must also
// repeat the first one's pivot count exactly (determinism).
func TestWarmColdObjectivesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7001))
	agreed, skippedP1 := 0, 0
	for trial := 0; trial < 200; trial++ {
		m := randomWarmModel(rng, "prop")
		base, err := Solve(m, nil)
		if err != nil {
			t.Fatalf("trial %d base: %v", trial, err)
		}
		if base.Status != StatusOptimal {
			continue // random instance unbounded: no basis to reuse
		}
		// Perturb: shift some rhs and some upper bounds.
		for i := 0; i < m.NumConstrs(); i++ {
			if m.ConstrSense(Constr(i)) != EQ && rng.Float64() < 0.5 {
				m.SetRHS(Constr(i), m.RHS(Constr(i))+rng.NormFloat64())
			}
		}
		for j := 0; j < m.NumVars(); j++ {
			if rng.Float64() < 0.3 {
				lb, ub := m.Bounds(Var(j))
				m.SetBounds(Var(j), lb, math.Max(lb, ub+rng.NormFloat64()))
			}
		}
		cold, err := Solve(m, nil)
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		warm, err := SolveWithBasis(m, base.Basis, nil)
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v, cold %v", trial, warm.Status, cold.Status)
		}
		if cold.Status != StatusOptimal {
			continue
		}
		if diff := math.Abs(warm.Objective - cold.Objective); diff > 1e-9*(1+math.Abs(cold.Objective)) {
			t.Fatalf("trial %d: objectives differ by %g (warm %v, cold %v)", trial, diff, warm.Objective, cold.Objective)
		}
		if err := CheckCertificate(cold.Cert, 0); err != nil {
			t.Fatalf("trial %d cold certificate: %v", trial, err)
		}
		if err := CheckCertificate(warm.Cert, 0); err != nil {
			t.Fatalf("trial %d warm certificate: %v", trial, err)
		}
		again, err := SolveWithBasis(m, base.Basis, nil)
		if err != nil {
			t.Fatalf("trial %d warm repeat: %v", trial, err)
		}
		if again.Iterations != warm.Iterations {
			t.Fatalf("trial %d: warm pivot count not deterministic: %d vs %d", trial, warm.Iterations, again.Iterations)
		}
		agreed++
		if warm.Warm != nil && warm.Warm.Phase1Skipped {
			skippedP1++
		}
	}
	if agreed < 150 {
		t.Fatalf("only %d/200 trials reached an optimal comparison", agreed)
	}
	if skippedP1 == 0 {
		t.Fatal("no trial ever skipped phase 1: warm start is not engaging")
	}
	t.Logf("agreed=%d phase1Skipped=%d", agreed, skippedP1)
}
