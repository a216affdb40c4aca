package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestEtaFileMatchesDenseBasis drives FTRAN/BTRAN through a growing eta file,
// with a refactorisation part-way, and checks both against Gaussian
// elimination on the explicitly formed basis matrix after every basis change.
// The columns are sparse, so most eta columns carry exact zeros that the
// sparse eta file leaves out.
func TestEtaFileMatchesDenseBasis(t *testing.T) {
	const n, nv, steps, refactorAt = 30, 90, 40, 17
	rng := rand.New(rand.NewSource(5))
	m := NewModel("eta")
	vars := make([]Var, nv)
	for j := range vars {
		vars[j] = m.AddVar(0, 1, 0, "x")
	}
	rowTerms := make([]Expr, n)
	for _, v := range vars {
		for k := 0; k < 1+rng.Intn(3); k++ {
			coef := float64(rng.Intn(7) - 3)
			if coef == 0 {
				coef = 0.5
			}
			r := rng.Intn(n)
			rowTerms[r] = rowTerms[r].Plus(coef, v)
		}
	}
	for _, e := range rowTerms {
		m.AddConstr(e, LE, 1, "r")
	}
	sx, err := newSimplex(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sx.basisOf {
		sx.basisOf[i] = sx.nStr + i
		sx.posOf[sx.nStr+i] = i
	}
	if _, err := sx.factorBasis(false); err != nil {
		t.Fatal(err)
	}

	dense := func() (b, bt []float64) {
		b, bt = make([]float64, n*n), make([]float64, n*n)
		for pos, j := range sx.basisOf {
			c := &sx.cols[j]
			for i, r := range c.rows {
				b[int(r)*n+pos] += c.vals[i]
				bt[pos*n+int(r)] += c.vals[i]
			}
		}
		return b, bt
	}
	check := func(step int) {
		t.Helper()
		b, bt := dense()
		for trial := 0; trial < 4; trial++ {
			in := make([]float64, n)
			if trial == 0 {
				in[rng.Intn(n)] = 1 // sparse right-hand side: most etas see t == 0
			} else {
				for i := range in {
					in[i] = rng.NormFloat64()
				}
			}
			want, ok := denseSolve(n, b, in)
			if !ok {
				t.Fatalf("step %d: dense basis singular", step)
			}
			got := make([]float64, n)
			sx.ftran(append([]float64(nil), in...), got)
			assertClose(t, step, "ftran", got, want)

			wantT, _ := denseSolve(n, bt, in)
			gotT := make([]float64, n)
			sx.btran(in, gotT)
			assertClose(t, step, "btran", gotT, wantT)
		}
	}

	d := make([]float64, n)
	w := make([]float64, n)
	zerosDropped := false
	for step := 0; step < steps; step++ {
		if step == refactorAt {
			if _, err := sx.factorBasis(false); err != nil {
				t.Fatal(err)
			}
			if len(sx.etas) != 0 {
				t.Fatalf("refactorisation left %d etas", len(sx.etas))
			}
		}
		// Enter a random nonbasic structural column at the position of its
		// largest entry in basis coordinates.
		enter := rng.Intn(nv)
		if sx.posOf[enter] >= 0 {
			continue
		}
		for i := range w {
			w[i] = 0
		}
		c := &sx.cols[enter]
		for i, r := range c.rows {
			w[r] += c.vals[i]
		}
		sx.ftran(w, d)
		leave := 0
		for i := range d {
			if math.Abs(d[i]) > math.Abs(d[leave]) {
				leave = i
			}
		}
		if math.Abs(d[leave]) < 0.1 {
			continue
		}
		sx.pushEta(leave, d)
		if e := sx.etas[len(sx.etas)-1]; e.end-e.start < n-1 {
			zerosDropped = true
		}
		sx.posOf[sx.basisOf[leave]] = -1
		sx.basisOf[leave] = enter
		sx.posOf[enter] = leave
		check(step)
	}
	if !zerosDropped {
		t.Fatal("no eta column had an exact zero; the test does not cover the sparse path")
	}
	if sx.maxEtaDepth < 10 {
		t.Fatalf("eta file only reached depth %d", sx.maxEtaDepth)
	}
}

func assertClose(t *testing.T, step int, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Fatalf("step %d %s[%d] = %g, want %g", step, what, i, got[i], want[i])
		}
	}
}
