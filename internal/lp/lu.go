package lp

import (
	"errors"
	"math"
	"slices"
)

// errSingular is returned when the basis matrix cannot be factorised.
var errSingular = errors.New("lp: singular basis")

// spCol is one sparse column: parallel row-index and value slices.
type spCol struct {
	rows []int32
	vals []float64
}

func (c *spCol) add(row int, val float64) {
	c.rows = append(c.rows, int32(row))
	c.vals = append(c.vals, val)
}

func (c *spCol) reset() {
	c.rows = c.rows[:0]
	c.vals = c.vals[:0]
}

// luFactors is a sparse LU factorisation of an n*n basis matrix produced by
// left-looking elimination with partial pivoting (Gilbert–Peierls style).
//
// Columns of the basis are processed in an order chosen for sparsity
// (ascending nonzero count). Step k pivots original row rowOfPivot[k]. In
// pivot space, L is unit lower triangular and U upper triangular.
//
// One luFactors serves every refactorisation of a solve: factorizeInto
// rebuilds it in place, reusing the L/U column storage and workspaces.
type luFactors struct {
	n          int
	colOrder   []int   // colOrder[k] = basis position factored at step k
	rowOfPivot []int   // rowOfPivot[k] = original row pivoted at step k
	pinv       []int   // pinv[origRow] = pivot step, -1 while unpivoted
	lcols      []spCol // L column k: entries (origRow, multiplier), rows pivoted later
	ucols      []spCol // U column k: entries (pivotStep t<k, value)
	udiag      []float64

	// workspaces reused across solves and refactorisations
	work    []float64
	stack   []int32
	mark    []int32
	touched []int32
	dfsStep []int32 // reach's explicit DFS stack: pivot steps ...
	dfsNext []int32 // ... and the next L entry each one visits
	epoch   int32
}

// patchedCol records one singularity repair made by factorizeInto in repair
// mode: the basis position whose column was linearly dependent, and the row
// whose unit column was substituted in its place. A slack column is exactly
// such a unit column (slacks always carry coefficient +1), so the caller can
// realise the patch by installing the slack of that row.
type patchedCol struct {
	pos, row int
}

// factorize computes fresh LU factors of the matrix whose columns are
// cols[i] (each a sparse column over n rows).
func factorize(n int, cols []spCol) (*luFactors, error) {
	f := new(luFactors)
	if _, err := f.factorizeInto(n, cols, false); err != nil {
		return nil, err
	}
	return f, nil
}

// resize readies f for an n*n factorisation: storage is allocated on first
// use (or when n changes) and otherwise emptied in place.
func (f *luFactors) resize(n int) {
	if f.n != n || f.colOrder == nil {
		*f = luFactors{
			n:          n,
			colOrder:   make([]int, n),
			rowOfPivot: make([]int, n),
			pinv:       make([]int, n),
			lcols:      make([]spCol, n),
			ucols:      make([]spCol, n),
			udiag:      make([]float64, n),
			work:       make([]float64, n),
			stack:      make([]int32, 0, n),
			mark:       make([]int32, n),
			touched:    make([]int32, 0, 64),
			dfsStep:    make([]int32, 0, n),
			dfsNext:    make([]int32, 0, n),
		}
	}
	for k := 0; k < n; k++ {
		f.pinv[k] = -1
		f.lcols[k].reset()
		f.ucols[k].reset()
	}
}

// factorizeInto rebuilds f as the LU factors of the matrix whose columns are
// cols[i]. Columns are processed in ascending-nnz order; within a column the
// pivot is the largest-magnitude eligible entry.
//
// With repair set, a column with no eligible pivot (structurally or
// numerically dependent on the columns already factored) is replaced in
// place by the unit column of the lowest-index still-unpivoted row, which
// pivots trivially with value 1. Every substitution is reported so the
// caller can update its basis bookkeeping; the factors then describe the
// patched matrix exactly. Without repair such a column fails with
// errSingular.
func (f *luFactors) factorizeInto(n int, cols []spCol, repair bool) ([]patchedCol, error) {
	if len(cols) != n {
		return nil, errors.New("lp: basis is not square")
	}
	f.resize(n)
	var patched []patchedCol
	order := f.colOrder
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return len(cols[a].rows) - len(cols[b].rows)
	})

	w := f.work
	for k := 0; k < n; k++ {
		j := order[k]
		col := &cols[j]

		// Scatter the column and record its nonzero original rows.
		touched := f.touched[:0]
		for i, r := range col.rows {
			w[r] += col.vals[i] // += handles duplicate entries defensively
			touched = append(touched, r)
		}

		// Topological order of pivot steps reached from the column pattern.
		topo := f.reach(touched)

		// Numeric elimination in topological order.
		for idx := len(topo) - 1; idx >= 0; idx-- {
			t := int(topo[idx])
			pr := f.rowOfPivot[t]
			val := w[pr]
			if val == 0 {
				continue
			}
			lc := &f.lcols[t]
			for i, r := range lc.rows {
				ri := int(r)
				if w[ri] == 0 {
					touched = append(touched, r)
				}
				w[ri] -= lc.vals[i] * val
			}
		}
		f.touched = touched

		// Partial pivoting: largest-magnitude entry in an unpivoted row.
		pivRow, pivAbs := -1, 0.0
		for _, r := range touched {
			ri := int(r)
			if f.pinv[ri] >= 0 {
				continue
			}
			if a := math.Abs(w[ri]); a > pivAbs {
				pivAbs, pivRow = a, ri
			}
		}
		if pivRow < 0 || pivAbs < 1e-11 {
			// Clean up the workspace before failing or patching.
			for _, r := range touched {
				w[r] = 0
			}
			if !repair {
				return nil, errSingular
			}
			// Patch: pivot the unit column of the lowest-index unpivoted
			// row instead. Its single entry sits in an unpivoted row, so
			// the step completes with pivot value 1 and empty L/U columns.
			pr := -1
			for r := 0; r < n; r++ {
				if f.pinv[r] < 0 {
					pr = r
					break
				}
			}
			if pr < 0 {
				return nil, errSingular // unreachable: k < n pivots placed
			}
			patched = append(patched, patchedCol{pos: j, row: pr})
			f.rowOfPivot[k] = pr
			f.pinv[pr] = k
			f.udiag[k] = 1
			continue
		}
		pivVal := w[pivRow]
		f.rowOfPivot[k] = pivRow
		f.pinv[pivRow] = k
		f.udiag[k] = pivVal

		lc, uc := &f.lcols[k], &f.ucols[k]
		for _, r := range touched {
			ri := int(r)
			v := w[ri]
			w[ri] = 0
			if v == 0 || ri == pivRow {
				continue
			}
			if t := f.pinv[ri]; t >= 0 && t < k {
				if math.Abs(v) > 1e-14 {
					uc.add(t, v)
				}
			} else if f.pinv[ri] < 0 {
				if math.Abs(v/pivVal) > 1e-14 {
					lc.add(ri, v/pivVal)
				}
			}
		}
	}
	return patched, nil
}

// reach returns, as a stack (reverse topological order), the pivot steps
// reachable from the given original rows through the L structure. The
// depth-first search runs on an explicit stack (dfsStep/dfsNext) so it
// allocates nothing; children are visited in stored order and each step is
// emitted once all its children are.
func (f *luFactors) reach(rows []int32) []int32 {
	f.epoch++
	if f.epoch == math.MaxInt32 {
		for i := range f.mark {
			f.mark[i] = 0
		}
		f.epoch = 1
	}
	out := f.stack[:0]
	for _, r := range rows {
		p := f.pinv[r]
		if p < 0 || f.mark[p] == f.epoch {
			continue
		}
		f.mark[p] = f.epoch
		steps, next := append(f.dfsStep[:0], int32(p)), append(f.dfsNext[:0], 0)
		for len(steps) > 0 {
			top := len(steps) - 1
			lrows := f.lcols[steps[top]].rows
			i := next[top]
			for ; i < int32(len(lrows)); i++ {
				if q := f.pinv[lrows[i]]; q >= 0 && f.mark[q] != f.epoch {
					break
				}
			}
			if i == int32(len(lrows)) {
				out = append(out, steps[top])
				steps, next = steps[:top], next[:top]
				continue
			}
			next[top] = i + 1
			q := f.pinv[lrows[i]]
			f.mark[q] = f.epoch
			steps, next = append(steps, int32(q)), append(next, 0)
		}
		f.dfsStep, f.dfsNext = steps, next
	}
	f.stack = out
	return out
}

// solve computes x with B x = b. b is indexed by original row; the result is
// indexed by basis position. b is overwritten with scratch data.
func (f *luFactors) solve(b, x []float64) {
	n := f.n
	// Forward: L y = b (column-oriented), y in pivot-step space.
	y := b
	for t := 0; t < n; t++ {
		val := y[f.rowOfPivot[t]]
		if val == 0 {
			continue
		}
		lc := &f.lcols[t]
		for i, r := range lc.rows {
			y[r] -= lc.vals[i] * val
		}
	}
	// Backward: U z = y, z in pivot-step space (stored into work).
	z := f.work
	for k := n - 1; k >= 0; k-- {
		zk := y[f.rowOfPivot[k]] / f.udiag[k]
		z[k] = zk
		if zk == 0 {
			continue
		}
		uc := &f.ucols[k]
		for i, t := range uc.rows {
			y[f.rowOfPivot[t]] -= uc.vals[i] * zk
		}
	}
	for k := 0; k < n; k++ {
		x[f.colOrder[k]] = z[k]
		z[k] = 0
	}
}

// solveT computes y with Bᵀ y = c. c is indexed by basis position; the
// result is indexed by original row. c is left unmodified.
func (f *luFactors) solveT(c, y []float64) {
	n := f.n
	v := f.work
	// Forward: Uᵀ v = ĉ where ĉ_k = c[colOrder[k]].
	for k := 0; k < n; k++ {
		s := c[f.colOrder[k]]
		uc := &f.ucols[k]
		for i, t := range uc.rows {
			s -= uc.vals[i] * v[t]
		}
		v[k] = s / f.udiag[k]
	}
	// Backward: Lᵀ u = v (u overwrites v).
	for k := n - 1; k >= 0; k-- {
		s := v[k]
		lc := &f.lcols[k]
		for i, r := range lc.rows {
			s -= lc.vals[i] * v[f.pinv[r]]
		}
		v[k] = s
	}
	for t := 0; t < n; t++ {
		y[f.rowOfPivot[t]] = v[t]
		v[t] = 0
	}
}
