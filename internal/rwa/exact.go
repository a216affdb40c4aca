package rwa

import (
	"fmt"

	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/mip"
)

// SolveExact solves the wavelength-assignment problem of Appendix A.2 as an
// ILP (binary xi variables) instead of the LP relaxation, returning the
// true maximum number of restorable wavelengths per failed link. It shares
// the routing step with Solve.
//
// The ILP is NP-hard and only intended for small instances: it is the
// ground truth used to validate that (a) the LP relaxation upper-bounds it
// and (b) the greedy integral assignment achieves it on practical cases.
func SolveExact(req *Request, opts *mip.Options) (*Result, error) {
	// Reuse the routing and slot preparation from the relaxed solve.
	res, err := Solve(req)
	if err != nil {
		return nil, err
	}
	if len(res.Failed) == 0 {
		return res, nil
	}

	am := newAssignmentModel(req, res, "rwa-exact", true)
	if am == nil {
		return res, nil
	}
	sol, err := mip.Solve(am.m, opts)
	if err != nil {
		return nil, fmt.Errorf("rwa exact: %w", err)
	}
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("rwa exact: status %v", sol.Status)
	}
	out := &Result{
		Req: req, Failed: res.Failed, OrigWaves: res.OrigWaves,
		GbpsPerWave: res.GbpsPerWave, Options: res.Options,
	}
	out.FracWaves = make([]float64, len(res.Failed))
	for li := range res.Failed {
		out.FracWaves[li] = am.linkWaves(sol.X, li)
		out.Objective += out.FracWaves[li]
	}
	return out, nil
}
