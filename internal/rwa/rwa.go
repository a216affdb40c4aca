// Package rwa implements ARROW's Routing and Wavelength Assignment module
// (Appendix A.2 of the paper): given a fiber-cut scenario, it finds k
// surrogate fiber paths for each failed IP link (k-shortest paths bounded by
// modulation reach), then solves the relaxed wavelength-assignment LP
// (constraints 14–17) whose fractional solution seeds LotteryTicket
// generation. It also provides the integral greedy assignment used for
// ticket feasibility checking and for the restoration-ratio measurements of
// §2.3.
package rwa

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"github.com/arrow-te/arrow/internal/graph"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/spectrum"
)

// Request describes one RWA problem: restore the IP links failed by Cut.
type Request struct {
	Net *optical.Network
	Cut []int // fiber IDs cut in this scenario

	// K is the number of surrogate fiber paths per failed link (default 3).
	K int
	// AllowTuning permits transponder frequency retuning: a restored
	// wavelength may use any slot free end-to-end instead of only its
	// original slot (§5 "Other factors affecting the latency").
	AllowTuning bool
	// AllowModulationChange permits dropping to a lower-rate modulation when
	// the surrogate path exceeds the original format's reach (Appendix A.1).
	// When false, paths beyond the original reach are discarded.
	AllowModulationChange bool

	// Recorder receives per-solve metrics (failed links, surrogate path
	// options, LP effort) and is forwarded into the assignment LP. A nil
	// Recorder costs nothing and never changes the solution.
	Recorder obs.Recorder

	// NoWarm disables warm-starting the assignment LP from a slack basis.
	// The assignment LP is slack-feasible by construction (all rows are <=
	// with nonnegative rhs), so the warm start deterministically skips
	// phase 1; NoWarm exists for A/B comparison, not correctness.
	NoWarm bool

	// WarmFrom supplies already-solved constituent Results (typically the
	// single-fiber cuts making up this request's multi-fiber cut) whose
	// optimal assignments compositionally warm-start this solve. For each
	// failed link, the first source that also failed that link contributes
	// its chosen (path, slot) variables; the union is restricted to remain
	// feasible (no two adopted wavelengths share a fiber-slot, per-link
	// totals respect gamma_e), so the composed point always skips phase 1.
	// Sources must carry VarBasis (solved with ExportBasis). Composition is
	// a deterministic function of the request and sources alone: results
	// cannot vary with worker scheduling. Ignored when NoWarm is set.
	WarmFrom []*Result

	// ExportBasis makes the solve retain a canonical per-variable basis-
	// status map on the Result (Result.VarBasis) so it can serve as a
	// WarmFrom source for later, larger cut sets.
	ExportBasis bool

	// HealthEvery forwards the LP engine's numerical-health probe period
	// into the assignment LP (see lp.Options.HealthEvery). Zero keeps
	// probing off; the probes never change the solve.
	HealthEvery int
}

func (r *Request) k() int {
	if r.K <= 0 {
		return 3
	}
	return r.K
}

// PathOption is one usable surrogate restoration fiber path for a failed
// IP link, with the slots free end-to-end (wavelength continuity already
// applied) and the modulation the path length supports.
type PathOption struct {
	LinkID     int
	Fibers     []int
	LengthKm   float64
	Modulation spectrum.Modulation
	Slots      []int // ascending
}

// Result is the outcome of the relaxed RWA solve.
type Result struct {
	Req *Request
	// Failed lists the failed IP link IDs, defining the index order of all
	// per-link vectors (the "1..n" of Algorithm 1).
	Failed []int
	// FracWaves is the relaxed LP's (possibly fractional) restorable
	// wavelength count per failed link.
	FracWaves []float64
	// GbpsPerWave is the effective per-wavelength data rate used to convert
	// wavelength counts to bandwidth for each failed link (Algorithm 1
	// line 12). It is the most conservative modulation among the link's
	// usable surrogate paths.
	GbpsPerWave []float64
	// OrigWaves is gamma_e: the pre-failure wavelength count per failed link.
	OrigWaves []int
	// Options lists each failed link's surrogate path options.
	Options [][]PathOption
	// Objective is the LP's total restorable wavelength count.
	Objective float64
	// Health is the assignment LP's numerical-health report, present only
	// when Request.HealthEvery > 0 and the LP actually ran.
	Health *lp.HealthReport
	// VarBasis maps each assignment variable's canonical cross-model key to
	// its basis status at the LP optimum (variables nonbasic at lower bound
	// are omitted — they carry no information). Populated only when
	// Request.ExportBasis is set and the LP ran; it is what a later solve's
	// WarmFrom consumes.
	VarBasis map[WarmKey]lp.BasisStatus
	// Warm reports what the LP's warm-start machinery did (nil when the LP
	// was skipped or ran cold via NoWarm).
	Warm *lp.WarmInfo
	// ComposedVars counts the variables adopted from WarmFrom sources into
	// this solve's starting basis (0 on non-compositional solves).
	ComposedVars int
}

// WarmKey canonically identifies one assignment variable across solves of
// different cut sets: the failed IP link's global ID, the surrogate fiber
// path, and the spectrum slot. Local (link, path) indices differ between a
// single-cut and a multi-cut model, so compositional warm starts match
// variables by this key instead.
type WarmKey struct {
	Link int
	Path string // canonical fiber-path key, see pathKey
	Slot int
}

// pathKey renders a surrogate fiber path as a canonical map key, e.g.
// "[3 7 12]".
func pathKey(fibers []int) string {
	b := make([]byte, 0, 4*len(fibers)+2)
	b = append(b, '[')
	for i, f := range fibers {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(f), 10)
	}
	return string(append(b, ']'))
}

// Solve runs the two-step RWA: route surrogate paths, then solve the
// relaxed wavelength-assignment LP.
func Solve(req *Request) (*Result, error) {
	obs.Add(req.Recorder, "rwa.solves", 1)
	res := &Result{Req: req}
	res.Failed = req.Net.FailedLinks(req.Cut)
	if len(res.Failed) == 0 {
		return res, nil
	}
	obs.Observe(req.Recorder, "rwa.failed_links", float64(len(res.Failed)))
	spectra := req.Net.SpectrumUnderCut(req.Cut)
	cut := req.Net.CutMask(req.Cut)
	res.Options = make([][]PathOption, len(res.Failed))
	res.GbpsPerWave = make([]float64, len(res.Failed))
	res.OrigWaves = make([]int, len(res.Failed))
	res.FracWaves = make([]float64, len(res.Failed))

	for i, lid := range res.Failed {
		link := req.Net.LinkByID(lid)
		res.OrigWaves[i] = len(link.Waves)
		res.Options[i] = surrogatePaths(req, spectra, cut, link)
		// Effective modulation: most conservative usable path, defaulting
		// to the link's own modulation when no path exists.
		rate := linkModulation(link).GbpsPerWavelength
		for _, opt := range res.Options[i] {
			if opt.Modulation.GbpsPerWavelength < rate {
				rate = opt.Modulation.GbpsPerWavelength
			}
		}
		res.GbpsPerWave[i] = rate
		obs.Observe(req.Recorder, "rwa.surrogate_paths", float64(len(res.Options[i])))
	}

	if err := solveAssignmentLP(req, res); err != nil {
		return nil, err
	}
	return res, nil
}

// linkModulation returns the modulation of the link's first wavelength (the
// generator provisions homogeneous bundles, matching the paper's
// simplification in footnote 3).
func linkModulation(l *optical.IPLink) spectrum.Modulation {
	if len(l.Waves) == 0 {
		return spectrum.Table6[0]
	}
	return l.Waves[0].Modulation
}

// surrogatePaths computes up to K usable surrogate restoration paths for a
// failed link: k-shortest paths on the network's shared optical graph,
// skipping the edges of cut fibers (cut is indexed by fiber ID), bounded by
// modulation reach, each annotated with its continuity slots.
func surrogatePaths(req *Request, spectra []*spectrum.Bitmap, cut []bool, link *optical.IPLink) []PathOption {
	g := req.Net.Graph()
	edges := g.Edges()

	// Reach bound: with modulation change allowed, the most robust format's
	// reach bounds the search; otherwise the original modulation's reach.
	origMod := linkModulation(link)
	maxReach := origMod.ReachKm
	if req.AllowModulationChange {
		for _, m := range spectrum.Table6 {
			if m.ReachKm > maxReach {
				maxReach = m.ReachKm
			}
		}
	}

	paths := g.KShortestPaths(graph.Node(link.Src), graph.Node(link.Dst), req.k(), maxReach,
		func(id int) bool { return cut[edges[id].Label] })

	out := make([]PathOption, 0, len(paths))
	for _, p := range paths {
		mod := origMod
		if p.Weight > origMod.ReachKm {
			if !req.AllowModulationChange {
				continue
			}
			m, ok := spectrum.BestModulation(p.Weight)
			if !ok {
				continue
			}
			mod = m
		}
		fibers := make([]int, len(p.Edges))
		for i, eid := range p.Edges {
			fibers[i] = edges[eid].Label
		}
		slots := usableSlots(req, spectra, link, fibers)
		if len(slots) == 0 {
			continue
		}
		out = append(out, PathOption{
			LinkID: link.ID, Fibers: fibers, LengthKm: p.Weight,
			Modulation: mod, Slots: slots,
		})
	}
	return out
}

// usableSlots returns the slots free on every fiber of the path, ascending.
// Without frequency tuning, only the failed wavelengths' original slots
// qualify.
func usableSlots(req *Request, spectra []*spectrum.Bitmap, link *optical.IPLink, fibers []int) []int {
	free := func(s int) bool {
		for _, f := range fibers {
			if !spectra[f].Available(s) {
				return false
			}
		}
		return true
	}
	var out []int
	if req.AllowTuning {
		// Count first: results keep their slot lists for the whole plan,
		// so each gets exactly the room it needs.
		n := 0
		for s := range req.Net.SlotCount {
			if free(s) {
				n++
			}
		}
		if n == 0 {
			return nil
		}
		out = make([]int, 0, n)
		for s := range req.Net.SlotCount {
			if free(s) {
				out = append(out, s)
			}
		}
		return out
	}
	for _, w := range link.Waves {
		if free(w.Slot) {
			out = append(out, w.Slot)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// assignmentModel is the wavelength-assignment program of one Result
// (Appendix A.2, constraints 14–17), maximising the total restored
// wavelength count. Variables are laid out link by link, option by option,
// slot by slot: first[li][pi]+j is the variable of failed link li, path
// option pi and that option's j-th slot, and link li owns the variables
// from linkStart[li] up to linkStart[li+1]. Rows are the (fiber, slot) rows
// (14) in ascending (fiber, slot) order, then one gamma_e row (17) per link
// with variables, then, without tuning, one row per link and reused
// original slot in ascending slot order; every row lists its terms in
// variable order. Nothing reads row or variable names, so none are built.
type assignmentModel struct {
	m         *lp.Model
	first     [][]int
	linkStart []int
}

// newAssignmentModel builds the model with binary variables when binary is
// set and [0,1] ones otherwise. It returns nil when there is no variable.
func newAssignmentModel(req *Request, res *Result, name string, binary bool) *assignmentModel {
	slotCount := req.Net.SlotCount
	nOpts, nInc := 0, 0
	for _, opts := range res.Options {
		nOpts += len(opts)
		for _, opt := range opts {
			nInc += len(opt.Slots) * len(opt.Fibers)
		}
	}
	firstAll := make([]int, nOpts)
	first := make([][]int, len(res.Failed))
	linkStart := make([]int, len(res.Failed)+1)
	inc := make([]uint64, 0, nInc) // (14) incidences packed as (fiber*slotCount+slot)<<32 | var
	nVars := 0
	for li, opts := range res.Options {
		linkStart[li] = nVars
		first[li], firstAll = firstAll[:len(opts):len(opts)], firstAll[len(opts):]
		for pi, opt := range opts {
			first[li][pi] = nVars
			for _, s := range opt.Slots {
				for _, f := range opt.Fibers {
					inc = append(inc, uint64(f*slotCount+s)<<32|uint64(nVars))
				}
				nVars++
			}
		}
	}
	linkStart[len(res.Failed)] = nVars
	if nVars == 0 {
		return nil
	}
	slices.Sort(inc)

	// Size the model up front: one row per distinct (fiber, slot) key and
	// per link, and without tuning at most one orig-slot row per two
	// variables (each such row has at least two).
	rows, terms := len(res.Failed), len(inc)+nVars
	for i := range inc {
		if i == 0 || inc[i]>>32 != inc[i-1]>>32 {
			rows++
		}
	}
	if !req.AllowTuning {
		rows, terms = rows+nVars/2, terms+nVars
	}
	m := lp.NewModel(name)
	m.SetMaximize(true)
	m.Grow(nVars, rows, terms)
	for range nVars {
		if binary {
			m.AddBinVar(1, "")
		} else {
			m.AddVar(0, 1, 1, "")
		}
	}

	row := addKeyedRows(m, inc, 1, nil)
	for li := range res.Failed {
		if linkStart[li] == linkStart[li+1] {
			continue
		}
		row = row[:0]
		for v := linkStart[li]; v < linkStart[li+1]; v++ {
			row = row.Plus(1, lp.Var(v))
		}
		m.AddConstr(row, lp.LE, float64(res.OrigWaves[li]), "")
	}
	// Without tuning, each original slot can restore at most one of the
	// link's wavelengths across all paths.
	if !req.AllowTuning {
		for li, opts := range res.Options {
			inc = inc[:0]
			for pi, opt := range opts {
				for j, s := range opt.Slots {
					inc = append(inc, uint64(s)<<32|uint64(first[li][pi]+j))
				}
			}
			slices.Sort(inc)
			row = addKeyedRows(m, inc, 2, row)
		}
	}
	return &assignmentModel{m: m, first: first, linkStart: linkStart}
}

// linkWaves sums failed link li's variables at x, in variable order.
func (a *assignmentModel) linkWaves(x []float64, li int) float64 {
	total := 0.0
	for v := a.linkStart[li]; v < a.linkStart[li+1]; v++ {
		total += x[v]
	}
	return total
}

// solveAssignmentLP solves the relaxed wavelength-assignment LP (xi
// relaxed to [0,1]) and fills res's LP outputs.
func solveAssignmentLP(req *Request, res *Result) error {
	am := newAssignmentModel(req, res, "rwa", false)
	if am == nil {
		return nil // nothing restorable
	}
	m := am.m
	var lpo *lp.Options
	if req.Recorder != nil || req.HealthEvery > 0 {
		lpo = &lp.Options{Recorder: req.Recorder, HealthEvery: req.HealthEvery}
	}
	var sol *lp.Solution
	var err error
	if req.NoWarm {
		sol, err = lp.Solve(m, lpo)
	} else {
		// All rows are <= with nonnegative rhs, so the all-slack basis is
		// primal feasible and the warm start skips phase 1 entirely. With
		// WarmFrom sources, the slack basis is further seeded with the
		// constituent solves' chosen variables (restricted to stay
		// feasible), so phase 2 also starts near the composed optimum.
		basis := lp.SlackBasis(m)
		if len(req.WarmFrom) > 0 {
			res.ComposedVars = composeWarmBasis(req, basis, am.first, res)
			obs.Add(req.Recorder, "rwa.compose_adopted", int64(res.ComposedVars))
		}
		sol, err = lp.SolveWithBasis(m, basis, lpo)
	}
	if err != nil {
		return fmt.Errorf("rwa assignment LP: %w", err)
	}
	if sol.Status != lp.StatusOptimal {
		return fmt.Errorf("rwa assignment LP: status %v", sol.Status)
	}
	res.Health = sol.Health
	res.Warm = sol.Warm
	if req.ExportBasis && sol.Basis != nil {
		res.VarBasis = map[WarmKey]lp.BasisStatus{}
		for li, opts := range res.Options {
			for pi, opt := range opts {
				key := ""
				for j, s := range opt.Slots {
					st := sol.Basis.VarStatus[am.first[li][pi]+j]
					if st == lp.BasisAtLower {
						continue
					}
					if key == "" {
						key = pathKey(opt.Fibers)
					}
					res.VarBasis[WarmKey{Link: res.Failed[li], Path: key, Slot: s}] = st
				}
			}
		}
	}
	for li := range res.Failed {
		res.FracWaves[li] = math.Min(am.linkWaves(sol.X, li), float64(res.OrigWaves[li]))
		res.Objective += res.FracWaves[li]
	}
	return nil
}

// addKeyedRows takes incidences packed as key<<32 | var, sorted, and adds
// one "<= 1" row for every key with at least minTerms variables, in
// ascending key order with terms in variable order. row is reusable term
// storage; the grown storage is returned for the next call.
func addKeyedRows(m *lp.Model, inc []uint64, minTerms int, row lp.Expr) lp.Expr {
	for i := 0; i < len(inc); {
		key := inc[i] >> 32
		row = row[:0]
		for ; i < len(inc) && inc[i]>>32 == key; i++ {
			row = row.Plus(1, lp.Var(uint32(inc[i])))
		}
		if len(row) >= minTerms {
			m.AddConstr(row, lp.LE, 1, "")
		}
	}
	return row
}

// composeWarmBasis seeds a slack basis with the union of the WarmFrom
// sources' chosen assignment variables, restricted to stay primal feasible
// in the combined model. For each failed link the FIRST source that also
// failed it contributes: every variable the source's optimum held basic or
// at its upper bound is adopted AT UPPER (wavelength fully restored on that
// path and slot) provided no previously adopted variable already claims one
// of its fiber-slots, the link's gamma_e quota is not exhausted, and — in
// no-tuning mode — the original slot is not already reused. Those three
// guards are exactly constraints (14), (17) and the orig-slot rows, so the
// composed basic point is feasible by construction and SolveWithBasis skips
// phase 1. Variables unique to the multi-cut model (paths that traverse the
// other cut's fibers exist only in the singles) drop out naturally: their
// keys simply miss.
//
// The adoption order — links in Failed order, path options in rank order,
// slots in option order — and the first-match source rule are deterministic
// functions of the request alone, preserving the pipeline's reproducibility
// contract at any worker count. first is the assignmentModel's variable
// layout. Returns the number of adopted variables.
func composeWarmBasis(req *Request, basis *lp.Basis, first [][]int, res *Result) int {
	srcFor := make([]*Result, len(res.Failed))
	for i, lid := range res.Failed {
		for _, src := range req.WarmFrom {
			if src == nil || len(src.VarBasis) == 0 {
				continue
			}
			if slices.Contains(src.Failed, lid) {
				srcFor[i] = src
				break
			}
		}
	}
	slotCount := req.Net.SlotCount
	claimed := make([]bool, len(req.Net.Fibers)*slotCount) // fiber*slotCount+slot taken by adopted vars
	usedOrig := make([]bool, slotCount)                    // per-link original-slot guard (no tuning)
	adopted := 0
	for li := range res.Failed {
		src := srcFor[li]
		if src == nil {
			continue
		}
		quota := res.OrigWaves[li]
		clear(usedOrig)
	options:
		for pi, opt := range res.Options[li] {
			key := pathKey(opt.Fibers)
			for j, s := range opt.Slots {
				if quota <= 0 {
					break options
				}
				st, ok := src.VarBasis[WarmKey{Link: res.Failed[li], Path: key, Slot: s}]
				if !ok || (st != lp.BasisBasic && st != lp.BasisAtUpper) {
					continue
				}
				if !req.AllowTuning && usedOrig[s] {
					continue
				}
				if !fiberSlotFree(claimed, opt.Fibers, slotCount, s) {
					continue
				}
				for _, f := range opt.Fibers {
					claimed[f*slotCount+s] = true
				}
				basis.VarStatus[first[li][pi]+j] = lp.BasisAtUpper
				usedOrig[s] = true
				quota--
				adopted++
			}
		}
	}
	return adopted
}

// fiberSlotFree reports whether slot s is unclaimed on every fiber, with
// claimed indexed by fiber*slotCount+slot.
func fiberSlotFree(claimed []bool, fibers []int, slotCount, s int) bool {
	for _, f := range fibers {
		if claimed[f*slotCount+s] {
			return false
		}
	}
	return true
}

// Assignment is an integral wavelength assignment: for each failed link
// (by Result index), the chosen (path option, slot) pairs.
type Assignment struct {
	// PerLink[i] lists (pathIndex, slot) pairs for failed link i.
	PerLink [][][2]int
}

// Waves returns the number of restored wavelengths for failed link i.
func (a *Assignment) Waves(i int) int { return len(a.PerLink[i]) }

// AssignIntegral greedily constructs an integral assignment that restores
// target[i] wavelengths for failed link i (first-fit over paths and slots,
// links with fewest options first). It returns the assignment and whether
// every target was met. Targets are clamped to the link's original
// wavelength count. The greedy check is sound (a returned complete
// assignment is always physically feasible) but incomplete: it may fail on
// feasible targets; callers treat that as "ticket infeasible", matching the
// paper's conservative feasibility filter.
func AssignIntegral(res *Result, target []int) (*Assignment, bool) {
	n := len(res.Failed)
	net := res.Req.Net
	slotCount := net.SlotCount
	ints := make([]int, 3*n)
	wants, counts, order := ints[:n], ints[n:2*n], ints[2*n:]
	total := 0
	for i := range wants {
		wants[i] = max(min(target[i], res.OrigWaves[i]), 0)
		total += wants[i]
		order[i], counts[i] = i, SlotCapacity(res, i)
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(counts[x], counts[y]) })
	// Each link's picks get a window of one backing array sized to its
	// clamped target, the most the greedy pass picks for it.
	picks := make([][2]int, total)
	a := &Assignment{PerLink: make([][][2]int, n)}
	for i, w := range wants {
		a.PerLink[i], picks = picks[:0:w], picks[w:]
	}
	// used marks claimed fiber-slots (fiber*slotCount+slot); origSlot and
	// usedOrig flag the current link's original slots and which of them
	// are already reused (no-tuning guard).
	used := make([]bool, (len(net.Fibers)+2)*slotCount)
	used, flags := used[:len(net.Fibers)*slotCount], used[len(net.Fibers)*slotCount:]
	origSlot, usedOrig := flags[:slotCount], flags[slotCount:]

	ok := true
	for _, li := range order {
		want := wants[li]
		// Prefer the link's original frequencies: the paper keeps the same
		// slot whenever possible to avoid transponder retuning latency.
		clear(flags)
		for _, w := range net.LinkByID(res.Failed[li]).Waves {
			origSlot[w.Slot] = true
		}
		got := 0
		for pi, opt := range res.Options[li] {
			// Original slots first, then the rest, each group in ascending
			// slot order (opt.Slots is ascending).
			for _, orig := range [2]bool{true, false} {
				for _, s := range opt.Slots {
					if got >= want {
						break
					}
					if origSlot[s] != orig || (!res.Req.AllowTuning && usedOrig[s]) || !fiberSlotFree(used, opt.Fibers, slotCount, s) {
						continue
					}
					for _, f := range opt.Fibers {
						used[f*slotCount+s] = true
					}
					a.PerLink[li] = append(a.PerLink[li], [2]int{pi, s})
					usedOrig[s] = true
					got++
				}
			}
		}
		if got < want {
			ok = false
		}
	}
	return a, ok
}

// SlotCapacity returns an upper bound on the wavelengths failed link li can
// ever recover: the total (path, slot) pairs across its surrogate options,
// ignoring spectrum contention with other links. A rounding target above
// this bound is infeasible regardless of assignment order; a target within
// it that AssignIntegral still cannot realise failed on cross-link spectrum
// clashes instead.
func SlotCapacity(res *Result, li int) int {
	c := 0
	for _, opt := range res.Options[li] {
		c += len(opt.Slots)
	}
	return c
}

// MaxIntegralWaves runs the greedy assignment asking for every link's full
// wavelength count and returns the per-link restored counts. This is the
// integral analogue of the LP objective, used for restoration-ratio
// measurements (Fig. 6).
func MaxIntegralWaves(res *Result) []int {
	target := make([]int, len(res.Failed))
	copy(target, res.OrigWaves)
	a, _ := AssignIntegral(res, target)
	out := make([]int, len(res.Failed))
	for i := range out {
		out[i] = a.Waves(i)
	}
	return out
}

// RestorationRatio computes U_phi for cutting exactly fiber phi: restored
// bandwidth over provisioned bandwidth (1.0 when the fiber carries nothing).
func RestorationRatio(net *optical.Network, fiber int, k int, allowTuning, allowModChange bool) (float64, error) {
	res, err := Solve(&Request{Net: net, Cut: []int{fiber}, K: k, AllowTuning: allowTuning, AllowModulationChange: allowModChange})
	if err != nil {
		return 0, err
	}
	provisioned := 0.0
	for _, li := range res.Failed {
		provisioned += net.LinkByID(li).CapacityGbps()
	}
	if provisioned == 0 {
		return 1, nil
	}
	counts := MaxIntegralWaves(res)
	restored := 0.0
	for i := range res.Failed {
		restored += float64(counts[i]) * res.GbpsPerWave[i]
	}
	return restored / provisioned, nil
}
