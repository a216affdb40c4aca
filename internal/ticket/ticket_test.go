package ticket

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/spectrum"
)

// fig7Result builds the paper's Fig. 7 scenario and returns its RWA result:
// two failed links (4 and 8 waves) with 5 restorable wavelengths total.
func fig7Result(t *testing.T) *rwa.Result {
	t.Helper()
	n := optical.NewNetwork(4, 12)
	n.AddFiber(0, 1, 100)
	n.AddFiber(0, 2, 100)
	n.AddFiber(2, 1, 100)
	n.AddFiber(0, 3, 100)
	n.AddFiber(3, 1, 100)
	mod := spectrum.Table6[0]
	mk := func(count, start int) []optical.Lightpath {
		var ws []optical.Lightpath
		for i := 0; i < count; i++ {
			ws = append(ws, optical.Lightpath{Slot: start + i, Modulation: mod, FiberPath: []int{0}})
		}
		return ws
	}
	if _, err := n.Provision(0, 1, mk(4, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Provision(0, 1, mk(8, 4)); err != nil {
		t.Fatal(err)
	}
	for _, f := range []int{1, 2} {
		for s := 0; s < 9; s++ {
			n.Fibers[f].Slots.Set(s, false)
		}
	}
	for _, f := range []int{3, 4} {
		for s := 0; s < 10; s++ {
			n.Fibers[f].Slots.Set(s, false)
		}
	}
	res, err := rwa.Solve(&rwa.Request{Net: n, Cut: []int{0}, K: 3, AllowTuning: true, AllowModulationChange: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGenerateBasicInvariants(t *testing.T) {
	res := fig7Result(t)
	tickets := Generate(res, Options{Count: 200, Stride: 2, Seed: 1})
	if len(tickets) != 200 {
		t.Fatalf("generated %d tickets", len(tickets))
	}
	for _, tk := range tickets {
		if len(tk.Waves) != len(res.Failed) {
			t.Fatalf("ticket size %d", len(tk.Waves))
		}
		for i, w := range tk.Waves {
			if w < 0 || w > res.OrigWaves[i] {
				t.Fatalf("wave count %d outside [0,%d]", w, res.OrigWaves[i])
			}
			if tk.Gbps[i] != float64(w)*res.GbpsPerWave[i] {
				t.Fatalf("Gbps inconsistent with waves")
			}
		}
	}
}

func TestGenerateDeterministicBySeed(t *testing.T) {
	res := fig7Result(t)
	a := Generate(res, Options{Count: 50, Stride: 3, Seed: 42})
	b := Generate(res, Options{Count: 50, Stride: 3, Seed: 42})
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("ticket %d differs across identical seeds", i)
		}
	}
	c := Generate(res, Options{Count: 50, Stride: 3, Seed: 43})
	same := true
	for i := range a {
		if a[i].Key() != c[i].Key() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical ticket streams")
	}
}

func TestGenerateFeasibleTicketsRespectSpectrum(t *testing.T) {
	res := fig7Result(t)
	tickets := Generate(res, Options{Count: 300, Stride: 3, Seed: 7, CheckFeasibility: true})
	if len(tickets) == 0 {
		t.Fatal("all tickets filtered out")
	}
	for _, tk := range tickets {
		// Only 5 wavelengths restorable in total in Fig. 7.
		if tk.Waves[0]+tk.Waves[1] > 5 {
			t.Fatalf("infeasible ticket survived: %v", tk.Waves)
		}
		if _, ok := rwa.AssignIntegral(res, tk.Waves); !ok {
			t.Fatalf("ticket %v not constructible", tk.Waves)
		}
	}
}

func TestGenerateDedup(t *testing.T) {
	res := fig7Result(t)
	tickets := Generate(res, Options{Count: 500, Stride: 2, Seed: 3, Dedup: true})
	seen := map[string]bool{}
	for _, tk := range tickets {
		if seen[tk.Key()] {
			t.Fatalf("duplicate ticket %v", tk.Waves)
		}
		seen[tk.Key()] = true
	}
	if len(tickets) >= 500 {
		t.Fatal("dedup removed nothing from 500 draws over a small space")
	}
}

func TestTicketDiversityCoversCandidates(t *testing.T) {
	// With enough draws, the generator should cover multiple distinct
	// restoration candidates including high-throughput ones — the premise
	// of the LotteryTicket design.
	res := fig7Result(t)
	tickets := Generate(res, Options{Count: 2000, Stride: 2, Seed: 9, CheckFeasibility: true, Dedup: true})
	if len(tickets) < 5 {
		t.Fatalf("only %d distinct feasible tickets", len(tickets))
	}
}

func TestRoundProbabilityMatchesMonteCarlo(t *testing.T) {
	// Property: the closed-form RoundProbability matches the empirical
	// frequency of roundOnce for many (lambda, orig, delta) combinations.
	cases := []struct {
		lambda float64
		orig   int
		delta  int
	}{
		{2.5, 4, 1}, {2.5, 4, 2}, {2.5, 4, 3},
		{0.3, 8, 2}, {6.7, 8, 2}, {7.9, 8, 3},
		{3.0, 4, 2}, {0.0, 4, 2}, {4.0, 4, 1},
		{1.0001e-10, 3, 2}, // effectively integral
	}
	const draws = 200000
	for _, c := range cases {
		rng := rand.New(rand.NewSource(17))
		counts := map[int]int{}
		for i := 0; i < draws; i++ {
			counts[roundOnce(rng, c.lambda, c.orig, c.delta)]++
		}
		totalP := 0.0
		for v := 0; v <= c.orig; v++ {
			want := RoundProbability(c.lambda, c.orig, v, c.delta)
			got := float64(counts[v]) / draws
			if math.Abs(got-want) > 0.01 {
				t.Fatalf("lambda=%g orig=%d delta=%d target=%d: empirical %g vs closed-form %g",
					c.lambda, c.orig, c.delta, v, got, want)
			}
			totalP += want
		}
		if math.Abs(totalP-1) > 1e-9 {
			t.Fatalf("lambda=%g orig=%d delta=%d: probabilities sum to %g", c.lambda, c.orig, c.delta, totalP)
		}
	}
}

func TestTheorem31(t *testing.T) {
	// Verify rho = 1 - (1-kappa)^|Z| empirically: probability that a batch
	// of |Z| tickets contains a chosen target vector.
	res := fig7Result(t)
	target := []int{2, 3} // a plausible optimal ticket (Fig. 7 candidate 1)
	if res.OrigWaves[0] != 4 {
		target = []int{3, 2}
	}
	delta := 2
	kappa := Kappa(res, target, delta)
	if kappa <= 0 || kappa >= 1 {
		t.Fatalf("kappa = %g out of range", kappa)
	}
	const zSize = 10
	rho := Rho(kappa, zSize)

	const batches = 3000
	hit := 0
	for b := 0; b < batches; b++ {
		tks := Generate(res, Options{Count: zSize, Stride: delta, Seed: int64(1000 + b)})
		for _, tk := range tks {
			if tk.Waves[0] == target[0] && tk.Waves[1] == target[1] {
				hit++
				break
			}
		}
	}
	got := float64(hit) / batches
	if math.Abs(got-rho) > 0.03 {
		t.Fatalf("empirical hit rate %g vs Theorem 3.1 rho %g (kappa %g)", got, rho, kappa)
	}
}

func TestRhoMonotonicInTickets(t *testing.T) {
	prev := 0.0
	for z := 1; z <= 256; z *= 2 {
		r := Rho(0.05, z)
		if r <= prev || r > 1 {
			t.Fatalf("rho(%d) = %g not increasing in (0,1]", z, r)
		}
		prev = r
	}
	if Rho(1, 1) != 1 || Rho(0, 100) != 0 {
		t.Fatal("rho edge cases wrong")
	}
}

func TestTotalGbps(t *testing.T) {
	tk := Ticket{Waves: []int{2, 3}, Gbps: []float64{200, 300}}
	if tk.TotalGbps() != 500 {
		t.Fatalf("total %g", tk.TotalGbps())
	}
}

func TestKeyIsCanonical(t *testing.T) {
	for _, waves := range [][]int{nil, {0}, {12, 0, 3}, {-1, 100000}} {
		tk := Ticket{Waves: waves}
		if got, want := tk.Key(), fmt.Sprint(waves); got != want {
			t.Fatalf("Key() = %q, want %q", got, want)
		}
	}
}
