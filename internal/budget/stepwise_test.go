package budget

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
)

// TestStepwiseMatchesLazyGreedy: with nil hints a Stepwise run is
// LazyGreedy — identical picks, trace, cost, and oracle-call count — for
// every incremental-oracle problem family and worker count.
func TestStepwiseMatchesLazyGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		for name, p := range oracleProblems(rng) {
			for _, workers := range []int{1, 4} {
				opts := Options{Eps: 0.1, Workers: workers}
				want, errW := LazyGreedy(p, opts)
				s, err := NewStepwise(p, opts, nil)
				if err != nil {
					t.Fatalf("%s: NewStepwise: %v", name, err)
				}
				got, errG := s.Solve()
				if (errW == nil) != (errG == nil) {
					t.Fatalf("%s: feasibility disagreement: %v vs %v", name, errW, errG)
				}
				if errW != nil {
					continue
				}
				if !slices.Equal(want.Chosen, got.Chosen) {
					t.Fatalf("%s W%d: picks differ: %v vs %v", name, workers, want.Chosen, got.Chosen)
				}
				if math.Abs(want.Cost-got.Cost) > 1e-12 || want.Evals != got.Evals {
					t.Fatalf("%s W%d: cost/evals differ: %g/%d vs %g/%d",
						name, workers, want.Cost, want.Evals, got.Cost, got.Evals)
				}
			}
		}
	}
}

// TestStepwiseStepByStep: stepping manually yields one trace entry per
// Step, Done flips exactly when the target is reached, and the final
// result equals a one-shot Solve.
func TestStepwiseStepByStep(t *testing.T) {
	p := setCoverProblem(6,
		[][]int{{0, 1}, {2, 3}, {4, 5}, {0, 2, 4}},
		[]float64{1, 1, 1, 10})
	want, err := LazyGreedy(p, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStepwise(p, Options{Eps: 0.1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		st, ok, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		steps++
		if st.Subset != want.Chosen[steps-1] {
			t.Fatalf("step %d picked %d, want %d", steps, st.Subset, want.Chosen[steps-1])
		}
		if got := s.Result(); len(got.Chosen) != steps {
			t.Fatalf("result has %d picks after %d steps", len(got.Chosen), steps)
		}
	}
	if !s.Done() {
		t.Fatal("not done after Step returned ok=false")
	}
	if steps != len(want.Chosen) {
		t.Fatalf("took %d steps, want %d", steps, len(want.Chosen))
	}
	// Further steps are no-ops.
	if _, ok, err := s.Step(); ok || err != nil {
		t.Fatalf("post-done Step = (%v, %v)", ok, err)
	}
}

// TestStepwiseWarmHintsExact: seeding a second run with the first run's
// recorded initial gains (exact bounds, since nothing changed) reproduces
// the pick sequence with strictly fewer oracle calls — the initial
// full-sweep probe is skipped entirely.
func TestStepwiseWarmHintsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	saved := 0
	for trial := 0; trial < 8; trial++ {
		for name, p := range oracleProblems(rng) {
			cold, err := NewStepwise(p, Options{Eps: 0.1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, errC := cold.Solve()
			if errC != nil {
				continue
			}
			gains := cold.ZeroGains()
			hints := make([]Hint, 0, len(p.Subsets))
			for i := range p.Subsets {
				if math.IsNaN(gains[i]) {
					t.Fatalf("%s: cold run left subset %d unprobed", name, i)
				}
				hints = append(hints, Hint{Subset: i, GainBound: gains[i]})
			}
			warm, err := NewStepwise(p, Options{Eps: 0.1}, hints)
			if err != nil {
				t.Fatal(err)
			}
			got, errW := warm.Solve()
			if errW != nil {
				t.Fatalf("%s: warm run failed: %v", name, errW)
			}
			if !slices.Equal(want.Chosen, got.Chosen) {
				t.Fatalf("%s: warm picks differ: %v vs %v", name, want.Chosen, got.Chosen)
			}
			if got.Evals >= want.Evals {
				t.Fatalf("%s: warm run used %d evals, cold used %d", name, got.Evals, want.Evals)
			}
			saved++
		}
	}
	if saved == 0 {
		t.Fatal("no feasible trials exercised the warm path")
	}
}

// TestStepwiseWarmHintsInflated: loose (over-estimated) bounds still
// reproduce the exact pick sequence — lazy evaluation only needs upper
// bounds — they just cost extra revalidation probes.
func TestStepwiseWarmHintsInflated(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 6; trial++ {
		for name, p := range oracleProblems(rng) {
			want, errC := LazyGreedy(p, Options{Eps: 0.1})
			if errC != nil {
				continue
			}
			hints := make([]Hint, len(p.Subsets))
			for i := range p.Subsets {
				// Structural over-estimate: the whole threshold.
				hints[i] = Hint{Subset: i, GainBound: p.Threshold}
			}
			warm, err := NewStepwise(p, Options{Eps: 0.1}, hints)
			if err != nil {
				t.Fatal(err)
			}
			got, errW := warm.Solve()
			if errW != nil {
				t.Fatalf("%s: warm run failed: %v", name, errW)
			}
			if !slices.Equal(want.Chosen, got.Chosen) {
				t.Fatalf("%s: inflated-hint picks differ: %v vs %v", name, want.Chosen, got.Chosen)
			}
		}
	}
}

// TestStepwiseHintValidation: out-of-range and duplicate hints are
// rejected; subsets without hints are probed fresh and still picked.
func TestStepwiseHintValidation(t *testing.T) {
	p := setCoverProblem(4, [][]int{{0, 1}, {2, 3}}, []float64{1, 1})
	if _, err := NewStepwise(p, Options{Eps: 0.1}, []Hint{{Subset: 5, GainBound: 1}}); err == nil {
		t.Fatal("out-of-range hint accepted")
	}
	if _, err := NewStepwise(p, Options{Eps: 0.1},
		[]Hint{{Subset: 0, GainBound: 1}, {Subset: 0, GainBound: 2}}); err == nil {
		t.Fatal("duplicate hint accepted")
	}
	if _, err := NewStepwiseExact(p, Options{Eps: 0.1}, []float64{2}); err == nil {
		t.Fatal("exact gains for the wrong number of subsets accepted")
	}
	// Hint only subset 0; subset 1 must still be found and picked.
	s, err := NewStepwise(p, Options{Eps: 0.1}, []Hint{{Subset: 0, GainBound: 2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chosen) != 2 {
		t.Fatalf("picks = %v, want both subsets", res.Chosen)
	}
}

// TestStepwiseInfeasible: a run that cannot reach the threshold surfaces
// ErrInfeasible from Step and Solve alike.
func TestStepwiseInfeasible(t *testing.T) {
	p := setCoverProblem(4, [][]int{{0, 1}}, []float64{1})
	s, err := NewStepwise(p, Options{Eps: 0.1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestStepwiseExactGainsMatchLazyGreedy: seeding subsets with their exact
// initial gains (NewStepwiseExact) reproduces the self-probing run
// exactly — picks, cost, Evals (each exact gain billed as the probe it
// replaces) and the recorded zero gains — at every worker count, also
// when some gains are left NaN for the run to probe itself.
func TestStepwiseExactGainsMatchLazyGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 6; trial++ {
		for name, p := range oracleProblems(rng) {
			for _, workers := range []int{1, 4} {
				opts := Options{Eps: 0.1, Workers: workers}
				cold, err := NewStepwise(p, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, errW := cold.Solve()
				wantZero := cold.ZeroGains()
				gains := slices.Clone(wantZero)
				for i := trial % 3; trial%2 == 1 && i < len(gains); i += 3 {
					gains[i] = math.NaN()
				}
				s, err := NewStepwiseExact(p, opts, gains)
				if err != nil {
					t.Fatal(err)
				}
				got, errG := s.Solve()
				if (errW == nil) != (errG == nil) {
					t.Fatalf("%s W%d: feasibility disagreement: %v vs %v", name, workers, errW, errG)
				}
				if !slices.Equal(want.Chosen, got.Chosen) || want.Cost != got.Cost || want.Evals != got.Evals {
					t.Fatalf("%s W%d: exact-hint run %v (cost %g, %d evals), probing run %v (cost %g, %d evals)",
						name, workers, got.Chosen, got.Cost, got.Evals, want.Chosen, want.Cost, want.Evals)
				}
				if !slices.Equal(wantZero, s.ZeroGains()) {
					t.Fatalf("%s W%d: exact gains not recorded as zero gains", name, workers)
				}
			}
		}
	}
}

// TestStepwiseUnderstatedHintCaught: a bound hint below the subset's true
// gain surfaces at the top of the heap, and its re-probe stops the run
// with ErrBrokenBound instead of picking from a heap it cannot trust.
func TestStepwiseUnderstatedHintCaught(t *testing.T) {
	// Subset 0 covers 4 elements but is hinted at 3.5; subset 1 (3
	// elements) is probed fresh, so the stale 3.5 tops the heap.
	p := setCoverProblem(7, [][]int{{0, 1, 2, 3}, {4, 5, 6}}, []float64{1, 1})
	s, err := NewStepwise(p, Options{Eps: 0.1}, []Hint{{Subset: 0, GainBound: 3.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); !errors.Is(err, ErrBrokenBound) {
		t.Fatalf("err = %v, want ErrBrokenBound", err)
	}
	if _, ok, err := s.Step(); ok || !errors.Is(err, ErrBrokenBound) {
		t.Fatalf("Step after the violation = (%v, %v), want the same error", ok, err)
	}
	// A sound bound on the same problem solves normally.
	s, err = NewStepwise(p, Options{Eps: 0.1}, []Hint{{Subset: 0, GainBound: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatalf("sound hint: %v", err)
	}
}

// squareCount is F(S) = |S|², monotone but supermodular: marginals grow.
type squareCount struct{ n int }

func (f squareCount) Universe() int { return f.n }
func (f squareCount) Eval(s *bitset.Set) float64 {
	c := float64(s.Count())
	return c * c
}

// TestLazyGreedyCatchesNonSubmodular: on a cold run the lazy loop's free
// check turns a non-submodular oracle into ErrBrokenBound at the first
// re-probe; the eager greedy, which trusts no stale value, still runs.
func TestLazyGreedyCatchesNonSubmodular(t *testing.T) {
	p := Problem{F: squareCount{3}, Threshold: 9, Subsets: []Subset{
		{Elems: []int{0}, Cost: 1}, {Elems: []int{1}, Cost: 1}, {Elems: []int{2}, Cost: 1},
	}}
	if _, err := LazyGreedy(p, Options{Eps: 0.1}); !errors.Is(err, ErrBrokenBound) {
		t.Fatalf("LazyGreedy err = %v, want ErrBrokenBound", err)
	}
	if _, err := Greedy(p, Options{Eps: 0.1}); err != nil {
		t.Fatalf("Greedy err = %v", err)
	}
}
