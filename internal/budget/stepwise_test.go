package budget

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/submodular"
)

// TestStepwiseMatchesLazyGreedy: a Stepwise run is LazyGreedy — identical
// picks, trace, cost, and oracle-call count — for every incremental-oracle
// problem family.
func TestStepwiseMatchesLazyGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		for name, p := range oracleProblems(rng) {
			opts := Options{Eps: 0.1}
			want, errW := LazyGreedy(p, opts)
			s, err := NewStepwise(p, opts)
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
				t.Fatalf("%s: picks differ: %v vs %v", name, want.Chosen, got.Chosen)
			}
			if math.Abs(want.Cost-got.Cost) > 1e-12 || want.Evals != got.Evals {
				t.Fatalf("%s: cost/evals differ: %g/%d vs %g/%d",
					name, want.Cost, want.Evals, got.Cost, got.Evals)
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
	s, err := NewStepwise(p, Options{Eps: 0.1})
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

// TestStepwiseInfeasible: a run that cannot reach the threshold surfaces
// ErrInfeasible from Step and Solve alike.
func TestStepwiseInfeasible(t *testing.T) {
	p := setCoverProblem(4, [][]int{{0, 1}}, []float64{1})
	s, err := NewStepwise(p, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestStepwiseExactGainsMatchLazyGreedy: seeding subsets with their exact
// initial gains (NewStepwiseExact) reproduces the self-probing run
// exactly — picks, cost, and Evals (each exact gain billed as the probe
// it replaces) — also when some gains are left NaN for the run to probe
// itself.
func TestStepwiseExactGainsMatchLazyGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 6; trial++ {
		for name, p := range oracleProblems(rng) {
			opts := Options{Eps: 0.1}
			cold, err := NewStepwise(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, errW := cold.Solve()
			gains := initialGains(p)
			for i := trial % 3; trial%2 == 1 && i < len(gains); i += 3 {
				gains[i] = math.NaN()
			}
			s, err := NewStepwiseExact(p, opts, gains)
			if err != nil {
				t.Fatal(err)
			}
			got, errG := s.Solve()
			if (errW == nil) != (errG == nil) {
				t.Fatalf("%s: feasibility disagreement: %v vs %v", name, errW, errG)
			}
			if !slices.Equal(want.Chosen, got.Chosen) || want.Cost != got.Cost || want.Evals != got.Evals {
				t.Fatalf("%s: exact-seeded run %v (cost %g, %d evals), probing run %v (cost %g, %d evals)",
					name, got.Chosen, got.Cost, got.Evals, want.Chosen, want.Cost, want.Evals)
			}
		}
	}
}

// initialGains prices every subset's capped gain against the empty set
// exactly as a run's initial probe does (the incremental oracle's Gain
// when F has one, a union Eval otherwise), for seeding NewStepwiseExact.
func initialGains(p Problem) []float64 {
	gains := make([]float64, len(p.Subsets))
	inc, incremental := submodular.AsIncremental(p.F)
	var base float64
	if incremental {
		base = inc.Value()
	} else {
		base = p.F.Eval(bitset.New(p.F.Universe()))
	}
	curU := math.Min(p.Threshold, base)
	for i := range p.Subsets {
		items := p.Subsets[i].Elems
		var v float64
		if incremental {
			v = base + inc.Gain(items)
		} else {
			v = p.F.Eval(bitset.FromSlice(p.F.Universe(), items))
		}
		gains[i] = math.Min(p.Threshold, v) - curU
	}
	return gains
}

// TestStepwiseUnderstatedHintCaught: an exact initial gain seeded below
// the subset's true gain is fresh, so round 0 trusts it; when it loses
// round 0 its entry goes stale, and the re-probe in round 1 stops the run
// with ErrBrokenBound instead of picking from a heap it cannot trust.
func TestStepwiseUnderstatedHintCaught(t *testing.T) {
	// Subset 0 covers 4 elements but is seeded at 2.5; subset 1 (3
	// elements, seeded exactly) wins round 0.
	p := setCoverProblem(7, [][]int{{0, 1, 2, 3}, {4, 5, 6}}, []float64{1, 1})
	s, err := NewStepwiseExact(p, Options{Eps: 0.1}, []float64{2.5, 3})
	if err != nil {
		t.Fatal(err)
	}
	st, ok, err := s.Step()
	if err != nil || !ok || st.Subset != 1 {
		t.Fatalf("round 0 = (%+v, %v, %v), want subset 1 picked", st, ok, err)
	}
	if _, err := s.Solve(); !errors.Is(err, ErrBrokenBound) {
		t.Fatalf("err = %v, want ErrBrokenBound", err)
	}
	if _, ok, err := s.Step(); ok || !errors.Is(err, ErrBrokenBound) {
		t.Fatalf("Step after the violation = (%v, %v), want the same error", ok, err)
	}
	// The true gains on the same problem solve normally.
	s, err = NewStepwiseExact(p, Options{Eps: 0.1}, []float64{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatalf("true gains: %v", err)
	}
	if _, err := NewStepwiseExact(p, Options{Eps: 0.1}, []float64{2}); err == nil {
		t.Fatal("exact gains for the wrong number of subsets accepted")
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

// BenchmarkStepwiseRound times one lazy-greedy round — pop, re-price
// the stale tops, pick — on the shared cover benchmark. Fresh runs are
// built off the clock a batch at a time, so the timer stops once per 64
// runs rather than once per run and its own cost stays out of the figure;
// every timed operation is exactly one Step that picks. evals/op is the
// oracle calls a round bills on average over one whole run, counted off
// the clock (the initial probes excluded).
func BenchmarkStepwiseRound(b *testing.B) {
	const batch = 64
	p := benchCoverProblem()
	fresh := func() *Stepwise {
		s, err := NewStepwise(p, Options{Eps: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	probe := fresh()
	seeded := probe.Result().Evals
	whole, err := probe.Solve()
	if err != nil {
		b.Fatal(err)
	}
	runs := make([]*Stepwise, batch)
	next := batch // the run being stepped; batch once all are used up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next < batch && runs[next].Done() {
			next++
		}
		if next == batch {
			b.StopTimer()
			for k := range runs {
				runs[k] = fresh()
			}
			next = 0
			b.StartTimer()
		}
		if _, ok, err := runs[next].Step(); err != nil || !ok {
			b.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	b.ReportMetric(float64(whole.Evals-seeded)/float64(len(whole.Chosen)), "evals/op")
}
