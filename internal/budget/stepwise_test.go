package budget

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
)

// TestStepwiseMatchesLazyGreedy: a stepwise run is LazyGreedy — identical
// picks, trace, cost, and oracle-call count — for every incremental-oracle
// problem family.
func TestStepwiseMatchesLazyGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		for name, p := range oracleProblems(rng) {
			opts := Options{Eps: 0.1}
			want, errW := LazyGreedy(p, opts)
			s, err := newStepwise(p, opts)
			if err != nil {
				t.Fatalf("%s: newStepwise: %v", name, err)
			}
			got, errG := s.solve()
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
// step, done flips exactly when the target is reached, and the final
// result equals a one-shot Solve.
func TestStepwiseStepByStep(t *testing.T) {
	p := setCoverProblem(6,
		[][]int{{0, 1}, {2, 3}, {4, 5}, {0, 2, 4}},
		[]float64{1, 1, 1, 10})
	want, err := LazyGreedy(p, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newStepwise(p, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		st, ok, err := s.step()
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
		if got := s.result(); len(got.Chosen) != steps {
			t.Fatalf("result has %d picks after %d steps", len(got.Chosen), steps)
		}
	}
	if !s.done {
		t.Fatal("not done after step returned ok=false")
	}
	if steps != len(want.Chosen) {
		t.Fatalf("took %d steps, want %d", steps, len(want.Chosen))
	}
	// Further steps are no-ops.
	if _, ok, err := s.step(); ok || err != nil {
		t.Fatalf("post-done step = (%v, %v)", ok, err)
	}
}

// TestStepwiseInfeasible: a run that cannot reach the threshold surfaces
// ErrInfeasible from step and solve alike.
func TestStepwiseInfeasible(t *testing.T) {
	p := setCoverProblem(4, [][]int{{0, 1}}, []float64{1})
	s, err := newStepwise(p, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.solve(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
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
// every timed operation is exactly one step that picks. evals/op is the
// oracle calls a round bills on average over one whole run, counted off
// the clock (the initial probes excluded).
func BenchmarkStepwiseRound(b *testing.B) {
	const batch = 64
	p := benchCoverProblem()
	fresh := func() *stepwise {
		s, err := newStepwise(p, Options{Eps: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	probe := fresh()
	seeded := probe.result().Evals
	whole, err := probe.solve()
	if err != nil {
		b.Fatal(err)
	}
	runs := make([]*stepwise, batch)
	next := batch // the run being stepped; batch once all are used up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next < batch && runs[next].done {
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
		if _, ok, err := runs[next].step(); err != nil || !ok {
			b.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	b.ReportMetric(float64(whole.Evals-seeded)/float64(len(whole.Chosen)), "evals/op")
}
