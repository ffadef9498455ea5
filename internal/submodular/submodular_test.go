package submodular

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

func TestCoverageEval(t *testing.T) {
	sets := []*bitset.Set{
		bitset.FromSlice(5, []int{0, 1}),
		bitset.FromSlice(5, []int{1, 2}),
		bitset.FromSlice(5, []int{4}),
	}
	f := NewCoverage(5, sets, nil)
	cases := []struct {
		pick []int
		want float64
	}{
		{nil, 0},
		{[]int{0}, 2},
		{[]int{0, 1}, 3},
		{[]int{0, 1, 2}, 4},
	}
	for _, c := range cases {
		if got := f.Eval(bitset.FromSlice(3, c.pick)); got != c.want {
			t.Errorf("Coverage(%v) = %v, want %v", c.pick, got, c.want)
		}
	}
}

func TestCoverageWeighted(t *testing.T) {
	sets := []*bitset.Set{bitset.FromSlice(3, []int{0, 2})}
	f := NewCoverage(3, sets, []float64{1, 10, 100})
	if got := f.Eval(bitset.FromSlice(1, []int{0})); got != 101 {
		t.Fatalf("weighted coverage = %v, want 101", got)
	}
}

func TestCoveragePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on universe mismatch")
		}
	}()
	NewCoverage(5, []*bitset.Set{bitset.New(4)}, nil)
}

func TestCutEval(t *testing.T) {
	// Triangle with unit weights: any single vertex cuts 2 edges.
	c := NewCut(3)
	c.AddEdge(0, 1, 1)
	c.AddEdge(1, 2, 1)
	c.AddEdge(0, 2, 1)
	if got := c.Eval(bitset.FromSlice(3, []int{0})); got != 2 {
		t.Fatalf("cut({0}) = %v, want 2", got)
	}
	if got := c.Eval(bitset.New(3)); got != 0 {
		t.Fatalf("cut(∅) = %v, want 0", got)
	}
	if got := c.Eval(bitset.Full(3)); got != 0 {
		t.Fatalf("cut(V) = %v, want 0", got)
	}
}

func TestFacilityLocation(t *testing.T) {
	f := NewFacilityLocation([][]float64{
		{3, 1},
		{0, 5},
	})
	if got := f.Eval(bitset.FromSlice(2, []int{0})); got != 3 {
		t.Fatalf("FL({0}) = %v", got)
	}
	if got := f.Eval(bitset.Full(2)); got != 8 {
		t.Fatalf("FL(all) = %v", got)
	}
	if got := f.Eval(bitset.New(2)); got != 0 {
		t.Fatalf("FL(∅) = %v", got)
	}
}

func TestModularAndMarginal(t *testing.T) {
	m := &Modular{Weights: []float64{1, 2, 4}}
	s := bitset.FromSlice(3, []int{0})
	if got := Marginal(m, s, 2); got != 4 {
		t.Fatalf("Marginal = %v, want 4", got)
	}
	if got := Marginal(m, s, 0); got != 0 {
		t.Fatalf("Marginal of present element = %v, want 0", got)
	}
	if s.Count() != 1 {
		t.Fatal("Marginal mutated the input set")
	}
}

func TestConcaveCardinality(t *testing.T) {
	f := NewSqrtCardinality(9)
	if got := f.Eval(bitset.FromSlice(9, []int{1, 3, 5, 7})); got != 2 {
		t.Fatalf("sqrt-card = %v, want 2", got)
	}
}

func TestBestSingleton(t *testing.T) {
	m := &Modular{Weights: []float64{1, 9, 4}}
	arg, val := BestSingleton(m)
	if arg != 1 || val != 9 {
		t.Fatalf("BestSingleton = (%d, %v)", arg, val)
	}
}

func TestCounting(t *testing.T) {
	c := NewCounting(&Modular{Weights: []float64{1}})
	s := bitset.New(1)
	c.Eval(s)
	c.Eval(s)
	if c.Calls() != 2 {
		t.Fatalf("Calls = %d, want 2", c.Calls())
	}
}

// All standard functions must pass the submodularity checker; the monotone
// ones must pass the monotonicity checker; Cut must fail monotonicity on
// some instance (it is genuinely non-monotone).
func TestPropertyCheckers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sets := make([]*bitset.Set, 8)
	for i := range sets {
		sets[i] = bitset.New(12)
		for e := 0; e < 12; e++ {
			if rng.Intn(3) == 0 {
				sets[i].Add(e)
			}
		}
	}
	cov := NewCoverage(12, sets, nil)

	cut := NewCut(8)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if rng.Intn(2) == 0 {
				cut.AddEdge(i, j, float64(1+rng.Intn(4)))
			}
		}
	}

	benefit := make([][]float64, 6)
	for i := range benefit {
		benefit[i] = make([]float64, 7)
		for j := range benefit[i] {
			benefit[i][j] = rng.Float64() * 5
		}
	}
	fl := NewFacilityLocation(benefit)

	monotone := []Function{cov, fl, NewSqrtCardinality(10), &Modular{Weights: []float64{1, 2, 3}}}
	for _, f := range monotone {
		if err := CheckSubmodular(f, rng, 300, 1e-9); err != nil {
			t.Errorf("%T: %v", f, err)
		}
		if err := CheckMonotone(f, rng, 300, 1e-9); err != nil {
			t.Errorf("%T: %v", f, err)
		}
	}
	if err := CheckSubmodular(cut, rng, 300, 1e-9); err != nil {
		t.Errorf("Cut submodularity: %v", err)
	}
	if err := CheckMonotone(cut, rng, 300, 1e-9); err == nil {
		t.Error("Cut unexpectedly passed monotonicity (should be non-monotone)")
	}
}

// A deliberately supermodular function must be caught by the checker.
type square struct{ n int }

func (s square) Universe() int { return s.n }
func (s square) Eval(x *bitset.Set) float64 {
	c := float64(x.Count())
	return c * c
}

func TestCheckerCatchesSupermodular(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if err := CheckSubmodular(square{8}, rng, 500, 1e-9); err == nil {
		t.Fatal("checker missed a supermodular function")
	}
}

func TestCutSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewCut(7)
	for i := 0; i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			if rng.Intn(2) == 0 {
				c.AddEdge(i, j, rng.Float64())
			}
		}
	}
	for trial := 0; trial < 50; trial++ {
		s := bitset.New(7)
		for i := 0; i < 7; i++ {
			if rng.Intn(2) == 0 {
				s.Add(i)
			}
		}
		comp := bitset.Subtract(bitset.Full(7), s)
		if math.Abs(c.Eval(s)-c.Eval(comp)) > 1e-12 {
			t.Fatalf("cut not symmetric on %v", s)
		}
	}
}
