package submodular

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

const diffEps = 1e-9

// incrementalCase couples a plain oracle with a name for the differential
// property tests.
type incrementalCase struct {
	name string
	f    Function // must implement IncrementalProvider
}

func randomCases(rng *rand.Rand) []incrementalCase {
	n := 6 + rng.Intn(10)
	m := 8 + rng.Intn(16)

	sets := make([]*bitset.Set, n)
	for i := range sets {
		sets[i] = bitset.New(m)
		for e := 0; e < m; e++ {
			if rng.Intn(3) == 0 {
				sets[i].Add(e)
			}
		}
	}
	weights := make([]float64, m)
	for i := range weights {
		weights[i] = rng.Float64() * 5
	}

	benefit := make([][]float64, 5+rng.Intn(6))
	for c := range benefit {
		benefit[c] = make([]float64, n)
		for i := range benefit[c] {
			benefit[c][i] = rng.Float64() * 10
		}
	}

	modWeights := make([]float64, n)
	for i := range modWeights {
		modWeights[i] = rng.Float64() * 10
	}

	return []incrementalCase{
		{"coverage-unit", NewCoverage(m, sets, nil)},
		{"coverage-weighted", NewCoverage(m, sets, weights)},
		{"facility-location", NewFacilityLocation(benefit)},
		{"modular", &Modular{Weights: modWeights}},
		{"concave-cardinality", NewSqrtCardinality(n)},
	}
}

// randomItems draws a batch of items, deliberately allowing duplicates and
// members of the current base set — the interface must tolerate both.
func randomItems(rng *rand.Rand, n int) []int {
	items := make([]int, rng.Intn(n+1))
	for i := range items {
		items[i] = rng.Intn(n)
	}
	return items
}

// TestIncrementalMatchesEval runs randomized Commit/Gain sequences on every
// incremental oracle in this package and asserts agreement with the plain
// Eval counterpart to 1e-9 at each step.
func TestIncrementalMatchesEval(t *testing.T) {
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*104729 + 11))
		for _, tc := range randomCases(rng) {
			inc, ok := AsIncremental(tc.f)
			if !ok {
				t.Fatalf("%s: no incremental oracle", tc.name)
			}
			n := tc.f.Universe()
			base := bitset.New(n)
			for step := 0; step < 10; step++ {
				items := randomItems(rng, n)

				union := base.Clone()
				for _, it := range items {
					union.Add(it)
				}
				wantBase := tc.f.Eval(base)
				wantUnion := tc.f.Eval(union)

				if got := inc.Value(); abs(got-wantBase) > diffEps {
					t.Fatalf("%s trial %d step %d: Value = %g, want Eval = %g", tc.name, trial, step, got, wantBase)
				}
				if got := inc.Gain(items); abs(got-(wantUnion-wantBase)) > diffEps {
					t.Fatalf("%s trial %d step %d: Gain(%v) = %g, want %g",
						tc.name, trial, step, items, got, wantUnion-wantBase)
				}
				// Probes must not move the base set or the value.
				if !inc.Base().Equal(base) {
					t.Fatalf("%s trial %d step %d: Gain mutated the base set", tc.name, trial, step)
				}
				if got := inc.Value(); abs(got-wantBase) > diffEps {
					t.Fatalf("%s trial %d step %d: Gain moved Value to %g, want %g", tc.name, trial, step, got, wantBase)
				}

				if rng.Intn(2) == 0 {
					gain := inc.Commit(items)
					base = union
					if abs(gain-(wantUnion-wantBase)) > diffEps {
						t.Fatalf("%s trial %d step %d: Commit gain = %g, want %g",
							tc.name, trial, step, gain, wantUnion-wantBase)
					}
					if !inc.Base().Equal(base) {
						t.Fatalf("%s trial %d step %d: Commit base mismatch", tc.name, trial, step)
					}
					if got := inc.Value(); abs(got-wantUnion) > diffEps {
						t.Fatalf("%s trial %d step %d: post-Commit Value = %g, want %g",
							tc.name, trial, step, got, wantUnion)
					}
				}
			}
			inc.Reset()
			if !inc.Base().Empty() || abs(inc.Value()-tc.f.Eval(bitset.New(n))) > diffEps {
				t.Fatalf("%s: Reset did not restore the empty base", tc.name)
			}
		}
	}
}

// TestAsIncrementalCounting checks that a Counting wrapper yields a
// counting incremental oracle: Gain and Eval are billed, Commit is not.
func TestAsIncrementalCounting(t *testing.T) {
	cov := NewCoverage(4, []*bitset.Set{
		bitset.FromSlice(4, []int{0, 1}),
		bitset.FromSlice(4, []int{2}),
	}, nil)
	c := NewCounting(cov)
	inc, ok := AsIncremental(c)
	if !ok {
		t.Fatal("Counting over a provider should be incremental")
	}
	inc.Gain([]int{0})
	inc.Gain([]int{1})
	inc.Commit([]int{0})
	inc.Eval(bitset.New(2))
	if got := c.Calls(); got != 3 {
		t.Fatalf("Calls = %d, want 3 (two gains + one eval, commits free)", got)
	}
}

// TestAsIncrementalFallback checks that functions without a provider are
// rejected.
func TestAsIncrementalFallback(t *testing.T) {
	cut := NewCut(4)
	cut.AddEdge(0, 1, 1)
	if _, ok := AsIncremental(cut); ok {
		t.Fatal("Cut should not offer an incremental oracle")
	}
	if _, ok := AsIncremental(NewCounting(cut)); ok {
		t.Fatal("Counting over Cut should not offer an incremental oracle")
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
