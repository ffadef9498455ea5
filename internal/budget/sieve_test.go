package budget

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/submodular"
)

// refBudgetedUtility is the exact comparator: plain gain-greedy under the
// budget (for uniform costs, the classical cardinality greedy). Any
// feasible algorithm's utility is at most OPT, so the sieve's
// (1/2−ε)·OPT guarantee implies utility ≥ (1/2−ε)·this.
func refBudgetedUtility(f submodular.Function, subs []Subset, budget, cap float64) float64 {
	n := f.Universe()
	cur := bitset.New(n)
	scratch := bitset.New(n)
	capEff := math.Inf(1)
	if cap > 0 {
		capEff = cap
	}
	base0 := f.Eval(bitset.New(n))
	curU := 0.0
	spent := 0.0
	picked := make([]bool, len(subs))
	for {
		best, bestGain := -1, tol
		for i := range subs {
			if picked[i] || spent+subs[i].Cost > budget+tol {
				continue
			}
			scratch.CopyFrom(cur)
			subs[i].unionInto(scratch)
			g := math.Min(capEff, f.Eval(scratch)-base0) - curU
			if g > bestGain {
				best, bestGain = i, g
			}
		}
		if best < 0 {
			return curU
		}
		picked[best] = true
		subs[best].unionInto(cur)
		spent += subs[best].Cost
		curU += bestGain
	}
}

// randomCoverInstance plants a random coverage stream: nSets random sets
// over m elements, each offered as a singleton pick with the given cost
// function.
func randomCoverInstance(rng *rand.Rand, m, nSets int, costOf func(i int) float64) (submodular.Function, []Subset) {
	bs := make([]*bitset.Set, nSets)
	subs := make([]Subset, nSets)
	for i := 0; i < nSets; i++ {
		var s []int
		for e := 0; e < m; e++ {
			if rng.Intn(5) == 0 {
				s = append(s, e)
			}
		}
		bs[i] = bitset.FromSlice(m, s)
		subs[i] = Subset{Elems: []int{i}, Cost: costOf(i)}
	}
	return submodular.NewCoverage(m, bs, nil), subs
}

func TestSieveUniformGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		m := 20 + rng.Intn(40)
		nSets := 10 + rng.Intn(50)
		f, subs := randomCoverInstance(rng, m, nSets, func(int) float64 { return 1 })
		k := 1 + rng.Intn(6)
		eps := 0.1
		res, err := RunSieve(f, subs, SieveOptions{Eps: eps, Budget: float64(k)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Uniform {
			t.Fatalf("trial %d: unit costs reported non-uniform", trial)
		}
		if res.Cost > float64(k)+tol {
			t.Fatalf("trial %d: cost %g exceeds budget %d", trial, res.Cost, k)
		}
		ref := refBudgetedUtility(f, subs, float64(k), 0)
		if res.Utility < (0.5-eps)*ref-tol {
			t.Fatalf("trial %d: sieve utility %g < (1/2-eps)*greedy %g (k=%d, n=%d)",
				trial, res.Utility, ref, k, nSets)
		}
	}
}

func TestSieveNonUniformFeasibleAndCompetitive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		m := 20 + rng.Intn(40)
		nSets := 10 + rng.Intn(50)
		f, subs := randomCoverInstance(rng, m, nSets, func(int) float64 { return 1 + float64(rng.Intn(5)) })
		budget := 2 + float64(rng.Intn(10))
		res, err := RunSieve(f, subs, SieveOptions{Eps: 0.1, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if res.Uniform && trial > 5 {
			continue // want the non-uniform path; costs happened to agree
		}
		if res.Cost > budget+tol {
			t.Fatalf("trial %d: cost %g exceeds budget %g", trial, res.Cost, budget)
		}
		// No certified factor here; the fallback still guarantees at
		// least the best feasible singleton.
		var bestSingle float64
		scratch := bitset.New(f.Universe())
		for i := range subs {
			if subs[i].Cost > budget {
				continue
			}
			scratch.Clear()
			subs[i].unionInto(scratch)
			if v := f.Eval(scratch); v > bestSingle {
				bestSingle = v
			}
		}
		if res.Utility < bestSingle-tol {
			t.Fatalf("trial %d: utility %g below best feasible singleton %g", trial, res.Utility, bestSingle)
		}
	}
}

func TestSieveStreamingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f, subs := randomCoverInstance(rng, 30, 40, func(i int) float64 { return 1 + float64(i%2) })
	opts := SieveOptions{Eps: 0.1, Budget: 5}
	batch, err := RunSieve(f, subs, opts)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewSieve(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range subs {
		if err := sv.Offer(subs[i]); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := sv.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stream.Chosen, batch.Chosen) || stream.Utility != batch.Utility || stream.Cost != batch.Cost {
		t.Fatalf("stream (%v, %g, %g) != batch (%v, %g, %g)",
			stream.Chosen, stream.Utility, stream.Cost, batch.Chosen, batch.Utility, batch.Cost)
	}
	if batch.Union == nil {
		t.Fatal("batch result missing Union")
	}
	if stream.Union != nil {
		t.Fatal("streaming result should not materialize Union")
	}
	if err := sv.Offer(subs[0]); err == nil {
		t.Fatal("Offer after Finish should fail")
	}
}

func TestSieveCapRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f, subs := randomCoverInstance(rng, 50, 40, func(int) float64 { return 1 })
	res, err := RunSieve(f, subs, SieveOptions{Eps: 0.1, Budget: 20, Cap: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utility > 6+tol {
		t.Fatalf("capped utility %g exceeds Cap 6", res.Utility)
	}
	if res.Utility < (0.5-0.1)*6-tol {
		t.Fatalf("utility %g too low for Cap 6 with ample budget", res.Utility)
	}
}

func TestSieveMemoryBound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		f, subs := randomCoverInstance(rng, 60, 200, func(int) float64 { return 1 })
		budget := 1 + float64(rng.Intn(8))
		res, err := RunSieve(f, subs, SieveOptions{Eps: 0.1, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		bound := res.LevelsPeak * (int(budget) + 1)
		if res.MaxLive > bound {
			t.Fatalf("trial %d: MaxLive %d exceeds LevelsPeak*(B/c+1) = %d", trial, res.MaxLive, bound)
		}
	}
}

func TestSieveIgnoresInfeasibleAndZeroGain(t *testing.T) {
	m := 8
	bs := []*bitset.Set{
		bitset.FromSlice(m, []int{0, 1, 2, 3}),
		bitset.FromSlice(m, nil), // zero gain
		bitset.FromSlice(m, []int{0, 1, 2, 3, 4, 5, 6, 7}),
		bitset.FromSlice(m, []int{4, 5}),
	}
	f := submodular.NewCoverage(m, bs, nil)
	subs := []Subset{
		{Elems: []int{0}, Cost: 1},
		{Elems: []int{1}, Cost: 1},
		{Elems: []int{2}, Cost: 50}, // over budget: must never be chosen
		{Elems: []int{3}, Cost: 1},
	}
	res, err := RunSieve(f, subs, SieveOptions{Eps: 0.1, Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range res.Chosen {
		if i == 2 {
			t.Fatalf("chose over-budget candidate: %v", res.Chosen)
		}
		if i == 1 {
			t.Fatalf("chose zero-gain candidate: %v", res.Chosen)
		}
	}
	if res.Utility < 6-tol {
		t.Fatalf("utility %g, want 6 (both useful sets fit)", res.Utility)
	}
}

func TestSieveEmptyStream(t *testing.T) {
	f := submodular.NewCoverage(4, nil, nil)
	res, err := RunSieve(f, nil, SieveOptions{Eps: 0.2, Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen != nil || res.Utility != 0 || res.Cost != 0 {
		t.Fatalf("empty stream: got %+v", res)
	}
}

func TestSieveValidation(t *testing.T) {
	f := submodular.NewCoverage(4, []*bitset.Set{bitset.FromSlice(4, []int{0})}, nil)
	subs := []Subset{{Elems: []int{0}, Cost: 1}}
	cases := []SieveOptions{
		{Eps: 0, Budget: 1},
		{Eps: 1, Budget: 1},
		{Eps: 0.1, Budget: 0},
		{Eps: 0.1, Budget: math.Inf(1)},
		{Eps: 0.1, Budget: 1, Cap: -1},
	}
	for i, o := range cases {
		if _, err := RunSieve(f, subs, o); err == nil {
			t.Fatalf("case %d: invalid options %+v accepted", i, o)
		}
	}
	if _, err := RunSieve(f, []Subset{{Cost: 1}}, SieveOptions{Eps: 0.1, Budget: 1}); err == nil {
		t.Fatal("subset without Items/Elems accepted")
	}
	if _, err := RunSieve(f, []Subset{{Elems: []int{9}, Cost: 1}}, SieveOptions{Eps: 0.1, Budget: 1}); err == nil {
		t.Fatal("out-of-universe element accepted")
	}
	sv, err := NewSieve(f, SieveOptions{Eps: 0.1, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Offer(Subset{Elems: []int{0}, Cost: math.NaN()}); err == nil {
		t.Fatal("NaN cost accepted")
	}
	// A plain Eval-only function has no incremental oracle: the sieve
	// must refuse rather than degrade to ground-set rescans.
	if _, err := NewSieve(plainCount{n: 4}, SieveOptions{Eps: 0.1, Budget: 1}); err == nil {
		t.Fatal("plain Eval-only oracle accepted")
	}
}

// plainCount is an Eval-only cardinality function with no incremental
// oracle behind it.
type plainCount struct{ n int }

func (p plainCount) Universe() int              { return p.n }
func (p plainCount) Eval(s *bitset.Set) float64 { return float64(s.Count()) }
