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

// setCoverProblem builds a budgeted set-cover instance: utility is unit
// coverage over m elements, threshold m (cover everything).
func setCoverProblem(m int, sets [][]int, costs []float64) Problem {
	bs := make([]*bitset.Set, len(sets))
	subsets := make([]Subset, len(sets))
	for i, s := range sets {
		bs[i] = bitset.FromSlice(m, s)
		subsets[i] = Subset{Elems: []int{i}, Cost: costs[i]}
	}
	f := coverageOverPicks{cov: submodular.NewCoverage(m, bs, nil)}
	return Problem{F: f, Subsets: subsets, Threshold: float64(m)}
}

// coverageOverPicks exposes the coverage function with universe = number of
// sets (items are set indices).
type coverageOverPicks struct{ cov *submodular.Coverage }

func (c coverageOverPicks) Universe() int              { return c.cov.Universe() }
func (c coverageOverPicks) Eval(s *bitset.Set) float64 { return c.cov.Eval(s) }

func TestGreedySolvesEasyCover(t *testing.T) {
	// Two disjoint sets cover everything; a decoy covers half at 10x cost.
	p := setCoverProblem(4,
		[][]int{{0, 1}, {2, 3}, {0, 2}},
		[]float64{1, 1, 10})
	res, err := Greedy(p, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 2 {
		t.Fatalf("cost = %v, want 2 (chosen %v)", res.Cost, res.Chosen)
	}
	if res.Utility < 4 {
		t.Fatalf("utility = %v, want 4", res.Utility)
	}
}

func TestGreedyReachesBicriteriaTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m := 30
		var sets [][]int
		var costs []float64
		// Planted: 5 disjoint sets of 6 elements, cost 1 each (B = 5).
		for i := 0; i < 5; i++ {
			var s []int
			for e := 0; e < 6; e++ {
				s = append(s, i*6+e)
			}
			sets = append(sets, s)
			costs = append(costs, 1)
		}
		// Decoys: random sets with random costs.
		for i := 0; i < 25; i++ {
			var s []int
			for e := 0; e < m; e++ {
				if rng.Intn(4) == 0 {
					s = append(s, e)
				}
			}
			sets = append(sets, s)
			costs = append(costs, 0.5+rng.Float64()*3)
		}
		p := setCoverProblem(m, sets, costs)
		eps := 0.05
		res, err := Greedy(p, Options{Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		if res.Utility < (1-eps)*float64(m) {
			t.Fatalf("utility %v below (1-eps)x = %v", res.Utility, (1-eps)*float64(m))
		}
		// Lemma 2.1.2: cost <= 2B log2(1/eps) up to the +1 phase.
		bound := 2 * 5 * (math.Log2(1/eps) + 1)
		if res.Cost > bound {
			t.Fatalf("cost %v exceeds Lemma 2.1.2 envelope %v", res.Cost, bound)
		}
	}
}

func TestGreedyInfeasible(t *testing.T) {
	p := setCoverProblem(4, [][]int{{0, 1}}, []float64{1})
	_, err := Greedy(p, Options{Eps: 0.01})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestGreedyBadOptions(t *testing.T) {
	p := setCoverProblem(2, [][]int{{0, 1}}, []float64{1})
	if _, err := Greedy(p, Options{Eps: 0}); err == nil {
		t.Fatal("Eps=0 accepted")
	}
	if _, err := Greedy(p, Options{Eps: 1.5}); err == nil {
		t.Fatal("Eps>1 accepted")
	}
	p.Subsets[0].Cost = -1
	if _, err := Greedy(p, Options{Eps: 0.5}); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestGreedyZeroThreshold(t *testing.T) {
	p := setCoverProblem(3, [][]int{{0}}, []float64{1})
	p.Threshold = 0
	res, err := Greedy(p, Options{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chosen) != 0 || res.Cost != 0 {
		t.Fatalf("zero threshold should pick nothing: %+v", res)
	}
}

func TestGreedyZeroCostSubsets(t *testing.T) {
	// A free subset with positive gain must be taken before paid ones.
	p := setCoverProblem(4, [][]int{{0, 1, 2, 3}, {0, 1}}, []float64{5, 0})
	res, err := Greedy(p, Options{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen[0] != 1 {
		t.Fatalf("first pick = %d, want the free subset 1", res.Chosen[0])
	}
}

func TestLazyMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		m := 20
		var sets [][]int
		var costs []float64
		for i := 0; i < 15; i++ {
			var s []int
			for e := 0; e < m; e++ {
				if rng.Intn(3) == 0 {
					s = append(s, e)
				}
			}
			sets = append(sets, s)
			costs = append(costs, 0.5+rng.Float64()*2)
		}
		p := setCoverProblem(m, sets, costs)
		p.Threshold = 15 // partial coverage target keeps most instances feasible
		plain, errP := Greedy(p, Options{Eps: 0.1})
		lazy, errL := LazyGreedy(p, Options{Eps: 0.1})
		if (errP == nil) != (errL == nil) {
			t.Fatalf("feasibility disagreement: plain=%v lazy=%v", errP, errL)
		}
		if errP != nil {
			continue
		}
		if len(plain.Chosen) != len(lazy.Chosen) {
			t.Fatalf("pick counts differ: %v vs %v", plain.Chosen, lazy.Chosen)
		}
		for i := range plain.Chosen {
			if plain.Chosen[i] != lazy.Chosen[i] {
				t.Fatalf("pick sequences differ: %v vs %v", plain.Chosen, lazy.Chosen)
			}
		}
		if lazy.Evals > plain.Evals {
			t.Fatalf("lazy used more oracle calls (%d) than plain (%d)", lazy.Evals, plain.Evals)
		}
	}
}

func TestPhasesLedger(t *testing.T) {
	p := setCoverProblem(8,
		[][]int{{0, 1, 2, 3}, {4, 5}, {6}, {7}},
		[]float64{1, 1, 1, 1})
	res, err := Greedy(p, Options{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	phases := res.Phases(p.Threshold)
	total := 0.0
	for _, c := range phases {
		total += c
	}
	if math.Abs(total-res.Cost) > 1e-9 {
		t.Fatalf("phase costs sum to %v, want %v", total, res.Cost)
	}
}

// TestLemma211 checks Lemma 2.1.1 on random coverage instances:
// Σ_j [F(S'∪Sj) − F(S')] >= F(T) − F(S') where T = ∪_j Sj.
func TestLemma211(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		m := 15
		nsets := 8
		ground := make([]*bitset.Set, nsets)
		for i := range ground {
			ground[i] = bitset.New(m)
			for e := 0; e < m; e++ {
				if rng.Intn(3) == 0 {
					ground[i].Add(e)
				}
			}
		}
		f := submodular.NewCoverage(m, ground, nil)
		// k random item-subsets over the universe of set indices.
		k := 1 + rng.Intn(4)
		subs := make([]*bitset.Set, k)
		union := bitset.New(nsets)
		for j := range subs {
			subs[j] = bitset.New(nsets)
			for i := 0; i < nsets; i++ {
				if rng.Intn(3) == 0 {
					subs[j].Add(i)
				}
			}
			union.UnionWith(subs[j])
		}
		sPrime := bitset.New(nsets)
		for i := 0; i < nsets; i++ {
			if rng.Intn(4) == 0 {
				sPrime.Add(i)
			}
		}
		fs := f.Eval(sPrime)
		lhs := 0.0
		for j := range subs {
			lhs += f.Eval(bitset.Union(sPrime, subs[j])) - fs
		}
		rhs := f.Eval(union) - fs
		if lhs < rhs-1e-9 {
			t.Fatalf("Lemma 2.1.1 violated: lhs=%v rhs=%v", lhs, rhs)
		}
	}
}

// oracleProblem builds a random budgeted problem over one of the
// incremental oracles: multi-item subsets with random costs and a partial
// threshold, so runs take several rounds and leave stale heap entries.
func oracleProblems(rng *rand.Rand) map[string]Problem {
	nItems := 24 + rng.Intn(16)
	ground := 40 + rng.Intn(20)

	sets := make([]*bitset.Set, nItems)
	for i := range sets {
		sets[i] = bitset.New(ground)
		for e := 0; e < ground; e++ {
			if rng.Intn(4) == 0 {
				sets[i].Add(e)
			}
		}
	}
	weights := make([]float64, ground)
	for i := range weights {
		weights[i] = 0.5 + rng.Float64()*4
	}
	benefit := make([][]float64, 12)
	for c := range benefit {
		benefit[c] = make([]float64, nItems)
		for i := range benefit[c] {
			benefit[c][i] = rng.Float64() * 10
		}
	}
	modWeights := make([]float64, nItems)
	for i := range modWeights {
		modWeights[i] = rng.Float64() * 10
	}

	subsets := make([]Subset, 30+rng.Intn(20))
	for i := range subsets {
		items := bitset.New(nItems)
		for it := 0; it < nItems; it++ {
			if rng.Intn(5) == 0 {
				items.Add(it)
			}
		}
		if items.Empty() {
			items.Add(rng.Intn(nItems))
		}
		subsets[i] = Subset{Elems: items.Elements(), Cost: 0.5 + rng.Float64()*3}
	}

	problems := map[string]Problem{}
	for name, f := range map[string]submodular.Function{
		"coverage-unit":       submodular.NewCoverage(ground, sets, nil),
		"coverage-weighted":   submodular.NewCoverage(ground, sets, weights),
		"facility-location":   submodular.NewFacilityLocation(benefit),
		"modular":             &submodular.Modular{Weights: modWeights},
		"concave-cardinality": submodular.NewSqrtCardinality(nItems),
	} {
		full := f.Eval(bitset.Full(nItems))
		problems[name] = Problem{F: f, Subsets: subsets, Threshold: 0.85 * full}
	}
	return problems
}

// TestGreedyMatchesLazy pins Greedy and LazyGreedy to each other on
// every incremental oracle — the Lemma 2.1.2 identical-picks guarantee
// of lazy evaluation.
func TestGreedyMatchesLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		for oracle, p := range oracleProblems(rng) {
			g, errG := Greedy(p, Options{Eps: 0.1})
			l, errL := LazyGreedy(p, Options{Eps: 0.1})
			if (errG == nil) != (errL == nil) {
				t.Fatalf("%s: feasibility disagreement: %v vs %v", oracle, errG, errL)
			}
			if errG != nil {
				continue
			}
			if !slices.Equal(g.Chosen, l.Chosen) {
				t.Fatalf("%s: greedy %v != lazy %v", oracle, g.Chosen, l.Chosen)
			}
		}
	}
}

// TestSerialLazyEvalsUnchanged guards the lazy path's probe accounting:
// the classical pop-one/re-probe loop never uses more oracle calls than
// plain Greedy.
func TestSerialLazyEvalsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for oracle, p := range oracleProblems(rng) {
		plain, errP := Greedy(p, Options{Eps: 0.1})
		lazy, errL := LazyGreedy(p, Options{Eps: 0.1})
		if errP != nil || errL != nil {
			continue
		}
		if lazy.Evals > plain.Evals {
			t.Fatalf("%s: serial lazy used more oracle calls (%d) than plain greedy (%d)",
				oracle, lazy.Evals, plain.Evals)
		}
	}
}

// TestLazyHeapPushDoesNotAllocate asserts the satellite win over
// container/heap: pushing into a pre-grown lazyHeap performs zero
// allocations (the old interface{}-boxed Push allocated one box per call).
func TestLazyHeapPushDoesNotAllocate(t *testing.T) {
	h := make(lazyHeap, 0, 256)
	allocs := testing.AllocsPerRun(50, func() {
		h = h[:0]
		for i := 0; i < 200; i++ {
			h.push(lazyEntry{idx: i, ratio: float64((i * 37) % 11)})
		}
		for len(h) > 0 {
			h.pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("lazyHeap push/pop allocated %v times per run, want 0", allocs)
	}
}

// TestLazyHeapOrdersLikeSort cross-checks the manual heap's pop order
// against the documented total order (ratio desc, idx asc) at every size
// from 0 to 70, which crosses the 4-ary heap's level boundaries (a second
// level starts at 2 entries, a third at 6, a fourth at 22, and 70 leaves
// the fourth partly filled). It fills the heap three ways: by push, by the bulk
// init newStepwise uses, and by interleaving pops with pushes that
// re-insert popped entries at a lower ratio, as re-pricing does with
// stale ones.
func TestLazyHeapOrdersLikeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	order := func(a, b lazyEntry) int {
		if a.ratio != b.ratio {
			if a.ratio > b.ratio {
				return -1
			}
			return 1
		}
		return a.idx - b.idx
	}
	for n := 0; n <= 70; n++ {
		entries := make([]lazyEntry, n)
		for i := range entries {
			entries[i] = lazyEntry{idx: i, ratio: float64(rng.Intn(8))}
		}
		rng.Shuffle(n, func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		want := slices.Clone(entries)
		slices.SortFunc(want, order)

		pushed := make(lazyHeap, 0, n)
		for _, e := range entries {
			pushed.push(e)
		}
		bulk := append(make(lazyHeap, 0, n), entries...)
		bulk.init()
		for _, c := range []struct {
			name string
			h    *lazyHeap
		}{{"push", &pushed}, {"init", &bulk}} {
			for i, w := range want {
				if got := c.h.pop(); got.idx != w.idx {
					t.Fatalf("n=%d %s: pop %d got idx %d, want %d", n, c.name, i, got.idx, w.idx)
				}
			}
		}

		// Interleaved: every pop is checked against the reference set;
		// a popped entry goes back in at a lower ratio half the time, and
		// new entries arrive between pops.
		h := append(make(lazyHeap, 0, n), entries...)
		h.init()
		ref := slices.Clone(want)
		next := n // indices of entries pushed mid-run
		for len(ref) > 0 {
			got := h.pop()
			if got.idx != ref[0].idx {
				t.Fatalf("n=%d interleaved: got idx %d, want %d", n, got.idx, ref[0].idx)
			}
			ref = ref[1:]
			if rng.Intn(2) == 0 {
				got.ratio -= float64(1 + rng.Intn(4))
				h.push(got)
				ref = append(ref, got)
				slices.SortFunc(ref, order)
			}
			if next < 2*n && rng.Intn(3) == 0 {
				e := lazyEntry{idx: next, ratio: float64(rng.Intn(8))}
				next++
				h.push(e)
				ref = append(ref, e)
				slices.SortFunc(ref, order)
			}
			if len(h) != len(ref) {
				t.Fatalf("n=%d interleaved: heap holds %d entries, want %d", n, len(h), len(ref))
			}
		}
	}
}

// TestValidateRejectsBadElems pins the Elems range check: an
// out-of-universe element is an error, in an ungrouped subset and in a
// grouped one (where validate checks each group's longest member only).
func TestValidateRejectsBadElems(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := oracleProblems(rng)["modular"]

	oob := p
	oob.Subsets = append([]Subset(nil), p.Subsets...)
	oob.Subsets[0] = Subset{Elems: []int{p.F.Universe()}, Cost: 1}
	if _, err := Greedy(oob, Options{Eps: 0.1}); err == nil {
		t.Fatalf("accepted an out-of-universe element")
	}

	n := p.F.Universe()
	for _, bad := range []int{-1, n} {
		grouped := Problem{F: p.F, Threshold: 1, Groups: []int{0, 2}, Subsets: []Subset{
			{Elems: []int{0}, Cost: 1}, {Elems: []int{0, bad}, Cost: 1}, {Elems: []int{1}, Cost: 1},
		}}
		if _, err := LazyGreedy(grouped, Options{Eps: 0.1}); err == nil || errors.Is(err, ErrInfeasible) {
			t.Fatalf("accepted out-of-universe element %d in a grouped subset (err %v)", bad, err)
		}
	}
}

// benchCoverProblem is the benchmarks' shared instance: 80 random sets
// over 100 elements, each element in a set with probability 1/5, to be
// covered up to 90 elements.
func benchCoverProblem() Problem {
	rng := rand.New(rand.NewSource(1))
	m := 100
	var sets [][]int
	var costs []float64
	for i := 0; i < 80; i++ {
		var s []int
		for e := 0; e < m; e++ {
			if rng.Intn(5) == 0 {
				s = append(s, e)
			}
		}
		sets = append(sets, s)
		costs = append(costs, 0.5+rng.Float64()*2)
	}
	p := setCoverProblem(m, sets, costs)
	p.Threshold = 90
	return p
}

func BenchmarkGreedyCover(b *testing.B) {
	p := benchCoverProblem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(p, Options{Eps: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLazyGreedyCover(b *testing.B) {
	p := benchCoverProblem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LazyGreedy(p, Options{Eps: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}
