package secretary

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/matroid"
	"repro/internal/submodular"
)

func TestClassicalEdgeCases(t *testing.T) {
	if Classical(nil) != -1 {
		t.Fatal("empty stream should hire nobody")
	}
	if Classical([]float64{7}) != 0 {
		t.Fatal("singleton stream should hire the only candidate")
	}
	// Decreasing stream: bar set by first ⌊n/e⌋, nobody later exceeds.
	if got := Classical([]float64{5, 4, 3, 2, 1}); got != -1 {
		t.Fatalf("decreasing stream hired %d", got)
	}
	// Increasing stream: first post-observation candidate beats sample.
	if got := Classical([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Fatalf("increasing stream hired %d, want 1", got)
	}
}

func TestClassicalHiresBestAtOneOverE(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	n, trials := 50, 4000
	values := make([]float64, n)
	hits, walks := 0, 0
	for trial := 0; trial < trials; trial++ {
		perm := rng.Perm(n)
		bestPos := 0
		for pos, item := range perm {
			values[pos] = float64(item)
			if item == n-1 {
				bestPos = pos
			}
		}
		switch got := Classical(values); got {
		case bestPos:
			hits++
		case -1:
			walks++
		}
	}
	p := float64(hits) / float64(trials)
	if p < 0.30 || p > 0.45 {
		t.Fatalf("P[hire best] = %v, want ≈ 1/e", p)
	}
	// Walks away exactly when the best is inside the sample: ≈ 1/e too.
	w := float64(walks) / float64(trials)
	if w < 0.25 || w > 0.45 {
		t.Fatalf("P[no hire] = %v, want ≈ 1/e", w)
	}
}

func TestTopKCollectsConstantFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	n, k, trials := 60, 5, 400
	sum := 0.0
	optTop := 0.0
	for trial := 0; trial < trials; trial++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 100
		}
		perm := rng.Perm(n)
		stream := make([]float64, n)
		for pos, item := range perm {
			stream[pos] = vals[item]
		}
		sorted := append([]float64(nil), vals...)
		for i := 0; i < k; i++ { // partial selection sort for top-k sum
			maxJ := i
			for j := i + 1; j < n; j++ {
				if sorted[j] > sorted[maxJ] {
					maxJ = j
				}
			}
			sorted[i], sorted[maxJ] = sorted[maxJ], sorted[i]
			optTop += sorted[i]
		}
		for _, pos := range TopK(stream, k) {
			sum += stream[pos]
		}
	}
	ratio := sum / optTop
	if ratio < 0.25 {
		t.Fatalf("TopK ratio = %v, want a constant fraction", ratio)
	}
}

func TestTopKEdge(t *testing.T) {
	if TopK(nil, 3) != nil {
		t.Fatal("empty stream")
	}
	if got := TopK([]float64{1, 2}, 0); got != nil {
		t.Fatalf("k=0 hired %v", got)
	}
	if got := TopK([]float64{3}, 5); len(got) > 1 {
		t.Fatalf("k>n hired %v", got)
	}
}

// coverageStream builds a random coverage function over nItems sets.
func coverageStream(rng *rand.Rand, nItems, ground int) *submodular.Coverage {
	sets := make([]*bitset.Set, nItems)
	for i := range sets {
		sets[i] = bitset.New(ground)
		for e := 0; e < ground; e++ {
			if rng.Intn(5) == 0 {
				sets[i].Add(e)
			}
		}
	}
	return submodular.NewCoverage(ground, sets, nil)
}

// TestMonotoneSubmodularBound: Theorem 3.2.5's guarantee
// E[f(T)] ≥ (1−1/e)/(7e)·f(R), measured against the offline greedy (a
// lower bound on f(R), making the assertion conservative).
func TestMonotoneSubmodularBound(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	nItems, ground, k, trials := 40, 80, 8, 200
	f := coverageStream(rng, nItems, ground)
	opt := f.Eval(OfflineGreedyCardinality(f, k))
	if opt <= 0 {
		t.Fatal("degenerate instance")
	}
	total := 0.0
	for trial := 0; trial < trials; trial++ {
		picked := MonotoneSubmodular(f, rng.Perm(nItems), k)
		if picked.Count() > k {
			t.Fatalf("picked %d items with k=%d", picked.Count(), k)
		}
		total += f.Eval(picked)
	}
	avg := total / float64(trials)
	bound := (1 - 1/math.E) / (7 * math.E) * opt
	if avg < bound {
		t.Fatalf("avg %v below Theorem 3.2.5 bound %v (opt %v)", avg, bound, opt)
	}
	// Empirically Algorithm 1 does far better than the proof's constant;
	// flag if it collapses below a quarter of greedy.
	if avg < 0.25*opt {
		t.Fatalf("avg %v is suspiciously low vs greedy %v", avg, opt)
	}
}

func TestMonotoneSubmodularEdge(t *testing.T) {
	f := &submodular.Modular{Weights: []float64{1, 2, 3}}
	if got := MonotoneSubmodular(f, nil, 2); got.Count() != 0 {
		t.Fatal("empty stream picked items")
	}
	if got := MonotoneSubmodular(f, []int{0, 1, 2}, 0); got.Count() != 0 {
		t.Fatal("k=0 picked items")
	}
	// k > n still works.
	got := MonotoneSubmodular(f, []int{2, 0, 1}, 9)
	if got.Count() > 3 {
		t.Fatal("picked more than the stream")
	}
}

// TestSubmodularNonMonotone: Theorem 3.2.8's 8e² bound on cut functions,
// against the exact optimum via brute force.
func TestSubmodularNonMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	n, k, trials := 14, 4, 300
	cut := submodular.NewCut(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				cut.AddEdge(i, j, 1+rng.Float64()*3)
			}
		}
	}
	_, opt := BruteForceMax(cut, k, nil)
	if opt <= 0 {
		t.Fatal("degenerate cut instance")
	}
	total := 0.0
	for trial := 0; trial < trials; trial++ {
		picked := Submodular(cut, rng.Perm(n), k, rng)
		if picked.Count() > k {
			t.Fatalf("picked %d items with k=%d", picked.Count(), k)
		}
		total += cut.Eval(picked)
	}
	avg := total / float64(trials)
	bound := opt / (8 * math.E * math.E)
	if avg < bound {
		t.Fatalf("avg %v below 8e² bound %v (opt %v)", avg, bound, opt)
	}
}

// TestMatroidSecretary: Algorithm 3 output is always independent and
// clears a generous O(log² r) fraction of the offline matroid greedy.
func TestMatroidSecretary(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	nItems, ground, trials := 32, 60, 300
	f := coverageStream(rng, nItems, ground)
	class := make([]int, nItems)
	for i := range class {
		class[i] = i % 8
	}
	caps := []int{2, 2, 2, 2, 1, 1, 1, 1}
	constraints := matroid.NewIntersection(matroid.NewPartition(class, caps))
	r := constraints.MaxRank()
	opt := f.Eval(OfflineGreedyMatroid(f, constraints))
	total := 0.0
	for trial := 0; trial < trials; trial++ {
		picked := MatroidSubmodular(f, constraints, rng.Perm(nItems), rng)
		if !constraints.Independent(picked) {
			t.Fatalf("dependent output %v", picked)
		}
		total += f.Eval(picked)
	}
	avg := total / float64(trials)
	logR := math.Log2(float64(r)) + 1
	bound := opt / (8 * math.E * logR * logR)
	if avg < bound {
		t.Fatalf("avg %v below O(log² r) bound %v (opt %v, r %d)", avg, bound, opt, r)
	}
}

func TestMatroidSecretaryTwoConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	nItems := 24
	f := &submodular.Modular{Weights: make([]float64, nItems)}
	for i := range f.Weights {
		f.Weights[i] = rng.Float64() * 10
	}
	class := make([]int, nItems)
	for i := range class {
		class[i] = i % 6
	}
	m1 := matroid.NewPartition(class, []int{1, 1, 1, 1, 1, 1})
	m2 := matroid.Uniform{N: nItems, K: 4}
	constraints := matroid.NewIntersection(m1, m2)
	for trial := 0; trial < 100; trial++ {
		picked := MatroidSubmodularNonMonotone(f, constraints, rng.Perm(nItems), rng)
		if !constraints.Independent(picked) {
			t.Fatalf("violates a constraint: %v", picked)
		}
	}
}

// TestKnapsackSecretary: feasibility is maintained for every knapsack and
// the average value clears a generous O(l) fraction of the offline
// estimate.
func TestKnapsackSecretary(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	nItems, ground, trials := 30, 60, 300
	f := coverageStream(rng, nItems, ground)
	l := 2
	weights := make([][]float64, l)
	for i := range weights {
		weights[i] = make([]float64, nItems)
		for j := range weights[i] {
			weights[i][j] = 0.1 + rng.Float64()*0.4
		}
	}
	caps := []float64{1.5, 2}
	// Offline comparator on the full stream.
	all := make([]int, nItems)
	for i := range all {
		all[i] = i
	}
	w := reduceWeights(weights, caps, nItems)
	est := offlineKnapsackValue(f, w, all)
	if est <= 0 {
		t.Fatal("degenerate instance")
	}
	total := 0.0
	for trial := 0; trial < trials; trial++ {
		picked := Knapsack(f, weights, caps, rng.Perm(nItems), rng)
		if !FeasibleForKnapsacks(picked, weights, caps) {
			t.Fatalf("infeasible pick %v", picked)
		}
		total += f.Eval(picked)
	}
	avg := total / float64(trials)
	if avg < est/(20*float64(l)) {
		t.Fatalf("avg %v below O(l) fraction of offline %v", avg, est)
	}
}

// TestSubadditiveAlgorithm: the O(√n) guarantee on a modular function.
func TestSubadditiveAlgorithm(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	n, trials := 49, 400
	f := &submodular.Modular{Weights: make([]float64, n)}
	for i := range f.Weights {
		f.Weights[i] = rng.Float64() * 10
	}
	k := 7 // √n
	picked := bitset.New(n)
	opt := 0.0
	// OPT for modular with |S| ≤ k: top-k weights.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		maxJ := i
		for j := i + 1; j < n; j++ {
			if f.Weights[idx[j]] > f.Weights[idx[maxJ]] {
				maxJ = j
			}
		}
		idx[i], idx[maxJ] = idx[maxJ], idx[i]
		opt += f.Weights[idx[i]]
	}
	total := 0.0
	for trial := 0; trial < trials; trial++ {
		picked = Subadditive(f, rng.Perm(n), k, rng)
		if picked.Count() > k {
			t.Fatalf("picked %d > k=%d", picked.Count(), k)
		}
		total += f.Eval(picked)
	}
	avg := total / float64(trials)
	bound := opt / (4 * math.Sqrt(float64(n)))
	if avg < bound {
		t.Fatalf("avg %v below O(√n) bound %v (opt %v)", avg, bound, opt)
	}
}

// TestHiddenSetHardness: polynomially many probes of bounded size never
// see a value above 1 (Lemma 3.5.2), while the hidden optimum is large.
func TestHiddenSetHardness(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	n := 900
	k := 30 // = √n = m; λ=8 gives per-probe leak probability ≈ e^{-Ω(λ)}
	h := NewHiddenSet(rng, n, k, k, 8)
	if h.OptValue() < 3 {
		t.Skipf("planted set too small this seed: opt %v", h.OptValue())
	}
	// 2000 random probes of size ≤ m.
	for q := 0; q < 2000; q++ {
		s := bitset.New(n)
		size := 1 + rng.Intn(k)
		for j := 0; j < size; j++ {
			s.Add(rng.Intn(n))
		}
		if v := h.Eval(s); v > 1 {
			t.Fatalf("probe %d leaked value %v", q, v)
		}
	}
	// Greedy probing (grow a set by best marginal) learns nothing either:
	// all marginals are identical, so greedy is blind.
	s := bitset.New(n)
	for j := 0; j < k; j++ {
		s.Add(rng.Intn(n))
	}
	if v := h.Eval(s); v > 1 {
		t.Fatalf("greedy-style probe leaked value %v", v)
	}
}

// TestHiddenSetAlmostSubmodular: Proposition 3.5.3 — monotone, subadditive,
// and submodular up to additive 2.
func TestHiddenSetAlmostSubmodular(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	h := NewHiddenSet(rng, 60, 12, 12, 2)
	for trial := 0; trial < 400; trial++ {
		a, b := bitset.New(60), bitset.New(60)
		for e := 0; e < 60; e++ {
			if rng.Intn(2) == 0 {
				a.Add(e)
			}
			if rng.Intn(2) == 0 {
				b.Add(e)
			}
		}
		fa, fb := h.Eval(a), h.Eval(b)
		fu := h.Eval(bitset.Union(a, b))
		fi := h.Eval(bitset.Intersect(a, b))
		if fa+fb < fu+fi-2 {
			t.Fatalf("almost-submodularity violated: %v+%v < %v+%v-2", fa, fb, fu, fi)
		}
		if fu > fa+fb {
			t.Fatalf("subadditivity violated: %v > %v+%v", fu, fa, fb)
		}
		if !a.SubsetOf(bitset.Union(a, b)) || h.Eval(a) > fu {
			t.Fatalf("monotonicity violated")
		}
	}
}

// TestBottleneckMin: the rule hires at most k and, with probability
// bounded away from zero, exactly the k best candidates (Theorem 3.6.1
// promises ≥ 1/e^{2k}).
func TestBottleneckMin(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	n, k, trials := 40, 2, 4000
	exact := 0
	for trial := 0; trial < trials; trial++ {
		perm := rng.Perm(n)
		values := make([]float64, n)
		for pos, item := range perm {
			values[pos] = float64(item)
		}
		hired := BottleneckMin(values, k)
		if len(hired) > k {
			t.Fatalf("hired %d > k", len(hired))
		}
		if len(hired) == k {
			// Exactly the k best? (items n-1, n-2)
			got := map[float64]bool{}
			for _, pos := range hired {
				got[values[pos]] = true
			}
			if got[float64(n-1)] && got[float64(n-2)] {
				exact++
			}
		}
	}
	p := float64(exact) / float64(trials)
	bound := 1 / math.Exp(2*float64(k)) // 1/e^{2k} ≈ 0.018 for k=2
	if p < bound {
		t.Fatalf("P[hire k best] = %v below Theorem 3.6.1 bound %v", p, bound)
	}
}

func TestBottleneckEdge(t *testing.T) {
	if got := BottleneckMin(nil, 2); got != nil {
		t.Fatal("empty stream")
	}
	if got := BottleneckMin([]float64{1, 2}, 0); got != nil {
		t.Fatal("k=0")
	}
	// k >= n: observation window shrinks to n-1 at most.
	got := BottleneckMin([]float64{1, 2, 3}, 5)
	if len(got) == 0 {
		t.Fatal("should hire someone on an increasing stream")
	}
}

func TestOfflineGreedyVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	f := coverageStream(rng, 12, 25)
	k := 4
	greedy := f.Eval(OfflineGreedyCardinality(f, k))
	_, opt := BruteForceMax(f, k, nil)
	if greedy > opt+1e-9 {
		t.Fatalf("greedy %v beat brute force %v", greedy, opt)
	}
	if greedy < (1-1/math.E)*opt-1e-9 {
		t.Fatalf("greedy %v below (1-1/e)·OPT = %v", greedy, (1-1/math.E)*opt)
	}
}

func BenchmarkMonotoneSubmodular(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := coverageStream(rng, 60, 120)
	order := rng.Perm(60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MonotoneSubmodular(f, order, 10)
	}
}

func BenchmarkKnapsackSecretary(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := coverageStream(rng, 40, 80)
	weights := [][]float64{make([]float64, 40)}
	for j := range weights[0] {
		weights[0][j] = 0.1 + rng.Float64()*0.3
	}
	caps := []float64{1}
	order := rng.Perm(40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Knapsack(f, weights, caps, order, rng)
	}
}

// plainOnly hides a Function's incremental oracle, forcing the offline
// greedies onto their from-scratch Eval branch.
type plainOnly struct{ submodular.Function }

// TestOfflineGreedyPlainMatchesIncremental pins the offline comparators'
// two branches to each other: on unit-weight coverage (integral, so no
// floating-point tie can split them) the incremental-oracle greedy and
// the plain-Eval greedy pick identical sets, under a cardinality budget
// and under a matroid intersection.
func TestOfflineGreedyPlainMatchesIncremental(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*48611 + 19))
		n := 10 + rng.Intn(30)
		m := 20 + rng.Intn(40)
		sets := make([]*bitset.Set, n)
		for i := range sets {
			sets[i] = bitset.New(m)
			for e := 0; e < m; e++ {
				if rng.Intn(3) == 0 {
					sets[i].Add(e)
				}
			}
		}
		f := submodular.NewCoverage(m, sets, nil)
		if _, ok := submodular.AsIncremental(plainOnly{f}); ok {
			t.Fatal("plainOnly still exposes the incremental oracle")
		}

		k := 1 + rng.Intn(n)
		inc, plain := OfflineGreedyCardinality(f, k), OfflineGreedyCardinality(plainOnly{f}, k)
		if !inc.Equal(plain) {
			t.Fatalf("trial %d k=%d: cardinality picks diverged: incremental %v, plain %v", trial, k, inc, plain)
		}

		class := make([]int, n)
		for i := range class {
			class[i] = rng.Intn(4)
		}
		constraints := matroid.NewIntersection(
			matroid.NewPartition(class, []int{1, 2, 1, 2}),
			matroid.Uniform{N: n, K: 1 + rng.Intn(5)},
		)
		inc, plain = OfflineGreedyMatroid(f, constraints), OfflineGreedyMatroid(plainOnly{f}, constraints)
		if !inc.Equal(plain) {
			t.Fatalf("trial %d: matroid picks diverged: incremental %v, plain %v", trial, inc, plain)
		}
	}
}
