package bipartite

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

// bruteMatch computes the maximum matching restricted to the enabled X
// vertices by exhaustive recursion (small graphs only).
func bruteMatch(g *Graph, enabled *bitset.Set) int {
	xs := enabled.Elements()
	var rec func(i int, usedY uint64) int
	rec = func(i int, usedY uint64) int {
		if i == len(xs) {
			return 0
		}
		best := rec(i+1, usedY) // leave xs[i] unmatched
		for _, y := range g.adjX[xs[i]] {
			if usedY&(1<<uint(y)) == 0 {
				if v := 1 + rec(i+1, usedY|1<<uint(y)); v > best {
					best = v
				}
			}
		}
		return best
	}
	return rec(0, 0)
}

// bruteWeighted computes the maximum total Y-weight matching restricted to
// enabled X vertices by exhaustive recursion.
func bruteWeighted(g *Graph, wy []float64, enabled *bitset.Set) float64 {
	xs := enabled.Elements()
	var rec func(i int, usedY uint64) float64
	rec = func(i int, usedY uint64) float64 {
		if i == len(xs) {
			return 0
		}
		best := rec(i+1, usedY)
		for _, y := range g.adjX[xs[i]] {
			if usedY&(1<<uint(y)) == 0 {
				if v := wy[y] + rec(i+1, usedY|1<<uint(y)); v > best {
					best = v
				}
			}
		}
		return best
	}
	return rec(0, 0)
}

func randomGraph(rng *rand.Rand, nx, ny int, p float64) *Graph {
	g := NewGraph(nx, ny)
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			if rng.Float64() < p {
				g.AddEdge(x, y)
			}
		}
	}
	return g
}

func randomSubset(rng *rand.Rand, n int, p float64) *bitset.Set {
	s := bitset.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			s.Add(i)
		}
	}
	return s
}

func TestMaxMatchingKnown(t *testing.T) {
	// Perfect matching on K_{3,3}.
	g := NewGraph(3, 3)
	for x := 0; x < 3; x++ {
		for y := 0; y < 3; y++ {
			g.AddEdge(x, y)
		}
	}
	size, mx, my := MaxMatching(g, nil)
	if size != 3 {
		t.Fatalf("K33 matching = %d, want 3", size)
	}
	for x := 0; x < 3; x++ {
		if mx[x] == -1 || my[mx[x]] != int32(x) {
			t.Fatalf("inconsistent match arrays: %v %v", mx, my)
		}
	}
}

func TestMaxMatchingStar(t *testing.T) {
	// One Y vertex shared by many X: matching size 1.
	g := NewGraph(5, 1)
	for x := 0; x < 5; x++ {
		g.AddEdge(x, 0)
	}
	size, _, _ := MaxMatching(g, nil)
	if size != 1 {
		t.Fatalf("star matching = %d, want 1", size)
	}
}

func TestMaxMatchingRestricted(t *testing.T) {
	g := NewGraph(2, 2)
	g.AddEdge(0, 0)
	g.AddEdge(1, 1)
	en := bitset.FromSlice(2, []int{0})
	size, mx, _ := MaxMatching(g, en)
	if size != 1 {
		t.Fatalf("restricted matching = %d, want 1", size)
	}
	if mx[1] != -1 {
		t.Fatal("disabled vertex was matched")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewGraph(0, 0)
	if size, _, _ := MaxMatching(g, nil); size != 0 {
		t.Fatal("empty graph matching nonzero")
	}
	m := NewMatcher(g)
	if m.Size() != 0 {
		t.Fatal("empty matcher nonzero")
	}
}

func TestQuickHopcroftKarpVsBrute(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 1+rng.Intn(8), 1+rng.Intn(8), 0.4)
		en := randomSubset(rng, g.NX(), 0.7)
		size, _, _ := MaxMatching(g, en)
		return size == bruteMatch(g, en)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMatcherVsHopcroftKarp(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 1+rng.Intn(25), 1+rng.Intn(25), 0.25)
		m := NewMatcher(g)
		order := rng.Perm(g.NX())
		for _, x := range order[:rng.Intn(g.NX()+1)] {
			m.Enable(x)
		}
		want, _, _ := MaxMatching(g, m.Enabled())
		return m.Size() == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestGainOfSetMatchesCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng, 12, 10, 0.3)
		m := NewMatcher(g)
		for x := 0; x < 6; x++ {
			m.Enable(rng.Intn(12))
		}
		before := m.Size()
		var probe []int
		for i := 0; i < 4; i++ {
			probe = append(probe, rng.Intn(12))
		}
		gain := m.GainOfSet(probe)
		if m.Size() != before {
			t.Fatal("GainOfSet mutated matcher size")
		}
		enabledBefore := m.Enabled().Clone()
		commit := m.EnableSet(probe)
		if gain != commit {
			t.Fatalf("GainOfSet = %d but commit gained %d", gain, commit)
		}
		// Enabled set grew exactly by probe.
		for _, x := range probe {
			if !m.Enabled().Contains(x) {
				t.Fatal("commit did not enable probe vertex")
			}
		}
		_ = enabledBefore
	}
}

// TestPrefixGainsMatchGainOfSet: every prefix gain equals a separate
// GainOfSet probe of that prefix, over random committed bases and probe
// lists that repeat vertices and revisit enabled ones, and the sweep
// leaves the committed matching exactly as it found it.
func TestPrefixGainsMatchGainOfSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		g := randomGraph(rng, 14, 10, 0.3)
		m := NewMatcher(g)
		for i := rng.Intn(5); i > 0; i-- {
			m.Enable(rng.Intn(14))
		}
		xs := make([]int, 1+rng.Intn(10))
		for i := range xs {
			xs[i] = rng.Intn(14)
		}
		size, enabled := m.Size(), m.Enabled().Clone()
		matchX := make([]int, 14)
		for x := range matchX {
			matchX[x] = m.MatchOfX(x)
		}
		gains := make([]int, len(xs))
		m.PrefixGains(xs, gains)
		for i := range xs {
			if want := m.GainOfSet(xs[:i+1]); gains[i] != want {
				t.Fatalf("trial %d: prefix %d gain %d, GainOfSet %d", trial, i, gains[i], want)
			}
		}
		if m.Size() != size || !m.Enabled().Equal(enabled) {
			t.Fatalf("trial %d: PrefixGains mutated the committed matching", trial)
		}
		for x := range matchX {
			if m.MatchOfX(x) != matchX[x] {
				t.Fatalf("trial %d: PrefixGains left x=%d rematched", trial, x)
			}
		}
	}
}

func TestGainOfSetDoesNotMutateEnabled(t *testing.T) {
	g := NewGraph(3, 3)
	g.AddEdge(0, 0)
	g.AddEdge(1, 1)
	g.AddEdge(2, 2)
	m := NewMatcher(g)
	m.Enable(0)
	before := m.Enabled().Clone()
	m.GainOfSet([]int{1, 2})
	if !m.Enabled().Equal(before) {
		t.Fatal("GainOfSet mutated enabled set")
	}
}

// TestQuickMatchingSubmodular is Lemma 2.2.2 verified empirically:
// F(A)+F(B) >= F(A∪B)+F(A∩B) for the restricted matching function.
func TestQuickMatchingSubmodular(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(12), 2+rng.Intn(10), 0.35)
		a := randomSubset(rng, g.NX(), 0.5)
		b := randomSubset(rng, g.NX(), 0.5)
		fa, _, _ := MaxMatching(g, a)
		fb, _, _ := MaxMatching(g, b)
		fu, _, _ := MaxMatching(g, bitset.Union(a, b))
		fi, _, _ := MaxMatching(g, bitset.Intersect(a, b))
		return fa+fb >= fu+fi
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMatchingMonotone: F is monotone (more slots never hurt).
func TestQuickMatchingMonotone(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(12), 2+rng.Intn(10), 0.35)
		a := randomSubset(rng, g.NX(), 0.4)
		b := bitset.Union(a, randomSubset(rng, g.NX(), 0.4))
		fa, _, _ := MaxMatching(g, a)
		fb, _, _ := MaxMatching(g, b)
		return fa <= fb
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWeightedVsBrute(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 1+rng.Intn(8), 1+rng.Intn(7), 0.4)
		wy := make([]float64, g.NY())
		for i := range wy {
			wy[i] = float64(rng.Intn(10))
		}
		en := randomSubset(rng, g.NX(), 0.7)
		order := WeightedOrder(wy)
		got, _, _ := WeightedValue(g, wy, order, en)
		want := bruteWeighted(g, wy, en)
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWeightedSubmodular is Lemma 2.3.2 verified empirically.
func TestQuickWeightedSubmodular(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(10), 2+rng.Intn(8), 0.35)
		wy := make([]float64, g.NY())
		for i := range wy {
			wy[i] = float64(rng.Intn(8))
		}
		order := WeightedOrder(wy)
		a := randomSubset(rng, g.NX(), 0.5)
		b := randomSubset(rng, g.NX(), 0.5)
		fa, _, _ := WeightedValue(g, wy, order, a)
		fb, _, _ := WeightedValue(g, wy, order, b)
		fu, _, _ := WeightedValue(g, wy, order, bitset.Union(a, b))
		fi, _, _ := WeightedValue(g, wy, order, bitset.Intersect(a, b))
		return fa+fb >= fu+fi-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedOrderStable(t *testing.T) {
	order := WeightedOrder([]float64{2, 5, 5, 1})
	want := []int{1, 2, 0, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("WeightedOrder = %v, want %v", order, want)
		}
	}
}

func TestWeightedSkipsZeroValueJobs(t *testing.T) {
	g := NewGraph(1, 2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	wy := []float64{0, 3}
	v, _, my := WeightedValue(g, wy, WeightedOrder(wy), nil)
	if v != 3 {
		t.Fatalf("value = %v, want 3", v)
	}
	if my[0] != -1 {
		t.Fatal("zero-value job was matched")
	}
}

func TestWeightedGain(t *testing.T) {
	g := NewGraph(2, 2)
	g.AddEdge(0, 0)
	g.AddEdge(1, 1)
	wy := []float64{2, 5}
	order := WeightedOrder(wy)
	en := bitset.FromSlice(2, []int{0})
	base, _, _ := WeightedValue(g, wy, order, en)
	if base != 2 {
		t.Fatalf("base = %v", base)
	}
	if gain := WeightedGain(g, wy, order, en, []int{1}, base); gain != 5 {
		t.Fatalf("gain = %v, want 5", gain)
	}
}

// TestMatcherProbeDoesNotAllocate pins the undo-journal probe path: once
// the undo and added buffers are warm, GainOfSet and PrefixGains
// allocate nothing.
func TestMatcherProbeDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(rng, 16, 12, 0.3)
	m := NewMatcher(g)
	m.EnableSet([]int{0, 1, 2, 3})
	probe := []int{4, 5, 6, 7, 8}
	m.GainOfSet(probe) // warm the journals
	if allocs := testing.AllocsPerRun(50, func() { m.GainOfSet(probe) }); allocs != 0 {
		t.Fatalf("GainOfSet allocates %v times per probe, want 0", allocs)
	}
	gains := make([]int, len(probe))
	m.PrefixGains(probe, gains)
	if allocs := testing.AllocsPerRun(50, func() { m.PrefixGains(probe, gains) }); allocs != 0 {
		t.Fatalf("PrefixGains allocates %v times per sweep, want 0", allocs)
	}

	wy := make([]float64, 12)
	for y := range wy {
		wy[y] = float64(12 - y)
	}
	wm := NewWeightedMatcher(g, wy, WeightedOrder(wy))
	wm.EnableSet([]int{0, 1, 2, 3})
	wm.GainOfSet(probe)
	if allocs := testing.AllocsPerRun(50, func() { wm.GainOfSet(probe) }); allocs != 0 {
		t.Fatalf("weighted GainOfSet allocates %v times per probe, want 0", allocs)
	}
}

// TestAddEdgesMatchesAddEdge checks the bulk path builds the same graph
// as the incremental one, including on a graph that already has edges and
// with later AddEdge appends (the capacity-clipped spans must not let an
// append clobber a neighbor's list).
func TestAddEdgesMatchesAddEdge(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*911 + 3))
		nx, ny := 1+rng.Intn(10), 1+rng.Intn(10)

		var edges []Edge
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, Edge{X: x, Y: y})
				}
			}
		}
		split := 0
		if len(edges) > 0 {
			split = rng.Intn(len(edges))
		}

		want := NewGraph(nx, ny)
		for _, e := range edges {
			want.AddEdge(e.X, e.Y)
		}

		got := NewGraph(nx, ny)
		for _, e := range edges[:split] {
			got.AddEdge(e.X, e.Y) // pre-existing adjacency
		}
		got.AddEdges(edges[split:])

		// Post-bulk single-edge appends must not corrupt arena neighbors.
		extraX := rng.Intn(nx)
		for y := 0; y < ny; y++ {
			want.AddEdge(extraX, y)
			got.AddEdge(extraX, y)
		}

		if got.Edges() != want.Edges() {
			t.Fatalf("trial %d: edge counts %d vs %d", trial, got.Edges(), want.Edges())
		}
		for x := 0; x < nx; x++ {
			if !equalInt32(got.adjX[x], want.adjX[x]) {
				t.Fatalf("trial %d: adjX[%d] = %v, want %v", trial, x, got.adjX[x], want.adjX[x])
			}
		}
		for y := 0; y < ny; y++ {
			if !equalInt32(got.adjY[y], want.adjY[y]) {
				t.Fatalf("trial %d: adjY[%d] = %v, want %v", trial, y, got.adjY[y], want.adjY[y])
			}
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAddEdgesOutOfRangePanics mirrors AddEdge's contract.
func TestAddEdgesOutOfRangePanics(t *testing.T) {
	g := NewGraph(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatalf("AddEdges accepted an out-of-range edge")
		}
	}()
	g.AddEdges([]Edge{{X: 0, Y: 5}})
}

func BenchmarkHopcroftKarp(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 500, 400, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxMatching(g, nil)
	}
}

// BenchmarkIncrementalEnable times enabling every X vertex of a random
// 500×400 graph one at a time. edges/op counts the adjacency entries the
// augmenting searches examined: a host-independent work figure.
func BenchmarkIncrementalEnable(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 500, 400, 0.02)
	order := rng.Perm(500)
	var scans int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMatcher(g)
		for _, x := range order {
			m.Enable(x)
		}
		scans += m.EdgeScans()
	}
	b.ReportMetric(float64(scans)/float64(b.N), "edges/op")
}

// BenchmarkPrefixGains times one prefix sweep — the gains of enabling
// each prefix of a 32-vertex run against a half-enabled matcher, as the
// scheduler prices a group of candidate intervals — on
// BenchmarkIncrementalEnable's graph. edges/op is as there.
func BenchmarkPrefixGains(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 500, 400, 0.02)
	order := rng.Perm(500)
	m := NewMatcher(g)
	m.EnableSet(order[:250])
	run := order[250:282]
	gains := make([]int, len(run))
	scans := m.EdgeScans()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PrefixGains(run, gains)
	}
	b.ReportMetric(float64(m.EdgeScans()-scans)/float64(b.N), "edges/op")
}

func BenchmarkWeightedValue(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 300, 200, 0.03)
	wy := make([]float64, 200)
	for i := range wy {
		wy[i] = rng.Float64() * 10
	}
	order := WeightedOrder(wy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WeightedValue(g, wy, order, nil)
	}
}
