package bipartite

import (
	"math/rand"
	"testing"
)

// randomEnableBatch draws a batch of X vertices, allowing duplicates and
// already-enabled vertices.
func randomEnableBatch(rng *rand.Rand, nx int) []int {
	xs := make([]int, 1+rng.Intn(4))
	for i := range xs {
		xs[i] = rng.Intn(nx)
	}
	return xs
}

// TestMatcherJournalReplay checks the forward-journal contract behind
// delta replay: a replica that applies the primary's journals stays
// bit-identical — same matching arrays, not just the same size.
func TestMatcherJournalReplay(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*6151 + 9))
		nx, ny := 1+rng.Intn(12), 1+rng.Intn(10)
		g := randomGraph(rng, nx, ny, 0.3)
		primary := NewMatcher(g)
		replica := primary.Clone()

		for step := 0; step < 8; step++ {
			xs := randomEnableBatch(rng, nx)
			gain, journal := primary.EnableSetJournaled(xs)
			// Probes on the primary must not disturb a handed-out journal.
			primary.GainOfSet(randomEnableBatch(rng, nx))
			replica.ApplyJournal(xs, journal, gain)

			if replica.Size() != primary.Size() {
				t.Fatalf("trial %d step %d: sizes diverged %d vs %d", trial, step, replica.Size(), primary.Size())
			}
			if !replica.Enabled().Equal(primary.Enabled()) {
				t.Fatalf("trial %d step %d: enabled sets diverged", trial, step)
			}
			for x := 0; x < nx; x++ {
				if replica.matchX[x] != primary.matchX[x] {
					t.Fatalf("trial %d step %d: matchX[%d] %d vs %d", trial, step, x, replica.matchX[x], primary.matchX[x])
				}
			}
			for y := 0; y < ny; y++ {
				if replica.matchY[y] != primary.matchY[y] {
					t.Fatalf("trial %d step %d: matchY[%d] %d vs %d", trial, step, y, replica.matchY[y], primary.matchY[y])
				}
			}
			// Future probes answer identically on both lineages.
			probe := randomEnableBatch(rng, nx)
			if g1, g2 := primary.GainOfSet(probe), replica.GainOfSet(probe); g1 != g2 {
				t.Fatalf("trial %d step %d: probe diverged %d vs %d", trial, step, g1, g2)
			}
		}
	}
}

// TestWeightedMatcherJournalReplay is the weighted counterpart of
// TestMatcherJournalReplay, additionally requiring exact float equality
// on the replayed value (the delta ships the realized gain, so no
// re-summation can drift).
func TestWeightedMatcherJournalReplay(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*4409 + 5))
		g, wy, order := randomWeightedInstance(rng)
		nx := g.NX()
		primary := NewWeightedMatcher(g, wy, order)
		replica := primary.Clone()

		for step := 0; step < 8; step++ {
			xs := randomEnableBatch(rng, nx)
			gain, journal := primary.EnableSetJournaled(xs)
			primary.GainOfSet(randomEnableBatch(rng, nx))
			replica.ApplyJournal(xs, journal, gain)

			if replica.Value() != primary.Value() {
				t.Fatalf("trial %d step %d: values diverged %v vs %v", trial, step, replica.Value(), primary.Value())
			}
			if !replica.Enabled().Equal(primary.Enabled()) {
				t.Fatalf("trial %d step %d: enabled sets diverged", trial, step)
			}
			for x := range replica.matchX {
				if replica.matchX[x] != primary.matchX[x] {
					t.Fatalf("trial %d step %d: matchX[%d] diverged", trial, step, x)
				}
			}
			for y := range replica.matchY {
				if replica.matchY[y] != primary.matchY[y] {
					t.Fatalf("trial %d step %d: matchY[%d] diverged", trial, step, y)
				}
			}
			probe := randomEnableBatch(rng, nx)
			if g1, g2 := primary.GainOfSet(probe), replica.GainOfSet(probe); g1 != g2 {
				t.Fatalf("trial %d step %d: probe diverged %v vs %v", trial, step, g1, g2)
			}
		}
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

// TestApplyJournalDoesNotAllocate pins the replica side of delta replay.
func TestApplyJournalDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 16, 12, 0.3)
	primary := NewMatcher(g)
	replica := primary.Clone()
	gain, journal := primary.EnableSetJournaled([]int{0, 1, 2, 3, 4})
	xs := []int{0, 1, 2, 3, 4}
	if allocs := testing.AllocsPerRun(50, func() { replica.ApplyJournal(xs, journal, gain) }); allocs != 0 {
		t.Fatalf("ApplyJournal allocates %v times, want 0", allocs)
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
