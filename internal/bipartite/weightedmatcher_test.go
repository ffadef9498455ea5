package bipartite

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// randomWeightedInstance builds a random bipartite graph with job values
// drawn to include ties and zeros, the regimes where descending-weight
// greedy order matters most.
func randomWeightedInstance(rng *rand.Rand) (*Graph, []float64, []int) {
	nx := 1 + rng.Intn(12)
	ny := 1 + rng.Intn(10)
	g := NewGraph(nx, ny)
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			if rng.Intn(3) == 0 {
				g.AddEdge(x, y)
			}
		}
	}
	wy := make([]float64, ny)
	for y := range wy {
		switch rng.Intn(4) {
		case 0:
			wy[y] = 0 // zero-value jobs must never be saturated for value
		case 1:
			wy[y] = float64(1 + rng.Intn(3)) // small integers force ties
		default:
			wy[y] = rng.Float64() * 10
		}
	}
	return g, wy, WeightedOrder(wy)
}

// TestWeightedMatcherMatchesWeightedValue runs randomized Enable/Gain
// sequences and checks every committed value and probed gain against the
// from-scratch WeightedValue oracle.
func TestWeightedMatcherMatchesWeightedValue(t *testing.T) {
	const eps = 1e-9
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7919 + 1))
		g, wy, order := randomWeightedInstance(rng)
		m := NewWeightedMatcher(g, wy, order)
		enabled := bitset.New(g.NX())
		for step := 0; step < 8; step++ {
			// Random batch of slots to probe and maybe commit.
			var batch []int
			for x := 0; x < g.NX(); x++ {
				if rng.Intn(3) == 0 {
					batch = append(batch, x)
				}
			}
			base, _, _ := WeightedValue(g, wy, order, enabled)
			union := enabled.Clone()
			for _, x := range batch {
				union.Add(x)
			}
			want, _, _ := WeightedValue(g, wy, order, union)

			if got := m.GainOfSet(batch); abs(got-(want-base)) > eps {
				t.Fatalf("trial %d step %d: GainOfSet(%v) = %g, want %g (base %g)",
					trial, step, batch, got, want-base, base)
			}
			// The probe must be side-effect free.
			if abs(m.Value()-base) > eps {
				t.Fatalf("trial %d step %d: probe moved Value to %g, want %g", trial, step, m.Value(), base)
			}
			if !m.Enabled().Equal(enabled) {
				t.Fatalf("trial %d step %d: probe mutated enabled set", trial, step)
			}
			if rng.Intn(2) == 0 {
				m.EnableSet(batch)
				enabled = union
				if abs(m.Value()-want) > eps {
					t.Fatalf("trial %d step %d: committed Value = %g, want %g", trial, step, m.Value(), want)
				}
			}
		}
	}
}

// TestWeightedMatcherSingleEnable checks the one-vertex Enable path.
func TestWeightedMatcherSingleEnable(t *testing.T) {
	const eps = 1e-9
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*6271 + 3))
		g, wy, order := randomWeightedInstance(rng)
		m := NewWeightedMatcher(g, wy, order)
		enabled := bitset.New(g.NX())
		perm := rng.Perm(g.NX())
		for _, x := range perm {
			m.Enable(x)
			enabled.Add(x)
			want, _, _ := WeightedValue(g, wy, order, enabled)
			if abs(m.Value()-want) > eps {
				t.Fatalf("trial %d: after Enable(%d) Value = %g, want %g", trial, x, m.Value(), want)
			}
		}
		// Re-enabling everything is a no-op.
		for _, x := range perm {
			if gain := m.Enable(x); gain != 0 {
				t.Fatalf("trial %d: re-Enable(%d) gained %g", trial, x, gain)
			}
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
