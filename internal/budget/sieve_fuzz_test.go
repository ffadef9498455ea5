package budget

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/submodular"
)

// FuzzSieveStreaming decodes arbitrary bytes into a small coverage
// instance with integer costs and checks the sieve's whole contract on
// it: no panics, feasibility, the (1/2−ε) guarantee against the exact
// greedy on uniform costs (best-feasible-singleton on non-uniform), the
// bounded-memory claim (MaxLive ≤ LevelsPeak·(⌊B/min-cost⌋+1)), full
// determinism, and batch/streaming agreement.
//
// The byte layout is positional so corpus entries stay readable:
// data[0] elements, data[1] sets, data[2] budget, data[3] uniform flag,
// data[4] eps step; the tail drives set membership bits and, when
// non-uniform, per-set costs.
func FuzzSieveStreaming(f *testing.F) {
	f.Add([]byte{20, 15, 3, 0, 5, 0xa5, 0x5a, 0xff, 0x00, 0x3c, 0xc3, 0x0f, 0xf0})
	f.Add([]byte{31, 40, 7, 1, 12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{6, 3, 1, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		m := 4 + int(at(0))%29     // elements
		nSets := 1 + int(at(1))%40 // stream length
		budget := 1 + int(at(2))%8 // integer budget
		uniform := at(3)%2 == 0    // unit vs small integer costs
		eps := 0.05 + float64(at(4)%20)*0.01

		// The tail is a bit stream for memberships and a byte stream for
		// costs; exhausting it wraps around (always ≥ 1 byte via at).
		bitPos := 0
		nextBit := func() bool {
			i := 5 + bitPos/8
			b := at(i % max(len(data), 6))
			v := b>>(bitPos%8)&1 == 1
			bitPos++
			return v
		}
		bs := make([]*bitset.Set, nSets)
		subs := make([]Subset, nSets)
		minCost := math.Inf(1)
		for i := 0; i < nSets; i++ {
			var elems []int
			for e := 0; e < m; e++ {
				if nextBit() {
					elems = append(elems, e)
				}
			}
			bs[i] = bitset.FromSlice(m, elems)
			cost := 1.0
			if !uniform {
				cost = 1 + float64(at(5+nSets+i)%4)
			}
			if cost < minCost {
				minCost = cost
			}
			subs[i] = Subset{Elems: []int{i}, Cost: cost}
		}
		fn := submodular.NewCoverage(m, bs, nil)
		opts := SieveOptions{Eps: eps, Budget: float64(budget)}

		res, err := RunSieve(fn, subs, opts)
		if err != nil {
			t.Fatalf("valid instance rejected: %v", err)
		}

		// Feasibility: within budget, chosen indices valid and unique.
		if res.Cost > float64(budget)+tol {
			t.Fatalf("cost %g exceeds budget %d", res.Cost, budget)
		}
		seen := map[int]bool{}
		for _, i := range res.Chosen {
			if i < 0 || i >= nSets || seen[i] {
				t.Fatalf("invalid or duplicate pick %d in %v", i, res.Chosen)
			}
			seen[i] = true
		}

		// Bounded live candidate slots: each level holds at most
		// ⌊B/min-cost⌋ paid picks plus the freeze-step one.
		if nSets > 0 && !math.IsInf(minCost, 1) {
			bound := res.LevelsPeak * (int(float64(budget)/minCost) + 1)
			if res.MaxLive > bound {
				t.Fatalf("MaxLive %d exceeds LevelsPeak*(B/minc+1) = %d", res.MaxLive, bound)
			}
		}

		// Guarantee: (1/2−ε)·greedy on uniform costs, best feasible
		// singleton otherwise.
		if uniform {
			if !res.Uniform && nSets > 0 {
				t.Fatal("unit costs reported non-uniform")
			}
			ref := refBudgetedUtility(fn, subs, float64(budget), 0)
			if res.Utility < (0.5-eps)*ref-tol {
				t.Fatalf("utility %g < (1/2-eps)*greedy %g", res.Utility, ref)
			}
		} else {
			var bestSingle float64
			scratch := bitset.New(fn.Universe())
			for i := range subs {
				if subs[i].Cost > float64(budget) {
					continue
				}
				scratch.Clear()
				subs[i].unionInto(scratch)
				if v := fn.Eval(scratch); v > bestSingle {
					bestSingle = v
				}
			}
			if res.Utility < bestSingle-tol {
				t.Fatalf("utility %g below best feasible singleton %g", res.Utility, bestSingle)
			}
		}

		// Determinism.
		again, err := RunSieve(fn, subs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Chosen, res.Chosen) || again.Utility != res.Utility || again.Cost != res.Cost {
			t.Fatalf("nondeterministic: (%v,%g,%g) then (%v,%g,%g)",
				res.Chosen, res.Utility, res.Cost, again.Chosen, again.Utility, again.Cost)
		}

		// Streaming Offer/Finish picks the same solution as the batch.
		sv, err := NewSieve(fn, opts)
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
		if !reflect.DeepEqual(stream.Chosen, res.Chosen) || stream.Utility != res.Utility {
			t.Fatalf("streaming (%v,%g) != batch (%v,%g)",
				stream.Chosen, stream.Utility, res.Chosen, res.Utility)
		}
	})
}
