package secretary

import (
	"repro/internal/bitset"
	"repro/internal/matroid"
	"repro/internal/submodular"
)

// Offline comparators. The secretary experiments report competitive ratios
// against these: the (1−1/e) greedy for cardinality, matroid-gated greedy,
// and exact brute force on small universes.

// OfflineGreedyCardinality is the classical (1−1/e)-approximate greedy for
// max f(S) s.t. |S| ≤ k (monotone f).
func OfflineGreedyCardinality(f submodular.Function, k int) *bitset.Set {
	return offlineGreedy(f, k, unconstrained)
}

// OfflineGreedyMatroid greedily maximizes f subject to independence in all
// given matroids.
func OfflineGreedyMatroid(f submodular.Function, constraints matroid.Intersection) *bitset.Set {
	gate := func(t *bitset.Set, item int) bool { return matroid.CanAdd(constraints, t, item) }
	return offlineGreedy(f, f.Universe(), gate)
}

func offlineGreedy(f submodular.Function, k int, feasible feasibleFunc) *bitset.Set {
	if inc, ok := submodular.AsIncremental(f); ok {
		return offlineGreedyIncremental(inc, k, feasible)
	}
	n := f.Universe()
	sel := bitset.New(n)
	fSel := f.Eval(sel)
	for picks := 0; picks < k; picks++ {
		best, bestVal := -1, fSel
		for item := 0; item < n; item++ {
			if sel.Contains(item) || !feasible(sel, item) {
				continue
			}
			sel.Add(item)
			v := f.Eval(sel)
			sel.Remove(item)
			if v > bestVal {
				best, bestVal = item, v
			}
		}
		if best == -1 {
			break
		}
		sel.Add(best)
		fSel = bestVal
	}
	return sel
}

// offlineGreedyIncremental is offlineGreedy on an incremental oracle:
// identical picks, but each marginal is a stateful Gain probe instead of
// an Eval of the grown set from scratch. The selection is mirrored in a
// caller-owned set because feasibility gates (matroid.CanAdd) mutate the
// set they are handed, which the oracle's Base() forbids.
func offlineGreedyIncremental(inc submodular.Incremental, k int, feasible feasibleFunc) *bitset.Set {
	n := inc.Universe()
	sel := bitset.New(n)
	probe := [1]int{}
	for picks := 0; picks < k; picks++ {
		best, bestGain := -1, 0.0
		for item := 0; item < n; item++ {
			if sel.Contains(item) || !feasible(sel, item) {
				continue
			}
			probe[0] = item
			if gain := inc.Gain(probe[:]); gain > bestGain {
				best, bestGain = item, gain
			}
		}
		if best == -1 {
			break
		}
		probe[0] = best
		inc.Commit(probe[:])
		sel.Add(best)
	}
	return sel
}

// BruteForceMax exhaustively maximizes f over all subsets of size ≤ k that
// pass the feasibility predicate (nil means no constraint). Exponential;
// universes beyond ~20 items will not finish.
func BruteForceMax(f submodular.Function, k int, feasible func(*bitset.Set) bool) (*bitset.Set, float64) {
	n := f.Universe()
	best := bitset.New(n)
	bestVal := f.Eval(best)
	cur := bitset.New(n)
	var rec func(item, size int)
	rec = func(item, size int) {
		if item == n {
			return
		}
		rec(item+1, size)
		if size == k {
			return
		}
		cur.Add(item)
		if feasible == nil || feasible(cur) {
			if v := f.Eval(cur); v > bestVal {
				bestVal = v
				best = cur.Clone()
			}
			rec(item+1, size+1)
		}
		cur.Remove(item)
	}
	rec(0, 0)
	return best, bestVal
}
