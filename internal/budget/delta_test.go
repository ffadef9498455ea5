package budget

import (
	"math/rand"
	"slices"
	"testing"
)

// TestDeltaReplayDeterminism is the delta-mode contract: for every
// incremental oracle, Greedy and LazyGreedy with delta replay (the
// default at Workers > 1) pick exactly what the plain serial run and the
// NoDeltaReplay clone-and-replay runs pick, at every worker count.
func TestDeltaReplayDeterminism(t *testing.T) {
	algos := map[string]func(Problem, Options) (*Result, error){
		"greedy": Greedy,
		"lazy":   LazyGreedy,
	}
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*104729 + 17))
		for oracle, p := range oracleProblems(rng) {
			for algoName, algo := range algos {
				ref, refErr := algo(p, Options{Eps: 0.05})
				for _, workers := range []int{2, 4, 8} {
					for _, noDelta := range []bool{false, true} {
						got, gotErr := algo(p, Options{Eps: 0.05, Workers: workers, NoDeltaReplay: noDelta})
						if (refErr == nil) != (gotErr == nil) {
							t.Fatalf("%s/%s workers=%d noDelta=%t: feasibility disagreement: %v vs %v",
								oracle, algoName, workers, noDelta, refErr, gotErr)
						}
						if refErr != nil {
							continue
						}
						if !slices.Equal(ref.Chosen, got.Chosen) {
							t.Fatalf("%s/%s workers=%d noDelta=%t: picks diverged:\nserial %v\ndelta  %v",
								oracle, algoName, workers, noDelta, ref.Chosen, got.Chosen)
						}
						if ref.Cost != got.Cost || ref.Utility != got.Utility {
							t.Fatalf("%s/%s workers=%d noDelta=%t: cost/utility diverged: (%v,%v) vs (%v,%v)",
								oracle, algoName, workers, noDelta, ref.Cost, ref.Utility, got.Cost, got.Utility)
						}
					}
				}
			}
		}
	}
}

// TestElemsSubsetsEquivalent checks the element-list subset
// representation end to end: a problem whose subsets carry only Elems
// solves identically — picks, cost, utility, union — to the same problem
// with bitset Items, on the serial, parallel, and plain-Eval paths.
func TestElemsSubsetsEquivalent(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*6151 + 29))
		for oracle, p := range oracleProblems(rng) {
			elemsP := p
			elemsP.Subsets = make([]Subset, len(p.Subsets))
			for i, s := range p.Subsets {
				elemsP.Subsets[i] = Subset{Elems: s.Items.Elements(), Cost: s.Cost, Label: s.Label}
			}
			for _, opts := range []Options{
				{Eps: 0.05},
				{Eps: 0.05, Workers: 4},
				{Eps: 0.05, PlainEval: true},
			} {
				ref, refErr := LazyGreedy(p, opts)
				got, gotErr := LazyGreedy(elemsP, opts)
				if (refErr == nil) != (gotErr == nil) {
					t.Fatalf("%s workers=%d plain=%t: feasibility disagreement: %v vs %v",
						oracle, opts.Workers, opts.PlainEval, refErr, gotErr)
				}
				if refErr != nil {
					continue
				}
				if !slices.Equal(ref.Chosen, got.Chosen) {
					t.Fatalf("%s workers=%d plain=%t: picks diverged:\nitems %v\nelems %v",
						oracle, opts.Workers, opts.PlainEval, ref.Chosen, got.Chosen)
				}
				if ref.Utility != got.Utility || !ref.Union.Equal(got.Union) {
					t.Fatalf("%s workers=%d plain=%t: result diverged", oracle, opts.Workers, opts.PlainEval)
				}
			}
		}
	}
}

// TestValidateRejectsBadElems pins the Elems validation added alongside
// the representation: missing both representations and out-of-universe
// elements are errors.
func TestValidateRejectsBadElems(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := oracleProblems(rng)["modular"]

	missing := p
	missing.Subsets = append([]Subset(nil), p.Subsets...)
	missing.Subsets[0] = Subset{Cost: 1}
	if _, err := Greedy(missing, Options{Eps: 0.1}); err == nil {
		t.Fatalf("accepted a subset with neither Items nor Elems")
	}

	oob := p
	oob.Subsets = append([]Subset(nil), p.Subsets...)
	oob.Subsets[0] = Subset{Elems: []int{p.F.Universe()}, Cost: 1}
	if _, err := Greedy(oob, Options{Eps: 0.1}); err == nil {
		t.Fatalf("accepted an out-of-universe element")
	}
}

// TestStepwiseDeltaReplay runs the resumable solver with delta replay
// against its serial self, including runs seeded with exact initial
// gains — the seeded heap shares the same workspace sync machinery.
func TestStepwiseDeltaReplay(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*911 + 41))
		for oracle, p := range oracleProblems(rng) {
			ref, refErr := LazyGreedy(p, Options{Eps: 0.05})

			sw, err := NewStepwise(p, Options{Eps: 0.05, Workers: 4})
			if err != nil {
				t.Fatalf("%s: NewStepwise: %v", oracle, err)
			}
			got, gotErr := sw.Solve()
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: feasibility disagreement: %v vs %v", oracle, refErr, gotErr)
			}
			if refErr != nil {
				continue
			}
			if !slices.Equal(ref.Chosen, got.Chosen) {
				t.Fatalf("%s: stepwise delta picks diverged:\nserial %v\ndelta  %v", oracle, ref.Chosen, got.Chosen)
			}

			exact, err := NewStepwiseExact(p, Options{Eps: 0.05, Workers: 4}, initialGains(p))
			if err != nil {
				t.Fatalf("%s: NewStepwiseExact: %v", oracle, err)
			}
			eres, eerr := exact.Solve()
			if eerr != nil {
				t.Fatalf("%s: exact-seeded solve: %v", oracle, eerr)
			}
			if !slices.Equal(ref.Chosen, eres.Chosen) {
				t.Fatalf("%s: exact-seeded delta picks diverged:\nserial %v\nexact  %v", oracle, ref.Chosen, eres.Chosen)
			}
		}
	}
}
