package budget

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/submodular"
)

// evalFn gives any Function an incremental oracle that answers every
// probe by a from-scratch Eval of the base set plus the probed items — a
// reference oracle with no cleverness to get wrong. It cannot price
// prefixes.
type evalFn struct{ f submodular.Function }

func (e evalFn) Universe() int                          { return e.f.Universe() }
func (e evalFn) Eval(s *bitset.Set) float64             { return e.f.Eval(s) }
func (e evalFn) NewIncremental() submodular.Incremental { return newEvalInc(e.f) }

// prefixFn is evalFn whose oracle also prices prefixes
// (submodular.PrefixPricer), one Eval per prefix.
type prefixFn struct{ evalFn }

func (p prefixFn) NewIncremental() submodular.Incremental { return &prefixInc{newEvalInc(p.f)} }

type evalInc struct {
	f       submodular.Function
	base    *bitset.Set
	scratch *bitset.Set
	value   float64
}

func newEvalInc(f submodular.Function) *evalInc {
	n := f.Universe()
	inc := &evalInc{f: f, base: bitset.New(n), scratch: bitset.New(n)}
	inc.value = f.Eval(inc.base)
	return inc
}

func (o *evalInc) Universe() int              { return o.f.Universe() }
func (o *evalInc) Eval(s *bitset.Set) float64 { return o.f.Eval(s) }
func (o *evalInc) Base() *bitset.Set          { return o.base }
func (o *evalInc) Value() float64             { return o.value }

func (o *evalInc) Gain(items []int) float64 {
	o.scratch.CopyFrom(o.base)
	for _, it := range items {
		o.scratch.Add(it)
	}
	return o.f.Eval(o.scratch) - o.value
}

func (o *evalInc) Commit(items []int) float64 {
	gain := o.Gain(items)
	o.base.CopyFrom(o.scratch)
	o.value += gain
	return gain
}

func (o *evalInc) Reset() {
	o.base.Clear()
	o.value = o.f.Eval(o.base)
}

type prefixInc struct{ *evalInc }

func (o *prefixInc) PrefixGains(items []int, gains []float64) {
	o.scratch.CopyFrom(o.base)
	for i, it := range items {
		o.scratch.Add(it)
		gains[i] = o.f.Eval(o.scratch) - o.value
	}
}

// groupedProblem builds a random prefix-structured problem with an
// integral utility: unit-weight coverage over items, and subsets cut into
// groups whose members are prefixes, in random order and with repeats, of
// one random run of items. Costs are small integers (some zero), so ratio
// ties are common and the tie-break is exercised.
func groupedProblem(rng *rand.Rand, nItems, nGroups int) Problem {
	ground := 4 + rng.Intn(28)
	sets := make([]*bitset.Set, nItems)
	for i := range sets {
		sets[i] = bitset.New(ground)
		for e := 0; e < ground; e++ {
			if rng.Intn(4) == 0 {
				sets[i].Add(e)
			}
		}
	}
	cov := submodular.NewCoverage(ground, sets, nil)
	p := Problem{F: prefixFn{evalFn{cov}}}
	for g := 0; g < nGroups; g++ {
		run := rng.Perm(nItems)[:1+rng.Intn(min(nItems, 6))]
		p.Groups = append(p.Groups, len(p.Subsets))
		for k := 1 + rng.Intn(2*len(run)); k > 0; k-- {
			cost := float64(rng.Intn(5))
			if rng.Intn(8) == 0 {
				cost += 0.5
			}
			p.Subsets = append(p.Subsets, Subset{Elems: run[:1+rng.Intn(len(run))], Cost: cost})
		}
	}
	all := bitset.New(nItems)
	for _, s := range p.Subsets {
		for _, e := range s.Elems {
			all.Add(e)
		}
	}
	// An unreachable threshold now and then exercises ErrInfeasible.
	p.Threshold = float64(rng.Intn(int(cov.Eval(all)) + 2))
	return p
}

// checkGrouped solves p four ways — eager Greedy, the ungrouped
// LazyGreedy, and grouped runs with and without prefix pricing — and
// fails unless all four agree on feasibility, picks and trace, and the
// grouped run without prefix pricing bills LazyGreedy's evals exactly.
// A grouped run seeded with exact gains must also bill what its probing
// twin bills.
func checkGrouped(t *testing.T, p Problem) {
	t.Helper()
	opts := Options{Eps: 1 / (p.Threshold + 1)}
	plain := p
	plain.F = p.F.(prefixFn).evalFn
	ungrouped := plain
	ungrouped.Groups = nil

	eager, errE := Greedy(ungrouped, opts)
	lazy, errL := LazyGreedy(ungrouped, opts)
	noPrefix, errN := LazyGreedy(plain, opts)
	grouped, errG := LazyGreedy(p, opts)
	for _, c := range []struct {
		name string
		res  *Result
		err  error
	}{{"lazy", lazy, errL}, {"grouped without prefix pricing", noPrefix, errN}, {"grouped", grouped, errG}} {
		if (errE == nil) != (c.err == nil) {
			t.Fatalf("%s: feasibility disagreement with eager: %v vs %v", c.name, errE, c.err)
		}
		if errE != nil {
			if !errors.Is(c.err, ErrInfeasible) {
				t.Fatalf("%s: err = %v, want ErrInfeasible", c.name, c.err)
			}
			continue
		}
		if !slices.Equal(eager.Chosen, c.res.Chosen) || !slices.Equal(eager.Trace, c.res.Trace) {
			t.Fatalf("%s: picks %v, eager %v\ntrace %v\neager %v",
				c.name, c.res.Chosen, eager.Chosen, c.res.Trace, eager.Trace)
		}
	}
	if errE != nil {
		return
	}
	if noPrefix.Evals != lazy.Evals {
		t.Fatalf("grouped run without prefix pricing billed %d evals, LazyGreedy %d", noPrefix.Evals, lazy.Evals)
	}
	s, err := NewStepwiseExact(p, opts, initialGains(p))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := s.Solve()
	if err != nil || !slices.Equal(exact.Trace, grouped.Trace) || exact.Evals != grouped.Evals {
		t.Fatalf("exact-seeded grouped run (%v, %d evals) differs from the probing one (%v, %d evals): %v",
			exact.Chosen, exact.Evals, grouped.Chosen, grouped.Evals, err)
	}
}

// FuzzGroupedStepwise is the differential check of the grouped lazy
// greedy: on random prefix-structured problems with an integral utility,
// keying the heap by group and re-pricing a group with one prefix pass
// must not move a single pick (see checkGrouped).
func FuzzGroupedStepwise(f *testing.F) {
	for seed := int64(0); seed < 40; seed++ {
		f.Add(seed, uint8(3+seed%20), uint8(1+seed%9))
	}
	f.Fuzz(func(t *testing.T, seed int64, items, groups uint8) {
		nItems := 1 + int(items)%24
		nGroups := 1 + int(groups)%12
		checkGrouped(t, groupedProblem(rand.New(rand.NewSource(seed)), nItems, nGroups))
	})
}

// TestGroupedBrokenBoundCaught: a grouped run over the supermodular
// squareCount stops with ErrBrokenBound when the prefix pass re-prices a
// group. Subset 0 wins round 0 on the tie-break; group 1's pass then
// finds subset 1 at gain 3 above its bound 1.
func TestGroupedBrokenBoundCaught(t *testing.T) {
	p := Problem{F: prefixFn{evalFn{squareCount{3}}}, Threshold: 9, Groups: []int{0, 1}, Subsets: []Subset{
		{Elems: []int{0}, Cost: 1}, {Elems: []int{1}, Cost: 2}, {Elems: []int{1, 2}, Cost: 4},
	}}
	s, err := NewStepwise(p, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if st, ok, err := s.Step(); err != nil || !ok || st.Subset != 0 {
		t.Fatalf("round 0 = (%+v, %v, %v), want subset 0 picked", st, ok, err)
	}
	if _, err := s.Solve(); !errors.Is(err, ErrBrokenBound) {
		t.Fatalf("err = %v, want ErrBrokenBound", err)
	}
}

// TestValidateRejectsBadGroups: groups must start at 0, increase, and
// hold only prefixes of their longest member.
func TestValidateRejectsBadGroups(t *testing.T) {
	cov := submodular.NewCoverage(3, []*bitset.Set{bitset.Full(3), bitset.Full(3), bitset.Full(3)}, nil)
	subsets := []Subset{{Elems: []int{0}, Cost: 1}, {Elems: []int{0, 1}, Cost: 1}, {Elems: []int{2}, Cost: 1}}
	for _, groups := range [][]int{{}, {1}, {0, 0, 2}, {0, 2, 1}, {0, 3}, {0, 1, 2, 3}, {0, 2, 2}, {0}} {
		p := Problem{F: prefixFn{evalFn{cov}}, Subsets: subsets, Threshold: 3, Groups: groups}
		if _, err := LazyGreedy(p, Options{Eps: 0.1}); err == nil || errors.Is(err, ErrInfeasible) {
			t.Errorf("groups %v accepted (err %v)", groups, err)
		}
	}
	if _, err := LazyGreedy(Problem{F: prefixFn{evalFn{cov}}, Subsets: subsets, Threshold: 3, Groups: []int{0, 2}},
		Options{Eps: 0.1}); err != nil {
		t.Fatalf("valid groups rejected: %v", err)
	}
}
