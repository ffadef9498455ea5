package sched

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/power"
)

// sweepCostModels returns one of each of the seven cost models for a
// procs × horizon instance, each behind an Unavailable mask that blocks a
// few random slots, so that some candidates price at +Inf and are pruned.
// The masks draw from rng in sorted name order, so a seed always yields
// the same models.
func sweepCostModels(rng *rand.Rand, procs, horizon int) map[string]power.CostModel {
	perProc := func(lo, spread float64) []float64 {
		out := make([]float64, procs)
		for p := range out {
			out[p] = lo + rng.Float64()*spread
		}
		return out
	}
	price := make([]float64, horizon)
	for t := range price {
		price[t] = 0.2 + rng.Float64()*2
	}
	models := map[string]power.CostModel{
		"affine":        power.Affine{Alpha: 2, Rate: 1},
		"per-processor": power.NewPerProcessor(perProc(1, 3), perProc(0.5, 1)),
		"time-of-use":   power.NewTimeOfUse(perProc(1, 3), perProc(0.5, 1), price),
		"superlinear":   power.Superlinear{Alpha: 2, Rate: 1, Fan: 0.3, Exp: 1.5},
		"speed-scaled":  power.NewSpeedScaled(perProc(1, 3), perProc(0.5, 1.5), 3),
		"sleep-state":   power.NewSleepState(3, 1, 0.5),
		"composite":     power.NewComposite(perProc(1, 3), perProc(0.5, 1.5), 3, price),
	}
	for _, name := range slices.Sorted(maps.Keys(models)) {
		u := power.NewUnavailable(models[name], horizon)
		for k := rng.Intn(3); k > 0; k-- {
			u.Block(rng.Intn(procs), rng.Intn(horizon))
		}
		models[name] = u.Freeze()
	}
	return models
}

// sweepExtras draws caller-supplied candidate intervals: arbitrary spans,
// some slotless, some crossing blocked slots (infinite cost).
func sweepExtras(rng *rand.Rand, procs, horizon int) []Interval {
	extra := make([]Interval, rng.Intn(4))
	for i := range extra {
		s := rng.Intn(horizon)
		extra[i] = Interval{Proc: rng.Intn(procs), Start: s, End: s + 1 + rng.Intn(horizon-s)}
	}
	return extra
}

// forEachSweepCase runs fn over random instances under every cost model
// and candidate policy, with extra intervals. Models are visited in
// sorted name order, since each draws its extras from the shared rng:
// every run checks the same cases.
func forEachSweepCase(t *testing.T, trials int, fn func(label string, ins *Instance, opts Options)) {
	t.Helper()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*4099 + 7))
		base := randomOracleInstance(rng)
		models := sweepCostModels(rng, base.Procs, base.Horizon)
		for _, name := range slices.Sorted(maps.Keys(models)) {
			ins := *base
			ins.Cost = models[name]
			extra := sweepExtras(rng, ins.Procs, ins.Horizon)
			for _, policy := range []CandidatePolicy{EventPoints, SingleSlots, AllPairs} {
				fn(fmt.Sprintf("trial %d %s %v", trial, name, policy), &ins, Options{Policy: policy, Extra: extra})
			}
		}
	}
}

// TestSweepGainsMatchGainOfSet: every prefix-sweep gain equals a separate
// GainOfSet probe of the candidate's slots from an empty matcher.
func TestSweepGainsMatchGainOfSet(t *testing.T) {
	forEachSweepCase(t, 12, func(label string, ins *Instance, opts Options) {
		m, err := NewModel(ins)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := m.buildCandidates(opts.Policy, opts.Extra)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		gains := m.sweepGains(cands)
		if len(gains) != len(cands) {
			t.Fatalf("%s: %d gains for %d candidates", label, len(gains), len(cands))
		}
		empty := bipartite.NewMatcher(m.G)
		for i, c := range cands {
			if want := float64(empty.GainOfSet(c.items)); gains[i] != want {
				t.Fatalf("%s: candidate %v swept gain %g, GainOfSet %g", label, c.iv, gains[i], want)
			}
		}
	})
}

// TestScheduleAllEvalsMatchLazyGreedy: the sweep-seeded ScheduleAll picks
// what the textbook budget.LazyGreedy (one heap entry per candidate, no
// groups) picks on the same problem, and bills no more oracle calls:
// re-pricing a first-slot group by one prefix pass replaces a probe per
// stale member.
func TestScheduleAllEvalsMatchLazyGreedy(t *testing.T) {
	forEachSweepCase(t, 6, func(label string, ins *Instance, opts Options) {
		m, err := NewModel(ins)
		if err != nil {
			t.Fatal(err)
		}
		got, errS := m.ScheduleAll(opts)
		ref, err := NewModel(ins)
		if err != nil {
			t.Fatal(err)
		}
		in, errI := ref.scheduleAllInput(opts)
		if (errS == nil) != (errI == nil) {
			t.Fatalf("%s: ScheduleAll err %v, input err %v", label, errS, errI)
		}
		if errI != nil {
			return
		}
		ungrouped := in.prob
		ungrouped.Groups = nil
		want, err := budget.LazyGreedy(ungrouped, budget.Options{Eps: in.eps})
		if err != nil {
			t.Fatalf("%s: LazyGreedy: %v", label, err)
		}
		if !slices.Equal(got.Intervals, chosenIntervals(in.cands, want.Chosen)) {
			t.Fatalf("%s: picks %v, LazyGreedy %v", label, got.Intervals, chosenIntervals(in.cands, want.Chosen))
		}
		if got.Evals > want.Evals {
			t.Fatalf("%s: ScheduleAll billed %d evals, LazyGreedy %d", label, got.Evals, want.Evals)
		}
	})
}

// TestCandidateItemsMatchIntervalItems: the slot runs the enumeration
// hands out are exactly IntervalItems of each candidate's interval, every
// finite-cost interval with slots becomes a candidate, and coverableSlots
// (which unions one run per first-slot group) equals the union of every
// candidate's items.
func TestCandidateItemsMatchIntervalItems(t *testing.T) {
	forEachSweepCase(t, 12, func(label string, ins *Instance, opts Options) {
		m, err := NewModel(ins)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := m.buildCandidates(opts.Policy, opts.Extra)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ivs, err := m.Candidates(opts.Policy)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var want []Interval
		for _, iv := range append(ivs, opts.Extra...) {
			if c := ins.Cost.Cost(iv.Proc, iv.Start, iv.End); !math.IsInf(c, 1) && len(m.IntervalItems(iv)) > 0 {
				want = append(want, iv)
			}
		}
		if len(cands) != len(want) {
			t.Fatalf("%s: %d candidates, want %d", label, len(cands), len(want))
		}
		union := bitset.New(len(m.Slots))
		for i, c := range cands {
			if c.iv != want[i] {
				t.Fatalf("%s: candidate %d is %v, want %v", label, i, c.iv, want[i])
			}
			if !slices.Equal(c.items, m.IntervalItems(c.iv)) {
				t.Fatalf("%s: candidate %v items %v, IntervalItems %v", label, c.iv, c.items, m.IntervalItems(c.iv))
			}
			for _, x := range c.items {
				union.Add(x)
			}
		}
		if got := coverableSlots(m, cands); !got.Equal(union) {
			t.Fatalf("%s: coverableSlots %v, union of candidate items %v", label, got.Elements(), union.Elements())
		}
	})
}
