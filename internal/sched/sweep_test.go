package sched

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

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

// forEachSweepInstance runs fn over random instances under every cost
// model, each with extra intervals drawn for it. Models are visited in
// sorted name order, since each draws its extras from the shared rng:
// every run checks the same cases.
func forEachSweepInstance(t *testing.T, trials int, fn func(label string, ins *Instance, extra []Interval)) {
	t.Helper()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*4099 + 7))
		base := randomOracleInstance(rng)
		models := sweepCostModels(rng, base.Procs, base.Horizon)
		for _, name := range slices.Sorted(maps.Keys(models)) {
			ins := *base
			ins.Cost = models[name]
			fn(fmt.Sprintf("trial %d %s", trial, name), &ins, sweepExtras(rng, ins.Procs, ins.Horizon))
		}
	}
}

// forEachSweepCase runs fn over forEachSweepInstance's instances under
// the EventPoints, SingleSlots and AllPairs candidate families, each with
// the instance's extra intervals appended. EventPoints with no extras
// runs as the nil (default) family.
func forEachSweepCase(t *testing.T, trials int, fn func(label string, ins *Instance, opts Options)) {
	t.Helper()
	forEachSweepInstance(t, trials, func(label string, ins *Instance, extra []Interval) {
		m, err := NewModel(ins)
		if err != nil {
			t.Fatal(err)
		}
		ev, _ := m.Candidates(EventPoints)
		for _, fam := range []struct {
			name string
			ivs  []Interval
		}{{"event-points", ev}, {"single-slots", singleSlots(m)}, {"all-pairs", allPairs(ins)}} {
			var opts Options
			if fam.name != "event-points" || len(extra) > 0 {
				opts.Candidates = append(fam.ivs, extra...)
			}
			fn(label+" "+fam.name, ins, opts)
		}
	})
}

// TestScheduleAllEvalsMatchLazyGreedy: the group-keyed ScheduleAll picks
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
		cands, err := m.buildCandidates(opts.Candidates)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ivs := opts.Candidates
		if ivs == nil {
			ivs, _ = m.Candidates(EventPoints)
		}
		var want []Interval
		for _, iv := range ivs {
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

// TestNilCandidatesMeanEventPoints: Options{Candidates: ev}, with ev the
// EventPoints enumeration, solves exactly as Options{} does — the same
// schedule and the same Evals — both cold and through a Session.
func TestNilCandidatesMeanEventPoints(t *testing.T) {
	forEachSweepInstance(t, 12, func(label string, ins *Instance, _ []Interval) {
		m, err := NewModel(ins)
		if err != nil {
			t.Fatal(err)
		}
		ev, _ := m.Candidates(EventPoints)
		solvers := map[string]func(Options) (*Schedule, error){
			"cold": func(opts Options) (*Schedule, error) { return ScheduleAll(ins, opts) },
			"session": func(opts Options) (*Schedule, error) {
				sess, err := NewSession(ins, opts)
				if err != nil {
					return nil, err
				}
				return sess.Solve()
			},
		}
		for path, solve := range solvers {
			want, wantErr := solve(Options{})
			got, gotErr := solve(Options{Candidates: ev})
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s %s: nil family err %v, EventPoints family err %v", label, path, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if err := got.SameAs(want); err != nil || got.Evals != want.Evals {
				t.Fatalf("%s %s: EventPoints family diverges from nil (evals %d vs %d): %v",
					label, path, got.Evals, want.Evals, err)
			}
		}
	})
}
