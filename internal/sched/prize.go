package sched

import (
	"fmt"
	"math"

	"repro/internal/bipartite"
	"repro/internal/budget"
)

// PrizeCollecting schedules a subset of jobs of total value at least
// (1−ε)·Z at cost within O(log 1/ε) of any schedule of value ≥ Z
// (Theorem 2.3.1). ε comes from opts.Eps (default 0.1). It returns
// ErrValueUnreachable when no schedule achieves value Z.
func PrizeCollecting(ins *Instance, z float64, opts Options) (*Schedule, error) {
	model, err := NewModel(ins)
	if err != nil {
		return nil, err
	}
	return model.PrizeCollecting(z, opts)
}

// PrizeCollecting runs Theorem 2.3.1's algorithm on the prebuilt model
// (see Model.ScheduleAll for the reuse contract).
func (m *Model) PrizeCollecting(z float64, opts Options) (*Schedule, error) {
	return prizeCollecting(m, z, opts)
}

func prizeCollecting(model *Model, z float64, opts Options) (*Schedule, error) {
	ins := model.Ins
	if z < 0 {
		return nil, fmt.Errorf("sched: negative value threshold %g", z)
	}
	if z == 0 || len(ins.Jobs) == 0 {
		s := &Schedule{Assignment: make([]SlotKey, len(ins.Jobs))}
		for j := range s.Assignment {
			s.Assignment[j] = Unassigned
		}
		return s, nil
	}
	cands, err := model.buildCandidates(opts.Candidates)
	if err != nil {
		return nil, err
	}
	coverable := coverableSlots(model, cands)
	if best, _, _ := bipartite.WeightedValue(model.G, model.Values, model.Order, coverable); best < z {
		return nil, fmt.Errorf("%w: best achievable value %g < Z = %g", ErrValueUnreachable, best, z)
	}
	eps := opts.Eps
	if eps <= 0 {
		eps = 0.1
	}
	prob := budget.Problem{
		F:         weightedMatchFn{model},
		Subsets:   budgetSubsets(cands),
		Threshold: z,
	}
	// Prize modes stay on the eager greedy. The weighted utility is
	// float-valued, and the lazy heap can resolve exact floating-point
	// ties differently (see the budget package doc): switching would
	// change prize answers on the wire at equal cost and value.
	res, err := budget.Greedy(prob, budget.Options{Eps: eps})
	if err != nil {
		return nil, fmt.Errorf("sched: greedy failed: %w", err)
	}
	sched := extractWeighted(model, res.Union.Elements(), chosenIntervals(cands, res.Chosen))
	sched.Evals = res.Evals
	return sched, nil
}

// PrizeCollectingExact schedules value at least Z exactly, at cost within
// O((log n + log Δ)·B) of any schedule of value ≥ Z and cost B, where Δ is
// the max/min job-value ratio (Theorem 2.3.3).
//
// Following the proof, ε is set to vmin/(n·vmax) so that the residual value
// gap εZ is below vmin; the bicriteria greedy then misses Z by less than
// one job's value, and each subsequent cheapest value-increasing candidate
// interval closes at least vmin of the gap (weighted marginals are sums of
// job values by Lemma 2.3.2), so few augmentations suffice.
func PrizeCollectingExact(ins *Instance, z float64, opts Options) (*Schedule, error) {
	model, err := NewModel(ins)
	if err != nil {
		return nil, err
	}
	return model.PrizeCollectingExact(z, opts)
}

// PrizeCollectingExact runs Theorem 2.3.3's algorithm on the prebuilt
// model (see Model.ScheduleAll for the reuse contract).
func (m *Model) PrizeCollectingExact(z float64, opts Options) (*Schedule, error) {
	model, ins := m, m.Ins
	n := len(ins.Jobs)
	vmin, vmax := math.Inf(1), 0.0
	for _, job := range ins.Jobs {
		if job.Value > 0 {
			vmin = math.Min(vmin, job.Value)
			vmax = math.Max(vmax, job.Value)
		}
	}
	if n > 0 && vmax > 0 {
		opts.Eps = vmin / (float64(n) * vmax)
	}
	sched, err := prizeCollecting(model, z, opts)
	if err != nil {
		return nil, err
	}
	if sched.Value >= z {
		return sched, nil
	}
	// Augmentation loop from the proof of Theorem 2.3.3: add the cheapest
	// candidate interval that strictly increases the achievable value.
	cands, err := model.buildCandidates(opts.Candidates)
	if err != nil {
		return nil, err
	}
	awake := map[Interval]bool{}
	for _, iv := range sched.Intervals {
		awake[iv] = true
	}
	// The incremental weighted matcher keeps the matching alive across the
	// whole loop: each candidate probe is a snapshot GainOfSet instead of a
	// from-scratch WeightedValue rebuild.
	wm := bipartite.NewWeightedMatcher(model.G, model.Values, model.Order)
	for _, iv := range sched.Intervals {
		wm.EnableSet(model.IntervalItems(iv))
	}
	for wm.Value() < z {
		bestIdx, bestCost := -1, math.Inf(1)
		for i, c := range cands {
			if awake[c.iv] || c.cost >= bestCost {
				continue
			}
			if wm.GainOfSet(c.items) > 1e-12 {
				bestIdx, bestCost = i, c.cost
			}
		}
		if bestIdx == -1 {
			return nil, fmt.Errorf("%w: augmentation found no value-increasing interval at value %g of %g",
				ErrValueUnreachable, wm.Value(), z)
		}
		awake[cands[bestIdx].iv] = true
		wm.EnableSet(cands[bestIdx].items)
		sched.Intervals = append(sched.Intervals, cands[bestIdx].iv)
	}
	out := extractWeighted(model, wm.Enabled().Elements(), sched.Intervals)
	out.Evals = sched.Evals
	return out, nil
}
