package sched

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
)

// ScheduleAll schedules every job, minimizing total awake-interval cost
// (Theorem 2.2.1). If a feasible schedule of cost B exists, the returned
// schedule costs O(B log n). It returns ErrUnschedulable when even waking
// every usable slot cannot host all jobs.
func ScheduleAll(ins *Instance, opts Options) (*Schedule, error) {
	model, err := NewModel(ins)
	if err != nil {
		return nil, err
	}
	return model.ScheduleAll(opts)
}

// ScheduleAll runs Theorem 2.2.1's algorithm on the prebuilt model: the
// lazy budgeted greedy (budget.LazyGreedy) over the candidate intervals,
// grouped by first slot so that one prefix pass prices a whole group.
// Reusing one Model across calls on the same instance (as the serving
// layer's workers do for a batch) amortizes graph construction and the
// per-processor slot indexes. Solves reuse per-model scratch buffers
// (prefix pricing of long runs), so a Model must not be shared between
// goroutines running concurrently — the contract it always had.
func (m *Model) ScheduleAll(opts Options) (*Schedule, error) {
	n := len(m.Ins.Jobs)
	if n == 0 {
		return &Schedule{Assignment: []SlotKey{}}, nil
	}
	in, err := m.scheduleAllInput(opts)
	if err != nil {
		return nil, err
	}
	res, err := budget.LazyGreedy(in.prob, budget.Options{Eps: in.eps})
	if err != nil {
		return nil, fmt.Errorf("sched: greedy failed: %w", err)
	}
	return m.finishScheduleAll(opts, in, res)
}

// solveInput is the prepared greedy problem for one schedule-all run: the
// priced candidate intervals, the budget problem over them, and the
// resolved ε.
type solveInput struct {
	cands []candidate
	prob  budget.Problem
	eps   float64
}

// scheduleAllInput prices candidates, performs the Hall feasibility check
// over the coverable slots, and assembles Theorem 2.2.1's budget problem.
func (m *Model) scheduleAllInput(opts Options) (*solveInput, error) {
	n := len(m.Ins.Jobs)
	cands, err := m.buildCandidates(opts.Candidates)
	if err != nil {
		return nil, err
	}
	// Feasibility over the *coverable* slots: a slot counts only if some
	// finite-cost candidate interval contains it, so unavailability
	// (infinite-cost intervals) correctly shrinks the witness.
	coverable := coverableSlots(m, cands)
	if full := bipartite.MaxMatchingSize(m.G, coverable); full < n {
		jobs, slotIdx := bipartite.HallWitness(m.G, coverable)
		witness := &UnschedulableError{Matched: full, Jobs: jobs}
		for _, x := range slotIdx {
			witness.Slots = append(witness.Slots, m.Slots[x])
		}
		return nil, witness
	}
	eps := opts.Eps
	if eps <= 0 {
		// Theorem 2.2.1: ε = 1/(n+1) forces the integer utility to reach n.
		eps = 1 / float64(n+1)
	}
	return &solveInput{
		cands: cands,
		prob: budget.Problem{
			F:         matchFn{m},
			Subsets:   budgetSubsets(cands),
			Threshold: float64(n),
			Groups:    candidateGroups(cands),
		},
		eps: eps,
	}, nil
}

// finishScheduleAll extracts the schedule from a completed greedy run.
func (m *Model) finishScheduleAll(opts Options, in *solveInput, res *budget.Result) (*Schedule, error) {
	n := len(m.Ins.Jobs)
	sched := extractUnweighted(m, res.Union.Elements(), chosenIntervals(in.cands, res.Chosen))
	sched.Evals = res.Evals
	if sched.Scheduled < n && opts.Eps <= 0 {
		// With the default ε this is impossible (utility is integral);
		// guard against arithmetic drift anyway.
		return nil, fmt.Errorf("%w: greedy stopped at %d of %d", ErrUnschedulable, sched.Scheduled, n)
	}
	return sched, nil
}

// chosenIntervals maps picked candidate indices back to intervals.
func chosenIntervals(cands []candidate, idx []int) []Interval {
	out := make([]Interval, len(idx))
	for i, c := range idx {
		out[i] = cands[c].iv
	}
	return out
}

// extractUnweighted runs a final maximum matching over the awake slots and
// converts it into a Schedule.
func extractUnweighted(model *Model, awake []int, intervals []Interval) *Schedule {
	enabled := enabledSet(model, awake)
	_, _, matchY := bipartite.MaxMatching(model.G, enabled)
	return buildSchedule(model, matchY, intervals)
}

// extractWeighted runs a final maximum-value matching over the awake slots.
func extractWeighted(model *Model, awake []int, intervals []Interval) *Schedule {
	enabled := enabledSet(model, awake)
	_, _, matchY := bipartite.WeightedValue(model.G, model.Values, model.Order, enabled)
	return buildSchedule(model, matchY, intervals)
}

func enabledSet(model *Model, awake []int) *bitset.Set {
	s := bitset.New(len(model.Slots))
	for _, x := range awake {
		s.Add(x)
	}
	return s
}

// coverableSlots returns the union of all finite-cost candidates' slots:
// the union of each first-slot group's longest run (firstSlotGroup), which
// holds every other list of its group.
func coverableSlots(model *Model, cands []candidate) *bitset.Set {
	s := bitset.New(len(model.Slots))
	for lo := 0; lo < len(cands); {
		hi, run := firstSlotGroup(cands, lo)
		for _, x := range run {
			s.Add(x)
		}
		lo = hi
	}
	return s
}

func buildSchedule(model *Model, matchY []int32, intervals []Interval) *Schedule {
	assignment := make([]SlotKey, len(model.Ins.Jobs))
	value := 0.0
	scheduled := 0
	for j := range assignment {
		if x := matchY[j]; x >= 0 {
			assignment[j] = model.Slots[x]
			value += model.Values[j]
			scheduled++
		} else {
			assignment[j] = Unassigned
		}
	}
	cost := 0.0
	for _, iv := range intervals {
		cost += model.Ins.Cost.Cost(iv.Proc, iv.Start, iv.End)
	}
	return &Schedule{
		Intervals: intervals, Assignment: assignment,
		Cost: cost, Value: value, Scheduled: scheduled,
	}
}
