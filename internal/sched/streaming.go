package sched

// streaming.go is the scheduling face of the budget package's sieve
// tier: bounded-memory single-pass solving for instances too large for
// per-round candidate re-enumeration (Options.Streaming, the ROADMAP's
// "massive instances" item).
//
// Two entry points:
//
//   - ScheduleBudget: the budgeted maximum-coverage primitive — wake
//     intervals costing at most the given budget, scheduling as many
//     jobs as a single sieve pass can ((1/2−ε)·OPT under uniform
//     per-slot pricing, heuristic otherwise).
//   - scheduleAllStreaming: ScheduleAll's streaming path — repeated
//     residual sieve passes under a doubling budget until every job is
//     matched. Each pass streams the candidates once against the
//     residual utility F(S ∪ ·); a pass that clears the (1/2−ε) bar
//     commits its picks (the residual shrinks geometrically, so full
//     coverage takes O(log n) committed passes), a pass that falls
//     short doubles the budget instead. The Hall feasibility check and
//     the all-jobs-scheduled contract are identical to the exact path.
//
// Candidate policy matters at scale: EventPoints enumerates a quadratic
// candidate set, so massive instances should stream SingleSlots
// candidates (linear in the slot count; workload.MassiveInstance
// produces instances shaped for exactly that).

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/submodular"
)

// maxStreamDoublings bounds the budget ladder: once the budget exceeds
// the total candidate cost a pass accepts every positive-gain candidate,
// so the ladder converges long before this backstop trips.
const maxStreamDoublings = 64

// ScheduleBudget wakes intervals costing at most budget and schedules as
// many jobs as they can host, via one bounded-memory sieve pass over the
// candidate intervals (budget.RunSieve). Under uniform candidate pricing
// the scheduled count is at least (1/2−ε)·OPT for that budget; see
// Options.StreamEps. Unlike ScheduleAll it never fails on infeasible
// instances — unreachable jobs simply stay Unassigned.
func ScheduleBudget(ins *Instance, budgetLimit float64, opts Options) (*Schedule, error) {
	model, err := NewModel(ins)
	if err != nil {
		return nil, err
	}
	return model.ScheduleBudget(budgetLimit, opts)
}

// ScheduleBudget is the model form of the package-level ScheduleBudget.
func (m *Model) ScheduleBudget(budgetLimit float64, opts Options) (*Schedule, error) {
	n := len(m.Ins.Jobs)
	if n == 0 {
		return &Schedule{Assignment: []SlotKey{}}, nil
	}
	cands, err := m.buildCandidates(opts.Policy, opts.Extra)
	if err != nil {
		return nil, err
	}
	res, err := budget.RunSieve(matchFn{m}, budgetSubsets(cands), budget.SieveOptions{
		Eps: opts.streamEps(), Budget: budgetLimit, Cap: float64(n),
	})
	if err != nil {
		return nil, fmt.Errorf("sched: sieve failed: %w", err)
	}
	var sched *Schedule
	if res.Union == nil {
		sched = extractUnweighted(m, nil, nil)
	} else {
		sched = extractUnweighted(m, res.Union.Elements(), chosenIntervals(cands, res.Chosen))
	}
	sched.Evals = res.Evals
	return sched, nil
}

// residualMatchFn is the matching utility with a pre-committed awake
// base: fresh incremental oracles start from the base matching, so a
// sieve pass over it optimizes the residual F(S ∪ ·) − F(S) (the sieve
// measures all utilities above F of the oracle's initial state).
type residualMatchFn struct {
	m    *Model
	base []int // awake slot indices committed by earlier passes
}

// Universe implements submodular.Function.
func (f residualMatchFn) Universe() int { return len(f.m.Slots) }

// Eval implements submodular.Function (absolute, not residual — the
// sieve only consumes the incremental surface, which handles the base
// offset itself).
func (f residualMatchFn) Eval(s *bitset.Set) float64 {
	u := s.Clone()
	for _, x := range f.base {
		u.Add(x)
	}
	return float64(bipartite.MaxMatchingSize(f.m.G, u))
}

// NewIncremental implements submodular.IncrementalProvider.
func (f residualMatchFn) NewIncremental() submodular.Incremental {
	inc := matchFn{f.m}.NewIncremental()
	if len(f.base) > 0 {
		inc.Commit(f.base)
	}
	return inc
}

// scheduleAllStreaming is ScheduleAll's sieve path. The caller has
// checked n > 0 and Options.Streaming; the job-count threshold is
// checked here so Session/Engine can share the dispatch.
func (m *Model) scheduleAllStreaming(opts Options) (*Schedule, error) {
	n := len(m.Ins.Jobs)
	in, err := m.scheduleAllInput(opts)
	if err != nil {
		return nil, err // includes the Hall witness, identical to exact
	}
	eps := opts.streamEps()

	// Opening budget: enough for n jobs at the best cost-per-slot rate
	// seen in the stream, and never below the cheapest single candidate.
	minCost, minPerItem := 0.0, 0.0
	for i := range in.cands {
		c := &in.cands[i]
		if minCost == 0 || c.cost < minCost {
			minCost = c.cost
		}
		if per := c.cost / float64(len(c.items)); minPerItem == 0 || per < minPerItem {
			minPerItem = per
		}
	}
	b := float64(n) * minPerItem
	if b < minCost {
		b = minCost
	}
	if b <= 0 {
		b = 1
	}

	base := bitset.New(len(m.Slots))
	var chosen []int
	var evals int64
	covered := 0.0
	target := float64(n)
	for pass := 0; pass <= maxStreamDoublings; pass++ {
		rem := target - covered
		if rem <= 1e-9 {
			break
		}
		res, err := budget.RunSieve(
			residualMatchFn{m: m, base: base.Elements()},
			in.prob.Subsets,
			budget.SieveOptions{Eps: eps, Budget: b, Cap: rem},
		)
		if err != nil {
			return nil, fmt.Errorf("sched: sieve failed: %w", err)
		}
		evals += res.Evals
		// Commit the pass only when it clears the guarantee bar: below
		// it the budget is (by the contrapositive of the sieve
		// guarantee, for uniform costs) too small to cover the residual,
		// so double and retry. Committing only good passes keeps the
		// number of committed passes O(log n).
		if res.Utility >= (0.5-eps)*rem-1e-9 && res.Utility > 1e-9 {
			for _, i := range res.Chosen {
				chosen = append(chosen, i)
			}
			base.UnionWith(res.Union)
			covered += res.Utility
		} else {
			b *= 2
		}
	}
	if covered < target-1e-9 {
		// The doubling ladder is exhausted (arithmetically unreachable
		// after the Hall check passed) — fall back to the exact greedy.
		return m.scheduleAllExact(opts, in, evals)
	}
	res := &budget.Result{Chosen: chosen, Union: base, Utility: covered, Evals: evals}
	return m.finishScheduleAll(opts, in, res)
}

// scheduleAllExact runs the exact greedy — the stepwise lazy greedy, its
// initial heap priced by the prefix sweep — over an already-built solve
// input, charging any oracle evals spent before the fallback. PlainOracle
// runs skip the sweep and probe every candidate through Eval, keeping
// the from-scratch arm independent of the matcher machinery.
func (m *Model) scheduleAllExact(opts Options, in *solveInput, priorEvals int64) (*Schedule, error) {
	bopts := budget.Options{Eps: in.eps, PlainEval: opts.PlainOracle}
	var sw *budget.Stepwise
	var err error
	if opts.PlainOracle {
		sw, err = budget.NewStepwise(in.prob, bopts)
	} else {
		gains := m.sweepGains(in.cands)
		prob := in.prob
		prob.F = sweptMatchFn{matchFn{m}}
		sw, err = budget.NewStepwiseExact(prob, bopts, gains)
	}
	if err != nil {
		return nil, fmt.Errorf("sched: greedy failed: %w", err)
	}
	res, err := sw.Solve()
	if err != nil {
		return nil, fmt.Errorf("sched: greedy failed: %w", err)
	}
	res.Evals += priorEvals
	return m.finishScheduleAll(opts, in, res)
}
