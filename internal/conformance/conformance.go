// Package conformance is the reusable invariant harness behind the
// scenario-matrix tests: exported checkers for the two contracts every
// cost model and every solve path must satisfy, callable from ordinary
// tests, fuzz targets, and future packages alike.
//
// The point of the package is that adding a cost model (or a mutation
// kind, or a solve path) must not require writing a new test file — the
// model becomes one row in the matrix test (matrix_test.go) and every
// checker here runs against it:
//
//   - CostModel contract (power package doc): Cost never panics, never
//     returns NaN/−Inf/negative, prices out-of-range processors and
//     beyond-horizon slots at +Inf when the model declares bounds, and is
//     safe for concurrent readers (CheckCostModel, CheckMonotone,
//     CheckConcurrent).
//   - Solver contract: schedules are feasible (Schedule.Validate), every
//     ScheduleAll path picks exactly what the textbook eager greedy
//     (EagerScheduleAll) picks, and a session's re-solve after any
//     mutation script is byte-identical to a cold from-scratch solve of
//     the equivalent instance, evals included (CheckSolve,
//     CheckSession). The schedexact baselines place every job feasibly,
//     none of them (nor ScheduleAll) beats the exact optimum, and
//     ScheduleAll stays inside Theorem 2.2.1's O(log n) envelope of it
//     (CheckBaselines).
//
// Checkers return errors instead of taking a *testing.T so that fuzz
// targets and non-test callers can drive them; the matrix test wraps them
// with t.Fatal.
package conformance

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/schedexact"
)

// Horizoned is implemented by cost models that price a bounded horizon
// (power.TimeOfUse, power.Composite). CheckCostModel uses it to pin the
// boundary behavior: the last priced slot must be priceable in principle
// (finite or blocked-+Inf, never a panic) and anything beyond must be
// +Inf.
type Horizoned interface {
	Horizon() int
}

// CheckCostModel exercises the no-panic / no-NaN half of the CostModel
// contract over a grid of in-range, out-of-range, inverted, and
// beyond-horizon queries. procs and horizon describe the instance the
// model was built for.
func CheckCostModel(m power.CostModel, procs, horizon int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("conformance: Cost panicked: %v", r)
		}
	}()
	probe := func(proc, start, end int) error {
		c := m.Cost(proc, start, end)
		if math.IsNaN(c) {
			return fmt.Errorf("conformance: Cost(%d,%d,%d) = NaN", proc, start, end)
		}
		if math.IsInf(c, -1) || c < 0 {
			return fmt.Errorf("conformance: Cost(%d,%d,%d) = %g, want >= 0 or +Inf", proc, start, end, c)
		}
		return nil
	}
	for _, proc := range []int{-3, -1, 0, procs - 1, procs, procs + 7} {
		for _, iv := range [][2]int{{0, 1}, {0, horizon}, {-2, 1}, {horizon - 1, horizon + 4}, {5, 2}, {-5, -1}} {
			if err := probe(proc, iv[0], iv[1]); err != nil {
				return err
			}
		}
	}
	// Per-processor models must mark processors they cannot price at +Inf.
	// A uniform model (Affine, Superlinear, SleepState) may price any
	// index; a bounded one must not invent prices past its slices. We
	// detect boundedness by the model reporting +Inf for proc == procs and
	// then require consistency arbitrarily far out.
	if math.IsInf(m.Cost(procs, 0, 1), 1) {
		if c := m.Cost(procs+1000, 0, 1); !math.IsInf(c, 1) {
			return fmt.Errorf("conformance: proc %d priced +Inf but proc %d = %g", procs, procs+1000, c)
		}
	}
	if h, ok := m.(Horizoned); ok {
		if got := h.Horizon(); got != horizon {
			return fmt.Errorf("conformance: Horizon() = %d, want %d", got, horizon)
		}
		if c := m.Cost(0, horizon-1, horizon+1); !math.IsInf(c, 1) {
			return fmt.Errorf("conformance: interval past Horizon() priced %g, want +Inf", c)
		}
		if c := m.Cost(0, horizon, horizon+1); !math.IsInf(c, 1) {
			return fmt.Errorf("conformance: interval beyond Horizon() priced %g, want +Inf", c)
		}
	}
	return nil
}

// CheckMonotone verifies interval monotonicity: whenever [s,e) ⊆ [s',e'),
// Cost(p,s,e) ≤ Cost(p,s',e') — extending an awake interval never gets
// cheaper. (+Inf inside forces +Inf outside: an unavailable slot poisons
// every superinterval.) Only meaningful for models documented monotone;
// the matrix flags which rows opt in.
func CheckMonotone(m power.CostModel, procs, horizon int) error {
	for proc := 0; proc < procs; proc++ {
		for s := 0; s < horizon; s++ {
			prev := m.Cost(proc, s, s+1)
			for e := s + 2; e <= horizon; e++ {
				c := m.Cost(proc, s, e)
				if c < prev-1e-9 {
					return fmt.Errorf("conformance: Cost(%d,%d,%d) = %g < Cost(%d,%d,%d) = %g — not monotone",
						proc, s, e, c, proc, s, e-1, prev)
				}
				prev = c
			}
		}
	}
	return nil
}

// CheckConcurrent hammers Cost from several goroutines over the full
// query grid. Run under the race detector (the CI -race job runs the
// matrix test) this catches unsynchronized internal state; without it, it
// still catches panics and torn results that surface as contract
// violations.
func CheckConcurrent(m power.CostModel, procs, horizon int) error {
	const goroutines = 8
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("conformance: concurrent Cost panicked: %v", r)
				}
			}()
			for rep := 0; rep < 50; rep++ {
				for proc := -1; proc <= procs; proc++ {
					for s := 0; s < horizon; s += 1 + g%3 {
						c := m.Cost(proc, s, s+1+(g+rep)%4)
						if math.IsNaN(c) {
							errs <- fmt.Errorf("conformance: concurrent Cost(%d,%d,..) = NaN", proc, s)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// Reference is Theorem 2.2.1's budget problem rebuilt from sched's
// public surface rather than its solve path: the candidates of
// Model.Candidates (or opts.Candidates when non-nil, as ScheduleAll reads
// it) priced by the instance's cost model, infinite-cost and slotless
// intervals pruned as ScheduleAll prunes them, as budget subsets over
// Model.MatchingUtility with threshold n and no groups. Eps is ε as
// ScheduleAll resolves it. Any budget greedy can solve Problem; Schedule
// reads the result back.
type Reference struct {
	Problem budget.Problem
	Eps     float64

	ins       *sched.Instance
	model     *sched.Model
	intervals []sched.Interval // Problem.Subsets[i]'s interval
	fullOnly  bool             // default ε: a schedule must place every job
}

// NewReference builds the reference problem for ins under opts. An
// instance whose jobs cannot all be matched inside the candidates' slots
// returns an error wrapping sched.ErrUnschedulable.
func NewReference(ins *sched.Instance, opts sched.Options) (*Reference, error) {
	model, err := sched.NewModel(ins)
	if err != nil {
		return nil, err
	}
	ivs := opts.Candidates
	if ivs == nil {
		ivs, _ = model.Candidates(sched.EventPoints)
	}
	n := len(ins.Jobs)
	r := &Reference{Eps: opts.Eps, ins: ins, model: model, fullOnly: opts.Eps <= 0}
	if r.fullOnly {
		r.Eps = 1 / float64(n+1)
	}
	enabled := bitset.New(model.G.NX())
	for _, iv := range ivs {
		if iv.Proc < 0 || iv.Proc >= ins.Procs || iv.Start < 0 || iv.End > ins.Horizon || iv.Start >= iv.End {
			return nil, fmt.Errorf("conformance: candidate %v outside instance", iv)
		}
		c := ins.Cost.Cost(iv.Proc, iv.Start, iv.End)
		if math.IsInf(c, 1) || math.IsNaN(c) {
			continue
		}
		if c < 0 {
			return nil, fmt.Errorf("conformance: negative cost %g for interval %v", c, iv)
		}
		items := model.IntervalItems(iv)
		if len(items) == 0 {
			continue
		}
		r.intervals = append(r.intervals, iv)
		r.Problem.Subsets = append(r.Problem.Subsets, budget.Subset{Elems: items, Cost: c})
		for _, x := range items {
			enabled.Add(x)
		}
	}
	// Every job must be matchable inside the slots some candidate covers.
	if got := bipartite.MaxMatchingSize(model.G, enabled); got < n {
		return nil, fmt.Errorf("%w: reference matches %d of %d jobs", sched.ErrUnschedulable, got, n)
	}
	r.Problem.F = model.MatchingUtility()
	r.Problem.Threshold = float64(n)
	return r, nil
}

// Schedule reads the schedule off a completed greedy run over r.Problem:
// the picked intervals in pick order, jobs placed by a final maximum
// matching over their slots, and Evals the run's oracle calls. With the
// default ε a run that leaves a job unplaced is an error wrapping
// sched.ErrUnschedulable.
func (r *Reference) Schedule(res *budget.Result) (*sched.Schedule, error) {
	n := len(r.ins.Jobs)
	enabled := bitset.New(r.model.G.NX())
	out := &sched.Schedule{Assignment: make([]sched.SlotKey, n), Evals: res.Evals}
	for _, i := range res.Chosen {
		for _, x := range r.Problem.Subsets[i].Elems {
			enabled.Add(x)
		}
		out.Intervals = append(out.Intervals, r.intervals[i])
		out.Cost += r.Problem.Subsets[i].Cost
	}
	_, _, matchY := bipartite.MaxMatching(r.model.G, enabled)
	for j := range out.Assignment {
		out.Assignment[j] = sched.Unassigned
		if x := matchY[j]; x >= 0 {
			out.Assignment[j] = r.model.Slots[x]
			out.Value += r.ins.Jobs[j].Value
			out.Scheduled++
		}
	}
	if out.Scheduled < n && r.fullOnly {
		return nil, fmt.Errorf("%w: reference stopped at %d of %d", sched.ErrUnschedulable, out.Scheduled, n)
	}
	return out, nil
}

// solve runs greedy over the reference problem, with from-scratch
// probes (budget.Options.PlainEval) when plain is set, and reads the
// schedule back.
func (r *Reference) solve(greedy func(budget.Problem, budget.Options) (*budget.Result, error), plain bool) (*sched.Schedule, error) {
	res, err := greedy(r.Problem, budget.Options{Eps: r.Eps, PlainEval: plain})
	if errors.Is(err, budget.ErrInfeasible) {
		return nil, fmt.Errorf("%w: %v", sched.ErrUnschedulable, err)
	}
	if err != nil {
		return nil, err
	}
	return r.Schedule(res)
}

// EagerScheduleAll is the textbook reference for Theorem 2.2.1: the
// eager budget.Greedy (every unpicked candidate probed every round, each
// probe a from-scratch matching) over the Reference problem. Its output
// is what ScheduleAll must reproduce byte for byte (Schedule.SameAs);
// Evals is the eager greedy's probe count. An instance whose jobs cannot
// all be scheduled returns an error wrapping sched.ErrUnschedulable.
func EagerScheduleAll(ins *sched.Instance, opts sched.Options) (*sched.Schedule, error) {
	ref, err := NewReference(ins, opts)
	if err != nil {
		return nil, err
	}
	return ref.solve(budget.Greedy, true)
}

// CheckSolve exercises the solver contract on one instance. The baseline
// is EagerScheduleAll. Two arms must produce a schedule byte-identical to
// it (Schedule.SameAs) that Schedule.Validate accepts: ScheduleAll — the
// group-keyed lazy greedy over the incremental matcher, each first-slot
// group priced by one prefix pass — and the classical lazy greedy (budget.LazyGreedy, one heap entry per
// candidate, from-scratch probes) over the Reference problem. If
// ScheduleAll rejects the instance (e.g. the model's blocked slots make
// it unschedulable), the baseline must reject it too, the same way.
func CheckSolve(ins *sched.Instance, opts sched.Options) error {
	ref, baseErr := NewReference(ins, opts)
	var base *sched.Schedule
	if baseErr == nil {
		base, baseErr = ref.solve(budget.Greedy, true)
	}
	if baseErr == nil {
		if err := base.Validate(ins); err != nil {
			return fmt.Errorf("conformance: eager baseline schedule infeasible: %w", err)
		}
	}
	got, err := sched.ScheduleAll(ins, opts)
	if (err == nil) != (baseErr == nil) ||
		(err != nil && errors.Is(err, sched.ErrUnschedulable) != errors.Is(baseErr, sched.ErrUnschedulable)) {
		return fmt.Errorf("conformance: ScheduleAll error %v, eager baseline error %v", err, baseErr)
	}
	if err != nil {
		return nil
	}
	lazy, err := ref.solve(budget.LazyGreedy, true)
	if err != nil {
		return fmt.Errorf("conformance: classical lazy greedy: %w", err)
	}
	for _, arm := range []struct {
		label string
		s     *sched.Schedule
	}{{"ScheduleAll", got}, {"classical lazy greedy", lazy}} {
		if err := arm.s.SameAs(base); err != nil {
			return fmt.Errorf("conformance: %s diverges from the eager baseline: %w", arm.label, err)
		}
		if err := arm.s.Validate(ins); err != nil {
			return fmt.Errorf("conformance: %s schedule infeasible: %w", arm.label, err)
		}
	}
	return nil
}

// CheckBaselines is the solver contract's reference arm: it runs the
// schedexact baselines (AlwaysOn, PerJob, MergeGaps with gap 2) next to
// ScheduleAll's default path. Every baseline must produce a feasible
// schedule (Schedule.Validate) that places every job. The baselines match
// over every slot, ignoring costs, so an instance they reject must be
// one ScheduleAll rejects too. When exactLimit > 0 and ScheduleAll
// succeeds, schedexact.Optimal (exploring at most exactLimit leaves)
// prices the optimum: no arm may cost less than it, and ScheduleAll must
// stay inside Theorem 2.2.1's envelope 4·OPT·(log₂(n+1)+1). Optimal
// running out of its leaf budget is an error, so callers pass a limit
// sized to their instances.
func CheckBaselines(ins *sched.Instance, exactLimit int) error {
	greedy, greedyErr := sched.ScheduleAll(ins, sched.Options{})
	if greedyErr != nil && !errors.Is(greedyErr, sched.ErrUnschedulable) {
		return fmt.Errorf("conformance: ScheduleAll: %w", greedyErr)
	}
	n := len(ins.Jobs)
	arms := []struct {
		name  string
		solve func(*sched.Instance) (*sched.Schedule, error)
	}{
		{"always-on", schedexact.AlwaysOn},
		{"per-job", schedexact.PerJob},
		{"merge-gaps", func(ins *sched.Instance) (*sched.Schedule, error) { return schedexact.MergeGaps(ins, 2) }},
	}
	solved := map[string]*sched.Schedule{}
	for _, arm := range arms {
		s, err := arm.solve(ins)
		if err != nil {
			if errors.Is(err, sched.ErrUnschedulable) && greedyErr != nil {
				continue
			}
			return fmt.Errorf("conformance: %s baseline: %v (ScheduleAll error %v)", arm.name, err, greedyErr)
		}
		if err := s.Validate(ins); err != nil {
			return fmt.Errorf("conformance: %s baseline infeasible: %w", arm.name, err)
		}
		if s.Scheduled != n {
			return fmt.Errorf("conformance: %s baseline scheduled %d of %d", arm.name, s.Scheduled, n)
		}
		solved[arm.name] = s
	}
	if greedyErr != nil || exactLimit <= 0 {
		return nil
	}
	opt, err := schedexact.Optimal(ins, exactLimit)
	if err != nil {
		return fmt.Errorf("conformance: exact optimum: %w", err)
	}
	solved["ScheduleAll"] = greedy
	for name, s := range solved {
		if s.Cost < opt.Cost-1e-9 {
			return fmt.Errorf("conformance: %s cost %g beats the exact optimum %g", name, s.Cost, opt.Cost)
		}
	}
	if envelope := 4 * opt.Cost * (math.Log2(float64(n)+1) + 1); greedy.Cost > envelope {
		return fmt.Errorf("conformance: ScheduleAll cost %g outside the O(log n) envelope %g of optimum %g",
			greedy.Cost, envelope, opt.Cost)
	}
	return nil
}

// MutationOp selects a session mutation kind in a Script.
type MutationOp int

const (
	// OpAddJob appends Mutation.Job.
	OpAddJob MutationOp = iota
	// OpRemoveJob deletes job Mutation.Index.
	OpRemoveJob
	// OpBlock masks slot (Mutation.Proc, Mutation.Time) unavailable.
	OpBlock
	// OpAdvance grows the horizon to Mutation.Horizon.
	OpAdvance
)

func (op MutationOp) String() string {
	switch op {
	case OpAddJob:
		return "add_job"
	case OpRemoveJob:
		return "remove_job"
	case OpBlock:
		return "block"
	case OpAdvance:
		return "advance_horizon"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Mutation is one step of a session script; exactly the fields its Op
// needs are read.
type Mutation struct {
	Op         MutationOp
	Job        sched.Job
	Index      int
	Proc, Time int
	Horizon    int
}

// CheckSession runs a mutation script through a sched.Session and, after
// the initial solve and after every mutation, compares the session's
// solve against a cold from-scratch ScheduleAll of the equivalent
// instance. The two must be byte-identical (Schedule.SameAs) and spend
// the same evals — the session runs ScheduleAll's solve, so LastEvals
// equals ScheduleAll's Evals whenever the session actually solved (a
// solve answered from the session cache bills 0 and returns the cached
// schedule, whose Evals must still match) — or fail identically when a
// mutation (e.g. blocking a load-bearing slot) makes the instance
// unschedulable. Mutations the session rejects (out-of-range indexes,
// shrinking horizons) are fine: the error is recorded and the state must
// be unchanged, which the next comparison verifies.
func CheckSession(ins *sched.Instance, opts sched.Options, script []Mutation) error {
	sess, err := sched.NewSession(ins, opts)
	if err != nil {
		return fmt.Errorf("conformance: NewSession: %w", err)
	}
	compare := func(step string) error {
		_, hitsBefore := sess.Stats()
		got, gotErr := sess.Solve()
		_, hits := sess.Stats()
		cold, coldErr := sched.ScheduleAll(sess.Instance(), opts)
		if (gotErr == nil) != (coldErr == nil) {
			return fmt.Errorf("conformance: %s: session err %v vs cold err %v", step, gotErr, coldErr)
		}
		if gotErr != nil {
			if errors.Is(gotErr, sched.ErrUnschedulable) != errors.Is(coldErr, sched.ErrUnschedulable) {
				return fmt.Errorf("conformance: %s: session %v vs cold %v disagree on unschedulability", step, gotErr, coldErr)
			}
			return nil
		}
		if err := got.SameAs(cold); err != nil {
			return fmt.Errorf("conformance: %s: session solve diverges from cold: %w", step, err)
		}
		if got.Evals != cold.Evals || (hits == hitsBefore && sess.LastEvals() != cold.Evals) {
			return fmt.Errorf("conformance: %s: session solve spent %d evals (LastEvals %d), cold ScheduleAll %d",
				step, got.Evals, sess.LastEvals(), cold.Evals)
		}
		// A repeat solve with no mutation must come from the session cache
		// and still match.
		again, err := sess.Solve()
		if err != nil {
			return fmt.Errorf("conformance: %s: cached re-solve: %w", step, err)
		}
		if err := again.SameAs(got); err != nil {
			return fmt.Errorf("conformance: %s: cached re-solve diverges: %w", step, err)
		}
		return nil
	}
	if err := compare("initial solve"); err != nil {
		return err
	}
	for i, m := range script {
		switch m.Op {
		case OpAddJob:
			_, err = sess.AddJob(m.Job)
		case OpRemoveJob:
			err = sess.RemoveJob(m.Index)
		case OpBlock:
			err = sess.SetUnavailable(m.Proc, m.Time)
		case OpAdvance:
			err = sess.AdvanceHorizon(m.Horizon)
		default:
			return fmt.Errorf("conformance: script step %d: unknown op %v", i, m.Op)
		}
		// A rejected mutation must leave the session consistent; the
		// comparison below proves it either way.
		if err := compare(fmt.Sprintf("after step %d (%v, applied=%t)", i, m.Op, err == nil)); err != nil {
			return err
		}
	}
	return nil
}
