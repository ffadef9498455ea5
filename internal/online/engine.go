package online

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Engine is the rolling-horizon online scheduler the thesis's offline
// algorithms become when jobs reveal themselves over time. It owns a
// sched.Session; each arrival event first *commits* the prefix of the
// current plan that has already executed (awake slots stayed awake, jobs
// whose slots passed ran there — decisions that are never revoked), then
// mutates the session with the new jobs and re-solves. The session keeps
// the instance and extends its model in place on each arrival, so an
// event pays candidate pricing and the greedy, not a model rebuild.
//
// Two schedules fall out of a run:
//
//   - Plan: the session's final solve — byte-identical to ScheduleAll on
//     the full trace's instance built from scratch (the clairvoyant
//     offline comparator comes for free).
//   - the committed schedule: what the engine actually did — awake slots
//     accrued from superseded plans, jobs pinned to the slots where they
//     really ran. Its cost is the online cost; the gap to the plan's
//     cost is the price of not knowing the future (experiment E16).
//
// A job the final plan parks on a slot that already passed without
// executing it is *missed* — the online regret the adversarial traces
// are built to induce.
type Engine struct {
	sess    *sched.Session
	cost    power.CostModel
	horizon int
	procs   int
	now     int

	awake     [][]bool        // procs × horizon: slots committed awake
	committed []sched.SlotKey // per job: where it actually ran (Unassigned until then)
	plan      *sched.Schedule

	solves int
	evals  int64
}

// NewEngine opens an empty rolling-horizon engine over the given
// dimensions. opts tunes the session's solves (policy, eps, solver tier).
func NewEngine(procs, horizon int, cost power.CostModel, opts sched.Options) (*Engine, error) {
	sess, err := sched.NewSession(&sched.Instance{Procs: procs, Horizon: horizon, Cost: cost}, opts)
	if err != nil {
		return nil, err
	}
	awake := make([][]bool, procs)
	for i := range awake {
		awake[i] = make([]bool, horizon)
	}
	return &Engine{
		sess:    sess,
		cost:    cost,
		horizon: horizon,
		procs:   procs,
		awake:   awake,
	}, nil
}

// Now returns the engine's current time (the latest event's slot).
func (e *Engine) Now() int { return e.now }

// Plan returns the latest full-instance schedule (nil before any event).
func (e *Engine) Plan() *sched.Schedule { return e.plan }

// Session exposes the underlying session for eval accounting.
func (e *Engine) Session() *sched.Session { return e.sess }

// Arrive advances time to at — committing everything the current plan
// executes in [now, at) — then adds the jobs and re-solves. Events must
// be non-decreasing in time; jobs must not demand slots before at.
func (e *Engine) Arrive(at int, jobs []sched.Job) error {
	if at < e.now || at >= e.horizon {
		return fmt.Errorf("online: event at %d outside [now=%d, horizon=%d)", at, e.now, e.horizon)
	}
	for j, job := range jobs {
		for _, s := range job.Allowed {
			if s.Time < at {
				return fmt.Errorf("online: arriving job %d demands past slot %+v (now %d)", j, s, at)
			}
		}
	}
	e.commitThrough(at)
	for _, job := range jobs {
		if _, err := e.sess.AddJob(job); err != nil {
			return err
		}
		e.committed = append(e.committed, sched.Unassigned)
	}
	plan, err := e.sess.Solve()
	if err != nil {
		return fmt.Errorf("online: re-solve at %d failed: %w", at, err)
	}
	e.plan = plan
	e.solves++
	e.evals += e.sess.LastEvals()
	return nil
}

// commitThrough freezes the current plan's decisions on [now, t): awake
// slots and executed job assignments become permanent.
func (e *Engine) commitThrough(t int) {
	if e.plan != nil {
		for _, iv := range e.plan.Intervals {
			for u := max(iv.Start, e.now); u < min(iv.End, t); u++ {
				e.awake[iv.Proc][u] = true
			}
		}
		for j, slot := range e.plan.Assignment {
			if slot != sched.Unassigned && slot.Time >= e.now && slot.Time < t &&
				e.committed[j] == sched.Unassigned {
				e.committed[j] = slot
			}
		}
	}
	e.now = t
}

// RunReport is the outcome of a finished engine run.
type RunReport struct {
	// Plan is the final full-instance solve — byte-identical to a
	// clairvoyant from-scratch ScheduleAll of the whole trace.
	Plan *sched.Schedule
	// CommittedIntervals are the maximal awake runs the engine actually
	// paid for, and CommittedCost their price under the cost model.
	CommittedIntervals []sched.Interval
	CommittedCost      float64
	// Assignment pins each job to the slot where it actually ran
	// (Unassigned for missed jobs).
	Assignment []sched.SlotKey
	Served     int
	Missed     int
	// Solves and Evals account the engine's oracle work across the run.
	Solves int
	Evals  int64
}

// Finish commits the rest of the final plan and reports. The engine can
// keep receiving arrivals afterwards only if time has not run out; Finish
// itself is idempotent in effect but recomputes the report each call.
func (e *Engine) Finish() *RunReport {
	e.commitThrough(e.horizon)
	r := &RunReport{
		Plan:       e.plan,
		Assignment: append([]sched.SlotKey(nil), e.committed...),
		Solves:     e.solves,
		Evals:      e.evals,
	}
	for proc := 0; proc < e.procs; proc++ {
		start := -1
		for t := 0; t <= e.horizon; t++ {
			on := t < e.horizon && e.awake[proc][t]
			if on && start < 0 {
				start = t
			}
			if !on && start >= 0 {
				iv := sched.Interval{Proc: proc, Start: start, End: t}
				r.CommittedIntervals = append(r.CommittedIntervals, iv)
				r.CommittedCost += e.cost.Cost(proc, start, t)
				start = -1
			}
		}
	}
	for _, slot := range e.committed {
		if slot == sched.Unassigned {
			r.Missed++
		} else {
			r.Served++
		}
	}
	return r
}

// RunTrace drives a whole arrival trace through a fresh engine.
func RunTrace(tr *workload.ArrivalTrace, opts sched.Options) (*RunReport, error) {
	e, err := NewEngine(tr.Procs, tr.Horizon, tr.Cost, opts)
	if err != nil {
		return nil, err
	}
	for _, ev := range tr.Events {
		if err := e.Arrive(ev.At, ev.Jobs); err != nil {
			return nil, err
		}
	}
	return e.Finish(), nil
}
