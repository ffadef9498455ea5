package sched

import (
	"fmt"

	"repro/internal/power"
)

// Session is the mutable middle stage of the instance → model → session
// solve lifecycle. Where ScheduleAll rebuilds the bipartite model, the
// candidate intervals, and the greedy's oracle state from scratch on
// every call, a Session owns them across calls and applies *targeted
// invalidation* per mutation:
//
//   - AddJob extends the model in place (new Y vertex, novel slots
//     appended, per-processor indexes spliced) — no rebuild.
//   - RemoveJob invalidates the model: slot numbering depends on
//     first-appearance order over the remaining jobs, so only a rebuild
//     reproduces the from-scratch layout the equivalence contract needs.
//   - SetUnavailable re-prices candidates only; the graph and the slot
//     universe stay valid untouched.
//   - AdvanceHorizon invalidates nothing (candidates are derived from
//     usable slots, or given, not from the horizon) — even the cached
//     schedule survives.
//
// Solve runs Model.ScheduleAll on the session's model, so at any
// mutation history it is byte-identical to ScheduleAll on an equivalent
// instance built from scratch — intervals, assignment, cost, value, and
// Evals. Sessions carry no warm-start
// hints from one solve to the next; DESIGN §1 says why.
//
// A Session is not safe for concurrent use; callers serialize access
// (the service layer locks per session). The cost model passed in must
// not be mutated after NewSession.
type Session struct {
	ins  *Instance
	opts Options

	baseCost power.CostModel // cost model at creation, before any masking
	blocked  []SlotKey       // accumulated SetUnavailable slots

	model  *Model
	cached *Schedule // last solve, valid until the next mutation

	lastEvals  int64
	totalEvals int64
	solves     int
	cacheHits  int
}

// NewSession validates the instance and opens a session over a private
// copy of it (jobs and allowed-slot slices are deep-copied; the cost
// model is shared and must not be mutated by the caller afterwards).
func NewSession(ins *Instance, opts Options) (*Session, error) {
	if err := ins.check(); err != nil {
		return nil, err
	}
	private := &Instance{
		Procs:   ins.Procs,
		Horizon: ins.Horizon,
		Cost:    ins.Cost,
		Jobs:    make([]Job, len(ins.Jobs)),
	}
	for i, j := range ins.Jobs {
		private.Jobs[i] = cloneJob(j)
	}
	return &Session{
		ins:      private,
		opts:     opts,
		baseCost: ins.Cost,
	}, nil
}

func cloneJob(j Job) Job {
	return Job{Value: j.Value, Allowed: append([]SlotKey(nil), j.Allowed...)}
}

// Procs returns the instance's processor count.
func (s *Session) Procs() int { return s.ins.Procs }

// Horizon returns the instance's current horizon.
func (s *Session) Horizon() int { return s.ins.Horizon }

// Jobs returns the current number of jobs.
func (s *Session) Jobs() int { return len(s.ins.Jobs) }

// Instance returns a deep copy of the session's current instance — the
// "equivalently-mutated instance built from scratch" the differential
// tests solve independently. The cost model is shared (immutable).
func (s *Session) Instance() *Instance {
	out := &Instance{
		Procs:   s.ins.Procs,
		Horizon: s.ins.Horizon,
		Cost:    s.ins.Cost,
		Jobs:    make([]Job, len(s.ins.Jobs)),
	}
	for i, j := range s.ins.Jobs {
		out.Jobs[i] = cloneJob(j)
	}
	return out
}

// LastEvals returns the oracle calls spent by the most recent Solve (0
// when it was answered from the session cache).
func (s *Session) LastEvals() int64 { return s.lastEvals }

// TotalEvals returns the oracle calls spent across all Solves.
func (s *Session) TotalEvals() int64 { return s.totalEvals }

// Stats reports (solves, cache hits).
func (s *Session) Stats() (solves, cacheHits int) {
	return s.solves, s.cacheHits
}

// AddJob appends a job and returns its index. The model, if built, is
// extended in place.
func (s *Session) AddJob(job Job) (int, error) {
	for _, sk := range job.Allowed {
		if sk.Proc < 0 || sk.Proc >= s.ins.Procs || sk.Time < 0 || sk.Time >= s.ins.Horizon {
			return 0, fmt.Errorf("sched: session job slot %+v outside instance", sk)
		}
	}
	if job.Value < 0 {
		return 0, fmt.Errorf("sched: session job has negative value %g", job.Value)
	}
	idx := len(s.ins.Jobs)
	s.ins.Jobs = append(s.ins.Jobs, cloneJob(job))
	if s.model != nil {
		s.model.addJob(s.ins.Jobs[idx])
	}
	s.cached = nil
	return idx, nil
}

// RemoveJob deletes job j; later jobs shift down one index (matching how
// a from-scratch instance without the job would be laid out). The model
// is invalidated: slot numbering depends on the remaining jobs' order.
func (s *Session) RemoveJob(j int) error {
	if j < 0 || j >= len(s.ins.Jobs) {
		return fmt.Errorf("sched: session has no job %d (have %d)", j, len(s.ins.Jobs))
	}
	s.ins.Jobs = append(s.ins.Jobs[:j], s.ins.Jobs[j+1:]...)
	s.model = nil
	s.cached = nil
	return nil
}

// SetUnavailable masks slot t on processor proc at infinite cost by
// (re)wrapping the session's base cost model with a frozen
// power.Unavailable mask. The bipartite model stays valid — utilities do
// not depend on costs — so the next Solve only re-prices candidates.
func (s *Session) SetUnavailable(proc, t int) error {
	if proc < 0 || proc >= s.ins.Procs || t < 0 || t >= s.ins.Horizon {
		return fmt.Errorf("sched: session slot (%d,%d) outside instance", proc, t)
	}
	s.blocked = append(s.blocked, SlotKey{Proc: proc, Time: t})
	u := power.NewUnavailable(s.baseCost, s.ins.Horizon)
	for _, b := range s.blocked {
		u.Block(b.Proc, b.Time)
	}
	s.ins.Cost = u.Freeze()
	s.cached = nil
	return nil
}

// AdvanceHorizon extends the horizon to h (it can only grow — the
// rolling-horizon engine never travels back). Nothing is invalidated,
// not even the cached schedule: EventPoints candidates derive from
// usable slots, which only new jobs introduce, and a given family does
// not change.
func (s *Session) AdvanceHorizon(h int) error {
	if h < s.ins.Horizon {
		return fmt.Errorf("sched: session horizon can only advance (%d < %d)", h, s.ins.Horizon)
	}
	s.ins.Horizon = h
	return nil
}

// Solve returns Theorem 2.2.1's schedule for the session's current
// instance: it runs Model.ScheduleAll on the session's model, so
// schedule and Evals are those of ScheduleAll on the same instance
// built from scratch. Repeated Solves without intervening mutations are
// answered from the session cache with zero oracle calls.
func (s *Session) Solve() (*Schedule, error) {
	if s.cached != nil {
		s.lastEvals = 0
		s.cacheHits++
		return copySchedule(s.cached), nil
	}
	if s.model == nil {
		m, err := NewModel(s.ins)
		if err != nil {
			return nil, err
		}
		s.model = m
	}
	sched, err := s.model.ScheduleAll(s.opts)
	if err != nil {
		return nil, err
	}
	s.lastEvals = sched.Evals
	s.totalEvals += sched.Evals
	s.solves++
	s.cached = copySchedule(sched)
	return sched, nil
}

// copySchedule deep-copies a schedule so cached results stay immutable.
func copySchedule(sc *Schedule) *Schedule {
	out := *sc
	out.Intervals = append([]Interval(nil), sc.Intervals...)
	out.Assignment = append([]SlotKey(nil), sc.Assignment...)
	return &out
}
