package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/budget"
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
//   - SetUnavailable re-prices candidates only; the graph, the slot
//     universe, and all recorded warm-start gains stay valid untouched.
//   - AdvanceHorizon invalidates nothing under EventPoints/SingleSlots
//     (candidates are derived from usable slots, not the horizon) — even
//     the cached schedule survives; only AllPairs re-enumerates.
//
// Solve is byte-identical to ScheduleAll on an equivalent instance built
// from scratch, at any mutation history: identical intervals, assignment,
// cost, and value. Only Evals differs — re-solves are warm-started
// through budget.Stepwise, seeding the lazy heap with each candidate's
// last recorded empty-set gain inflated by the job churn since it was
// recorded (a sound upper bound: adding or removing one job changes any
// matching marginal, and the utility cap, by at most one), so a re-solve
// after a small mutation replays the still-valid pick prefix out of the
// heap instead of probing every candidate from zero.
//
// A Session is not safe for concurrent use; callers serialize access
// (the service layer locks per session). The cost model passed in must
// not be mutated after NewSession.
type Session struct {
	ins  *Instance
	opts Options

	baseCost power.CostModel // cost model at creation, before any masking
	blocked  []SlotKey       // accumulated SetUnavailable slots

	model        *Model
	cached       *Schedule // last solve, valid until the next mutation
	cachedStream *Schedule // last SolveStreaming, same lifecycle

	// Warm-start state: per candidate interval, the capped gain against
	// the empty set as last measured, stamped with the churn counter at
	// measurement time.
	hints  map[Interval]hintRec
	churn  int  // total jobs added + removed since session start
	solved bool // at least one successful solve recorded hints

	lastEvals     int64
	totalEvals    int64
	solves        int
	warmSolves    int
	streamSolves  int
	cacheHits     int
	coldFallbacks int
}

type hintRec struct {
	gain  float64
	stamp int
}

// NewSession validates the instance and opens a session over a private
// copy of it (jobs and allowed-slot slices are deep-copied; the cost
// model is shared and must not be mutated by the caller afterwards).
// Sessions solve through the stepwise lazy greedy, as ScheduleAll does.
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
		hints:    map[Interval]hintRec{},
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

// Stats reports (solves, warm-started solves, cache hits).
func (s *Session) Stats() (solves, warm, cacheHits int) {
	return s.solves, s.warmSolves, s.cacheHits
}

// ColdFallbacks reports how many warm Solves a broken hint bound
// (budget.ErrBrokenBound) sent back to a cold re-solve.
func (s *Session) ColdFallbacks() int { return s.coldFallbacks }

// AddJob appends a job and returns its index. The model, if built, is
// extended in place; recorded warm-start gains stay usable with one unit
// of churn inflation.
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
	s.churn++
	s.cached, s.cachedStream = nil, nil
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
	s.churn++
	s.cached, s.cachedStream = nil, nil
	return nil
}

// SetUnavailable masks slot t on processor proc at infinite cost by
// (re)wrapping the session's base cost model with a frozen
// power.Unavailable mask. The bipartite model and every recorded gain
// stay valid — utilities do not depend on costs — so the next Solve only
// re-prices candidates.
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
	s.cached, s.cachedStream = nil, nil
	return nil
}

// AdvanceHorizon extends the horizon to h (it can only grow — the
// rolling-horizon engine never travels back). Under EventPoints and
// SingleSlots nothing is invalidated, not even the cached schedule:
// candidates derive from usable slots, which only new jobs introduce.
// AllPairs enumerates over the horizon itself and is re-enumerated.
func (s *Session) AdvanceHorizon(h int) error {
	if h < s.ins.Horizon {
		return fmt.Errorf("sched: session horizon can only advance (%d < %d)", h, s.ins.Horizon)
	}
	if h == s.ins.Horizon {
		return nil
	}
	s.ins.Horizon = h
	if s.opts.Policy == AllPairs {
		s.cached, s.cachedStream = nil, nil
	}
	return nil
}

// WarmHint is one exported warm-start record: the capped empty-set gain
// last measured for a candidate interval, stamped with the job churn at
// measurement time.
type WarmHint struct {
	Interval Interval
	Gain     float64
	Stamp    int
}

// WarmState packages a session's warm-start knowledge for durable
// snapshots: the recorded hints, the churn counter their stamps are
// relative to, and whether a successful solve has happened (cold
// sessions export Solved == false and restore cold). The schedule a
// session computes never depends on this state — hints are sound upper
// bounds that only cut oracle evals — so restoring without it is always
// correct, just slower.
type WarmState struct {
	Hints  []WarmHint
	Churn  int
	Solved bool
}

// ExportWarmState snapshots the session's warm-start records. Hints are
// sorted (proc, start, end) so the export is canonical: equal sessions
// export byte-identical state.
func (s *Session) ExportWarmState() WarmState {
	ws := WarmState{Churn: s.churn, Solved: s.solved}
	for iv, rec := range s.hints {
		ws.Hints = append(ws.Hints, WarmHint{Interval: iv, Gain: rec.gain, Stamp: rec.stamp})
	}
	sort.Slice(ws.Hints, func(i, j int) bool {
		a, b := ws.Hints[i].Interval, ws.Hints[j].Interval
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End < b.End
	})
	return ws
}

// ImportWarmState seeds a freshly created session (no solves, no
// mutations yet) with previously exported warm state, so a restored
// session's first Solve is warm-started exactly like the live session's
// next Solve would have been. Soundness guards: a hint with NaN, ±Inf,
// or negative gain, or a stamp ahead of the imported churn, could
// under-bound a true gain and silently break greedy exactness — such
// state is rejected wholesale and the caller should restore cold.
func (s *Session) ImportWarmState(ws WarmState) error {
	if s.solved || s.churn != 0 || len(s.hints) != 0 {
		return fmt.Errorf("sched: warm state must be imported into a fresh session")
	}
	if ws.Churn < 0 {
		return fmt.Errorf("sched: warm state churn %d < 0", ws.Churn)
	}
	for _, h := range ws.Hints {
		if math.IsNaN(h.Gain) || math.IsInf(h.Gain, 0) || h.Gain < 0 {
			return fmt.Errorf("sched: warm hint for %v has unsound gain %g", h.Interval, h.Gain)
		}
		if h.Stamp < 0 || h.Stamp > ws.Churn {
			return fmt.Errorf("sched: warm hint for %v stamped %d outside churn %d", h.Interval, h.Stamp, ws.Churn)
		}
	}
	s.churn = ws.Churn
	s.solved = ws.Solved
	s.hints = make(map[Interval]hintRec, len(ws.Hints))
	for _, h := range ws.Hints {
		s.hints[h.Interval] = hintRec{gain: h.Gain, stamp: h.Stamp}
	}
	return nil
}

// Solve returns Theorem 2.2.1's schedule for the session's current
// instance — byte-identical to ScheduleAll on the same instance built
// from scratch. Repeated Solves without intervening mutations are
// answered from the session cache with zero oracle calls; re-solves
// after mutations are warm-started (see the type comment). A warm run
// whose re-probe finds a gain above its hint bound (budget.ErrBrokenBound)
// is abandoned for one cold re-solve, counted by ColdFallbacks.
func (s *Session) Solve() (*Schedule, error) {
	if s.cached != nil {
		s.lastEvals = 0
		s.cacheHits++
		return copySchedule(s.cached), nil
	}
	n := len(s.ins.Jobs)
	if n == 0 {
		s.cached = &Schedule{Assignment: []SlotKey{}}
		s.lastEvals = 0
		s.solves++
		return copySchedule(s.cached), nil
	}
	if s.model == nil {
		m, err := NewModel(s.ins)
		if err != nil {
			return nil, err
		}
		s.model = m
	}
	in, err := s.model.scheduleAllInput(s.opts)
	if err != nil {
		return nil, err
	}
	var hints []budget.Hint
	if s.solved {
		hints = make([]budget.Hint, len(in.cands))
		for i, c := range in.cands {
			// Structural bound: enabling |items| slots raises the maximum
			// matching by at most |items| (and never past n).
			bound := float64(min(len(c.items), n))
			if rec, ok := s.hints[c.iv]; ok {
				if b := rec.gain + float64(s.churn-rec.stamp); b < bound {
					bound = b
				}
			}
			hints[i] = budget.Hint{Subset: i, GainBound: bound}
		}
	}
	sw, res, err := s.runGreedy(in, hints)
	if hints != nil && errors.Is(err, budget.ErrBrokenBound) {
		// A warm bound under-stated a gain: the seeded heap cannot be
		// trusted, so answer from one cold re-solve instead. Its evals
		// include the abandoned warm attempt's.
		warmEvals := sw.Result().Evals
		s.coldFallbacks++
		sw, res, err = s.runGreedy(in, nil)
		if res != nil {
			res.Evals += warmEvals
		}
	}
	if err != nil {
		return nil, fmt.Errorf("sched: greedy failed: %w", err)
	}
	// Harvest fresh empty-set gains for the next warm start: a cold run
	// probed everything; a warm run touched only the candidates that
	// surfaced near the top of the heap, and the rest carry their old
	// records over (inflated by churn when used). Rebuilding the map
	// from the current candidate set also prunes records for intervals
	// that no longer exist — without it a long-lived session under
	// remove/advance churn would accumulate a record for every interval
	// ever enumerated.
	gains := sw.ZeroGains()
	fresh := make(map[Interval]hintRec, len(in.cands))
	for i, c := range in.cands {
		if !math.IsNaN(gains[i]) {
			fresh[c.iv] = hintRec{gain: gains[i], stamp: s.churn}
		} else if rec, ok := s.hints[c.iv]; ok {
			fresh[c.iv] = rec
		}
	}
	s.hints = fresh
	sched, err := s.model.finishScheduleAll(s.opts, in, res)
	if err != nil {
		return nil, err
	}
	if s.solved {
		s.warmSolves++
	}
	s.solved = true
	s.lastEvals = res.Evals
	s.totalEvals += res.Evals
	s.solves++
	s.cached = copySchedule(sched)
	return sched, nil
}

// runGreedy runs the stepwise lazy greedy over in, seeded with hints
// (nil for a cold run).
func (s *Session) runGreedy(in *solveInput, hints []budget.Hint) (*budget.Stepwise, *budget.Result, error) {
	sw, err := budget.NewStepwise(in.prob, budget.Options{
		Eps: in.eps, Workers: s.opts.Workers, Parallel: s.opts.Parallel,
		PlainEval: s.opts.PlainOracle, NoDeltaReplay: s.opts.NoDeltaReplay,
	}, hints)
	if err != nil {
		return nil, nil, err
	}
	res, err := sw.Solve()
	return sw, res, err
}

// SolveStreaming is Solve through the bounded-memory sieve tier:
// instances with at least Options.StreamThreshold jobs are solved by
// residual sieve passes over the candidate stream (the streaming path of
// ScheduleAll) instead of the exact warm-started greedy; smaller
// instances delegate to Solve, so callers like the online engine's
// batched-arrival mode can call it unconditionally. Streaming solves
// share the session's mutation lifecycle but not its warm-start records
// — the sieve takes no hints — and cache independently of Solve, since
// the two paths legitimately return different schedules.
func (s *Session) SolveStreaming() (*Schedule, error) {
	n := len(s.ins.Jobs)
	if n == 0 || n < s.opts.streamThreshold() {
		return s.Solve()
	}
	if s.cachedStream != nil {
		s.lastEvals = 0
		s.cacheHits++
		return copySchedule(s.cachedStream), nil
	}
	if s.model == nil {
		m, err := NewModel(s.ins)
		if err != nil {
			return nil, err
		}
		s.model = m
	}
	sched, err := s.model.scheduleAllStreaming(s.opts)
	if err != nil {
		return nil, err
	}
	s.lastEvals = sched.Evals
	s.totalEvals += sched.Evals
	s.solves++
	s.streamSolves++
	s.cachedStream = copySchedule(sched)
	return sched, nil
}

// StreamSolves reports how many Solves went through the sieve tier.
func (s *Session) StreamSolves() int { return s.streamSolves }

// copySchedule deep-copies a schedule so cached results stay immutable.
func copySchedule(sc *Schedule) *Schedule {
	out := *sc
	out.Intervals = append([]Interval(nil), sc.Intervals...)
	out.Assignment = append([]SlotKey(nil), sc.Assignment...)
	return &out
}
