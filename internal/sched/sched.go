// Package sched implements the thesis's primary contribution:
// multi-interval multi-processor scheduling to minimize power consumption
// (§2.2) and its prize-collecting generalization (§2.3).
//
// An instance has p processors, a slotted horizon, an arbitrary energy-cost
// oracle pricing every (processor, awake interval) pair, and n unit jobs,
// each with an arbitrary set of valid time-slot/processor pairs. The
// algorithms pick a collection of awake intervals and assign jobs into them
// via bipartite matching:
//
//   - ScheduleAll (Theorem 2.2.1): schedules every job at cost within
//     O(log n) of the optimum, by running the budgeted submodular greedy
//     (Lemma 2.1.2) on the matching utility F with ε = 1/(n+1).
//   - PrizeCollecting (Theorem 2.3.1): schedules value ≥ (1−ε)Z at cost
//     within O(log 1/ε) of any schedule of value ≥ Z.
//   - PrizeCollectingExact (Theorem 2.3.3): schedules value ≥ Z exactly at
//     cost within O(log n + log Δ) of optimum, where Δ is the job-value
//     spread.
package sched

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/power"
)

// SlotKey identifies one schedulable unit: a time slot on a processor.
type SlotKey struct {
	Proc int
	Time int
}

// Job is a unit-length job. Allowed lists the time-slot/processor pairs
// during which it may run (the set T of Definition 2); it need not form an
// interval and may differ across processors. Value is the prize-collecting
// value (ignored by ScheduleAll).
type Job struct {
	Value   float64
	Allowed []SlotKey
}

// Instance is a scheduling instance.
type Instance struct {
	Procs   int
	Horizon int // slots are 0 .. Horizon-1
	Jobs    []Job
	Cost    power.CostModel
}

// Interval is an awake interval [Start, End) on one processor.
type Interval struct {
	Proc  int
	Start int
	End   int
}

// Length returns End - Start.
func (iv Interval) Length() int { return iv.End - iv.Start }

// Contains reports whether the slot (proc, t) lies inside the interval.
func (iv Interval) Contains(proc, t int) bool {
	return proc == iv.Proc && t >= iv.Start && t < iv.End
}

func (iv Interval) String() string {
	return fmt.Sprintf("P%d[%d,%d)", iv.Proc, iv.Start, iv.End)
}

// Unassigned marks a job with no slot in a Schedule.
var Unassigned = SlotKey{Proc: -1, Time: -1}

// Schedule is the output of the scheduling algorithms.
type Schedule struct {
	Intervals  []Interval // chosen awake intervals (cost = sum of their costs)
	Assignment []SlotKey  // per job; Unassigned if not scheduled
	Cost       float64
	Value      float64 // total value of scheduled jobs
	Scheduled  int     // number of scheduled jobs
	Evals      int64   // utility-oracle calls spent by the greedy
}

// CandidatePolicy selects how candidate awake intervals are enumerated
// (ablation A2).
type CandidatePolicy int

const (
	// EventPoints enumerates, per processor, every interval whose
	// endpoints are slots some job can actually use. This is the default:
	// it is polynomial and loses nothing, since shrinking an interval to
	// its outermost usable slots only lowers cost under any monotone
	// model, and non-monotone oracles price the full interval anyway.
	EventPoints CandidatePolicy = iota
	// SingleSlots enumerates one unit interval per usable slot — the
	// finest decomposition; cheap but pays α per slot under affine costs.
	SingleSlots
	// AllPairs enumerates every [s,e) on every processor. Exhaustive;
	// quadratic in the horizon.
	AllPairs
)

func (p CandidatePolicy) String() string {
	switch p {
	case EventPoints:
		return "event-points"
	case SingleSlots:
		return "single-slots"
	case AllPairs:
		return "all-pairs"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options tune the scheduling algorithms.
type Options struct {
	Policy CandidatePolicy
	Eps    float64 // bicriteria slack for PrizeCollecting; ScheduleAll defaults to 1/(n+1)
	// PlainOracle forces from-scratch matching oracles (a fresh
	// Hopcroft–Karp / weighted rebuild per probe) instead of the default
	// incremental matchers — the ablation A3 baseline.
	PlainOracle bool
	// Extra adds caller-supplied candidate awake intervals on top of the
	// policy's enumeration — the thesis's "costs might be explicitly given
	// in the input" mode, e.g. contract blocks a power provider offers.
	Extra []Interval
}

// Errors returned by the algorithms.
var (
	// ErrUnschedulable: no feasible schedule covers all jobs even with
	// every slot awake.
	ErrUnschedulable = errors.New("sched: not all jobs can be scheduled")
	// ErrValueUnreachable: no schedule achieves the requested value Z.
	ErrValueUnreachable = errors.New("sched: value threshold unreachable")
)

// UnschedulableError is the diagnosable form of ErrUnschedulable: it
// carries a Hall witness — a set of jobs that between them can only use
// fewer slots than their number, proving infeasibility. errors.Is(err,
// ErrUnschedulable) matches it.
type UnschedulableError struct {
	Matched int       // maximum number of schedulable jobs
	Jobs    []int     // witness job indices
	Slots   []SlotKey // every slot any witness job can use
}

// Error implements error.
func (e *UnschedulableError) Error() string {
	return fmt.Sprintf("%v: %d jobs %v share only %d usable slots (max matching %d)",
		ErrUnschedulable, len(e.Jobs), e.Jobs, len(e.Slots), e.Matched)
}

// Unwrap makes errors.Is(err, ErrUnschedulable) succeed.
func (e *UnschedulableError) Unwrap() error { return ErrUnschedulable }

// SameAs reports whether two schedules are identical decision for
// decision — the interval sequence, the per-job assignment, and the
// totals all match (Cost and Value to 1e-9, since different solve paths
// may sum the same terms in different orders). Evals is ignored: solve
// paths (eager, lazy, plain-oracle) legitimately spend different probe
// counts for the same answer. A nil error means identical; otherwise the error names
// the first divergence. The differential self-checks (conformance.CheckSolve,
// the session and engine tests) all compare through this one helper.
func (s *Schedule) SameAs(other *Schedule) error {
	if len(s.Intervals) != len(other.Intervals) {
		return fmt.Errorf("sched: %d vs %d intervals", len(s.Intervals), len(other.Intervals))
	}
	for i := range s.Intervals {
		if s.Intervals[i] != other.Intervals[i] {
			return fmt.Errorf("sched: interval %d: %v vs %v", i, s.Intervals[i], other.Intervals[i])
		}
	}
	if len(s.Assignment) != len(other.Assignment) {
		return fmt.Errorf("sched: %d vs %d assignments", len(s.Assignment), len(other.Assignment))
	}
	for j := range s.Assignment {
		if s.Assignment[j] != other.Assignment[j] {
			return fmt.Errorf("sched: job %d: %+v vs %+v", j, s.Assignment[j], other.Assignment[j])
		}
	}
	if math.Abs(s.Cost-other.Cost) > 1e-9 || math.Abs(s.Value-other.Value) > 1e-9 ||
		s.Scheduled != other.Scheduled {
		return fmt.Errorf("sched: totals (%g,%g,%d) vs (%g,%g,%d)",
			s.Cost, s.Value, s.Scheduled, other.Cost, other.Value, other.Scheduled)
	}
	return nil
}

// check validates instance fields shared by all algorithms.
func (ins *Instance) check() error {
	if ins.Procs <= 0 {
		return fmt.Errorf("sched: Procs = %d, want > 0", ins.Procs)
	}
	if ins.Horizon <= 0 {
		return fmt.Errorf("sched: Horizon = %d, want > 0", ins.Horizon)
	}
	if ins.Cost == nil {
		return errors.New("sched: nil cost model")
	}
	for j, job := range ins.Jobs {
		if job.Value < 0 {
			return fmt.Errorf("sched: job %d has negative value %g", j, job.Value)
		}
		for _, s := range job.Allowed {
			if s.Proc < 0 || s.Proc >= ins.Procs || s.Time < 0 || s.Time >= ins.Horizon {
				return fmt.Errorf("sched: job %d slot %+v outside instance", j, s)
			}
		}
	}
	return nil
}

// Validate checks that s is a feasible schedule for ins: assignments
// respect job Allowed sets, no two jobs share a slot, every assigned slot
// is covered by a chosen awake interval on its processor, and the recorded
// cost/value/scheduled figures are consistent.
func (s *Schedule) Validate(ins *Instance) error {
	if len(s.Assignment) != len(ins.Jobs) {
		return fmt.Errorf("sched: %d assignments for %d jobs", len(s.Assignment), len(ins.Jobs))
	}
	for _, iv := range s.Intervals {
		if iv.Proc < 0 || iv.Proc >= ins.Procs || iv.Start < 0 || iv.End > ins.Horizon || iv.Start >= iv.End {
			return fmt.Errorf("sched: invalid interval %v", iv)
		}
	}
	used := map[SlotKey]int{}
	value, scheduled := 0.0, 0
	for j, slot := range s.Assignment {
		if slot == Unassigned {
			continue
		}
		scheduled++
		value += ins.Jobs[j].Value
		ok := false
		for _, a := range ins.Jobs[j].Allowed {
			if a == slot {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("sched: job %d assigned to disallowed slot %+v", j, slot)
		}
		if prev, dup := used[slot]; dup {
			return fmt.Errorf("sched: jobs %d and %d share slot %+v", prev, j, slot)
		}
		used[slot] = j
		covered := false
		for _, iv := range s.Intervals {
			if iv.Contains(slot.Proc, slot.Time) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("sched: job %d slot %+v not covered by any awake interval", j, slot)
		}
	}
	if scheduled != s.Scheduled {
		return fmt.Errorf("sched: Scheduled = %d, actual %d", s.Scheduled, scheduled)
	}
	if math.Abs(value-s.Value) > 1e-6 {
		return fmt.Errorf("sched: Value = %g, actual %g", s.Value, value)
	}
	cost := 0.0
	for _, iv := range s.Intervals {
		cost += ins.Cost.Cost(iv.Proc, iv.Start, iv.End)
	}
	if math.Abs(cost-s.Cost) > 1e-6 {
		return fmt.Errorf("sched: Cost = %g, actual %g", s.Cost, cost)
	}
	return nil
}
