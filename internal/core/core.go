// Package core ties the paper's primary contribution together: it hosts
// the cross-module integration surface — end-to-end pipelines from
// workload generation through the budgeted submodular greedy (Lemma 2.1.2)
// to validated schedules (Theorems 2.2.1/2.3.1/2.3.3) — and the stress
// tests that exercise every algorithm on the same random instances.
//
// The implementation itself is layered across focused packages (see
// DESIGN.md §1): internal/budget holds the greedy framework, internal/sched
// the scheduling reduction, internal/bipartite the matching utilities. This
// package provides the one-call entry points used by stress tooling and by
// downstream code that wants "solve this instance with everything and
// cross-check".
package core

import (
	"fmt"
	"math"

	"repro/internal/sched"
	"repro/internal/schedexact"
)

// Report summarizes one instance solved by every applicable algorithm.
type Report struct {
	Greedy    *sched.Schedule // ScheduleAll with from-scratch oracles (PlainOracle)
	Fast      *sched.Schedule // the default path: sweep-seeded lazy greedy, incremental matcher
	Session   *sched.Schedule // session replay: jobs arrive one by one, re-solved on an extended model
	AlwaysOn  *sched.Schedule
	PerJob    *sched.Schedule
	MergeGaps *sched.Schedule
	Exact     *sched.Schedule // nil when the instance is beyond exact range
}

// SolveAll runs every schedule-all algorithm and baseline on ins and
// validates each result. exactLimit bounds the exact search (0 disables
// the exact solver entirely). Any validation failure or cross-algorithm
// inconsistency is returned as an error — SolveAll is the system's
// self-check.
func SolveAll(ins *sched.Instance, exactLimit int) (*Report, error) {
	r := &Report{}
	var err error
	if r.Greedy, err = sched.ScheduleAll(ins, sched.Options{PlainOracle: true}); err != nil {
		return nil, fmt.Errorf("core: greedy: %w", err)
	}
	if r.Fast, err = sched.ScheduleAll(ins, sched.Options{}); err != nil {
		return nil, fmt.Errorf("core: fast: %w", err)
	}
	if r.Session, err = sessionReplay(ins); err != nil {
		return nil, fmt.Errorf("core: session replay: %w", err)
	}
	if r.AlwaysOn, err = schedexact.AlwaysOn(ins); err != nil {
		return nil, fmt.Errorf("core: always-on: %w", err)
	}
	if r.PerJob, err = schedexact.PerJob(ins); err != nil {
		return nil, fmt.Errorf("core: per-job: %w", err)
	}
	if r.MergeGaps, err = schedexact.MergeGaps(ins, 2); err != nil {
		return nil, fmt.Errorf("core: merge-gaps: %w", err)
	}
	if exactLimit > 0 {
		if r.Exact, err = schedexact.Optimal(ins, exactLimit); err != nil {
			return nil, fmt.Errorf("core: exact: %w", err)
		}
	}
	if err := r.check(ins); err != nil {
		return nil, err
	}
	return r, nil
}

// sessionReplay rebuilds ins through a full mutation trace — a session
// opened on the empty instance, every job added as if arriving online,
// with a re-solve at the halfway point — and returns the final solve.
// SolveAll cross-checks it byte-identical against the from-scratch Fast
// schedule, exercising the session's in-place model extension in the
// end-to-end self-check.
func sessionReplay(ins *sched.Instance) (*sched.Schedule, error) {
	empty := &sched.Instance{Procs: ins.Procs, Horizon: ins.Horizon, Cost: ins.Cost}
	sess, err := sched.NewSession(empty, sched.Options{})
	if err != nil {
		return nil, err
	}
	for j, job := range ins.Jobs {
		if _, err := sess.AddJob(job); err != nil {
			return nil, fmt.Errorf("adding job %d: %w", j, err)
		}
		if j == len(ins.Jobs)/2 {
			// Mid-trace solve builds the model, so the final solve below
			// runs on a model the later AddJobs extended in place.
			if _, err := sess.Solve(); err != nil {
				return nil, fmt.Errorf("mid-trace solve: %w", err)
			}
		}
	}
	return sess.Solve()
}

// check validates every schedule and the invariants tying them together.
func (r *Report) check(ins *sched.Instance) error {
	named := []struct {
		name string
		s    *sched.Schedule
	}{
		{"greedy", r.Greedy}, {"fast", r.Fast}, {"session", r.Session},
		{"always-on", r.AlwaysOn}, {"per-job", r.PerJob},
		{"merge-gaps", r.MergeGaps}, {"exact", r.Exact},
	}
	for _, ns := range named {
		if ns.s == nil {
			continue
		}
		if err := ns.s.Validate(ins); err != nil {
			return fmt.Errorf("core: %s failed validation: %w", ns.name, err)
		}
		if ns.s.Scheduled != len(ins.Jobs) {
			return fmt.Errorf("core: %s scheduled %d of %d", ns.name, ns.s.Scheduled, len(ins.Jobs))
		}
	}
	// All greedy strategies pick identical interval sequences.
	if math.Abs(r.Greedy.Cost-r.Fast.Cost) > 1e-9 {
		return fmt.Errorf("core: greedy variants disagree: plain %g fast %g", r.Greedy.Cost, r.Fast.Cost)
	}
	// The session replay — jobs revealed one at a time, then re-solved —
	// must end byte-identical to the from-scratch solve of the final
	// instance: same intervals, same assignment, not merely same cost.
	if err := r.Session.SameAs(r.Fast); err != nil {
		return fmt.Errorf("core: session replay diverged from from-scratch solve: %w", err)
	}
	if r.Exact != nil {
		// Nothing beats the exact optimum; the greedy respects its
		// Theorem 2.2.1 envelope against it.
		for _, ns := range named {
			if ns.s != nil && ns.s.Cost < r.Exact.Cost-1e-9 {
				return fmt.Errorf("core: %s cost %g beat exact optimum %g", ns.name, ns.s.Cost, r.Exact.Cost)
			}
		}
		n := float64(len(ins.Jobs))
		if envelope := 4 * r.Exact.Cost * (math.Log2(n+1) + 1); r.Greedy.Cost > envelope {
			return fmt.Errorf("core: greedy cost %g outside O(log n) envelope %g of optimum %g",
				r.Greedy.Cost, envelope, r.Exact.Cost)
		}
	}
	return nil
}
