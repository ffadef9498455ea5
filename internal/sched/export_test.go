package sched

import "repro/internal/budget"

// ScheduleAllProbed is ScheduleAll with its lazy greedy's initial heap
// built by probing every candidate instead of by the prefix sweep — the
// path the sweep replaced, kept for the allocation pin in
// alloc_test.go.
func ScheduleAllProbed(ins *Instance, opts Options) (*Schedule, error) {
	return greedyScheduleAll(ins, opts, budget.LazyGreedy, false)
}
