package sched

import "repro/internal/budget"

// ScheduleAllProbed is ScheduleAll with its lazy greedy's initial heap
// built by probing every candidate instead of by the prefix sweep — the
// path the sweep replaced, kept for the allocation pin in
// alloc_test.go.
func ScheduleAllProbed(ins *Instance, opts Options) (*Schedule, error) {
	m, err := NewModel(ins)
	if err != nil {
		return nil, err
	}
	in, err := m.scheduleAllInput(opts)
	if err != nil {
		return nil, err
	}
	sw, err := budget.NewStepwise(in.prob, budget.Options{Eps: in.eps})
	if err != nil {
		return nil, err
	}
	res, err := sw.Solve()
	if err != nil {
		return nil, err
	}
	return m.finishScheduleAll(opts, in, res)
}
