package budget

import (
	"fmt"
	"math"

	"repro/internal/submodular"
)

// Stepwise is the resumable form of the lazy budgeted greedy: the same
// pick sequence as LazyGreedy (and Greedy, for integral utilities),
// advanced one pick at a time. It exists so that callers able to price
// the initial gains in bulk (sched.Model.ScheduleAll prices every
// candidate interval with one prefix sweep per start slot) can seed the
// initial heap exactly through NewStepwiseExact and skip the initial
// probe sweep.
//
// A Stepwise must not be shared between goroutines.
type Stepwise struct {
	p  Problem
	f  *submodular.Counting
	ws *workspace

	h     lazyHeap
	round int

	curU   float64
	target float64
	res    *Result
	done   bool
	err    error
}

// NewStepwise validates the problem and prepares a resumable run whose
// initial heap is built by probing every candidate up front (exactly
// LazyGreedy's initial heap build).
func NewStepwise(p Problem, opts Options) (*Stepwise, error) {
	s, err := newStepwise(p, opts)
	if err != nil {
		return nil, err
	}
	s.h = s.ws.initHeap(s.curU)
	return s, nil
}

// NewStepwiseExact prepares a run whose initial heap is seeded from exact
// initial gains: gains[i] is subset i's capped gain against the initial
// base set — precisely what the initial probe would return — or NaN to
// have the run probe subset i itself. Exact entries are seeded fresh
// (round 0, never re-probed before the first pick) and each is billed as
// one oracle call, so the heap, the pick sequence and Result.Evals are
// those of NewStepwise(p, opts). An exact gain that understates the
// truth is caught like any stale bound: when its entry is re-probed in a
// later round, the fresh gain exceeds the seeded one (ErrBrokenBound).
func NewStepwiseExact(p Problem, opts Options, gains []float64) (*Stepwise, error) {
	if len(gains) != len(p.Subsets) {
		return nil, fmt.Errorf("budget: %d exact gains for %d subsets", len(gains), len(p.Subsets))
	}
	s, err := newStepwise(p, opts)
	if err != nil {
		return nil, err
	}
	s.h = make(lazyHeap, 0, len(p.Subsets))
	var unknown []int
	for i, g := range gains {
		if math.IsNaN(g) {
			unknown = append(unknown, i)
			continue
		}
		gain := math.Min(p.Threshold, g)
		if gain <= tol {
			continue
		}
		ratio := math.Inf(1)
		if c := p.Subsets[i].Cost; c > tol {
			ratio = gain / c
		}
		s.h = append(s.h, lazyEntry{idx: i, ratio: ratio, gain: gain})
	}
	s.f.Charge(int64(len(gains) - len(unknown)))
	s.probeFresh(unknown)
	s.h.init()
	return s, nil
}

// newStepwise validates p and sets up a run with an empty heap.
func newStepwise(p Problem, opts Options) (*Stepwise, error) {
	if err := validate(p, opts); err != nil {
		return nil, err
	}
	f := submodular.NewCounting(p.F)
	ws := newWorkspace(f, p, opts)
	return &Stepwise{
		p:      p,
		f:      f,
		ws:     ws,
		curU:   math.Min(p.Threshold, ws.utility()),
		target: (1 - opts.Eps) * p.Threshold,
		res:    &Result{Union: ws.cur},
	}, nil
}

// probeFresh probes the listed subsets like initHeap's sweep and appends
// the useful ones to the heap in index order.
func (s *Stepwise) probeFresh(idx []int) {
	base := s.ws.base()
	for _, i := range idx {
		if gain, ratio, ok := s.ws.probe(i, base, s.curU); ok {
			s.h = append(s.h, lazyEntry{idx: i, ratio: ratio, gain: gain})
		}
	}
}

// Done reports whether the run has reached its target (or failed).
func (s *Stepwise) Done() bool { return s.done }

// Result returns the run's result so far: picks, cost, and trace reflect
// the steps taken; Utility and Evals are refreshed on every call.
func (s *Stepwise) Result() *Result {
	s.res.Utility = s.ws.utility()
	s.res.Evals = s.f.Calls()
	return s.res
}

// Step advances the run by one greedy pick. It returns (step, true, nil)
// after a pick, (Step{}, false, nil) when the target was already met, and
// (Step{}, false, err) when no remaining subset can improve utility
// (ErrInfeasible) or a re-probe broke its heap bound (ErrBrokenBound).
// The pick sequence is exactly Greedy's for integral utilities (see the
// package doc).
func (s *Stepwise) Step() (Step, bool, error) {
	if s.err != nil {
		return Step{}, false, s.err
	}
	if s.done || s.curU >= s.target-tol {
		s.done = true
		return Step{}, false, nil
	}
	// The classical lazy loop: pop the top entry; if it was probed this
	// round it is the pick, otherwise re-probe it and push it back.
	var pick lazyEntry
	found := false
	for len(s.h) > 0 {
		e := s.h.pop()
		if e.round == s.round {
			pick = e
			found = true
			break
		}
		if err := s.ws.revalidate(&s.h, e, s.curU, s.round); err != nil {
			s.err = err
			s.Result()
			return Step{}, false, err
		}
	}
	if !found {
		s.err = fmt.Errorf("%w: stuck at utility %g of %g", ErrInfeasible, s.curU, s.p.Threshold)
		s.Result()
		return Step{}, false, s.err
	}
	s.ws.markPicked(pick.idx)
	s.p.Subsets[pick.idx].unionInto(s.ws.cur)
	s.curU += pick.gain
	s.round++
	s.res.Chosen = append(s.res.Chosen, pick.idx)
	s.res.Cost += s.p.Subsets[pick.idx].Cost
	st := Step{
		Subset: pick.idx, Gain: pick.gain, Ratio: pick.ratio, Cost: s.res.Cost, Utility: s.curU,
	}
	s.res.Trace = append(s.res.Trace, st)
	if s.curU >= s.target-tol {
		s.done = true
	}
	return st, true, nil
}

// Solve runs Step to completion and returns the final result — identical
// picks to LazyGreedy (and, by the lazy-evaluation argument, to Greedy
// for integral utilities).
func (s *Stepwise) Solve() (*Result, error) {
	for {
		_, ok, err := s.Step()
		if err != nil {
			return s.res, err
		}
		if !ok {
			return s.Result(), nil
		}
	}
}
