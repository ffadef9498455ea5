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

	// gains[i] is subset i's last-known capped gain: exact if its group
	// was priced this round, its stale upper bound otherwise, and 0 once
	// it is picked or can no longer help.
	gains []float64
	h     lazyHeap
	round int

	curU   float64
	target float64
	res    *Result
	done   bool
	err    error
}

// NewStepwise validates the problem and prepares a resumable run whose
// initial heap is built by probing every subset up front, one oracle
// call each.
func NewStepwise(p Problem, opts Options) (*Stepwise, error) {
	gains := make([]float64, len(p.Subsets))
	for i := range gains {
		gains[i] = math.NaN()
	}
	return NewStepwiseExact(p, opts, gains)
}

// NewStepwiseExact prepares a run whose initial heap is seeded from exact
// initial gains: gains[i] is subset i's capped gain against the initial
// base set — precisely what the initial probe would return — or NaN to
// have the run probe subset i itself. Exact entries are seeded fresh
// (round 0, never re-priced before the first pick) and each is billed as
// one oracle call, so the heap, the pick sequence and Result.Evals are
// those of NewStepwise(p, opts). An exact gain that understates the
// truth is caught like any stale bound: when its group is re-priced in a
// later round, the fresh gain exceeds the seeded one (ErrBrokenBound).
// The run takes gains over as its per-subset bounds and overwrites it.
func NewStepwiseExact(p Problem, opts Options, gains []float64) (*Stepwise, error) {
	if len(gains) != len(p.Subsets) {
		return nil, fmt.Errorf("budget: %d exact gains for %d subsets", len(gains), len(p.Subsets))
	}
	if err := validate(p, opts); err != nil {
		return nil, err
	}
	f := submodular.NewCounting(p.F)
	ws := newWorkspace(f, p, opts)
	s := &Stepwise{
		p:      p,
		f:      f,
		ws:     ws,
		gains:  gains,
		curU:   math.Min(p.Threshold, ws.utility()),
		target: (1 - opts.Eps) * p.Threshold,
		res:    &Result{Union: ws.cur},
	}
	base := ws.base()
	known := 0
	for i, g := range gains {
		if math.IsNaN(g) {
			g, _, _ = ws.probe(i, base, s.curU)
		} else {
			known++
			g = math.Min(p.Threshold, g)
		}
		if g <= tol {
			g = 0
		}
		gains[i] = g
	}
	f.Charge(int64(known))
	s.h = make(lazyHeap, 0, ws.groupCount())
	for g := 0; g < ws.groupCount(); g++ {
		if e, ok := s.best(g, 0); ok {
			s.h = append(s.h, e)
		}
	}
	s.h.init()
	return s, nil
}

// best returns group g's heap entry, stamped with round: its live member
// of highest last-known ratio, ties to the lowest index. ok is false when
// no member is live.
func (s *Stepwise) best(g, round int) (e lazyEntry, ok bool) {
	lo, hi := s.ws.group(g)
	for i := lo; i < hi; i++ {
		if s.gains[i] == 0 {
			continue
		}
		if r := s.ws.ratio(i, s.gains[i]); !ok || r > e.ratio {
			e, ok = lazyEntry{idx: i, ratio: r, grp: g, round: round}, true
		}
	}
	return e, ok
}

// reprice refreshes every live member of stale group g against the
// current solution and pushes the group back, stamped with the current
// round, if a member still helps. A group with one live member is
// probed; a larger one is priced by one prefix pass over its longest
// live member, which holds every other as a prefix. A fresh gain above
// its member's stale bound returns ErrBrokenBound.
func (s *Stepwise) reprice(g int) error {
	lo, hi := s.ws.group(g)
	longest, live := -1, 0
	for i := lo; i < hi; i++ {
		if s.gains[i] == 0 {
			continue
		}
		live++
		if longest < 0 || len(s.ws.items(i)) > len(s.ws.items(longest)) {
			longest = i
		}
	}
	base := s.ws.base()
	if live == 1 {
		gain, _, _ := s.ws.probe(longest, base, s.curU)
		if err := s.settle(longest, gain); err != nil {
			return err
		}
	} else {
		run := s.ws.items(longest)
		prefix := s.ws.prefix[:len(run)]
		s.ws.pre.PrefixGains(run, prefix)
		for i := lo; i < hi; i++ {
			if s.gains[i] == 0 {
				continue
			}
			gain := math.Min(s.ws.x, base+prefix[len(s.ws.items(i))-1]) - s.curU
			if gain <= tol {
				gain = 0
			}
			if err := s.settle(i, gain); err != nil {
				return err
			}
		}
	}
	if e, ok := s.best(g, s.round); ok {
		s.h.push(e)
	}
	return nil
}

// settle records subset i's fresh gain after checking it against the
// stale bound it replaces — the lazy loop's free soundness check.
func (s *Stepwise) settle(i int, fresh float64) error {
	if bound := s.gains[i]; fresh > bound+boundSlack(bound, s.curU) {
		return fmt.Errorf("%w: subset %d re-probed at gain %g above its bound %g in round %d",
			ErrBrokenBound, i, fresh, bound, s.round)
	}
	s.gains[i] = fresh
	return nil
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
// (ErrInfeasible) or a re-pricing broke a stale bound (ErrBrokenBound).
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
	// The lazy loop over groups: pop the top entry; if its group was
	// priced this round, its best member is the pick, otherwise re-price
	// the group and push it back.
	var pick lazyEntry
	found := false
	for len(s.h) > 0 {
		e := s.h.pop()
		if e.round == s.round {
			pick = e
			found = true
			break
		}
		if err := s.reprice(e.grp); err != nil {
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
	gain := s.gains[pick.idx]
	s.gains[pick.idx] = 0
	s.ws.markPicked(pick.idx)
	s.p.Subsets[pick.idx].unionInto(s.ws.cur)
	s.curU += gain
	s.round++
	s.res.Chosen = append(s.res.Chosen, pick.idx)
	s.res.Cost += s.p.Subsets[pick.idx].Cost
	// The group's other members keep this round's gains as their stale
	// bounds.
	if e, ok := s.best(pick.grp, pick.round); ok {
		s.h.push(e)
	}
	st := Step{
		Subset: pick.idx, Gain: gain, Ratio: pick.ratio, Cost: s.res.Cost, Utility: s.curU,
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
