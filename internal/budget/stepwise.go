package budget

import (
	"fmt"
	"math"

	"repro/internal/submodular"
)

// stepwise is the resumable form of the lazy budgeted greedy behind
// LazyGreedy, advanced one pick at a time so that tests and the
// StepwiseRound benchmark can step a run.
//
// A stepwise run must not be shared between goroutines.
type stepwise struct {
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

// newStepwise validates the problem and prepares a run whose initial
// heap holds every group priced against the initial base set — by the
// same price that re-prices a stale group, starting from bounds of +Inf
// (every subset live, no bound to break). A group of several subsets is
// thus priced by one prefix pass when the oracle can price prefixes, and
// every other subset by its own probe. The initial pricing bills one
// oracle call per subset however it was priced, so Result.Evals does not
// depend on the grouping before the first pick.
func newStepwise(p Problem, opts Options) (*stepwise, error) {
	if err := validate(p, opts); err != nil {
		return nil, err
	}
	f := submodular.NewCounting(p.F)
	ws := newWorkspace(f, p, opts)
	s := &stepwise{
		p:      p,
		f:      f,
		ws:     ws,
		gains:  make([]float64, len(p.Subsets)),
		curU:   math.Min(p.Threshold, ws.utility()),
		target: (1 - opts.Eps) * p.Threshold,
		res:    &Result{Union: ws.cur},
	}
	for i := range s.gains {
		s.gains[i] = math.Inf(1)
	}
	before := f.Calls()
	s.h = make(lazyHeap, 0, ws.groupCount())
	for g := 0; g < ws.groupCount(); g++ {
		_ = s.price(g) // no gain breaks a bound of +Inf
		if e, ok := s.best(g, 0); ok {
			s.h = append(s.h, e)
		}
	}
	s.h.init()
	// A prefix pass billed one call for its whole group; bill the initial
	// pricing one call per subset, as probing each would.
	f.Charge(int64(len(p.Subsets)) - (f.Calls() - before))
	return s, nil
}

// best returns group g's heap entry, stamped with round: its live member
// of highest last-known ratio, ties to the lowest index. ok is false when
// no member is live.
func (s *stepwise) best(g, round int) (e lazyEntry, ok bool) {
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

// reprice refreshes stale group g against the current solution and
// pushes it back, stamped with the current round, if a member still
// helps.
func (s *stepwise) reprice(g int) error {
	if err := s.price(g); err != nil {
		return err
	}
	if e, ok := s.best(g, s.round); ok {
		s.h.push(e)
	}
	return nil
}

// price records the fresh gain of every live member of group g against
// the current solution. A group with one live member is probed; a larger
// one is priced by one prefix pass over its longest live member, which
// holds every other as a prefix. A fresh gain above its member's stale
// bound returns ErrBrokenBound (settle).
func (s *stepwise) price(g int) error {
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
		return s.settle(longest, gain)
	}
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
	return nil
}

// settle records subset i's fresh gain after checking it against the
// stale bound it replaces — the lazy loop's free soundness check. The
// slack is computed only for a gain above its bound, which a submodular
// oracle returns at most by rounding, so the check costs one comparison
// per priced member (the initial pricing's +Inf bounds included).
func (s *stepwise) settle(i int, fresh float64) error {
	if bound := s.gains[i]; fresh > bound && fresh > bound+boundSlack(bound, s.curU) {
		return fmt.Errorf("%w: subset %d re-probed at gain %g above its bound %g in round %d",
			ErrBrokenBound, i, fresh, bound, s.round)
	}
	s.gains[i] = fresh
	return nil
}

// result returns the run's result so far: picks, cost, and trace reflect
// the steps taken; Utility and Evals are refreshed on every call.
func (s *stepwise) result() *Result {
	s.res.Utility = s.ws.utility()
	s.res.Evals = s.f.Calls()
	return s.res
}

// step advances the run by one greedy pick. It returns (step, true, nil)
// after a pick, (Step{}, false, nil) when the target was already met, and
// (Step{}, false, err) when no remaining subset can improve utility
// (ErrInfeasible) or a re-pricing broke a stale bound (ErrBrokenBound).
// The pick sequence is exactly Greedy's for integral utilities (see the
// package doc).
func (s *stepwise) step() (Step, bool, error) {
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
			s.result()
			return Step{}, false, err
		}
	}
	if !found {
		s.err = fmt.Errorf("%w: stuck at utility %g of %g", ErrInfeasible, s.curU, s.p.Threshold)
		s.result()
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

// solve runs step to completion and returns the final result.
func (s *stepwise) solve() (*Result, error) {
	for {
		_, ok, err := s.step()
		if err != nil {
			return s.res, err
		}
		if !ok {
			return s.result(), nil
		}
	}
}
