package budget

// sieve.go is the streaming tier of the budgeted greedy: a single pass
// over the candidate subsets with a geometric threshold ladder over a
// running OPT estimate, in the SIEVE-STREAMING style (Badanidiyuru et
// al.), adapted from cardinality to the thesis's knapsack-budget setting.
//
// Each ladder level j guesses OPT ≈ v = (1+ε)^j and greedily accepts any
// candidate whose capped marginal gain clears the level's acceptance
// threshold, stopping (freezing) once the level's utility reaches v/2.
// Levels live only while v ∈ [m, 2U], where m is the best feasible
// singleton seen so far and U is a running upper bound on OPT
// (Budget·max-density + the free-candidate mass, clipped to Cap); as m
// and U grow, dead levels are dropped from the bottom and fresh ones are
// instantiated at the top. A level instantiated mid-stream misses the
// candidates before its birth — but those candidates are exactly the
// ones its own threshold would have rejected (their singleton density is
// below the level's empty-set acceptance bar), which is what makes the
// single pass sound.
//
// Guarantee: for uniform positive costs (the cardinality case k =
// ⌊B/c⌋, which is what sched's SingleSlots candidates produce under
// per-slot-affine pricing) the acceptance rule is the classic
// residual-slots rule gain ≥ (v/2 − util)/(k − |S|), and the best level
// achieves utility ≥ (1/2 − ε)·OPT. For non-uniform costs the rule
// degrades to the density form gain/cost ≥ (v/2 − util)/(B − spent)
// plus a best-feasible-singleton fallback — the standard heuristic,
// feasible and empirically strong but with no certified 1/2 factor
// (conformance asserts the ratio empirically per instance instead).
//
// Memory is O(levels · B/min-cost) candidate slots plus one incremental
// oracle per level (each oracle carries O(universe) working state — the
// bound is on candidate slots, not on oracle state). The sieve never
// calls Eval on the full ground set: every decision is a per-candidate
// incremental Gain, which the streambound analyzer enforces.

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/submodular"
)

// SieveOptions tune one sieve pass.
type SieveOptions struct {
	// Eps is the ladder resolution and the guarantee slack: levels are
	// spaced by (1+Eps) and the uniform-cost guarantee is (1/2−Eps)·OPT.
	// Must be in (0, 1).
	Eps float64
	// Budget is the hard cost budget B; every returned solution costs at
	// most B. Must be positive and finite. Candidates costing more than B
	// are ignored (no solution could ever include them).
	Budget float64
	// Cap, when positive, caps the utility the sieve optimizes (measured
	// above F(∅)), exactly like Problem.Threshold caps the greedy: gains
	// are min(Cap, ·)-clipped and no level accepts past it. 0 = uncapped.
	Cap float64
}

// SieveResult is the outcome of a sieve pass.
type SieveResult struct {
	// Chosen holds the winning solution's candidate indices in stream
	// (acceptance) order — offer positions for a streaming Sieve, slice
	// indices for RunSieve.
	Chosen []int
	// Union is the union of the chosen subsets (RunSieve only; a
	// streaming Sieve does not retain subset contents, so it stays nil).
	Union *bitset.Set
	// Utility is the solution's capped utility above F(∅) — the quantity
	// the (1/2−ε) guarantee speaks about.
	Utility float64
	// Cost is the solution's total cost (≤ Budget).
	Cost  float64
	Evals int64 // oracle calls consumed
	// Levels is the ladder population at finish; LevelsPeak its peak.
	Levels     int
	LevelsPeak int
	// MaxLive is the peak number of simultaneously held candidate slots
	// across all levels — the bound the fuzz target asserts.
	MaxLive int
	// Uniform reports whether every positive-cost candidate offered had
	// the same cost, i.e. whether the certified guarantee applied.
	Uniform bool
}

// sieveLevel is one ladder rung: a threshold guess v with its own
// greedily grown solution and incremental oracle.
type sieveLevel struct {
	j      int
	v      float64
	oracle submodular.Incremental
	chosen []int
	paid   int // positive-cost picks (the uniform rule's |S|)
	cost   float64
	util   float64 // capped utility above F(∅)
	frozen bool
}

// Sieve runs one streaming pass: NewSieve, Offer each candidate once in
// stream order, Finish. A Sieve must not be shared between goroutines;
// RunSieve is the batch form over an explicit candidate slice.
type Sieve struct {
	opts   SieveOptions
	count  *submodular.Counting
	zero   submodular.Incremental // pristine singleton-gain oracle, never committed
	base0  float64                // F(∅): all utilities are measured above it
	capEff float64
	lnEps  float64

	n       int     // stream position
	m       float64 // best feasible singleton capped gain
	dmax    float64 // best feasible singleton density (positive costs)
	freeSum float64 // total capped gain of zero-cost candidates
	uBound  float64 // running OPT upper bound

	hasLadder  bool
	jLo, jHi   int
	levels     []*sieveLevel
	live       int
	maxLive    int
	levelsPeak int

	uniform bool
	uc      float64 // the uniform cost once learned (0 = none seen)
	kUni    int     // ⌊Budget/uc⌋

	bestSingle     int // stream index of best feasible singleton, -1
	bestSingleGain float64
	bestSingleCost float64

	finished bool
	err      error
}

// NewSieve validates the options and opens a streaming pass over f. f
// must provide an incremental oracle (submodular.AsIncremental): the
// sieve's whole point is bounded per-candidate work, so there is no
// plain-Eval fallback.
func NewSieve(f submodular.Function, opts SieveOptions) (*Sieve, error) {
	if opts.Eps <= 0 || opts.Eps >= 1 {
		return nil, fmt.Errorf("budget: sieve Eps must be in (0,1), got %g", opts.Eps)
	}
	if !(opts.Budget > 0) || math.IsInf(opts.Budget, 0) {
		return nil, fmt.Errorf("budget: sieve Budget must be positive and finite, got %g", opts.Budget)
	}
	if opts.Cap < 0 || math.IsNaN(opts.Cap) {
		return nil, fmt.Errorf("budget: sieve Cap must be >= 0, got %g", opts.Cap)
	}
	count := submodular.NewCounting(f)
	zero, ok := submodular.AsIncremental(count)
	if !ok {
		return nil, fmt.Errorf("budget: sieve requires an incremental oracle (submodular.AsIncremental); plain-Eval streaming would rescan the ground set per candidate")
	}
	capEff := math.Inf(1)
	if opts.Cap > 0 {
		capEff = opts.Cap
	}
	return &Sieve{
		opts:       opts,
		count:      count,
		zero:       zero,
		base0:      zero.Value(),
		capEff:     capEff,
		lnEps:      math.Log1p(opts.Eps),
		uniform:    true,
		bestSingle: -1,
	}, nil
}

// Offer feeds the next candidate of the stream. Candidates are
// identified by offer position in the result's Chosen.
func (sv *Sieve) Offer(sub Subset) error {
	if sv.err != nil {
		return sv.err
	}
	if sv.finished {
		return fmt.Errorf("budget: Offer after Finish")
	}
	idx := sv.n
	sv.n++
	if sub.Items == nil && sub.Elems == nil {
		sv.err = fmt.Errorf("budget: candidate %d has neither Items nor Elems", idx)
		return sv.err
	}
	if sub.Cost < 0 || math.IsNaN(sub.Cost) || math.IsInf(sub.Cost, 0) {
		sv.err = fmt.Errorf("budget: candidate %d has invalid cost %g", idx, sub.Cost)
		return sv.err
	}
	if sub.Cost > sv.opts.Budget+tol {
		return nil // can never be part of any feasible solution
	}
	items := sub.Elems
	if items == nil {
		items = sub.Items.Elements()
	}

	// Singleton capped gain above F(∅), on the pristine oracle. By
	// submodularity it upper-bounds the candidate's gain at any level, so
	// a non-positive value ends the candidate here.
	gc := math.Min(sv.capEff, sv.zero.Gain(items))
	if gc <= tol {
		return nil
	}
	if gc > sv.bestSingleGain {
		sv.bestSingle, sv.bestSingleGain, sv.bestSingleCost = idx, gc, sub.Cost
	}
	if gc > sv.m {
		sv.m = gc
	}
	free := sub.Cost <= tol
	if free {
		sv.freeSum += gc
	} else {
		if d := gc / sub.Cost; d > sv.dmax {
			sv.dmax = d
		}
		switch {
		case sv.uc == 0:
			sv.uc = sub.Cost
			sv.kUni = int(math.Floor((sv.opts.Budget + tol) / sub.Cost))
		case math.Abs(sub.Cost-sv.uc) > tol:
			sv.uniform = false
		}
	}
	sv.uBound = math.Min(sv.capEff, sv.opts.Budget*sv.dmax+sv.freeSum)
	sv.retarget()

	for _, lvl := range sv.levels {
		if lvl.frozen {
			continue
		}
		var required float64
		switch {
		case free:
			required = 0
		case sv.uniform:
			r := sv.kUni - lvl.paid
			if r < 1 {
				continue // level's uniform budget exhausted
			}
			required = (lvl.v/2 - lvl.util) / float64(r)
		default:
			if lvl.cost+sub.Cost > sv.opts.Budget+tol {
				continue
			}
			rem := sv.opts.Budget - lvl.cost
			if rem <= tol {
				continue
			}
			required = (lvl.v/2 - lvl.util) * sub.Cost / rem
		}
		if gc+tol < required {
			continue // singleton bound already below the bar: no probe needed
		}
		capped := math.Min(sv.capEff, lvl.oracle.Value()-sv.base0+lvl.oracle.Gain(items))
		gain := capped - lvl.util
		if gain <= tol || gain+tol < required {
			continue
		}
		lvl.oracle.Commit(items)
		lvl.chosen = append(lvl.chosen, idx)
		lvl.cost += sub.Cost
		if !free {
			lvl.paid++
		}
		lvl.util = capped
		sv.live++
		if sv.live > sv.maxLive {
			sv.maxLive = sv.live
		}
		if lvl.util >= lvl.v/2-tol {
			lvl.frozen = true
		}
	}
	return nil
}

// retarget recomputes the live ladder window [jLo, jHi] from the running
// m and U, drops dead levels from the bottom, and instantiates fresh
// ones at the top. Both window edges are monotone (m and U only grow),
// so levels are created at most once.
func (sv *Sieve) retarget() {
	if sv.m <= 0 {
		return
	}
	// The 1e-9 slack keeps the j bounds stable when m or 2U lands
	// exactly on a ladder value.
	jLo := int(math.Ceil(math.Log(sv.m)/sv.lnEps - 1e-9))
	jHi := int(math.Floor(math.Log(2*sv.uBound)/sv.lnEps + 1e-9))
	if jHi < jLo {
		jHi = jLo
	}
	start := jLo
	if sv.hasLadder {
		if jLo < sv.jLo {
			jLo = sv.jLo
		}
		if start = sv.jHi + 1; start < jLo {
			start = jLo
		}
		if jHi < sv.jHi {
			jHi = sv.jHi
		}
	}
	keep := sv.levels[:0]
	for _, lvl := range sv.levels {
		if lvl.j < jLo {
			sv.live -= len(lvl.chosen)
			continue
		}
		keep = append(keep, lvl)
	}
	sv.levels = keep
	for j := start; j <= jHi; j++ {
		oracle, _ := submodular.AsIncremental(sv.count)
		sv.levels = append(sv.levels, &sieveLevel{
			j: j, v: math.Exp(float64(j) * sv.lnEps), oracle: oracle,
		})
	}
	sv.hasLadder = true
	sv.jLo, sv.jHi = jLo, jHi
	if len(sv.levels) > sv.levelsPeak {
		sv.levelsPeak = len(sv.levels)
	}
}

// bestLevel returns the best level by (utility desc, j asc), or
// nil when no level holds positive utility.
func (sv *Sieve) bestLevel() *sieveLevel {
	var best *sieveLevel
	for _, lvl := range sv.levels {
		if lvl.util <= tol {
			continue
		}
		if best == nil || lvl.util > best.util || (lvl.util == best.util && lvl.j < best.j) {
			best = lvl
		}
	}
	return best
}

// Finish closes the stream and returns the best solution seen: the
// best-utility level, or the best feasible singleton when it beats every
// level (the non-uniform fallback; under uniform costs the winning level
// always dominates it).
func (sv *Sieve) Finish() (*SieveResult, error) {
	if sv.err != nil {
		return nil, sv.err
	}
	sv.finished = true
	res := &SieveResult{
		Uniform:    sv.uniform,
		Evals:      sv.count.Calls(),
		Levels:     len(sv.levels),
		LevelsPeak: sv.levelsPeak,
		MaxLive:    sv.maxLive,
	}
	best := sv.bestLevel()
	switch {
	case best != nil && best.util >= sv.bestSingleGain:
		res.Chosen = append([]int(nil), best.chosen...)
		res.Utility = best.util
		res.Cost = best.cost
	case sv.bestSingle >= 0:
		res.Chosen = []int{sv.bestSingle}
		res.Utility = sv.bestSingleGain
		res.Cost = sv.bestSingleCost
	}
	return res, nil
}

// RunSieve runs one sieve pass over an explicit candidate slice — the
// batch twin of NewSieve/Offer/Finish that also returns the winning
// union.
func RunSieve(f submodular.Function, subsets []Subset, opts SieveOptions) (*SieveResult, error) {
	n := f.Universe()
	for i := range subsets {
		if err := subsets[i].checkItems(i, n); err != nil {
			return nil, err
		}
	}
	sv, err := NewSieve(f, opts)
	if err != nil {
		return nil, err
	}
	for i := range subsets {
		if err := sv.Offer(subsets[i]); err != nil {
			return nil, err
		}
	}
	res, err := sv.Finish()
	if err != nil {
		return nil, err
	}
	if res.Chosen != nil {
		res.Union = bitset.New(n)
		for _, i := range res.Chosen {
			subsets[i].unionInto(res.Union)
		}
	}
	return res, nil
}
