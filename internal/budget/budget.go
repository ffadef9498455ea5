// Package budget implements submodular maximization with budget
// constraints — the thesis's foundational technique (§2.1, Lemma 2.1.2).
//
// Given explicitly listed allowable subsets S₁,…,Sₘ with costs C₁,…,Cₘ, a
// monotone submodular utility F, and a utility threshold x, Greedy
// repeatedly picks the subset maximizing
//
//	(min(x, F(S ∪ Sᵢ)) − F(S)) / Cᵢ
//
// and stops once the utility reaches (1−ε)x. Lemma 2.1.2 proves that if
// some collection of cost B achieves utility x, the greedy's cost is
// O(B·log(1/ε)). Set Cover is the special case of singleton subsets and a
// coverage utility, with ε below 1/(number of elements).
//
// LazyGreedy is the classical lazy-evaluation variant: stale marginal
// ratios are kept in a max-heap and only re-evaluated when popped, which is
// sound because capped marginals of a monotone submodular function can only
// shrink as the solution grows. For integral utilities (unit-weight
// coverage, the matching utility of Theorem 2.2.1) both variants pick
// identical subsets (ties broken by index); they differ only in
// oracle-call counts, which ablation A1 measures. For float-valued
// utilities the two can resolve exact floating-point ties differently —
// the lazy heap compares a gain computed rounds ago against fresh ones,
// and the sums round differently — so picks may differ at equal cost and
// utility: on 1,800 random prize-collecting solves (the weighted matching
// utility, real-valued job values) lazy and eager disagreed 10 times, in
// pick order or assignment, which is why sched's prize modes stay eager.
//
// The lazy greedy works on groups of subsets (Problem.Groups): runs of
// subsets that are prefixes of one longest member, such as sched's
// candidate intervals sharing a first slot. The heap holds one entry per
// group, keyed by its best live member's last-known (ratio desc, idx
// asc). Every member's last-known gain is an upper bound on its true gain
// (capped gains of a monotone submodular F only shrink; sched's matching
// utility is a transversal-matroid rank, a polymatroid), so the maximum
// of a group's stale keys bounds the group's true best under the same
// total order. A popped stale group is re-priced whole by one prefix
// pass over its longest live member, which gives every live member's
// fresh gain for about the cost of one probe; a popped fresh group's best
// member is therefore the eager argmax, ties to the lowest index, and the
// picks and trace are exactly Greedy's for integral utilities. After a
// pick the group goes back with its other members' now-stale gains. The
// initial heap is priced the same way, one pass per group, but billed as
// one oracle call per subset, as probing each would be. With one subset
// per group this is the classical lazy loop, probe for probe.
//
// Both greedies are serial: each pick depends on the one before it, so
// the only work a second goroutine could take is one round's probes, and
// on the measured hosts sharding those across oracle replicas never paid
// for the replica bookkeeping (see the README's "Why the greedy is
// serial").
package budget

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/bitset"
	"repro/internal/submodular"
)

// Subset is one allowable subset with its cost (Definition 1), given as
// its element list. The incremental probe loop consumes Elems directly,
// so callers that already hold element lists (sched's candidate items)
// pass them without copying. Elems must not contain out-of-universe
// elements, and its order must be deterministic for the run to be
// reproducible. An empty (or nil) Elems is the empty subset: it never
// raises the utility, so the greedy never picks it, and a grouped
// problem rejects it (a group's members are non-empty prefixes).
type Subset struct {
	Elems []int
	Cost  float64
}

// unionInto adds the subset's elements to dst.
func (s *Subset) unionInto(dst *bitset.Set) {
	for _, e := range s.Elems {
		dst.Add(e)
	}
}

// Problem is an instance of submodular maximization with budget
// constraints: reach utility Threshold over F using the allowable Subsets.
type Problem struct {
	F         submodular.Function
	Subsets   []Subset
	Threshold float64

	// Groups optionally cuts Subsets into runs of consecutive subsets
	// whose Elems are all prefixes of the run's longest member:
	// Groups[g] is the index of group g's first subset, Groups[0] is 0,
	// the indices increase, and group g ends where group g+1 starts (the
	// last one at len(Subsets)). When F's incremental oracle can price
	// prefixes (submodular.AsPrefixPricer), the lazy greedy keeps one heap
	// entry per group and prices a group, initially and whenever it is
	// stale, with one prefix pass (see the package doc). Nil, or an
	// oracle without prefix pricing, makes every subset its own group.
	// Groups change how many oracle calls a run bills, not its picks (for
	// integral utilities; see the package doc on float ties).
	Groups []int
}

// Options tune the greedy.
type Options struct {
	// Eps is the bicriteria slack ε: stop at utility (1−ε)·Threshold.
	// Must be in (0, 1].
	Eps float64
	// PlainEval disables the incremental-oracle fast path even when F
	// provides one (submodular.AsIncremental), recomputing every probe
	// from scratch — the ablation A1/A3 baseline.
	PlainEval bool
}

// Step records one greedy pick, forming the trace used by the phase
// accounting of Lemma 2.1.2's proof.
type Step struct {
	Subset  int     // index into Problem.Subsets
	Gain    float64 // capped utility gain of this pick
	Ratio   float64 // Gain / Cost at pick time
	Cost    float64 // cumulative cost after this pick
	Utility float64 // capped utility after this pick
}

// Result is the output of a greedy run.
type Result struct {
	Chosen  []int // picked subset indices, in pick order
	Union   *bitset.Set
	Utility float64 // F of the union (uncapped)
	Cost    float64
	Evals   int64 // oracle calls consumed
	Trace   []Step
}

// Phases buckets the trace into the proof's phases: phase i covers picks
// made while utility < (1−1/2^i)·x. It returns the cost spent per phase.
func (r *Result) Phases(threshold float64) []float64 {
	var phases []float64
	phase := 1
	bound := func(i int) float64 { return (1 - 1/math.Pow(2, float64(i))) * threshold }
	spent := 0.0
	prevCost := 0.0
	for _, st := range r.Trace {
		for st.Utility >= bound(phase) && phase < 64 {
			phases = append(phases, spent)
			spent = 0
			phase++
		}
		spent += st.Cost - prevCost
		prevCost = st.Cost
	}
	phases = append(phases, spent)
	return phases
}

// ErrInfeasible is returned when no remaining subset improves utility but
// the target has not been reached; the instance cannot achieve the
// threshold with the given subsets.
var ErrInfeasible = errors.New("budget: threshold unreachable with given subsets")

// ErrBrokenBound is returned by the lazy greedy when a re-probed subset's
// fresh gain exceeds the stale upper bound its heap entry held by more
// than boundSlack. Lazy evaluation is exact only while those bounds hold,
// so the run stops instead of picking from a heap it can no longer trust.
// A violation means F is not submodular.
var ErrBrokenBound = errors.New("budget: lazy gain bound violated")

const tol = 1e-12

// boundSlack is how far a fresh gain may exceed its stale bound before
// ErrBrokenBound: a relative 1e-9 of the larger of the bound and the
// current utility (the float-valued oracles sum the same terms in a
// different order on every probe), never below an absolute 1e-9.
func boundSlack(bound, curU float64) float64 {
	return 1e-9 * math.Max(1, math.Max(math.Abs(bound), math.Abs(curU)))
}

// workspace is the per-run state shared by Greedy and LazyGreedy: the
// incremental oracle (or the plain-Eval probe buffer) and the group
// pricing scratch. Everything is allocated once per run — the probe
// loops allocate nothing per round.
type workspace struct {
	f submodular.Function
	x float64 // utility cap (Problem.Threshold)

	subsets []Subset

	// Incremental fast path: the oracle every probe and pick goes
	// through. nil on the plain-Eval path.
	inc submodular.Incremental

	// Group pricing: the oracle's prefix pricing and the problem's
	// groups, both nil unless the problem has groups and the oracle can
	// price prefixes (then every subset is its own group); prefix is the
	// pass's scratch, sized to the longest group member.
	pre    submodular.PrefixPricer
	groups []int
	prefix []float64

	// cur is the current union, maintained on both paths (it is
	// Result.Union); scratch is the plain-Eval probe buffer.
	cur     *bitset.Set
	scratch *bitset.Set
}

// newWorkspace resolves options against the problem and allocates all
// per-run scratch. f must be the counting wrapper the run bills probes to.
func newWorkspace(f submodular.Function, p Problem, opts Options) *workspace {
	ws := &workspace{
		f:       f,
		x:       p.Threshold,
		subsets: p.Subsets,
		cur:     bitset.New(p.F.Universe()),
	}
	if !opts.PlainEval {
		ws.inc, _ = submodular.AsIncremental(f)
	}
	if ws.inc == nil {
		ws.scratch = bitset.New(p.F.Universe())
		return ws
	}
	if p.Groups != nil {
		if ws.pre, _ = submodular.AsPrefixPricer(ws.inc); ws.pre != nil {
			ws.groups = p.Groups
			longest := 0
			for i := range p.Subsets {
				longest = max(longest, len(p.Subsets[i].Elems))
			}
			ws.prefix = make([]float64, longest)
		}
	}
	return ws
}

// groupCount returns the number of groups the lazy loop keys its heap
// by.
func (ws *workspace) groupCount() int {
	if ws.groups == nil {
		return len(ws.subsets)
	}
	return len(ws.groups)
}

// group returns group g's subsets, [lo, hi).
func (ws *workspace) group(g int) (lo, hi int) {
	if ws.groups == nil {
		return g, g + 1
	}
	lo, hi = ws.groups[g], len(ws.subsets)
	if g+1 < len(ws.groups) {
		hi = ws.groups[g+1]
	}
	return lo, hi
}

// items returns subset i's element list for the incremental oracles.
func (ws *workspace) items(i int) []int { return ws.subsets[i].Elems }

// markPicked commits the chosen subset to the incremental oracle. The
// caller updates cur itself (both paths need the union).
func (ws *workspace) markPicked(i int) {
	if ws.inc != nil {
		ws.inc.Commit(ws.items(i))
	}
}

// utility returns the uncapped F of the current union: the committed value
// when running incrementally (cur mirrors the oracle's base set by
// construction), a fresh Eval otherwise.
func (ws *workspace) utility() float64 {
	if ws.inc != nil {
		return ws.inc.Value()
	}
	return ws.f.Eval(ws.cur)
}

// probe evaluates candidate i and returns its capped gain and ratio
// against curU. base must be the oracle's committed Value() on the
// incremental path.
func (ws *workspace) probe(i int, base, curU float64) (gain, ratio float64, ok bool) {
	var v float64
	if ws.inc != nil {
		v = math.Min(ws.x, base+ws.inc.Gain(ws.items(i)))
	} else {
		v = math.Min(ws.x, evalUnion(ws.f, ws.scratch, ws.cur, &ws.subsets[i]))
	}
	gain = v - curU
	if gain <= tol {
		return 0, 0, false
	}
	return gain, ws.ratio(i, gain), true
}

// ratio is subset i's gain per unit cost; a free subset's is +Inf.
func (ws *workspace) ratio(i int, gain float64) float64 {
	if c := ws.subsets[i].Cost; c > tol {
		return gain / c
	}
	return math.Inf(1)
}

// base returns the committed oracle value (0 on the plain path, where
// probes evaluate the union directly).
func (ws *workspace) base() float64 {
	if ws.inc != nil {
		return ws.inc.Value()
	}
	return 0
}

// scanBest finds the best unpicked candidate: max ratio, ties to the
// lowest index.
func (ws *workspace) scanBest(picked []bool, curU float64) (best int, bestGain, bestRatio float64) {
	best, bestRatio = -1, math.Inf(-1)
	base := ws.base()
	for i := range ws.subsets {
		if picked[i] {
			continue
		}
		if gain, ratio, ok := ws.probe(i, base, curU); ok && ratio > bestRatio {
			best, bestGain, bestRatio = i, gain, ratio
		}
	}
	return best, bestGain, bestRatio
}

// Greedy runs the algorithm of Lemma 2.1.2. On success the result has
// capped utility at least (1−ε)·Threshold.
//
// When F provides an incremental oracle (submodular.AsIncremental) and
// PlainEval is not set, every probe F(S ∪ Sᵢ) is answered by a stateful
// oracle's Gain instead of a from-scratch Eval. For integer-valued
// oracles (coverage with unit weights, the matching utilities) the pick
// sequence is also bit-identical to the plain path; for float-valued
// oracles the incremental and plain paths sum the same terms in different
// orders, so picks can differ between those two paths at exact
// floating-point ties.
func Greedy(p Problem, opts Options) (*Result, error) {
	if err := validate(p, opts); err != nil {
		return nil, err
	}
	f := submodular.NewCounting(p.F)
	x := p.Threshold
	target := (1 - opts.Eps) * x

	ws := newWorkspace(f, p, opts)
	cur := ws.cur
	curU := math.Min(x, ws.utility())
	res := &Result{Union: cur}
	picked := make([]bool, len(p.Subsets))

	for curU < target-tol {
		best, bestGain, bestRatio := ws.scanBest(picked, curU)
		if best == -1 {
			res.Utility = ws.utility()
			res.Evals = f.Calls()
			return res, fmt.Errorf("%w: stuck at utility %g of %g", ErrInfeasible, curU, x)
		}
		picked[best] = true
		ws.markPicked(best)
		p.Subsets[best].unionInto(cur)
		curU += bestGain
		res.Chosen = append(res.Chosen, best)
		res.Cost += p.Subsets[best].Cost
		res.Trace = append(res.Trace, Step{
			Subset: best, Gain: bestGain, Ratio: bestRatio, Cost: res.Cost, Utility: curU,
		})
	}
	res.Utility = ws.utility()
	res.Evals = f.Calls()
	return res, nil
}

// evalUnion evaluates F(cur ∪ s) in the caller-provided scratch set, so
// the plain-Eval probe loop allocates nothing per candidate.
func evalUnion(f submodular.Function, scratch, cur *bitset.Set, s *Subset) float64 {
	scratch.CopyFrom(cur)
	s.unionInto(scratch)
	return f.Eval(scratch)
}

func validate(p Problem, opts Options) error {
	if opts.Eps <= 0 || opts.Eps > 1 {
		return fmt.Errorf("budget: Eps must be in (0,1], got %g", opts.Eps)
	}
	if p.Threshold < 0 {
		return fmt.Errorf("budget: negative threshold %g", p.Threshold)
	}
	n := p.F.Universe()
	for i, s := range p.Subsets {
		if s.Cost < 0 {
			return fmt.Errorf("budget: subset %d has negative cost %g", i, s.Cost)
		}
		if p.Groups == nil {
			if err := inUniverse(s.Elems, i, n); err != nil {
				return err
			}
		}
	}
	return validateGroups(p, n)
}

// inUniverse checks that subset i's elems all lie in [0, n).
func inUniverse(elems []int, i, n int) error {
	for _, e := range elems {
		if e < 0 || e >= n {
			return fmt.Errorf("budget: subset %d element %d outside universe %d", i, e, n)
		}
	}
	return nil
}

// validateGroups checks Problem.Groups: starts at 0, increasing, in
// range, and every member's Elems a prefix of its group's longest, whose
// elements lie in the universe of size n — so every member's do too,
// and validate skips the per-subset range check on grouped problems.
func validateGroups(p Problem, n int) error {
	if p.Groups == nil {
		return nil
	}
	if len(p.Subsets) > 0 && (len(p.Groups) == 0 || p.Groups[0] != 0) {
		return fmt.Errorf("budget: groups must start at subset 0")
	}
	for g, lo := range p.Groups {
		hi := len(p.Subsets)
		if g+1 < len(p.Groups) {
			hi = p.Groups[g+1]
		}
		if lo >= hi || hi > len(p.Subsets) {
			return fmt.Errorf("budget: group %d is empty, out of order or out of range (subsets %d..%d)", g, lo, hi)
		}
		longest := lo
		for i := lo; i < hi; i++ {
			if len(p.Subsets[i].Elems) == 0 {
				return fmt.Errorf("budget: grouped subset %d has no Elems", i)
			}
			if len(p.Subsets[i].Elems) > len(p.Subsets[longest].Elems) {
				longest = i
			}
		}
		run := p.Subsets[longest].Elems
		if err := inUniverse(run, longest, n); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			if !isPrefix(p.Subsets[i].Elems, run) {
				return fmt.Errorf("budget: subset %d is not a prefix of its group's longest member", i)
			}
		}
	}
	return nil
}

// isPrefix reports whether a is a prefix of b. Views of one backing
// array that start at the same element (sched's candidates are runs of
// one slot index) are answered without comparing elements.
func isPrefix(a, b []int) bool {
	if len(a) > len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	return slices.Equal(a, b[:len(a)])
}

// lazyEntry is a group's heap entry: its best live member idx and that
// member's last-known ratio, an upper bound on every member's true one.
type lazyEntry struct {
	idx   int
	ratio float64
	grp   int
	round int // greedy round when the group was last priced
}

// lazyHeap is a manual 4-ary max-heap of lazyEntry ordered by (ratio
// desc, idx asc) — a total order, since a subset heads at most one
// entry, so
// the pop sequence is implementation-independent and the arity only sets
// the cost: a 4-ary heap is half as deep as a binary one, so a pop moves
// half as many entries.
// container/heap was dropped: its interface{}-boxed Push allocated on
// every reinsertion, one alloc per stale re-pricing (see
// TestLazyHeapPushDoesNotAllocate).
type lazyHeap []lazyEntry

// heapArity is the lazy heap's fan-out; siftDown's tournament is
// written for exactly four children.
const heapArity = 4

// before reports whether a pops before b.
func before(a, b *lazyEntry) bool {
	if a.ratio != b.ratio {
		return a.ratio > b.ratio
	}
	return a.idx < b.idx
}

// init establishes the heap invariant over arbitrary contents.
func (h lazyHeap) init() {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / heapArity; i >= 0; i-- {
		h.siftDown(i)
	}
}

// push and siftDown move a hole instead of swapping: the moving entry is
// written once, where it comes to rest.
func (h *lazyHeap) push(e lazyEntry) {
	*h = append(*h, e)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !before(&e, &hh[p]) {
			break
		}
		hh[i] = hh[p]
		i = p
	}
	hh[i] = e
}

func (h *lazyHeap) pop() lazyEntry {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	*h = hh[:n]
	if n > 0 {
		hh[:n].siftDown(0)
	}
	return top
}

// siftDown moves h[i] down to its place. A node with all four children
// picks the first among them by a two-round tournament — three
// comparisons, two of them independent — rather than a scan.
func (h lazyHeap) siftDown(i int) {
	n := len(h)
	e := h[i]
	for {
		c := heapArity*i + 1
		var m int
		if c+heapArity <= n {
			kids := h[c : c+heapArity : c+heapArity]
			a, b := 0, 2
			if before(&kids[1], &kids[0]) {
				a = 1
			}
			if before(&kids[3], &kids[2]) {
				b = 3
			}
			if before(&kids[b], &kids[a]) {
				a = b
			}
			m = c + a
		} else {
			if c >= n {
				break
			}
			m = c
			for k := c + 1; k < n; k++ {
				if before(&h[k], &h[m]) {
					m = k
				}
			}
		}
		if !before(&h[m], &e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// LazyGreedy computes the same solution as Greedy with (typically far)
// fewer oracle calls, using stale-ratio lazy evaluation — the same picks
// for integral utilities; float-valued ones may break exact ties
// differently (see the package doc). Like Greedy it
// takes the incremental fast path when F provides one, compounding the
// two savings: fewer probes, and each probe cheaper. A re-probe above its
// stale bound stops the run with ErrBrokenBound.
func LazyGreedy(p Problem, opts Options) (*Result, error) {
	s, err := newStepwise(p, opts)
	if err != nil {
		return nil, err
	}
	return s.solve()
}
