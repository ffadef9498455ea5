package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/submodular"
)

// Model is the bipartite-graph formulation of an instance (§2.2): the X
// side holds every time-slot/processor pair usable by at least one job,
// the Y side holds the jobs, and edges encode the jobs' Allowed sets.
type Model struct {
	Ins       *Instance
	Slots     []SlotKey        // X index -> slot
	SlotIndex map[SlotKey]int  // slot -> X index
	G         *bipartite.Graph // X = usable slots, Y = jobs
	Values    []float64        // per-job values (Y weights)
	Order     []int            // jobs by descending value (for weighted F)

	// Per-processor sorted views of Slots, precomputed so that candidate
	// enumeration and IntervalItems run on sorted slices instead of map
	// lookups (they sit inside the greedy's candidate loops).
	timesByProc [][]int // sorted distinct slot times per processor
	slotsByProc [][]int // X indices parallel to timesByProc

	// Prefix-sweep state (sweepGains), reused across solves — one reason
	// a Model must not run concurrent solves, already the documented
	// contract: scratch for runs longer than a stack buffer (prefixBuf,
	// shared by the sweep and the greedy's group re-pricing),
	// and the sweep's matcher, rolled back to empty, until the greedy's
	// primary oracle adopts it (sweptMatchFn).
	sweepBuf []int
	sweepMat *bipartite.Matcher
}

// NewModel builds the bipartite formulation. Only slots usable by some job
// become X vertices; slots no job can use never help any matching.
func NewModel(ins *Instance) (*Model, error) {
	if err := ins.check(); err != nil {
		return nil, err
	}
	m := &Model{Ins: ins, SlotIndex: map[SlotKey]int{}}
	var edges []bipartite.Edge
	seen := map[SlotKey]bool{} // reused across jobs: one map, cleared per job
	for j, job := range ins.Jobs {
		clear(seen)
		for _, s := range job.Allowed {
			if seen[s] {
				continue // duplicate Allowed entries are harmless input noise
			}
			seen[s] = true
			idx, ok := m.SlotIndex[s]
			if !ok {
				idx = len(m.Slots)
				m.SlotIndex[s] = idx
				m.Slots = append(m.Slots, s)
			}
			edges = append(edges, bipartite.Edge{X: idx, Y: j})
		}
	}
	m.G = bipartite.NewGraph(len(m.Slots), len(ins.Jobs))
	m.G.AddEdges(edges)
	m.Values = make([]float64, len(ins.Jobs))
	for j, job := range ins.Jobs {
		m.Values[j] = job.Value
	}
	m.Order = bipartite.WeightedOrder(m.Values)
	m.buildProcIndex()
	return m, nil
}

// buildProcIndex sorts the usable slots per processor by time and records
// the matching X indices, replacing per-lookup map traffic in the hot
// candidate-enumeration paths.
func (m *Model) buildProcIndex() {
	m.timesByProc = make([][]int, m.Ins.Procs)
	m.slotsByProc = make([][]int, m.Ins.Procs)
	perProc := make([][]int, m.Ins.Procs) // X indices grouped by processor
	for x, s := range m.Slots {
		perProc[s.Proc] = append(perProc[s.Proc], x)
	}
	for proc, xs := range perProc {
		sort.Slice(xs, func(a, b int) bool { return m.Slots[xs[a]].Time < m.Slots[xs[b]].Time })
		times := make([]int, len(xs))
		for i, x := range xs {
			times[i] = m.Slots[x].Time
		}
		m.timesByProc[proc] = times
		m.slotsByProc[proc] = xs
	}
}

// addJob extends the model in place for a job just appended to the
// instance's Jobs slice. The extension is equivalent to rebuilding from
// scratch: NewModel assigns X indices in first-appearance order scanning
// jobs in order, and an appended job's novel slots appear last in exactly
// the order addJob appends them; likewise its Y vertex and edges land at
// the positions a full scan would produce. Sessions rely on this for
// byte-identical re-solves after AddJob. Live matcher oracles over
// the old graph must not be reused (they are rebuilt per solve).
func (m *Model) addJob(job Job) {
	j := m.G.AddY()
	seen := map[SlotKey]bool{}
	for _, sk := range job.Allowed {
		if seen[sk] {
			continue
		}
		seen[sk] = true
		idx, ok := m.SlotIndex[sk]
		if !ok {
			idx = m.G.AddX()
			m.SlotIndex[sk] = idx
			m.Slots = append(m.Slots, sk)
			// Keep the per-processor sorted views sorted: (proc, time) is
			// new, so the time is absent from this processor's list.
			times := m.timesByProc[sk.Proc]
			pos := sort.SearchInts(times, sk.Time)
			m.timesByProc[sk.Proc] = append(times[:pos], append([]int{sk.Time}, times[pos:]...)...)
			xs := m.slotsByProc[sk.Proc]
			m.slotsByProc[sk.Proc] = append(xs[:pos], append([]int{idx}, xs[pos:]...)...)
		}
		m.G.AddEdge(idx, j)
	}
	m.Values = append(m.Values, job.Value)
	m.Order = bipartite.WeightedOrder(m.Values)
}

// Candidates enumerates candidate awake intervals under the policy.
func (m *Model) Candidates(policy CandidatePolicy) ([]Interval, error) {
	n, err := m.candidateCount(policy)
	if err != nil {
		return nil, err
	}
	out := make([]Interval, 0, n)
	m.eachCandidate(policy, func(iv Interval, _ []int) { out = append(out, iv) })
	return out, nil
}

// candidateCount returns the exact size of the policy's enumeration, or
// the error that rules the policy out for this model.
func (m *Model) candidateCount(policy CandidatePolicy) (int, error) {
	switch policy {
	case SingleSlots:
		return len(m.Slots), nil
	case EventPoints:
		total := 0
		for _, times := range m.timesByProc {
			total += len(times) * (len(times) + 1) / 2
		}
		return total, nil
	case AllPairs:
		const maxAllPairs = 4_000_000
		h := m.Ins.Horizon
		// Guard p·h² > maxAllPairs by division: the product itself can
		// overflow int on adversarial horizons. h > 2000 alone already
		// exceeds the cap (Procs ≥ 1), and h ≤ 2000 keeps h² safe.
		if p := m.Ins.Procs; h > 2000 || p > maxAllPairs/(h*h) {
			return 0, fmt.Errorf("sched: AllPairs would enumerate ~%.3g intervals; use EventPoints",
				float64(p)*float64(h)*float64(h)/2)
		}
		return m.Ins.Procs * h * (h + 1) / 2, nil
	default:
		return 0, fmt.Errorf("sched: unknown candidate policy %d", int(policy))
	}
}

// eachCandidate calls fn on every interval of the policy's enumeration,
// in order, with the interval's slot items — IntervalItems(iv), read off
// the per-processor index as the enumeration walks it instead of by a
// binary search per interval — without materializing the list
// (buildCandidates prices each one as it comes). The policy must have
// passed candidateCount.
func (m *Model) eachCandidate(policy CandidatePolicy, fn func(iv Interval, items []int)) {
	switch policy {
	case SingleSlots:
		for _, s := range m.Slots {
			iv := Interval{Proc: s.Proc, Start: s.Time, End: s.Time + 1}
			fn(iv, m.IntervalItems(iv))
		}
	case EventPoints:
		for proc := 0; proc < m.Ins.Procs; proc++ {
			times, xs := m.timesByProc[proc], m.slotsByProc[proc]
			for i := range times {
				for j := i; j < len(times); j++ {
					fn(Interval{Proc: proc, Start: times[i], End: times[j] + 1}, xs[i:j+1:j+1])
				}
			}
		}
	case AllPairs:
		for proc := 0; proc < m.Ins.Procs; proc++ {
			times, xs := m.timesByProc[proc], m.slotsByProc[proc]
			lo := 0 // first slot at or after s
			for s := 0; s < m.Ins.Horizon; s++ {
				for lo < len(times) && times[lo] < s {
					lo++
				}
				hi := lo // first slot at or after e
				for e := s + 1; e <= m.Ins.Horizon; e++ {
					for hi < len(times) && times[hi] < e {
						hi++
					}
					var items []int
					if hi > lo {
						items = xs[lo:hi:hi]
					}
					fn(Interval{Proc: proc, Start: s, End: e}, items)
				}
			}
		}
	}
}

// IntervalItems returns the X indices of usable slots inside iv, in
// increasing time order. A binary search plus a linear walk over the
// processor's sorted slots replaces the per-time map lookups the candidate
// loops used to pay for. The returned slice is a view into the model's
// per-processor index — the caller must not modify it, and it is only
// valid until the model is next mutated (addJob re-splices the index).
// Candidate lists are rebuilt per solve, so solver-internal callers are
// always within that window.
func (m *Model) IntervalItems(iv Interval) []int {
	times := m.timesByProc[iv.Proc]
	lo := sort.SearchInts(times, iv.Start)
	hi := lo
	for hi < len(times) && times[hi] < iv.End {
		hi++
	}
	if lo == hi {
		return nil
	}
	return m.slotsByProc[iv.Proc][lo:hi:hi]
}

// candidate pairs an interval with its precomputed cost and slot items.
// items is always a contiguous run of slotsByProc[iv.Proc] — the fact
// firstSlotGroup, and with it the prefix sweep (sweepGains) and
// coverableSlots, relies on.
type candidate struct {
	iv    Interval
	cost  float64
	items []int
}

// buildCandidates prices and prunes the candidate intervals (the policy's
// enumeration plus any caller-supplied extras): infinite-cost
// (unavailable) and slotless intervals are dropped; negative costs are an
// input error.
func (m *Model) buildCandidates(policy CandidatePolicy, extra []Interval) ([]candidate, error) {
	n, err := m.candidateCount(policy)
	if err != nil {
		return nil, err
	}
	for _, iv := range extra {
		if iv.Proc < 0 || iv.Proc >= m.Ins.Procs || iv.Start < 0 || iv.End > m.Ins.Horizon || iv.Start >= iv.End {
			return nil, fmt.Errorf("sched: extra candidate %v outside instance", iv)
		}
	}
	out := make([]candidate, 0, n+len(extra))
	add := func(iv Interval, items []int) {
		if err != nil {
			return
		}
		c := m.Ins.Cost.Cost(iv.Proc, iv.Start, iv.End)
		if math.IsInf(c, 1) || math.IsNaN(c) {
			return
		}
		if c < 0 {
			err = fmt.Errorf("sched: negative cost %g for interval %v", c, iv)
			return
		}
		if len(items) > 0 {
			out = append(out, candidate{iv: iv, cost: c, items: items})
		}
	}
	m.eachCandidate(policy, add)
	for _, iv := range extra {
		add(iv, m.IntervalItems(iv))
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sweepGains prices every candidate's exact gain against the empty slot
// set, for seeding the lazy greedy's initial heap
// (budget.NewStepwiseExact). A candidate's items are a contiguous run of
// its processor's sorted slots, so the candidates sharing a first slot
// are prefixes of the longest of them, and their gains — maximum
// matchings over those slots — are entries of that run's prefix gains.
// The policies' enumerations emit each start's candidates together, so
// one Matcher.PrefixGains pass per group of consecutive candidates with
// the same first slot prices them all: O(k²) augmenting searches per
// processor of k slots, where probing each candidate costs O(k³). The
// values equal what the initial probes would return, so the heap, the
// picks and the billed evals are unchanged. The sweep's matcher is left
// rolled back to empty in m.sweepMat, for the greedy's primary oracle to
// adopt (sweptMatchFn).
func (m *Model) sweepGains(cands []candidate) []float64 {
	gains := make([]float64, len(cands))
	mat := bipartite.NewMatcher(m.G)
	var small [64]int // prefix-gain scratch for runs up to 64 slots
	for lo := 0; lo < len(cands); {
		hi, run := firstSlotGroup(cands, lo)
		prefix := m.prefixBuf(small[:0], len(run))
		mat.PrefixGains(run, prefix)
		for i := lo; i < hi; i++ {
			gains[i] = float64(prefix[len(cands[i].items)-1])
		}
		lo = hi
	}
	m.sweepMat = mat
	return gains
}

// prefixBuf returns n ints of prefix-gain scratch: small's backing array
// (a caller's stack buffer) when it has room, the model's sweepBuf, grown
// once, for longer runs.
func (m *Model) prefixBuf(small []int, n int) []int {
	if n <= cap(small) {
		return small[:n]
	}
	m.sweepBuf = slices.Grow(m.sweepBuf[:0], n)
	return m.sweepBuf[:n]
}

// candidateGroups returns the index of every first-slot group's first
// candidate (firstSlotGroup): the budget problem's Groups, whose members
// are all prefixes of their group's longest run.
func candidateGroups(cands []candidate) []int {
	count := 0
	for lo := 0; lo < len(cands); count++ {
		lo, _ = firstSlotGroup(cands, lo)
	}
	groups := make([]int, 0, count)
	for lo := 0; lo < len(cands); {
		groups = append(groups, lo)
		lo, _ = firstSlotGroup(cands, lo)
	}
	return groups
}

// firstSlotGroup returns the end hi of the run of consecutive candidates
// cands[lo:hi] that share cands[lo]'s first slot, and the longest of
// their item lists. Every candidate's items are a contiguous run of its
// processor's sorted slots, so the group's lists are all prefixes of
// that longest one.
func firstSlotGroup(cands []candidate, lo int) (hi int, run []int) {
	first, run := cands[lo].items[0], cands[lo].items
	for hi = lo + 1; hi < len(cands) && cands[hi].items[0] == first; hi++ {
		if len(cands[hi].items) > len(run) {
			run = cands[hi].items
		}
	}
	return hi, run
}

// budgetSubsets converts candidates to budget.Subset values over the slot
// universe, passing the candidates' slot lists through as element-list
// subsets (budget.Subset.Elems) — no per-candidate bitset is ever built;
// the old bitset round-trip (FromSlice here, Elements back inside the
// greedy workspace) dominated ScheduleAll's allocation profile. Labels
// are left empty: nothing reads them, and rendering one Sprintf per
// candidate showed up in greedy profiles.
func budgetSubsets(cands []candidate) []budget.Subset {
	subs := make([]budget.Subset, len(cands))
	for i, c := range cands {
		subs[i] = budget.Subset{
			Elems: c.items,
			Cost:  c.cost,
		}
	}
	return subs
}

// matchFn is Lemma 2.2.2's utility: F(S) = size of the maximum matching
// saturating only slot-vertices in S. Monotone submodular.
type matchFn struct{ m *Model }

// Universe implements submodular.Function.
func (f matchFn) Universe() int { return len(f.m.Slots) }

// Eval implements submodular.Function via a fresh Hopcroft–Karp run.
func (f matchFn) Eval(s *bitset.Set) float64 {
	return float64(bipartite.MaxMatchingSize(f.m.G, s))
}

// NewIncremental implements submodular.IncrementalProvider: the budgeted
// greedy probes F(S ∪ Sᵢ) through a persistent bipartite.Matcher
// (snapshot + augment) instead of a fresh Hopcroft–Karp run per call.
func (f matchFn) NewIncremental() submodular.Incremental {
	return &matchOracle{fn: f, mat: bipartite.NewMatcher(f.m.G)}
}

// sweptMatchFn is matchFn for the greedy that follows a prefix sweep:
// its incremental oracle adopts the sweep's matcher (m.sweepMat) instead
// of allocating one — rolled back to empty it is indistinguishable from
// a fresh matcher, and its probe journals are already grown. Once the
// matcher is taken, later calls allocate as matchFn does.
type sweptMatchFn struct{ matchFn }

// NewIncremental implements submodular.IncrementalProvider.
func (f sweptMatchFn) NewIncremental() submodular.Incremental {
	mat := f.m.sweepMat
	if mat == nil {
		mat = bipartite.NewMatcher(f.m.G)
	}
	f.m.sweepMat = nil
	return &matchOracle{fn: f.matchFn, mat: mat}
}

// matchOracle adapts bipartite.Matcher to submodular.Incremental.
type matchOracle struct {
	fn  matchFn
	mat *bipartite.Matcher
}

// Universe implements submodular.Function.
func (o *matchOracle) Universe() int { return o.fn.Universe() }

// Eval implements submodular.Function via the stateless oracle.
func (o *matchOracle) Eval(s *bitset.Set) float64 { return o.fn.Eval(s) }

// Base implements submodular.Incremental.
func (o *matchOracle) Base() *bitset.Set { return o.mat.Enabled() }

// Value implements submodular.Incremental.
func (o *matchOracle) Value() float64 { return float64(o.mat.Size()) }

// Gain implements submodular.Incremental.
func (o *matchOracle) Gain(items []int) float64 { return float64(o.mat.GainOfSet(items)) }

// PrefixGains implements submodular.PrefixPricer with one
// Matcher.PrefixGains pass, so the lazy greedy re-prices a first-slot
// group of candidates for the cost of one probe of its longest run.
func (o *matchOracle) PrefixGains(items []int, gains []float64) {
	var small [64]int // as in sweepGains
	prefix := o.fn.m.prefixBuf(small[:0], len(items))
	o.mat.PrefixGains(items, prefix)
	for i, g := range prefix {
		gains[i] = float64(g)
	}
}

// Commit implements submodular.Incremental.
func (o *matchOracle) Commit(items []int) float64 { return float64(o.mat.EnableSet(items)) }

// Reset implements submodular.Incremental.
func (o *matchOracle) Reset() {
	o.mat = bipartite.NewMatcher(o.fn.m.G)
}

// weightedMatchFn is Lemma 2.3.2's utility: F(S) = maximum total job value
// of a matching saturating only slot-vertices in S. Monotone submodular.
type weightedMatchFn struct{ m *Model }

// Universe implements submodular.Function.
func (f weightedMatchFn) Universe() int { return len(f.m.Slots) }

// Eval implements submodular.Function.
func (f weightedMatchFn) Eval(s *bitset.Set) float64 {
	v, _, _ := bipartite.WeightedValue(f.m.G, f.m.Values, f.m.Order, s)
	return v
}

// NewIncremental implements submodular.IncrementalProvider via the
// incremental weighted matcher, replacing WeightedValue's per-call match
// array allocations and full re-augmentation.
func (f weightedMatchFn) NewIncremental() submodular.Incremental {
	return &weightedOracle{fn: f, mat: bipartite.NewWeightedMatcher(f.m.G, f.m.Values, f.m.Order)}
}

// weightedOracle adapts bipartite.WeightedMatcher to
// submodular.Incremental.
type weightedOracle struct {
	fn  weightedMatchFn
	mat *bipartite.WeightedMatcher
}

// Universe implements submodular.Function.
func (o *weightedOracle) Universe() int { return o.fn.Universe() }

// Eval implements submodular.Function via the stateless oracle.
func (o *weightedOracle) Eval(s *bitset.Set) float64 { return o.fn.Eval(s) }

// Base implements submodular.Incremental.
func (o *weightedOracle) Base() *bitset.Set { return o.mat.Enabled() }

// Value implements submodular.Incremental.
func (o *weightedOracle) Value() float64 { return o.mat.Value() }

// Gain implements submodular.Incremental.
func (o *weightedOracle) Gain(items []int) float64 { return o.mat.GainOfSet(items) }

// Commit implements submodular.Incremental.
func (o *weightedOracle) Commit(items []int) float64 { return o.mat.EnableSet(items) }

// Reset implements submodular.Incremental.
func (o *weightedOracle) Reset() {
	o.mat = bipartite.NewWeightedMatcher(o.fn.m.G, o.fn.m.Values, o.fn.m.Order)
}

// Functions exposed for property tests.
var (
	_ submodular.Function            = matchFn{}
	_ submodular.Function            = weightedMatchFn{}
	_ submodular.IncrementalProvider = matchFn{}
	_ submodular.IncrementalProvider = weightedMatchFn{}
	_ submodular.Incremental         = (*matchOracle)(nil)
	_ submodular.PrefixPricer        = (*matchOracle)(nil)
	_ submodular.Incremental         = (*weightedOracle)(nil)
)

// MatchingUtility returns Lemma 2.2.2's F for external property tests.
func (m *Model) MatchingUtility() submodular.Function { return matchFn{m} }

// WeightedUtility returns Lemma 2.3.2's F for external property tests.
func (m *Model) WeightedUtility() submodular.Function { return weightedMatchFn{m} }
