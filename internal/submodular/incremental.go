package submodular

import (
	"repro/internal/bitset"
)

// Incremental is a stateful value oracle over a growing committed base set
// S. The greedy algorithms in this repository issue O(rounds × candidates)
// probes of the form F(S ∪ Sᵢ) − F(S); a plain Function answers each by
// recomputing F from scratch, while an Incremental amortizes work across
// probes by maintaining whatever summary of S makes marginals cheap
// (coverage counts, per-client bests, matchings). Gain is a snapshot probe
// in the style of bipartite.Matcher.GainOfSet: it must leave the oracle
// exactly as it found it; only Commit moves the base set.
//
// Implementations are not safe for concurrent use: probes share scratch
// state.
type Incremental interface {
	Function

	// Base returns the committed base set S. Callers must not modify it.
	Base() *bitset.Set
	// Value returns F(S) for the committed base set.
	Value() float64
	// Gain returns F(S ∪ items) − F(S) without committing anything.
	// Elements already in S and duplicates within items contribute once.
	Gain(items []int) float64
	// Commit adds items to S and returns the realized gain.
	Commit(items []int) float64
	// Reset empties the base set.
	Reset()
}

// PrefixPricer is implemented by incremental oracles that can price every
// prefix of an item list in one pass — a matching augments one vertex at
// a time, so the gains of all prefixes cost what one Gain of the whole
// list does. The lazy budgeted greedy uses it to re-price a group of
// candidates that are prefixes of one another (budget.Problem.Groups).
type PrefixPricer interface {
	// PrefixGains writes to gains[i] what Gain(items[:i+1]) would
	// return, for every i < len(items), without committing anything.
	// gains must have room for len(items) entries.
	PrefixGains(items []int, gains []float64)
}

// AsPrefixPricer returns inc's prefix pricing, or (nil, false) when inc
// cannot price prefixes. For an oracle from AsIncremental that wraps a
// Counting, the pricer keeps counting: one pass costs one call, like one
// Gain. Callers must ask through AsPrefixPricer rather than type-assert:
// the counting wrapper has the method whether or not its oracle can
// honor it.
func AsPrefixPricer(inc Incremental) (PrefixPricer, bool) {
	if w, ok := inc.(*countingIncremental); ok {
		if w.pre == nil {
			return nil, false
		}
		return w, true
	}
	pp, ok := inc.(PrefixPricer)
	return pp, ok
}

// IncrementalProvider is implemented by stateless Functions that can
// manufacture a fresh incremental oracle for themselves. Algorithms
// type-assert for it (via AsIncremental) to take the fast path and fall
// back to plain Eval otherwise.
type IncrementalProvider interface {
	NewIncremental() Incremental
}

// AsIncremental returns a fresh incremental oracle (empty base) for f, or
// (nil, false) if f offers none. Counting wrappers are unwrapped and the
// returned oracle keeps counting: each Gain or Eval costs one call, Commit
// costs none (mirroring the plain greedy, which re-uses the winning
// probe's value instead of re-evaluating on commit). Only
// IncrementalProvider is honored — a Function that happens to be a live
// Incremental is not hijacked, so algorithms never mutate caller-owned
// oracle state.
func AsIncremental(f Function) (Incremental, bool) {
	switch v := f.(type) {
	case *Counting:
		inner, ok := AsIncremental(v.F)
		if !ok {
			return nil, false
		}
		pre, _ := inner.(PrefixPricer)
		return &countingIncremental{inc: inner, pre: pre, c: v}, true
	case IncrementalProvider:
		return v.NewIncremental(), true
	}
	return nil, false
}

// countingIncremental charges Gain and Eval probes, and PrefixGains
// passes, to the wrapped Counting's call counter.
type countingIncremental struct {
	inc Incremental
	pre PrefixPricer // inc's prefix pricing, nil when it has none
	c   *Counting
}

func (w *countingIncremental) Universe() int     { return w.inc.Universe() }
func (w *countingIncremental) Base() *bitset.Set { return w.inc.Base() }
func (w *countingIncremental) Value() float64    { return w.inc.Value() }
func (w *countingIncremental) Reset()            { w.inc.Reset() }

func (w *countingIncremental) Eval(s *bitset.Set) float64 { return w.c.Eval(s) }

func (w *countingIncremental) Gain(items []int) float64 {
	w.c.count()
	return w.inc.Gain(items)
}

func (w *countingIncremental) Commit(items []int) float64 { return w.inc.Commit(items) }

// PrefixGains implements PrefixPricer when the wrapped oracle does (see
// AsPrefixPricer), billing the whole pass as one call.
func (w *countingIncremental) PrefixGains(items []int, gains []float64) {
	w.c.count()
	w.pre.PrefixGains(items, gains)
}

// ---- Coverage ----

// IncCoverage maintains the union of the base set's coverage as a bitset,
// so a probe costs O(|items| + ground words) instead of O(|S| × ground
// words) per Eval.
type IncCoverage struct {
	c       *Coverage
	base    *bitset.Set // over the item universe
	covered *bitset.Set // over the ground universe
	value   float64
	scratch *bitset.Set // ground-universe probe scratch
}

// NewIncremental implements IncrementalProvider.
func (c *Coverage) NewIncremental() Incremental {
	return &IncCoverage{
		c:       c,
		base:    bitset.New(len(c.Sets)),
		covered: bitset.New(c.m),
		scratch: bitset.New(c.m),
	}
}

// Universe implements Function.
func (ic *IncCoverage) Universe() int { return ic.c.Universe() }

// Eval implements Function by delegating to the plain oracle.
func (ic *IncCoverage) Eval(s *bitset.Set) float64 { return ic.c.Eval(s) }

// Base implements Incremental.
func (ic *IncCoverage) Base() *bitset.Set { return ic.base }

// Value implements Incremental.
func (ic *IncCoverage) Value() float64 { return ic.value }

// probe fills scratch with the elements newly covered by items and returns
// their total weight.
func (ic *IncCoverage) probe(items []int) float64 {
	ic.scratch.Clear()
	for _, it := range items {
		if ic.base.Contains(it) {
			continue
		}
		ic.scratch.UnionWith(ic.c.Sets[it])
	}
	ic.scratch.SubtractWith(ic.covered)
	if ic.c.Weights == nil {
		return float64(ic.scratch.Count())
	}
	total := 0.0
	ic.scratch.ForEach(func(e int) bool {
		total += ic.c.Weights[e]
		return true
	})
	return total
}

// Gain implements Incremental.
func (ic *IncCoverage) Gain(items []int) float64 { return ic.probe(items) }

// Commit implements Incremental.
func (ic *IncCoverage) Commit(items []int) float64 {
	gain := ic.probe(items)
	ic.covered.UnionWith(ic.scratch)
	for _, it := range items {
		ic.base.Add(it)
	}
	ic.value += gain
	return gain
}

// Reset implements Incremental.
func (ic *IncCoverage) Reset() {
	ic.base.Clear()
	ic.covered.Clear()
	ic.value = 0
}

// ---- FacilityLocation ----

// IncFacilityLocation keeps each client's best committed benefit, so a
// probe costs O(clients × |new items|) instead of O(clients × |S|).
type IncFacilityLocation struct {
	f     *FacilityLocation
	base  *bitset.Set
	best  []float64 // per-client running best over the base set
	value float64
	fresh []int // probe scratch: items not yet in the base
}

// NewIncremental implements IncrementalProvider.
func (f *FacilityLocation) NewIncremental() Incremental {
	return &IncFacilityLocation{
		f:    f,
		base: bitset.New(f.n),
		best: make([]float64, len(f.Benefit)),
	}
}

// Universe implements Function.
func (ifl *IncFacilityLocation) Universe() int { return ifl.f.Universe() }

// Eval implements Function by delegating to the plain oracle.
func (ifl *IncFacilityLocation) Eval(s *bitset.Set) float64 { return ifl.f.Eval(s) }

// Base implements Incremental.
func (ifl *IncFacilityLocation) Base() *bitset.Set { return ifl.base }

// Value implements Incremental.
func (ifl *IncFacilityLocation) Value() float64 { return ifl.value }

// newItems filters items down to those outside the base set.
func (ifl *IncFacilityLocation) newItems(items []int) []int {
	ifl.fresh = ifl.fresh[:0]
	for _, it := range items {
		if !ifl.base.Contains(it) {
			ifl.fresh = append(ifl.fresh, it)
		}
	}
	return ifl.fresh
}

// sweep computes the total per-client best improvement from fresh items,
// writing the new bests back when commit is set.
func (ifl *IncFacilityLocation) sweep(fresh []int, commit bool) float64 {
	gain := 0.0
	for ci, row := range ifl.f.Benefit {
		m := ifl.best[ci]
		for _, it := range fresh {
			if row[it] > m {
				m = row[it]
			}
		}
		gain += m - ifl.best[ci]
		if commit {
			ifl.best[ci] = m
		}
	}
	return gain
}

// Gain implements Incremental.
func (ifl *IncFacilityLocation) Gain(items []int) float64 {
	fresh := ifl.newItems(items)
	if len(fresh) == 0 {
		return 0
	}
	return ifl.sweep(fresh, false)
}

// Commit implements Incremental.
func (ifl *IncFacilityLocation) Commit(items []int) float64 {
	fresh := ifl.newItems(items)
	gain := ifl.sweep(fresh, true)
	for _, it := range fresh {
		ifl.base.Add(it)
	}
	ifl.value += gain
	return gain
}

// Reset implements Incremental.
func (ifl *IncFacilityLocation) Reset() {
	ifl.base.Clear()
	for i := range ifl.best {
		ifl.best[i] = 0
	}
	ifl.value = 0
}

// ---- Modular ----

// IncModular answers probes in O(|items|): the marginal of an additive
// function is the weight sum of genuinely new items.
type IncModular struct {
	m     *Modular
	base  *bitset.Set
	value float64
	seen  []int32 // probe-local dedup stamps
	stamp int32
}

// NewIncremental implements IncrementalProvider.
func (m *Modular) NewIncremental() Incremental {
	return &IncModular{m: m, base: bitset.New(len(m.Weights)), seen: make([]int32, len(m.Weights))}
}

// Universe implements Function.
func (im *IncModular) Universe() int { return im.m.Universe() }

// Eval implements Function by delegating to the plain oracle.
func (im *IncModular) Eval(s *bitset.Set) float64 { return im.m.Eval(s) }

// Base implements Incremental.
func (im *IncModular) Base() *bitset.Set { return im.base }

// Value implements Incremental.
func (im *IncModular) Value() float64 { return im.value }

// Gain implements Incremental.
func (im *IncModular) Gain(items []int) float64 {
	im.stamp++
	gain := 0.0
	for _, it := range items {
		if im.base.Contains(it) || im.seen[it] == im.stamp {
			continue
		}
		im.seen[it] = im.stamp
		gain += im.m.Weights[it]
	}
	return gain
}

// Commit implements Incremental.
func (im *IncModular) Commit(items []int) float64 {
	gain := im.Gain(items)
	for _, it := range items {
		im.base.Add(it)
	}
	im.value += gain
	return gain
}

// Reset implements Incremental.
func (im *IncModular) Reset() {
	im.base.Clear()
	im.value = 0
}

// ---- ConcaveCardinality ----

// IncConcave tracks |S| so a probe costs O(|items|) plus one φ evaluation.
type IncConcave struct {
	c     *ConcaveCardinality
	base  *bitset.Set
	count int
	seen  []int32
	stamp int32
}

// NewIncremental implements IncrementalProvider.
func (c *ConcaveCardinality) NewIncremental() Incremental {
	return &IncConcave{c: c, base: bitset.New(c.n), seen: make([]int32, c.n)}
}

// Universe implements Function.
func (icc *IncConcave) Universe() int { return icc.c.Universe() }

// Eval implements Function by delegating to the plain oracle.
func (icc *IncConcave) Eval(s *bitset.Set) float64 { return icc.c.Eval(s) }

// Base implements Incremental.
func (icc *IncConcave) Base() *bitset.Set { return icc.base }

// Value implements Incremental.
func (icc *IncConcave) Value() float64 { return icc.c.Phi(icc.count) }

// added counts the genuinely new items in a probe.
func (icc *IncConcave) added(items []int) int {
	icc.stamp++
	added := 0
	for _, it := range items {
		if icc.base.Contains(it) || icc.seen[it] == icc.stamp {
			continue
		}
		icc.seen[it] = icc.stamp
		added++
	}
	return added
}

// Gain implements Incremental.
func (icc *IncConcave) Gain(items []int) float64 {
	added := icc.added(items)
	if added == 0 {
		return 0
	}
	return icc.c.Phi(icc.count+added) - icc.c.Phi(icc.count)
}

// Commit implements Incremental.
func (icc *IncConcave) Commit(items []int) float64 {
	added := icc.added(items)
	gain := 0.0
	if added > 0 {
		gain = icc.c.Phi(icc.count+added) - icc.c.Phi(icc.count)
	}
	for _, it := range items {
		icc.base.Add(it)
	}
	icc.count += added
	return gain
}

// Reset implements Incremental.
func (icc *IncConcave) Reset() {
	icc.base.Clear()
	icc.count = 0
}

// Interface conformance.
var (
	_ IncrementalProvider = (*Coverage)(nil)
	_ IncrementalProvider = (*FacilityLocation)(nil)
	_ IncrementalProvider = (*Modular)(nil)
	_ IncrementalProvider = (*ConcaveCardinality)(nil)
	_ Incremental         = (*IncCoverage)(nil)
	_ Incremental         = (*IncFacilityLocation)(nil)
	_ Incremental         = (*IncModular)(nil)
	_ Incremental         = (*IncConcave)(nil)
)
