package bipartite

import "repro/internal/bitset"

// WeightedMatcher maintains a maximum-value saturating matching (Lemma
// 2.3.2's F) over a growing enabled subset of X, the weighted counterpart
// of Matcher. WeightedValue recomputes the descending-weight greedy from
// scratch — allocating match arrays and re-augmenting every saturated job
// — on every query; WeightedMatcher keeps the matching between queries and
// only searches from currently-unsaturated jobs, with stamp-based visited
// arrays and reusable snapshot buffers so probes allocate nothing.
//
// Correctness: the job sets saturable within an enabled slot set form a
// transversal matroid, and enlarging the slot set only enlarges the
// matroid. The descending-weight greedy's accepted set for the larger slot
// set contains the accepted set for the smaller one, so previously
// saturated jobs stay saturated and it suffices to retry the unsaturated
// jobs in descending weight order after each enablement. The differential
// property tests exercise this against the from-scratch WeightedValue.
type WeightedMatcher struct {
	g       *Graph
	wy      []float64
	order   []int // descending-weight Y permutation (see WeightedOrder)
	enabled *bitset.Set
	matchX  []int32
	matchY  []int32
	value   float64

	// visited stamps X vertices per augmenting search.
	visited []int32
	stamp   int32

	// undo journals rematches while a GainOfSet probe is live (see
	// Matcher: rollback touches only what the augmenting paths flipped).
	logging bool
	undo    []rematch
	added   []int // probe scratch: temporarily enabled vertices
}

// NewWeightedMatcher returns a WeightedMatcher over g with no X vertices
// enabled. wy must be non-negative job values; order must be a
// descending-weight permutation of Y (see WeightedOrder).
func NewWeightedMatcher(g *Graph, wy []float64, order []int) *WeightedMatcher {
	m := &WeightedMatcher{
		g:       g,
		wy:      wy,
		order:   order,
		enabled: bitset.New(g.nx),
		matchX:  make([]int32, g.nx),
		matchY:  make([]int32, g.ny),
		visited: make([]int32, g.nx),
	}
	for i := range m.matchX {
		m.matchX[i] = -1
	}
	for i := range m.matchY {
		m.matchY[i] = -1
	}
	return m
}

// Value returns the current maximum matching value over the enabled set.
func (m *WeightedMatcher) Value() float64 { return m.value }

// Enabled returns the enabled X set. The caller must not modify it.
func (m *WeightedMatcher) Enabled() *bitset.Set { return m.enabled }

// MatchOfY returns the X partner of y, or -1.
func (m *WeightedMatcher) MatchOfY(y int) int { return int(m.matchY[y]) }

// Enable adds x to the enabled set and returns the value gain. Enabling an
// already-enabled vertex returns 0.
func (m *WeightedMatcher) Enable(x int) float64 {
	if m.enabled.Contains(x) {
		return 0
	}
	m.enabled.Add(x)
	gain := m.augmentUnsaturated()
	m.value += gain
	return gain
}

// EnableSet enables every vertex in xs and returns the total value gain.
// One augmentation sweep covers the whole batch.
func (m *WeightedMatcher) EnableSet(xs []int) float64 {
	fresh := false
	for _, x := range xs {
		if !m.enabled.Contains(x) {
			m.enabled.Add(x)
			fresh = true
		}
	}
	if !fresh {
		return 0
	}
	gain := m.augmentUnsaturated()
	m.value += gain
	return gain
}

// GainOfSet returns the value gain that enabling xs would produce, without
// committing the change: augment with an undo journal, then roll back.
func (m *WeightedMatcher) GainOfSet(xs []int) float64 {
	m.added = m.added[:0]
	for _, x := range xs {
		if m.enabled.Contains(x) {
			continue
		}
		m.enabled.Add(x)
		m.added = append(m.added, x)
	}
	if len(m.added) == 0 {
		return 0
	}
	m.logging = true
	m.undo = m.undo[:0]
	gain := m.augmentUnsaturated()
	for _, x := range m.added {
		m.enabled.Remove(x)
	}
	for i := len(m.undo) - 1; i >= 0; i-- {
		e := m.undo[i]
		m.matchX[e.x] = e.prevX
		m.matchY[e.y] = e.prevY
	}
	m.logging = false
	return gain
}

// augmentUnsaturated retries every unsaturated positive-value job in
// descending weight order and returns the total weight newly saturated.
func (m *WeightedMatcher) augmentUnsaturated() float64 {
	gain := 0.0
	for _, y := range m.order {
		if m.wy[y] <= 0 {
			break // order is descending: only zero-value jobs remain
		}
		if m.matchY[y] != -1 {
			continue
		}
		m.stamp++
		if m.try(int32(y)) {
			gain += m.wy[y]
		}
	}
	return gain
}

// try searches for an augmenting path rooted at job y over enabled slots
// (Kuhn's algorithm on the Y side).
func (m *WeightedMatcher) try(y int32) bool {
	for _, x := range m.g.adjY[y] {
		if !m.enabled.Contains(int(x)) || m.visited[x] == m.stamp {
			continue
		}
		m.visited[x] = m.stamp
		if m.matchX[x] == -1 || m.try(m.matchX[x]) {
			if m.logging {
				m.undo = append(m.undo, rematch{x: x, y: y, prevX: m.matchX[x], prevY: m.matchY[y]})
			}
			m.matchX[x] = y
			m.matchY[y] = x
			return true
		}
	}
	return false
}
