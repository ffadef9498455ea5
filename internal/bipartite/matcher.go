package bipartite

import "repro/internal/bitset"

// Matcher maintains a maximum matching over a growing enabled subset of X.
//
// Enabling one X vertex changes the maximum matching size by 0 or 1
// (Lemma 2.2.2 gives marginals in {0,1}), so a single augmenting-path
// search per enabled vertex keeps the matching maximum. The budgeted greedy
// issues many "what would F(S ∪ Sᵢ) be?" probes; GainOfSet answers them by
// augmenting with an undo journal and rolling back.
type Matcher struct {
	g       *Graph
	enabled *bitset.Set
	matchX  []int32
	matchY  []int32
	size    int

	// visited stamps the Y vertices augmenting searches reach, avoiding
	// O(ny) clears between searches. A search starts a new stamp only
	// when the matching changed since the last one (changed): a failed
	// search leaves the Y vertices it reached dead (see augment), and
	// the searches that follow it skip them.
	visited []int32
	stamp   int32
	changed bool

	// scans counts adjacency entries the searches examined — a
	// host-independent work figure for tests and benchmarks.
	scans int64

	// undo journals the (x, y) rematches performed while a GainOfSet
	// probe is live, so the probe rolls back exactly what its augmenting
	// paths touched instead of snapshotting whole match arrays.
	logging bool
	undo    []rematch
	added   []int // probe scratch: temporarily enabled vertices, cap nx
}

// rematch records one matchX/matchY write pair for rollback.
type rematch struct {
	x, y  int32
	prevX int32 // former matchX[x]
	prevY int32 // former matchY[y]
}

// NewMatcher returns a Matcher over g with no X vertices enabled.
func NewMatcher(g *Graph) *Matcher {
	m := &Matcher{
		g:       g,
		enabled: bitset.New(g.nx),
		matchX:  make([]int32, g.nx),
		matchY:  make([]int32, g.ny),
		visited: make([]int32, g.ny),
		changed: true, // stamp 0 marks every Y vertex
	}
	for i := range m.matchX {
		m.matchX[i] = -1
	}
	for i := range m.matchY {
		m.matchY[i] = -1
	}
	return m
}

// Size returns the current maximum matching size over the enabled set.
func (m *Matcher) Size() int { return m.size }

// Enabled returns the enabled X set. The caller must not modify it.
func (m *Matcher) Enabled() *bitset.Set { return m.enabled }

// MatchOfX returns the Y partner of x, or -1.
func (m *Matcher) MatchOfX(x int) int { return int(m.matchX[x]) }

// MatchOfY returns the X partner of y, or -1.
func (m *Matcher) MatchOfY(y int) int { return int(m.matchY[y]) }

// Enable adds x to the enabled set and returns the matching-size gain
// (0 or 1). Enabling an already-enabled vertex returns 0.
func (m *Matcher) Enable(x int) int {
	if m.enabled.Contains(x) {
		return 0
	}
	m.enabled.Add(x)
	if m.augment(int32(x)) {
		m.size++
		return 1
	}
	return 0
}

// EnableSet enables every vertex in xs and returns the total gain.
func (m *Matcher) EnableSet(xs []int) int {
	gain := 0
	for _, x := range xs {
		gain += m.Enable(x)
	}
	return gain
}

// GainOfSet returns the matching-size gain that enabling xs would produce,
// without committing the change. The cost is one augmenting search per
// genuinely new vertex plus an undo of the paths those searches flipped —
// no match-array snapshots.
func (m *Matcher) GainOfSet(xs []int) int {
	gain := 0
	m.beginProbe()
	for _, x := range xs {
		gain += m.probeEnable(x)
	}
	m.endProbe()
	return gain
}

// PrefixGains writes to gains[i] the matching-size gain that enabling
// xs[0..i] would produce, for every i < len(xs), without committing
// anything: gains[i] equals GainOfSet(xs[:i+1]). It enables the prefix
// one vertex at a time and rolls back once at the end, so pricing all
// len(xs) prefixes costs one augmenting search per vertex — the same as
// a single GainOfSet(xs) — instead of one probe per prefix. gains must
// have room for len(xs) entries.
func (m *Matcher) PrefixGains(xs []int, gains []int) {
	gain := 0
	m.beginProbe()
	for i, x := range xs {
		gain += m.probeEnable(x)
		gains[i] = gain
	}
	m.endProbe()
}

// beginProbe starts an uncommitted probe: augmentations are journaled in
// undo until endProbe rolls them back.
func (m *Matcher) beginProbe() {
	m.logging = true
	m.undo = m.undo[:0]
	if m.added == nil {
		// A probe enables each X vertex at most once, so added is
		// sized once, on the first probe, and never regrows.
		m.added = make([]int, 0, m.g.nx)
	}
	m.added = m.added[:0]
}

// probeEnable temporarily enables x inside a probe and returns its gain
// (0 for an already-enabled vertex).
func (m *Matcher) probeEnable(x int) int {
	if m.enabled.Contains(x) {
		return 0
	}
	m.enabled.Add(x)
	m.added = append(m.added, x)
	if m.augment(int32(x)) {
		return 1
	}
	return 0
}

// endProbe disables the probe's vertices and rolls back every rematch it
// journaled, restoring the committed matching exactly. A rollback that
// undid rematches changes the matching the probe's searches saw, so the
// next search starts a new stamp.
func (m *Matcher) endProbe() {
	for _, x := range m.added {
		m.enabled.Remove(x)
	}
	for i := len(m.undo) - 1; i >= 0; i-- {
		e := m.undo[i]
		m.matchX[e.x] = e.prevX
		m.matchY[e.y] = e.prevY
	}
	if len(m.undo) > 0 {
		m.changed = true
	}
	m.logging = false
}

// augment searches for an augmenting path starting at enabled X vertex x
// (Kuhn's algorithm). Recursion only passes through already-matched X
// vertices, which are enabled by construction.
//
// A failed search leaves every Y vertex it stamped matched, with every
// neighbour of its partner stamped too: it scanned each partner's whole
// adjacency list. Enabling or disabling unmatched X vertices keeps that
// set closed, so until the matching changes an alternating path that
// enters it can never reach a free Y vertex. The next search may
// therefore keep the stamp and skip those vertices: it would have
// explored them and failed without writing anything, so it finds the
// same augmenting path, or none, as a search on a fresh stamp.
func (m *Matcher) augment(x int32) bool {
	if m.changed {
		m.stamp++
		m.changed = false
	}
	if m.try(x) {
		m.changed = true
		return true
	}
	return false
}

func (m *Matcher) try(x int32) bool {
	for _, y := range m.g.adjX[x] {
		m.scans++
		if m.visited[y] == m.stamp {
			continue
		}
		m.visited[y] = m.stamp
		if m.matchY[y] == -1 || m.try(m.matchY[y]) {
			if m.logging {
				m.undo = append(m.undo, rematch{x: x, y: y, prevX: m.matchX[x], prevY: m.matchY[y]})
			}
			m.matchY[y] = x
			m.matchX[x] = y
			return true
		}
	}
	return false
}
