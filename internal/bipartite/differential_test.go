package bipartite

import (
	"math/rand"
	"testing"
)

// refMatcher is the textbook incremental Kuhn matcher the Matcher must
// agree with: every augmenting search starts from a fresh visited stamp,
// and probes roll back by restoring whole match-array snapshots. It scans
// adjacency lists in the same order, so it finds the same augmenting
// paths and ends with the same matching, not merely one of equal size.
type refMatcher struct {
	g       *Graph
	enabled []bool
	matchX  []int32
	matchY  []int32
	visited []int32
	stamp   int32
	size    int
}

func newRefMatcher(g *Graph) *refMatcher {
	r := &refMatcher{
		g:       g,
		enabled: make([]bool, g.nx),
		matchX:  make([]int32, g.nx),
		matchY:  make([]int32, g.ny),
		visited: make([]int32, g.ny),
	}
	for i := range r.matchX {
		r.matchX[i] = -1
	}
	for i := range r.matchY {
		r.matchY[i] = -1
	}
	return r
}

func (r *refMatcher) try(x int32) bool {
	for _, y := range r.g.adjX[x] {
		if r.visited[y] == r.stamp {
			continue
		}
		r.visited[y] = r.stamp
		if r.matchY[y] == -1 || r.try(r.matchY[y]) {
			r.matchY[y] = x
			r.matchX[x] = y
			return true
		}
	}
	return false
}

// enable enables x and returns its gain, 0 for an enabled vertex.
func (r *refMatcher) enable(x int) int {
	if r.enabled[x] {
		return 0
	}
	r.enabled[x] = true
	r.stamp++
	if r.try(int32(x)) {
		r.size++
		return 1
	}
	return 0
}

// prefixGains returns the gain of enabling each prefix of xs, then
// restores the matching and enabled set it started from.
func (r *refMatcher) prefixGains(xs []int) []int {
	matchX := append([]int32(nil), r.matchX...)
	matchY := append([]int32(nil), r.matchY...)
	enabled := append([]bool(nil), r.enabled...)
	size := r.size
	gains := make([]int, len(xs))
	gain := 0
	for i, x := range xs {
		gain += r.enable(x)
		gains[i] = gain
	}
	copy(r.matchX, matchX)
	copy(r.matchY, matchY)
	copy(r.enabled, enabled)
	r.size = size
	return gains
}

// byteSource turns fuzz input into small integers; an exhausted source
// reads as zeros.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) intn(n int) int {
	if s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i])
	s.i++
	return v % n
}

func (s *byteSource) more() bool { return s.i < len(s.b) }

// checkMatcherDifferential decodes a graph and a script of Enable,
// EnableSet, GainOfSet and PrefixGains calls from data, runs the script
// on a Matcher and on refMatcher side by side, and fails t at the first
// gain, size or match that differs.
func checkMatcherDifferential(t *testing.T, data []byte) {
	t.Helper()
	src := &byteSource{b: data}
	nx, ny := 1+src.intn(24), 1+src.intn(24)
	g := NewGraph(nx, ny)
	for x := 0; x < nx; x++ {
		for d := src.intn(5); d > 0; d-- {
			g.AddEdge(x, src.intn(ny))
		}
	}
	m, ref := NewMatcher(g), newRefMatcher(g)
	gains := make([]int, 8)
	for op := 0; op < 256 && src.more(); op++ {
		kind := src.intn(4)
		xs := make([]int, src.intn(8))
		for i := range xs {
			xs[i] = src.intn(nx)
		}
		switch kind {
		case 0:
			x := src.intn(nx)
			if got, want := m.Enable(x), ref.enable(x); got != want {
				t.Fatalf("op %d Enable(%d) = %d, reference %d", op, x, got, want)
			}
		case 1:
			want := 0
			for _, x := range xs {
				want += ref.enable(x)
			}
			if got := m.EnableSet(xs); got != want {
				t.Fatalf("op %d EnableSet(%v) = %d, reference %d", op, xs, got, want)
			}
		case 2:
			want := 0
			if len(xs) > 0 {
				want = ref.prefixGains(xs)[len(xs)-1]
			}
			if got := m.GainOfSet(xs); got != want {
				t.Fatalf("op %d GainOfSet(%v) = %d, reference %d", op, xs, got, want)
			}
		case 3:
			want := ref.prefixGains(xs)
			m.PrefixGains(xs, gains)
			for i := range xs {
				if gains[i] != want[i] {
					t.Fatalf("op %d PrefixGains(%v) = %v, reference %v", op, xs, gains[:len(xs)], want)
				}
			}
		}
		if m.Size() != ref.size {
			t.Fatalf("op %d: size %d, reference %d", op, m.Size(), ref.size)
		}
		for x := 0; x < nx; x++ {
			if m.MatchOfX(x) != int(ref.matchX[x]) || m.Enabled().Contains(x) != ref.enabled[x] {
				t.Fatalf("op %d: x=%d matched to %d (enabled %t), reference %d (enabled %t)",
					op, x, m.MatchOfX(x), m.Enabled().Contains(x), ref.matchX[x], ref.enabled[x])
			}
		}
		for y := 0; y < ny; y++ {
			if m.MatchOfY(y) != int(ref.matchY[y]) {
				t.Fatalf("op %d: y=%d matched to %d, reference %d", op, y, m.MatchOfY(y), ref.matchY[y])
			}
		}
	}
}

// TestMatcherDifferential runs the differential on random graphs and
// random scripts. Reusing a failed search's stamp must not change a
// single augmenting path, so the matchings agree vertex for vertex.
func TestMatcherDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := make([]byte, 600)
	for trial := 0; trial < 400; trial++ {
		rng.Read(data)
		checkMatcherDifferential(t, data)
	}
}

// TestMatcherReusesFailedSearches pins the work the dead-set rule saves:
// enabling a long run of vertices that all compete for one job costs one
// scan per new vertex's edge, not a re-walk of every earlier failure.
func TestMatcherReusesFailedSearches(t *testing.T) {
	const n = 50
	g := NewGraph(n, 1)
	for x := 0; x < n; x++ {
		g.AddEdge(x, 0)
	}
	m := NewMatcher(g)
	for x := 0; x < n; x++ {
		m.Enable(x)
	}
	// x=0 matches the job; x=1 re-walks it through x=0 (2 scans) and
	// fails, leaving the job dead for every later search (1 scan each).
	if got, want := m.EdgeScans(), int64(1+2+(n-2)); got != want {
		t.Fatalf("edge scans %d, want %d", got, want)
	}
}

// FuzzMatcherDifferential is TestMatcherDifferential over fuzzer-chosen
// graphs and scripts.
func FuzzMatcherDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 4, 2, 0, 1, 3, 1, 2, 0, 2, 3, 1, 2, 0, 3, 4, 0, 1, 2, 3, 4, 2, 3, 0, 1, 2, 3, 4})
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 200)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(checkMatcherDifferential)
}
