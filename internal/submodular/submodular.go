// Package submodular defines the set-function oracle interface used across
// the repository and a library of standard submodular functions.
//
// The thesis treats utilities as value oracles: algorithms only ever ask
// for F(S) on sets they can currently see (Definition 1; §3.1). Function is
// that oracle. Counting wraps any Function to record oracle-call counts,
// which the ablation experiments report.
package submodular

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
)

// Function is a set function F : 2^U -> R over the universe {0,...,n-1}.
// Implementations in this package are submodular; monotonicity is
// documented per type.
type Function interface {
	// Universe returns the ground-set size n.
	Universe() int
	// Eval returns F(s). Implementations must not retain or modify s.
	Eval(s *bitset.Set) float64
}

// Marginal returns F(S ∪ {e}) − F(S) without modifying s.
func Marginal(f Function, s *bitset.Set, e int) float64 {
	if s.Contains(e) {
		return 0
	}
	base := f.Eval(s)
	s.Add(e)
	v := f.Eval(s)
	s.Remove(e)
	return v - base
}

// Counting wraps a Function and counts Eval calls; safe for concurrent use.
type Counting struct {
	F     Function
	calls int64
}

// NewCounting returns a counting wrapper around f.
func NewCounting(f Function) *Counting { return &Counting{F: f} }

// Universe implements Function.
func (c *Counting) Universe() int { return c.F.Universe() }

// Eval implements Function, incrementing the call counter.
func (c *Counting) Eval(s *bitset.Set) float64 {
	c.count()
	return c.F.Eval(s)
}

// count charges one oracle call; incremental Gain probes are billed here
// too (see AsIncremental).
func (c *Counting) count() { atomic.AddInt64(&c.calls, 1) }

// Charge bills n oracle calls answered without the wrapper — values a
// caller computed by a cheaper route than one call each, billed as the
// calls they replace so counts stay comparable across routes.
func (c *Counting) Charge(n int64) { atomic.AddInt64(&c.calls, n) }

// Calls returns the number of Eval calls so far.
func (c *Counting) Calls() int64 { return atomic.LoadInt64(&c.calls) }

// Coverage is the weighted coverage function: items are sets over a ground
// set of m elements, and F(S) is the total weight of the union of the
// chosen sets. Monotone submodular; with unit weights it is Max-Cover's
// objective (§2.1 cites Set Cover / Max Cover as the canonical special
// case).
type Coverage struct {
	Sets    []*bitset.Set // Sets[i] ⊆ {0,...,m-1}
	Weights []float64     // element weights; nil means unit weights
	m       int
	pool    sync.Pool // ground-universe union scratch for Eval
}

// NewCoverage builds a coverage function. All sets must share the ground
// universe m; weights may be nil for unit weights.
func NewCoverage(m int, sets []*bitset.Set, weights []float64) *Coverage {
	for i, s := range sets {
		if s.Universe() != m {
			panic(fmt.Sprintf("submodular: set %d has universe %d, want %d", i, s.Universe(), m))
		}
	}
	if weights != nil && len(weights) != m {
		panic("submodular: weights length mismatch")
	}
	return &Coverage{Sets: sets, Weights: weights, m: m}
}

// Universe implements Function.
func (c *Coverage) Universe() int { return len(c.Sets) }

// Ground returns the ground-set size m.
func (c *Coverage) Ground() int { return c.m }

// Eval implements Function. The union scratch is pooled: greedy probe
// loops call Eval once per candidate, and a fresh ground-set allocation
// per call dominated the plain-oracle ablation profiles.
func (c *Coverage) Eval(s *bitset.Set) float64 {
	union, _ := c.pool.Get().(*bitset.Set)
	if union == nil {
		union = bitset.New(c.m)
	} else {
		union.Clear()
	}
	s.ForEach(func(i int) bool {
		union.UnionWith(c.Sets[i])
		return true
	})
	total := 0.0
	if c.Weights == nil {
		total = float64(union.Count())
	} else {
		union.ForEach(func(e int) bool {
			total += c.Weights[e]
			return true
		})
	}
	c.pool.Put(union)
	return total
}

// Cut is the (undirected, weighted) graph cut function: F(S) is the total
// weight of edges with exactly one endpoint in S. Submodular, symmetric,
// non-monotone — the thesis's canonical non-monotone example (§3.1
// background cites Max Cut).
type Cut struct {
	n     int
	edges []cutEdge
}

type cutEdge struct {
	u, v int
	w    float64
}

// NewCut returns a cut function over n vertices with no edges.
func NewCut(n int) *Cut { return &Cut{n: n} }

// AddEdge adds an undirected edge of weight w.
func (c *Cut) AddEdge(u, v int, w float64) {
	if u < 0 || u >= c.n || v < 0 || v >= c.n {
		panic("submodular: cut edge endpoint outside universe")
	}
	c.edges = append(c.edges, cutEdge{u, v, w})
}

// Universe implements Function.
func (c *Cut) Universe() int { return c.n }

// Eval implements Function.
func (c *Cut) Eval(s *bitset.Set) float64 {
	total := 0.0
	for _, e := range c.edges {
		if s.Contains(e.u) != s.Contains(e.v) {
			total += e.w
		}
	}
	return total
}

// FacilityLocation is F(S) = Σ_clients max_{f∈S} Benefit[client][f]
// (0 for empty S). Monotone submodular; the thesis cites facility location
// as a central application (§3.1).
type FacilityLocation struct {
	Benefit [][]float64 // Benefit[client][facility] >= 0
	n       int
}

// NewFacilityLocation builds the function from a non-negative benefit
// matrix; rows are clients, columns facilities.
func NewFacilityLocation(benefit [][]float64) *FacilityLocation {
	n := 0
	if len(benefit) > 0 {
		n = len(benefit[0])
	}
	for _, row := range benefit {
		if len(row) != n {
			panic("submodular: ragged benefit matrix")
		}
	}
	return &FacilityLocation{Benefit: benefit, n: n}
}

// Universe implements Function.
func (f *FacilityLocation) Universe() int { return f.n }

// Eval implements Function.
func (f *FacilityLocation) Eval(s *bitset.Set) float64 {
	total := 0.0
	for _, row := range f.Benefit {
		best := 0.0
		s.ForEach(func(i int) bool {
			if row[i] > best {
				best = row[i]
			}
			return true
		})
		total += best
	}
	return total
}

// ConcaveCardinality is F(S) = φ(|S|) for a concave non-decreasing φ with
// φ(0)=0; monotone submodular.
type ConcaveCardinality struct {
	n   int
	Phi func(k int) float64
}

// NewSqrtCardinality returns F(S) = √|S|.
func NewSqrtCardinality(n int) *ConcaveCardinality {
	return &ConcaveCardinality{n: n, Phi: func(k int) float64 { return math.Sqrt(float64(k)) }}
}

// Universe implements Function.
func (c *ConcaveCardinality) Universe() int { return c.n }

// Eval implements Function.
func (c *ConcaveCardinality) Eval(s *bitset.Set) float64 { return c.Phi(s.Count()) }

// Modular is the additive function F(S) = Σ_{i∈S} w_i — the degenerate
// submodular case matching the classical multiple-choice secretary
// objective [36].
type Modular struct {
	Weights []float64
}

// Universe implements Function.
func (m *Modular) Universe() int { return len(m.Weights) }

// Eval implements Function.
func (m *Modular) Eval(s *bitset.Set) float64 {
	total := 0.0
	s.ForEach(func(i int) bool {
		total += m.Weights[i]
		return true
	})
	return total
}

// BestSingleton returns the max single-item value and its index (-1 if the
// universe is empty or all marginals are non-positive against the empty
// set).
func BestSingleton(f Function) (int, float64) {
	n := f.Universe()
	s := bitset.New(n)
	best, arg := math.Inf(-1), -1
	for i := 0; i < n; i++ {
		s.Add(i)
		v := f.Eval(s)
		s.Remove(i)
		if v > best {
			best, arg = v, i
		}
	}
	return arg, best
}

// Violation describes a counterexample found by a property checker.
type Violation struct {
	A, B *bitset.Set
	Desc string
}

// Error implements error.
func (v *Violation) Error() string { return v.Desc }

// CheckSubmodular draws random set pairs and verifies
// F(A)+F(B) >= F(A∪B)+F(A∩B) up to eps. It returns nil if no violation is
// found in trials attempts.
func CheckSubmodular(f Function, rng *rand.Rand, trials int, eps float64) error {
	n := f.Universe()
	for t := 0; t < trials; t++ {
		a, b := randomSet(rng, n), randomSet(rng, n)
		lhs := f.Eval(a) + f.Eval(b)
		rhs := f.Eval(bitset.Union(a, b)) + f.Eval(bitset.Intersect(a, b))
		if lhs < rhs-eps {
			return &Violation{A: a, B: b,
				Desc: fmt.Sprintf("submodularity violated: F(A)+F(B)=%g < F(A∪B)+F(A∩B)=%g (A=%v B=%v)", lhs, rhs, a, b)}
		}
	}
	return nil
}

// CheckMonotone draws random nested pairs A ⊆ B and verifies F(A) <= F(B)
// up to eps.
func CheckMonotone(f Function, rng *rand.Rand, trials int, eps float64) error {
	n := f.Universe()
	for t := 0; t < trials; t++ {
		a := randomSet(rng, n)
		b := bitset.Union(a, randomSet(rng, n))
		fa, fb := f.Eval(a), f.Eval(b)
		if fa > fb+eps {
			return &Violation{A: a, B: b,
				Desc: fmt.Sprintf("monotonicity violated: F(A)=%g > F(B)=%g for A⊆B", fa, fb)}
		}
	}
	return nil
}

func randomSet(rng *rand.Rand, n int) *bitset.Set {
	s := bitset.New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Add(i)
		}
	}
	return s
}
