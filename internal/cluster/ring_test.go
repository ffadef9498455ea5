package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("s%06d", i+1)
	}
	return keys
}

func testBackends(n int) []string {
	bs := make([]string, n)
	for i := range bs {
		bs[i] = fmt.Sprintf("http://127.0.0.1:%d", 9001+i)
	}
	return bs
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty backend list must be rejected")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Fatal("empty backend name must be rejected")
	}
	r, err := NewRing([]string{"a", "b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 2 {
		t.Fatalf("duplicates must collapse: N=%d, want 2", r.N())
	}
}

func TestRingPureFunctionOfSet(t *testing.T) {
	bs := testBackends(5)
	r1, err := NewRing(bs)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]string(nil), bs...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	r2, err := NewRing(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(200) {
		if r1.Lookup(k) != r2.Lookup(k) {
			t.Fatalf("lookup of %q differs across insertion orders", k)
		}
	}
}

func TestSequenceCoversAllBackendsOnce(t *testing.T) {
	r, err := NewRing(testBackends(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(50) {
		seq := r.Sequence(k)
		if len(seq) != r.N() {
			t.Fatalf("sequence for %q has %d entries, want %d", k, len(seq), r.N())
		}
		if seq[0] != r.Lookup(k) {
			t.Fatalf("sequence head %q != owner %q", seq[0], r.Lookup(k))
		}
		seen := map[string]bool{}
		for _, b := range seq {
			if seen[b] {
				t.Fatalf("sequence for %q repeats %q", k, b)
			}
			seen[b] = true
			if !r.Contains(b) {
				t.Fatalf("sequence names unknown backend %q", b)
			}
		}
	}
}

// ejectedRouter builds a probe-less router over backends with the dead
// ones ejected the way the request path ejects them: ejectAfter
// straight failed requests each.
func ejectedRouter(t testing.TB, backends []string, dead ...string) *Router {
	t.Helper()
	tune := production
	tune.probeInterval = time.Hour
	r, err := New(Config{Backends: backends, tune: &tune})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	for _, d := range dead {
		for i := 0; i < ejectAfter; i++ {
			r.observe(r.state(d), false, false)
		}
	}
	return r
}

// firstAdmitted is the backend route sends key's first attempt to: the
// first alive entry of the key's ring sequence ("" if none is alive).
func firstAdmitted(r *Router, key string) string {
	if b := r.pickBackend(r.candidates(key, ""), 0); b != nil {
		return b.name
	}
	return ""
}

func TestFailoverMatchesShrunkRing(t *testing.T) {
	// Failover must land exactly where a resize would: routing around an
	// ejected backend is the same function as removing it from the ring.
	bs := testBackends(5)
	for dead := 0; dead < len(bs); dead++ {
		var rest []string
		for i, b := range bs {
			if i != dead {
				rest = append(rest, b)
			}
		}
		small, err := NewRing(rest)
		if err != nil {
			t.Fatal(err)
		}
		r := ejectedRouter(t, bs, bs[dead])
		for _, k := range testKeys(100) {
			got := firstAdmitted(r, k)
			if got == "" {
				t.Fatalf("no alive backend for %q", k)
			}
			if want := small.Lookup(k); got != want {
				t.Fatalf("failover owner %q != shrunk-ring owner %q for %q", got, want, k)
			}
		}
	}
	if got := firstAdmitted(ejectedRouter(t, bs, bs...), "k"); got != "" {
		t.Fatalf("with every backend ejected, route admitted %q", got)
	}
}

func TestAssignBalancedAndDeterministic(t *testing.T) {
	r, err := NewRing(testBackends(4))
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(103)
	a1 := r.Assign(keys)
	shuffled := append([]string(nil), keys...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a2 := r.Assign(shuffled)
	if len(a1) != len(keys) {
		t.Fatalf("assigned %d keys, want %d", len(a1), len(keys))
	}
	loads := map[string]int{}
	for k, b := range a1 {
		if a2[k] != b {
			t.Fatalf("assignment of %q differs across input orders", k)
		}
		if !r.Contains(b) {
			t.Fatalf("key %q assigned to unknown backend %q", k, b)
		}
		loads[b]++
	}
	cap := (len(keys) + r.N() - 1) / r.N()
	for b, l := range loads {
		if l > cap {
			t.Fatalf("backend %q owns %d keys, cap %d", b, l, cap)
		}
	}
}

func moved(prev, next map[string]string) int {
	n := 0
	for k, b := range prev {
		if nb, ok := next[k]; ok && nb != b {
			n++
		}
	}
	return n
}

func TestRebalanceGrowBound(t *testing.T) {
	keys := testKeys(100)
	for n := 1; n <= 6; n++ {
		r1, _ := NewRing(testBackends(n))
		prev := r1.Assign(keys)
		r2, _ := NewRing(testBackends(n + 1))
		next := r2.Rebalance(prev, keys)
		bound := (len(keys) + r2.N() - 1) / r2.N()
		if m := moved(prev, next); m > bound {
			t.Fatalf("grow %d→%d moved %d keys, bound %d", n, n+1, m, bound)
		}
		// The new backend must actually take load: growth that moves
		// nothing would leave the cluster permanently unbalanced.
		newName := testBackends(n + 1)[n]
		got := 0
		for _, b := range next {
			if b == newName {
				got++
			}
		}
		if got == 0 {
			t.Fatalf("grow %d→%d gave the new backend no keys", n, n+1)
		}
	}
}

func TestRebalanceShrinkBound(t *testing.T) {
	keys := testKeys(100)
	for n := 2; n <= 6; n++ {
		bs := testBackends(n)
		r1, _ := NewRing(bs)
		prev := r1.Assign(keys)
		for dead := 0; dead < n; dead++ {
			var rest []string
			for i, b := range bs {
				if i != dead {
					rest = append(rest, b)
				}
			}
			r2, _ := NewRing(rest)
			next := r2.Rebalance(prev, keys)
			bound := (len(keys) + r2.N() - 1) / r2.N()
			if m := moved(prev, next); m > bound {
				t.Fatalf("shrink %d→%d (dead %d) moved %d keys, bound %d", n, n-1, dead, m, bound)
			}
			for k, b := range next {
				if b == bs[dead] {
					t.Fatalf("key %q still assigned to removed backend", k)
				}
			}
		}
	}
}

func TestRebalanceConvergesToBalance(t *testing.T) {
	// From a pathological prev (everything on one backend), repeated
	// Rebalance calls move at most ⌈K/N⌉ keys per round and reach a
	// balanced assignment.
	r, _ := NewRing(testBackends(4))
	keys := testKeys(40)
	prev := map[string]string{}
	for _, k := range keys {
		prev[k] = r.Backends()[0]
	}
	cap := (len(keys) + r.N() - 1) / r.N()
	for round := 0; round < 10; round++ {
		next := r.Rebalance(prev, keys)
		if m := moved(prev, next); m > cap {
			t.Fatalf("round %d moved %d keys, budget %d", round, m, cap)
		}
		prev = next
		loads := map[string]int{}
		for _, b := range prev {
			loads[b]++
		}
		maxLoad := 0
		for _, l := range loads {
			if l > maxLoad {
				maxLoad = l
			}
		}
		if maxLoad <= cap {
			return // balanced
		}
	}
	t.Fatal("rebalance did not converge to balance within 10 rounds")
}

func TestRebalanceDropsUnknownKeys(t *testing.T) {
	r, _ := NewRing(testBackends(2))
	prev := r.Assign(testKeys(10))
	next := r.Rebalance(prev, testKeys(5))
	if len(next) != 5 {
		t.Fatalf("rebalance kept %d keys, want the 5 requested", len(next))
	}
}

func TestAssignEmptyAndSingle(t *testing.T) {
	r, _ := NewRing(testBackends(3))
	if got := r.Assign(nil); len(got) != 0 {
		t.Fatalf("empty key set assigned %d keys", len(got))
	}
	one := r.Assign([]string{"only"})
	if len(one) != 1 || !r.Contains(one["only"]) {
		t.Fatalf("single-key assignment broken: %v", one)
	}
	if one["only"] != r.Lookup("only") {
		t.Fatalf("single key should land on its hash owner")
	}
}

// TestLookupScattersSequentialKeys is the regression test for the
// hash64 finalizer. Router-minted session ids are sequential
// ("c<epoch>-000001", "c<epoch>-000002", ...), and bare FNV-1a maps a
// last-byte delta to a hash delta of ~delta·prime — far below a vnode
// interval — so without the avalanche finalizer every minted id lands
// on the same backend.
func TestLookupScattersSequentialKeys(t *testing.T) {
	r, err := NewRing(testBackends(3))
	if err != nil {
		t.Fatal(err)
	}
	const K = 60
	loads := map[string]int{}
	for i := 1; i <= K; i++ {
		loads[r.Lookup(fmt.Sprintf("c1786090144-%06d", i))]++
	}
	if len(loads) < 2 {
		t.Fatalf("all %d sequential ids landed on one backend: %v", K, loads)
	}
	for b, n := range loads {
		if n > K/2 {
			t.Fatalf("backend %s owns %d of %d sequential ids: %v", b, n, K, loads)
		}
	}
}
