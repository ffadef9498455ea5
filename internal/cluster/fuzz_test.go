package cluster

import (
	"fmt"
	"testing"
)

// FuzzHashRing asserts the ring's structural theorems on fuzzer-chosen
// backend sets, key sets, and resize operations:
//
//  1. The ring is a pure function of the backend set: rebuilding from a
//     rotated input order changes no lookup.
//  2. Lookup is monotone under resize: growing moves keys only to the
//     new backend; shrinking moves only the removed backend's keys.
//  3. Failover equals resize: the backend route tries first for a key,
//     with a dead backend ejected, is the key's owner on the ring
//     without it.
//  4. Assign is balanced: no backend owns more than ⌈K/N⌉ keys.
//  5. Rebalance after a one-backend resize moves at most ⌈K/N⌉
//     previously-owned keys, N the ring being rebalanced onto.
//
// These are theorems of the construction, not statistical properties,
// so any counterexample the fuzzer finds is a real bug.
func FuzzHashRing(f *testing.F) {
	f.Add([]byte("seed"), uint8(3), uint16(10), uint8(0))
	f.Add([]byte(""), uint8(1), uint16(0), uint8(7))
	f.Add([]byte("\x00\xff"), uint8(8), uint16(257), uint8(3))
	f.Add([]byte("powersched"), uint8(5), uint16(100), uint8(2))
	f.Fuzz(func(t *testing.T, seed []byte, nb uint8, kc uint16, pick uint8) {
		N := int(nb%8) + 1
		K := int(kc % 300)
		backends := make([]string, N)
		for i := range backends {
			backends[i] = fmt.Sprintf("b%d-%x", i, seed)
		}
		keys := make([]string, K)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d-%x", i, seed)
		}

		ring, err := NewRing(backends)
		if err != nil {
			t.Fatal(err)
		}

		// 1. Pure function of the set.
		rot := int(pick) % N
		rotated := append(append([]string(nil), backends[rot:]...), backends[:rot]...)
		ring2, err := NewRing(rotated)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if ring.Lookup(k) != ring2.Lookup(k) {
				t.Fatalf("lookup of %q differs across insertion orders", k)
			}
		}

		// 4. Assign balance + determinism under key rotation.
		prev := ring.Assign(keys)
		if K > 0 {
			krot := int(pick) % K
			rotKeys := append(append([]string(nil), keys[krot:]...), keys[:krot]...)
			again := ring.Assign(rotKeys)
			loads := map[string]int{}
			for k, b := range prev {
				if again[k] != b {
					t.Fatalf("assignment of %q differs across input orders", k)
				}
				loads[b]++
			}
			cap := (K + N - 1) / N
			for b, l := range loads {
				if l > cap {
					t.Fatalf("backend %q owns %d keys, cap %d", b, l, cap)
				}
			}
		}

		// Grow by one backend.
		grown := append(append([]string(nil), backends...), fmt.Sprintf("bnew-%x", seed))
		bigRing, err := NewRing(grown)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			was, now := ring.Lookup(k), bigRing.Lookup(k)
			if now != was && now != grown[N] {
				t.Fatalf("grow moved %q from %q to %q, not the new backend", k, was, now)
			}
		}
		next := bigRing.Rebalance(prev, keys)
		bound := (K + N) / (N + 1) // ⌈K/(N+1)⌉
		if m := movedCount(prev, next); m > bound {
			t.Fatalf("grow rebalance moved %d keys, bound %d (K=%d N=%d)", m, bound, K, N+1)
		}

		// Shrink by one backend (needs N >= 2).
		if N >= 2 {
			dead := int(pick) % N
			var rest []string
			for i, b := range backends {
				if i != dead {
					rest = append(rest, b)
				}
			}
			smallRing, err := NewRing(rest)
			if err != nil {
				t.Fatal(err)
			}
			router := ejectedRouter(t, backends, backends[dead])
			for _, k := range keys {
				// 2. Shrink moves only the removed backend's keys.
				was := ring.Lookup(k)
				now := smallRing.Lookup(k)
				if was != backends[dead] && now != was {
					t.Fatalf("shrink moved %q from surviving %q to %q", k, was, now)
				}
				// 3. Failover = resize.
				if fo := firstAdmitted(router, k); fo != now {
					t.Fatalf("failover owner %q != shrunk-ring owner %q for %q", fo, now, k)
				}
			}
			next := smallRing.Rebalance(prev, keys)
			bound := (K + N - 2) / (N - 1) // ⌈K/(N-1)⌉
			if m := movedCount(prev, next); m > bound {
				t.Fatalf("shrink rebalance moved %d keys, bound %d (K=%d N=%d)", m, bound, K, N-1)
			}
			for k, b := range next {
				if b == backends[dead] {
					t.Fatalf("key %q still assigned to removed backend", k)
				}
			}
		}
	})
}

func movedCount(prev, next map[string]string) int {
	n := 0
	for k, b := range prev {
		if nb, ok := next[k]; ok && nb != b {
			n++
		}
	}
	return n
}
