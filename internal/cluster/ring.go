package cluster

// This file is the shard ring: consistent hashing of session ids and
// instance digests across the configured backends, plus the balanced
// migration planner the resize path uses.
//
// The ring has two faces with deliberately different guarantees:
//
//   - Lookup/Sequence: classic consistent hashing over virtual points.
//     Pure function of the backend set — deterministic across rebuilds
//     and insertion orders — and monotone: adding a backend moves keys
//     only to it, removing one moves only its keys. Used for stateless
//     request routing (affinity only buys cache hits; any backend can
//     solve any instance) and as the per-key failover preference order.
//
//   - Assign/Rebalance: placement of a *known* key set (the sessions on
//     disk) with a hard movement budget. A pure per-key hash cannot
//     bound worst-case movement — ownership counts are binomial, so for
//     some key set the new backend wins more than its share — which is
//     why the planner takes the key set and the previous assignment
//     explicitly. Rebalance moves at most ⌈K/N⌉ keys per call, by
//     construction: forced moves (keys whose owner left the ring) are
//     charged against the budget first, and voluntary rebalancing moves
//     spend only what remains. Repeated calls with an unchanged ring
//     converge to a balanced assignment, at most one budget per round.

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodesPerBackend is the number of virtual ring points per backend.
// More points smooth the arc distribution; 64 keeps rebuilds cheap at
// the fleet sizes a router fronts (the planner, not the arc layout, is
// what bounds migration).
const vnodesPerBackend = 64

// Ring is an immutable consistent-hash ring over a set of backends.
// Build with NewRing; all methods are safe for concurrent use.
type Ring struct {
	backends []string // canonical order: sorted by (hash, name)
	points   []ringPoint
}

type ringPoint struct {
	hash    uint64
	backend int // index into backends
}

// hash64 is FNV-1a with a 64-bit avalanche finalizer. The finalizer is
// load-bearing: bare FNV-1a moves the hash by only ~delta·prime when two
// keys differ in their last byte, which is far smaller than a vnode
// interval (~2^64/vnodes), so sequential keys — exactly what the
// router's minted session ids look like — would all land in the same
// interval and shard to one backend.
func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s)) //nolint:errcheck // fnv.Write cannot fail
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// NewRing builds a ring over the given backends. Order and duplicates
// in the input do not matter: the ring is a pure function of the set,
// so two routers configured with the same backends agree on every
// lookup.
func NewRing(backends []string) (*Ring, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one backend")
	}
	seen := make(map[string]bool, len(backends))
	uniq := make([]string, 0, len(backends))
	for _, b := range backends {
		if b == "" {
			return nil, fmt.Errorf("cluster: empty backend name")
		}
		if !seen[b] {
			seen[b] = true
			uniq = append(uniq, b)
		}
	}
	sort.Slice(uniq, func(i, j int) bool {
		hi, hj := hash64(uniq[i]), hash64(uniq[j])
		if hi != hj {
			return hi < hj
		}
		return uniq[i] < uniq[j]
	})
	r := &Ring{backends: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodesPerBackend)
	for bi, b := range uniq {
		for v := 0; v < vnodesPerBackend; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("%s#%d", b, v)),
				backend: bi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Colliding virtual points order by backend canonical index so
		// the ring stays a pure function of the set.
		return r.points[i].backend < r.points[j].backend
	})
	return r, nil
}

// Backends returns the backends in canonical ring order. The slice is
// shared; callers must not mutate it.
func (r *Ring) Backends() []string { return r.backends }

// N is the number of backends on the ring.
func (r *Ring) N() int { return len(r.backends) }

// Contains reports whether name is on the ring.
func (r *Ring) Contains(name string) bool {
	for _, b := range r.backends {
		if b == name {
			return true
		}
	}
	return false
}

// start returns the index of the first ring point at or after the
// key's hash, wrapping at the top of the circle.
func (r *Ring) start(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Lookup returns the key's owner: the first backend clockwise from the
// key's hash point.
func (r *Ring) Lookup(key string) string {
	return r.backends[r.points[r.start(key)].backend]
}

// Sequence returns every backend in the key's clockwise preference
// order, starting with the owner. The router walks this order when
// failing over: the first alive entry is the key's effective owner,
// which is the owner on the ring without the ejected backends.
func (r *Ring) Sequence(key string) []string {
	out := make([]string, 0, len(r.backends))
	seen := make([]bool, len(r.backends))
	for i, n := r.start(key), 0; n < len(r.points); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, r.backends[p.backend])
			if len(out) == len(r.backends) {
				break
			}
		}
	}
	return out
}

// capFor is the per-backend placement cap for K keys: ⌈K/N⌉.
func (r *Ring) capFor(K int) int {
	return (K + len(r.backends) - 1) / len(r.backends)
}

// canonicalKeys dedupes and sorts keys by (hash, key) — the processing
// order every planner pass uses, so the result is independent of input
// order.
func canonicalKeys(keys []string) []string {
	seen := make(map[string]bool, len(keys))
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		hi, hj := hash64(out[i]), hash64(out[j])
		if hi != hj {
			return hi < hj
		}
		return out[i] < out[j]
	})
	return out
}

// Assign places a key set from scratch: every key walks clockwise from
// its hash point to the first backend with fewer than ⌈K/N⌉ keys, in
// canonical key order. The result is a pure function of (key set,
// backend set): balanced — no backend owns more than ⌈K/N⌉ keys — and
// deterministic across rebuilds and input orders.
func (r *Ring) Assign(keys []string) map[string]string {
	return r.Rebalance(nil, keys)
}

// Rebalance plans the next assignment of keys given the previous one.
// Keys keep their owner when it is still on the ring; keys whose owner
// left (and keys new to the set) are placed like Assign; then, with
// whatever movement budget remains, excess keys migrate from backends
// above their balanced target to backends below it.
//
// The movement bound is structural: at most ⌈K/N⌉ previously-owned
// keys change owner per call, counting both forced moves (owner left
// the ring) and voluntary rebalancing — the voluntary pass spends only
// the budget the forced moves left. Growing or shrinking the ring by
// one backend from a balanced assignment therefore moves at most
// ⌈K/N⌉ keys (N the larger ring), and repeated calls with an unchanged
// ring converge to balance. Keys absent from prev are placements, not
// moves, and are not budgeted.
func (r *Ring) Rebalance(prev map[string]string, keys []string) map[string]string {
	canon := canonicalKeys(keys)
	K := len(canon)
	out := make(map[string]string, K)
	if K == 0 {
		return out
	}
	cap := r.capFor(K)
	idx := make(map[string]int, len(r.backends))
	for i, b := range r.backends {
		idx[b] = i
	}
	loads := make([]int, len(r.backends))
	owned := make([][]string, len(r.backends)) // canonical order per backend

	// Retention pass: keep keys whose previous owner is still here.
	var homeless []string // canonical order preserved
	moved := 0
	for _, k := range canon {
		if b, ok := prev[k]; ok {
			if bi, on := idx[b]; on {
				out[k] = b
				loads[bi]++
				owned[bi] = append(owned[bi], k)
				continue
			}
			moved++ // forced move: owner left the ring
		}
		homeless = append(homeless, k)
	}

	// Placement pass: homeless keys walk clockwise to the first
	// backend under the cap. Capacity N·⌈K/N⌉ ≥ K guarantees a seat.
	place := func(k string) int {
		for i, n := r.start(k), 0; ; n++ {
			p := r.points[(i+n)%len(r.points)]
			if loads[p.backend] < cap {
				return p.backend
			}
		}
	}
	for _, k := range homeless {
		bi := place(k)
		out[k] = r.backends[bi]
		loads[bi]++
		owned[bi] = append(owned[bi], k)
	}

	// Voluntary pass: spend the remaining budget moving keys off
	// backends above the cap toward the backends furthest below their
	// balanced targets. Targets give the first K mod N backends in
	// canonical ring order the extra key. Donors must be strictly over
	// the cap — a placement that already respects the cap is balanced
	// enough, and moving keys within it would churn sessions off their
	// hash owners for nothing.
	budget := cap - moved
	if budget <= 0 {
		return out
	}
	targets := make([]int, len(r.backends))
	base, extra := K/len(r.backends), K%len(r.backends)
	for i := range targets {
		targets[i] = base
		if i < extra {
			targets[i]++
		}
	}
	for budget > 0 {
		// Largest-excess donor and largest-deficit receiver, ties to
		// the earlier canonical index: deterministic and convergent.
		donor, receiver := -1, -1
		for i := range loads {
			if loads[i] > cap && (donor < 0 || loads[i]-targets[i] > loads[donor]-targets[donor]) {
				donor = i
			}
			if loads[i] < targets[i] && (receiver < 0 || targets[i]-loads[i] > targets[receiver]-loads[receiver]) {
				receiver = i
			}
		}
		if donor < 0 || receiver < 0 {
			break
		}
		// The donor sheds its canonically-last key.
		k := owned[donor][len(owned[donor])-1]
		owned[donor] = owned[donor][:len(owned[donor])-1]
		loads[donor]--
		out[k] = r.backends[receiver]
		owned[receiver] = append(owned[receiver], k)
		loads[receiver]++
		budget--
	}
	return out
}
