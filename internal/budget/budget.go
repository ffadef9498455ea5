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
// Both greedies scale across CPUs without giving up the incremental-oracle
// fast path: Options.Workers shards the candidate scan over goroutines
// that each own an oracle replica. Replicas stay bit-identical to the
// primary after every pick, so a probe answers the same on any of them —
// pick sequences are therefore invariant in the worker count, which the
// differential tests in parallel_test.go assert oracle by oracle. How a
// replica keeps up depends on the oracle: when it implements
// submodular.DeltaOracle the primary commits each pick once (CommitDelta)
// and ships the resulting per-round delta to every replica (ApplyDelta) —
// for copy-on-write replicas (submodular.ReplicaProvider) even that
// degenerates to an epoch check on shared state — otherwise each replica
// is a deep Clone replaying the pick's Commit itself (the PR 3 scheme,
// still available via Options.NoDeltaReplay as the ablation baseline).
package budget

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/bitset"
	"repro/internal/submodular"
)

// Subset is one allowable subset with its cost (Definition 1). The subset
// itself may be given as a bitset (Items), as an element list (Elems), or
// both; at least one must be set. Elems is the representation the
// incremental probe loop consumes directly — callers that already hold
// element lists (sched's candidate items) pass them as Elems and skip the
// bitset round-trip entirely. When both are set they must denote the same
// subset; Elems must not contain out-of-universe elements and its order
// must be deterministic for the run to be reproducible.
type Subset struct {
	Items *bitset.Set
	Elems []int
	Cost  float64
	Label string // optional, for diagnostics
}

// unionInto adds the subset's items to dst.
func (s *Subset) unionInto(dst *bitset.Set) {
	if s.Items != nil {
		dst.UnionWith(s.Items)
		return
	}
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
}

// Options tune the greedy.
type Options struct {
	// Eps is the bicriteria slack ε: stop at utility (1−ε)·Threshold.
	// Must be in (0, 1].
	Eps float64
	// Workers is the number of concurrent probe goroutines: Greedy shards
	// each round's candidate scan across them, LazyGreedy additionally
	// revalidates stale heap entries in concurrent batches. Each worker
	// owns a cloned incremental-oracle replica, so the fast path and
	// multicore compose. 0 and 1 both mean serial. Picked subsets are
	// identical for every worker count.
	Workers int
	// Parallel is deprecated: when set and Workers is 0 it acts as
	// Workers = runtime.GOMAXPROCS(0). Unlike its historical behavior it
	// no longer forces from-scratch Eval oracles — use PlainEval for that.
	Parallel bool
	// PlainEval disables the incremental-oracle fast path even when F
	// provides one (submodular.AsIncremental), recomputing every probe
	// from scratch — the ablation A1/A3 baseline.
	PlainEval bool
	// NoDeltaReplay disables per-round delta replay and copy-on-write
	// probe replicas even when the oracle provides them
	// (submodular.DeltaOracle / ReplicaProvider), falling back to deep
	// clones that replay every pick's Commit — the PR 3 replication
	// scheme, kept as the conformance/ablation baseline. Pick sequences
	// are identical either way.
	NoDeltaReplay bool
}

// workerCount resolves the effective worker count.
func (o Options) workerCount() int {
	w := o.Workers
	if w <= 0 {
		if o.Parallel {
			w = runtime.GOMAXPROCS(0)
		} else {
			w = 1
		}
	}
	return w
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
// On a run seeded by its own probes a violation means F is not
// submodular; on one seeded with NewStepwiseExact it can also mean an
// exact gain under-stated the truth.
var ErrBrokenBound = errors.New("budget: lazy gain bound violated")

const tol = 1e-12

// boundSlack is how far a fresh gain may exceed its stale bound before
// ErrBrokenBound: a relative 1e-9 of the larger of the bound and the
// current utility (the float-valued oracles sum the same terms in a
// different order on every probe), never below an absolute 1e-9.
func boundSlack(bound, curU float64) float64 {
	return 1e-9 * math.Max(1, math.Max(math.Abs(bound), math.Abs(curU)))
}

// scanCand is one worker's reduction slot: its shard's best candidate.
type scanCand struct {
	idx   int
	gain  float64
	ratio float64
}

// workspace is the per-run state shared by Greedy and LazyGreedy (the
// secretary package's OfflineGreedyCardinalityWorkers mirrors the same
// replica/replay/reduction scheme for singleton probes — keep them in
// sync): the
// resolved worker count, the per-worker oracle replicas (or plain-Eval
// probe buffers), the candidates' materialized item lists, and the
// reduction slots. Everything is allocated once per run — the probe loops
// and parallel phases allocate nothing per round.
type workspace struct {
	f       submodular.Function
	workers int
	x       float64 // utility cap (Problem.Threshold)

	// Incremental fast path: replicas[0] is the primary oracle; the rest
	// keep up either by applying the primary's per-round deltas (delta
	// mode: copy-on-write views or deep clones, see newWorkspace) or by
	// replaying every commit themselves. nil on the plain-Eval path.
	replicas []submodular.Incremental
	subsets  []Subset
	itemsOf  [][]int // materialized Items, only when some subset lacks Elems

	// Delta mode (workers > 1, oracle implements DeltaOracle, and
	// NoDeltaReplay unset): the per-worker delta surfaces, and the pick's
	// delta awaiting application on workers 1..W-1. wdelta[0] belongs to
	// the primary, which commits in markPicked on the coordinating
	// goroutine — before the worker goroutines launch, so the commit
	// happens-before every ApplyDelta.
	wdelta       []submodular.DeltaOracle
	pendingDelta submodular.Delta

	// inline pins the workspace to sequential shard execution. It is set
	// when the worker slots alias the primary oracle (single-CPU delta
	// mode, see newWorkspace): aliased slots must never probe
	// concurrently — matcher probes mutate and roll back shared state —
	// and GOMAXPROCS can change mid-run, so the aliasing decision is
	// remembered here rather than re-derived per phase.
	inline bool

	// Plain-Eval path: the current union plus one probe buffer per
	// worker. cur is maintained on both paths (it is Result.Union).
	cur     *bitset.Set
	scratch []*bitset.Set

	// pending holds the last pick's items until every replica has
	// replayed the commit: parallel phases replay it per worker, serial
	// paths and exits flush it explicitly.
	pending []int

	best []scanCand // per-worker reduction slots (Greedy's scans only)

	// Lazy revalidation result buffers, one slot per batch entry.
	batchGain  []float64
	batchRatio []float64
	batchOK    []bool
}

// newWorkspace resolves options against the problem and allocates all
// per-run scratch. f must be the counting wrapper the run bills probes to.
func newWorkspace(f submodular.Function, p Problem, opts Options) *workspace {
	workers := opts.workerCount()
	if workers > len(p.Subsets) {
		workers = len(p.Subsets)
	}
	if workers < 1 {
		workers = 1
	}
	ws := &workspace{
		f:       f,
		workers: workers,
		x:       p.Threshold,
		cur:     bitset.New(p.F.Universe()),
	}
	if !opts.PlainEval {
		if inc, ok := submodular.AsIncremental(f); ok {
			ws.replicas = make([]submodular.Incremental, workers)
			ws.replicas[0] = inc
			primaryDelta, hasDelta := submodular.AsDeltaOracle(inc)
			useDelta := hasDelta && workers > 1 && !opts.NoDeltaReplay
			if useDelta {
				ws.wdelta = make([]submodular.DeltaOracle, workers)
				ws.wdelta[0] = primaryDelta
				// On a single schedulable CPU the shards run inline
				// (runWorkers), so the worker slots alias the primary
				// oracle outright instead of cloning it: probes are pure,
				// and syncReplica's ApplyDelta of the just-committed delta
				// is a current-epoch no-op under the epoch contract. This
				// is what keeps Workers > 1 allocation-flat on single-core
				// hosts. Clone-and-replay mode (NoDeltaReplay) cannot
				// alias — its sync re-Commits the pick per replica, which
				// would double-apply on a shared oracle.
				ws.inline = runtime.GOMAXPROCS(0) == 1
			}
			for w := 1; w < workers; w++ {
				switch {
				case useDelta && ws.inline:
					ws.replicas[w] = inc
					ws.wdelta[w] = primaryDelta
				case useDelta:
					ws.replicas[w] = submodular.NewProbeReplica(inc)
					d, ok := submodular.AsDeltaOracle(ws.replicas[w])
					if !ok {
						panic("budget: probe replica lost the delta surface")
					}
					ws.wdelta[w] = d
				default:
					ws.replicas[w] = inc.Clone()
				}
			}
			ws.subsets = p.Subsets
			for i := range p.Subsets {
				if p.Subsets[i].Elems == nil {
					ws.itemsOf = make([][]int, len(p.Subsets))
					for j := range p.Subsets {
						if p.Subsets[j].Elems != nil {
							ws.itemsOf[j] = p.Subsets[j].Elems
						} else {
							ws.itemsOf[j] = p.Subsets[j].Items.Elements()
						}
					}
					break
				}
			}
		}
	}
	if ws.replicas == nil {
		ws.scratch = make([]*bitset.Set, workers)
		for w := range ws.scratch {
			ws.scratch[w] = bitset.New(p.F.Universe())
		}
	}
	return ws
}

// items returns subset i's element list for the incremental oracles.
func (ws *workspace) items(i int) []int {
	if ws.itemsOf != nil {
		return ws.itemsOf[i]
	}
	return ws.subsets[i].Elems
}

// markPicked commits the chosen subset. The caller updates cur itself
// (both paths need the union).
//
// In delta mode the primary commits here, on the coordinating goroutine
// between probe phases, and the resulting delta is parked for workers
// 1..W-1 to apply at the start of the next parallel phase. Otherwise the
// pick's items are parked for deferred Commit replay: the parallel phases
// replay them per worker, serial paths flush them explicitly.
func (ws *workspace) markPicked(i int) {
	if ws.replicas == nil {
		return
	}
	if ws.wdelta != nil {
		ws.pendingDelta, _ = ws.wdelta[0].CommitDelta(ws.items(i))
		return
	}
	ws.pending = ws.items(i)
}

// syncReplica brings worker w's replica up to date with the primary
// inside a parallel phase: apply the parked delta (an epoch-check no-op
// for copy-on-write replicas) or replay the parked commit. The
// coordinating goroutine clears the parked state after the phase.
func (ws *workspace) syncReplica(w int, pending []int, pendingDelta submodular.Delta) {
	if ws.replicas == nil {
		return
	}
	if pendingDelta != nil {
		if w == 0 {
			return // the primary committed in markPicked
		}
		if err := ws.wdelta[w].ApplyDelta(pendingDelta); err != nil {
			panic("budget: replica rejected same-lineage delta: " + err.Error())
		}
		return
	}
	if len(pending) > 0 {
		ws.replicas[w].Commit(pending)
	}
}

// flushPending applies the deferred commit to the primary replica on the
// calling goroutine — the serial paths' commit (replicas[0] is the only
// replica then), and the final commit before reading Value at exit. The
// parallel phases replay pending on every replica themselves; after the
// last pick only the primary's Value is ever read, so the clones are
// left one commit behind on purpose.
func (ws *workspace) flushPending() {
	if len(ws.pending) == 0 {
		return
	}
	if ws.replicas != nil {
		ws.replicas[0].Commit(ws.pending)
	}
	ws.pending = nil
}

// utility returns the uncapped F of the current union: the committed value
// when running incrementally (cur mirrors the oracle's base set by
// construction), a fresh Eval otherwise.
func (ws *workspace) utility() float64 {
	ws.flushPending()
	if ws.replicas != nil {
		return ws.replicas[0].Value()
	}
	return ws.f.Eval(ws.cur)
}

// probe evaluates candidate i on worker w's replica (or probe buffer) and
// returns its capped gain and ratio against curU. base must be worker w's
// committed Value() on the incremental path. Probes are pure with respect
// to worker identity: replicas hold bit-identical state, so any worker
// computes the same answer for the same candidate.
func (ws *workspace) probe(w, i int, base, curU float64, subsets []Subset) (gain, ratio float64, ok bool) {
	var v float64
	if ws.replicas != nil {
		v = math.Min(ws.x, base+ws.replicas[w].Gain(ws.items(i)))
	} else {
		v = math.Min(ws.x, evalUnion(ws.f, ws.scratch[w], ws.cur, &subsets[i]))
	}
	gain = v - curU
	if gain <= tol {
		return 0, 0, false
	}
	ratio = math.Inf(1)
	if subsets[i].Cost > tol {
		ratio = gain / subsets[i].Cost
	}
	return gain, ratio, true
}

// base returns worker w's committed oracle value (0 on the plain path,
// where probes evaluate the union directly).
func (ws *workspace) base(w int) float64 {
	if ws.replicas != nil {
		return ws.replicas[w].Value()
	}
	return 0
}

// runWorkers invokes fn(w) for w = 0..ws.workers-1 concurrently, running
// shard 0 on the calling goroutine, and waits for all of them. Inline
// workspaces (aliased worker slots — their probes MUST NOT overlap) and
// runs that find only one schedulable CPU (goroutines could never
// overlap anyway) run the shards sequentially in worker order instead —
// the partitioning, replica assignment, and results are identical either
// way (that is the worker-count determinism contract), and skipping the
// per-round spawns is what keeps Workers > 1 near-free on single-core
// hosts.
func (ws *workspace) runWorkers(fn func(w int)) {
	if ws.inline || runtime.GOMAXPROCS(0) == 1 {
		for w := 0; w < ws.workers; w++ {
			fn(w)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(ws.workers - 1)
	for w := 1; w < ws.workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	fn(0)
	wg.Wait()
}

// scanBest finds the best unpicked candidate: max ratio, ties to the
// lowest index. With multiple workers the candidate range is sharded into
// contiguous chunks; each worker first replays the pending commit on its
// replica, then scans its chunk. The in-order reduction with a strict >
// keeps the lowest-index tie-break identical to the serial scan.
func (ws *workspace) scanBest(subsets []Subset, picked []bool, curU float64) (int, float64, float64) {
	n := len(subsets)
	if ws.workers == 1 {
		ws.flushPending()
		local := scanCand{idx: -1, ratio: math.Inf(-1)}
		base := ws.base(0)
		for i := 0; i < n; i++ {
			if picked[i] {
				continue
			}
			if gain, ratio, ok := ws.probe(0, i, base, curU, subsets); ok && ratio > local.ratio {
				local = scanCand{idx: i, gain: gain, ratio: ratio}
			}
		}
		return local.idx, local.gain, local.ratio
	}
	pending, pendingDelta := ws.pending, ws.pendingDelta
	chunk := (n + ws.workers - 1) / ws.workers
	ws.runWorkers(func(w int) {
		ws.syncReplica(w, pending, pendingDelta)
		local := scanCand{idx: -1, ratio: math.Inf(-1)}
		base := ws.base(w)
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			if picked[i] {
				continue
			}
			if gain, ratio, ok := ws.probe(w, i, base, curU, subsets); ok && ratio > local.ratio {
				local = scanCand{idx: i, gain: gain, ratio: ratio}
			}
		}
		ws.best[w] = local
	})
	ws.pending, ws.pendingDelta = nil, nil
	best := scanCand{idx: -1, ratio: math.Inf(-1)}
	for _, c := range ws.best {
		if c.idx != -1 && c.ratio > best.ratio {
			best = c
		}
	}
	return best.idx, best.gain, best.ratio
}

// Greedy runs the algorithm of Lemma 2.1.2. On success the result has
// capped utility at least (1−ε)·Threshold.
//
// When F provides an incremental oracle (submodular.AsIncremental) and
// PlainEval is not set, every probe F(S ∪ Sᵢ) is answered by a stateful
// oracle's Gain instead of a from-scratch Eval — with Workers > 1, by one
// of the per-worker replicas, all holding identical committed state, so
// pick sequences do not depend on the worker count. For integer-valued
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
	ws.best = make([]scanCand, ws.workers)
	cur := ws.cur
	curU := math.Min(x, ws.utility())
	res := &Result{Union: cur}
	picked := make([]bool, len(p.Subsets))

	for curU < target-tol {
		best, bestGain, bestRatio := ws.scanBest(p.Subsets, picked, curU)
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
		if s.Items == nil && s.Elems == nil {
			return fmt.Errorf("budget: subset %d has neither Items nor Elems", i)
		}
		if s.Items != nil && s.Items.Universe() != n {
			return fmt.Errorf("budget: subset %d universe %d, want %d", i, s.Items.Universe(), n)
		}
		if s.Items == nil {
			for _, e := range s.Elems {
				if e < 0 || e >= n {
					return fmt.Errorf("budget: subset %d element %d outside universe %d", i, e, n)
				}
			}
		}
		if s.Cost < 0 {
			return fmt.Errorf("budget: subset %d has negative cost %g", i, s.Cost)
		}
	}
	return nil
}

// lazyEntry is a heap entry holding a stale ratio upper bound.
type lazyEntry struct {
	idx   int
	ratio float64
	gain  float64
	round int // greedy round when the ratio was computed
}

// lazyHeap is a manual max-heap of lazyEntry ordered by (ratio desc, idx
// asc) — a total order, since an index appears at most once, so the pop
// sequence is implementation-independent. container/heap was dropped: its
// interface{}-boxed Push allocated on every reinsertion, one alloc per
// stale revalidation (see TestLazyHeapPushDoesNotAllocate).
type lazyHeap []lazyEntry

func (h lazyHeap) less(i, j int) bool {
	if h[i].ratio != h[j].ratio {
		return h[i].ratio > h[j].ratio
	}
	return h[i].idx < h[j].idx
}

// init establishes the heap invariant over arbitrary contents.
func (h lazyHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *lazyHeap) push(e lazyEntry) {
	*h = append(*h, e)
	hh := *h
	for i := len(hh) - 1; i > 0; {
		p := (i - 1) / 2
		if !hh.less(i, p) {
			break
		}
		hh[i], hh[p] = hh[p], hh[i]
		i = p
	}
}

func (h *lazyHeap) pop() lazyEntry {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	*h = hh[:n]
	hh[:n].siftDown(0)
	return top
}

func (h lazyHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// initHeap probes every candidate and returns the initialized lazy heap.
// With multiple workers the probes are sharded across the replicas; the
// heap is then built from the index-ordered results, so its contents are
// identical to a serial build (and so is the probe count: both paths probe
// every candidate exactly once).
func (ws *workspace) initHeap(subsets []Subset, curU float64) lazyHeap {
	n := len(subsets)
	h := make(lazyHeap, 0, n)
	if ws.workers == 1 {
		base := ws.base(0)
		for i := 0; i < n; i++ {
			if gain, ratio, ok := ws.probe(0, i, base, curU, subsets); ok {
				h = append(h, lazyEntry{idx: i, ratio: ratio, gain: gain})
			}
		}
		h.init()
		return h
	}
	gains := make([]float64, n)
	ratios := make([]float64, n)
	oks := make([]bool, n)
	chunk := (n + ws.workers - 1) / ws.workers
	ws.runWorkers(func(w int) {
		base := ws.base(w)
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			gains[i], ratios[i], oks[i] = ws.probe(w, i, base, curU, subsets)
		}
	})
	for i := 0; i < n; i++ {
		if oks[i] {
			h = append(h, lazyEntry{idx: i, ratio: ratios[i], gain: gains[i]})
		}
	}
	h.init()
	return h
}

// revalidate re-probes a batch of stale heap entries against the current
// solution and reinserts the still-useful ones stamped with the current
// round. Workers first replay the pending commit on their replica, then
// split the batch; pushes happen on the calling goroutine in batch order.
// Which worker probes which entry cannot matter: replicas are identical.
// A fresh gain above its entry's stale bound returns ErrBrokenBound.
func (ws *workspace) revalidate(h *lazyHeap, batch []lazyEntry, subsets []Subset, curU float64, round int) error {
	if ws.workers == 1 {
		ws.flushPending()
		base := ws.base(0)
		for _, e := range batch {
			gain, ratio, ok := ws.probe(0, e.idx, base, curU, subsets)
			if err := checkBound(e, gain, curU, round); err != nil {
				return err
			}
			if ok {
				h.push(lazyEntry{idx: e.idx, ratio: ratio, gain: gain, round: round})
			}
		}
		return nil
	}
	if len(ws.batchOK) < len(batch) {
		ws.batchGain = make([]float64, len(batch))
		ws.batchRatio = make([]float64, len(batch))
		ws.batchOK = make([]bool, len(batch))
	}
	pending, pendingDelta := ws.pending, ws.pendingDelta
	ws.runWorkers(func(w int) {
		ws.syncReplica(w, pending, pendingDelta)
		base := ws.base(w)
		for bi := w; bi < len(batch); bi += ws.workers {
			ws.batchGain[bi], ws.batchRatio[bi], ws.batchOK[bi] = ws.probe(w, batch[bi].idx, base, curU, subsets)
		}
	})
	ws.pending, ws.pendingDelta = nil, nil
	for bi, e := range batch {
		if err := checkBound(e, ws.batchGain[bi], curU, round); err != nil {
			return err
		}
		if ws.batchOK[bi] {
			h.push(lazyEntry{idx: e.idx, ratio: ws.batchRatio[bi], gain: ws.batchGain[bi], round: round})
		}
	}
	return nil
}

// checkBound is the lazy loop's free soundness check: the fresh gain the
// re-probe just computed must not exceed the stale bound e held.
func checkBound(e lazyEntry, fresh, curU float64, round int) error {
	if fresh > e.gain+boundSlack(e.gain, curU) {
		return fmt.Errorf("%w: subset %d re-probed at gain %g above its bound %g in round %d",
			ErrBrokenBound, e.idx, fresh, e.gain, round)
	}
	return nil
}

// LazyGreedy computes the same solution as Greedy with (typically far)
// fewer oracle calls, using stale-ratio lazy evaluation — the same picks
// for integral utilities; float-valued ones may break exact ties
// differently (see the package doc). Like Greedy it
// takes the incremental fast path when F provides one, compounding the
// two savings: fewer probes, and each probe cheaper. With Workers > 1 the
// stale entries at the top of the heap are revalidated in concurrent
// batches of up to Workers entries across the oracle replicas — the picks
// are still exactly Greedy's (the heap order is total and probes answer
// identically on every replica); a batch may merely re-probe up to
// Workers−1 entries that serial evaluation would have skipped, so Evals
// can exceed the serial count slightly. A re-probe above its stale bound
// stops the run with ErrBrokenBound.
func LazyGreedy(p Problem, opts Options) (*Result, error) {
	s, err := NewStepwise(p, opts)
	if err != nil {
		return nil, err
	}
	return s.Solve()
}
