package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/sched"
)

// Mode selects the algorithm a request runs.
type Mode int

const (
	// ModeAll runs ScheduleAll (Theorem 2.2.1): every job, O(log n)-approx cost.
	ModeAll Mode = iota
	// ModePrize runs PrizeCollecting (Theorem 2.3.1): value ≥ (1−ε)Z.
	ModePrize
	// ModePrizeExact runs PrizeCollectingExact (Theorem 2.3.3): value ≥ Z.
	ModePrizeExact
)

func (m Mode) String() string {
	switch m {
	case ModeAll:
		return "all"
	case ModePrize:
		return "prize"
	case ModePrizeExact:
		return "prize-exact"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Request is one unit of work: an instance plus algorithm selection.
//
// Instance and its cost model must not be mutated after submission — they
// may be read concurrently by several requests sharing them (the
// power.CostModel contract requires concurrent-safe models; freeze
// Unavailable masks first). InstanceKey optionally names the instance for
// caching and per-worker model reuse: requests with equal keys MUST carry
// identical instances (codec-built requests get a content digest
// automatically). An empty key disables caching for the request.
type Request struct {
	Instance    *sched.Instance
	Mode        Mode
	Z           float64 // value threshold for the prize modes
	Opts        sched.Options
	Improve     bool // run the Improve post-pass on the result
	InstanceKey string
}

// Result is one request's outcome.
type Result struct {
	Schedule *sched.Schedule
	Err      error
	CacheHit bool
}

// Config is a Service's deployment: how many solver goroutines to run
// and where durable sessions live. Everything else — queue depth, cache
// sizes, the session cap, compaction, the solve deadline, Retry-After —
// is a package constant: the paper's algorithms carry their one tuning
// value, the slack ε, in each request, and none of these limits changes
// an answer.
type Config struct {
	// Workers is the number of solver goroutines (default GOMAXPROCS).
	Workers int
	// StateDir, when set, makes sessions durable: each session owns an
	// append-only journal under <StateDir>/sessions, fsynced on every
	// record and replayed on the session's first touch after a restart,
	// so a crashed or redeployed process answers session solve/info
	// exactly as the uncrashed one would have. Several processes may
	// share one StateDir (a cluster); session creation never overwrites
	// another's journal.
	StateDir string
	// FS is the filesystem under StateDir (default the real one,
	// faultfs.OS). Tests inject faultfs.Fault failpoints through it.
	FS faultfs.FS
	// Logf sinks recovery and journal diagnostics (default log.Printf;
	// the tests inject a recorder).
	Logf func(format string, args ...any)

	// limits replaces the production limits; only in-package tests set it.
	limits *limits
}

// The service's fixed limits.
const (
	// queuePerWorker sizes the request queue: a full queue exerts
	// backpressure, and Do blocks until space frees or ctx is done.
	queuePerWorker = 4
	// cacheEntries bounds the digest result cache.
	cacheEntries = 256
	// modelsPerWorker bounds each worker's prebuilt-model cache.
	modelsPerWorker = 8
	// maxSessions bounds the live sessions. Each holds a full instance,
	// model and cached schedule, so clients that never DELETE would
	// otherwise grow the process without limit. A first touch restores
	// an intact journal even past the cap: acked state is never refused.
	maxSessions = 1024
	// compactEvery folds a journal back to one snapshot record after
	// this many accepted mutations.
	compactEvery = 64
	// retryAfter is advertised in the Retry-After header on 429/503.
	retryAfter = time.Second
)

// SolveDeadline bounds the work of one HTTP request to /v1/schedule,
// /v1/batch or /v1/session/{id}/solve, a whole batch included. Past it
// the client gets 503 + Retry-After; a solve already on a worker runs
// to completion and still fills the caches. A front-end server's write
// timeout must outlast it.
const SolveDeadline = 60 * time.Second

// limits are the values a test must be able to shorten. Production runs
// the constants above; tests set Config.limits.
type limits struct {
	maxSessions   int
	compactEvery  int
	solveDeadline time.Duration
}

var production = limits{
	maxSessions:   maxSessions,
	compactEvery:  compactEvery,
	solveDeadline: SolveDeadline,
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.FS == nil {
		c.FS = faultfs.OS{}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Stats is a point-in-time snapshot of service counters.
type Stats struct {
	Workers     int    `json:"workers"`
	QueueDepth  int    `json:"queue_depth"`  // requests waiting right now
	QueueCap    int    `json:"queue_cap"`    // queue bound (4×workers)
	Submitted   uint64 `json:"submitted"`    // accepted into the service
	Completed   uint64 `json:"completed"`    // answered (solved or cached)
	Errors      uint64 `json:"errors"`       // answered with an error
	Canceled    uint64 `json:"canceled"`     // abandoned before solving
	CacheHits   uint64 `json:"cache_hits"`   // answered from the digest cache
	CacheMisses uint64 `json:"cache_misses"` // solved and cached
	ModelReuses uint64 `json:"model_reuses"` // worker reused a prebuilt model
	CacheSize   int    `json:"cache_size"`   // entries currently cached
	Sessions    int    `json:"sessions"`     // live solver sessions

	// Durability counters (all zero without Config.StateDir).
	JournalRecords     uint64 `json:"journal_records"`          // records appended (incl. snapshots)
	JournalFsyncs      uint64 `json:"journal_fsyncs"`           // fsyncs issued
	JournalCompactions uint64 `json:"journal_compactions"`      // journals folded to a snapshot
	SessionsRestored   uint64 `json:"sessions_restored"`        // sessions loaded from a journal on first touch
	JournalsDropped    uint64 `json:"journals_dropped_corrupt"` // journals quarantined as corrupt
	JournalErrors      uint64 `json:"journal_errors"`           // live-path journal failures (session dropped)
}

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("service: closed")

// Service is the concurrent batch scheduler. Create with New, feed with
// Submit/SubmitBatch, observe with Stats, stop with Close.
type Service struct {
	cfg   Config
	lim   limits
	queue chan *task

	closeMu sync.RWMutex // guards closed + the queue-send in enqueue
	closed  bool

	workers sync.WaitGroup

	cacheMu sync.Mutex
	cache   map[string]*list.Element
	lru     *list.List // front = most recent; values are *cacheEntry
	// byBody indexes the entries that hold a stored reply by the
	// sha256 of the request body that filled it (cacheFill).
	byBody map[[sha256.Size]byte]*list.Element

	sessMu   sync.Mutex
	sessions map[string]*sessionHandle
	sessSeq  atomic.Uint64
	openMu   sync.Mutex // serializes on-demand journal opens (takeover.go)

	submitted, completed, errs, canceled atomic.Uint64
	cacheHits, cacheMisses, modelReuses  atomic.Uint64

	journalRecords, journalFsyncs, journalCompactions atomic.Uint64
	sessionsRestored, journalsDroppedCorrupt          atomic.Uint64
	journalErrors                                     atomic.Uint64
}

type task struct {
	ctx  context.Context
	req  Request
	done chan Result
}

// cacheEntry is one digest-cache result. reply, when set, is the exact
// /v1/schedule digest-hit reply for sched, and body is the sha256 of the
// request body that filled it: a byte-identical body is answered from
// reply alone. Replacing sched drops reply; an entry holds at most one.
type cacheEntry struct {
	key   string
	sched *sched.Schedule
	reply []byte
	body  [sha256.Size]byte
}

// New starts a service with cfg's worker pool. The caller owns the
// returned service and must Close it to release the workers. With
// Config.StateDir set, startup can fail — use Open to handle that
// error; New panics on it.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a service. With Config.StateDir set it only makes sure
// the sessions directory exists: no journal is read at startup. Each
// session comes back on its first touch by id (openByID), answering
// solve/info exactly as before the restart, or is dropped cleanly with
// a logged error and a journals_dropped_corrupt tick — never served
// from corrupt state. Open fails only when the state dir is unusable.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	lim := production
	if cfg.limits != nil {
		lim = *cfg.limits
	}
	s := &Service{
		cfg:      cfg,
		lim:      lim,
		queue:    make(chan *task, queuePerWorker*cfg.Workers),
		cache:    map[string]*list.Element{},
		lru:      list.New(),
		byBody:   map[[sha256.Size]byte]*list.Element{},
		sessions: map[string]*sessionHandle{},
	}
	if s.durable() {
		if err := s.cfg.FS.MkdirAll(s.sessionsDir(), 0o755); err != nil {
			return nil, fmt.Errorf("service: state dir: %w", err)
		}
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Submit solves one request through the pool and blocks until it is
// answered or ctx is done. Backpressure: with the queue full, Submit
// blocks — bound the wait with a context deadline. Cancelling ctx after
// the request is queued abandons it (a worker will skip it), but a solve
// already in flight runs to completion.
func (s *Service) Submit(ctx context.Context, req Request) (*sched.Schedule, error) {
	r := s.Do(ctx, req)
	return r.Schedule, r.Err
}

// Do is Submit with cache visibility: the Result says whether the answer
// came from the digest cache. Only ctx bounds the wait; the HTTP surface
// gives each request SolveDeadline.
func (s *Service) Do(ctx context.Context, req Request) Result {
	res, _ := s.do(ctx, req, cacheKey(req))
	return res
}

// do is Do for a request whose cacheKey the caller computed. On a
// digest-cache hit it also returns the entry's own schedule: the handle
// cacheFill checks before it stores a reply.
func (s *Service) do(ctx context.Context, req Request, key string) (Result, *sched.Schedule) {
	if req.Instance == nil {
		return Result{Err: errors.New("service: nil instance")}, nil
	}
	if s.isClosed() {
		// A draining service refuses everything, even cacheable repeats —
		// enqueue would refuse anyway, and answering some requests but
		// not others during shutdown is a confusing half-open state.
		return Result{Err: ErrClosed}, nil
	}
	if stored, ok := s.cacheLookup(key); ok {
		s.countHit()
		return Result{Schedule: copySchedule(stored), CacheHit: true}, stored
	}
	t := &task{ctx: ctx, req: req, done: make(chan Result, 1)}
	if err := s.enqueue(ctx, t); err != nil {
		return Result{Err: err}, nil
	}
	s.submitted.Add(1)
	select {
	case r := <-t.done:
		return r, nil
	case <-ctx.Done():
		// The worker that eventually dequeues t sees the dead context and
		// drops it without solving.
		s.canceled.Add(1)
		return Result{Err: ctx.Err()}, nil
	}
}

// isClosed reports whether Close has begun.
func (s *Service) isClosed() bool {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	return s.closed
}

// countHit counts a request answered from the digest cache on arrival.
func (s *Service) countHit() {
	s.submitted.Add(1)
	s.completed.Add(1)
	s.cacheHits.Add(1)
}

// SubmitBatch submits every request and waits for all results, aligned
// by index with the input. Submitter concurrency is bounded by the queue
// plus the pool — enough to keep every worker busy without spawning one
// goroutine per request, so a huge batch cannot exhaust memory before
// the queue's backpressure applies.
func (s *Service) SubmitBatch(ctx context.Context, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	submitters := s.cfg.Workers + cap(s.queue)
	if submitters > len(reqs) {
		submitters = len(reqs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(submitters)
	for g := 0; g < submitters; g++ {
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = s.Do(ctx, reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// enqueue places t on the queue, blocking for backpressure. It holds the
// close read-lock across the send so Close cannot close the queue under a
// blocked sender.
func (s *Service) enqueue(ctx context.Context, t *task) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case s.queue <- t:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the service: new submissions are refused, queued requests
// are still answered, and Close returns once every worker has exited and
// — on a durable service — every session journal has been folded to a
// final snapshot and fsynced, so the next process restores each session
// without replaying mutation records. If ctx expires first, the drain
// keeps running in the background.
func (s *Service) Close(ctx context.Context) error {
	s.closeMu.Lock()
	first := !s.closed
	if first {
		s.closed = true
		close(s.queue)
	}
	s.closeMu.Unlock()
	done := make(chan struct{})
	go func() {
		if first && s.durable() {
			// After the closed flag flips, sessionsOpen refuses new
			// mutations; in-flight ones finish under their session lock
			// before the flush takes it.
			s.flushJournals()
		}
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the counters.
func (s *Service) Stats() Stats {
	s.cacheMu.Lock()
	cached := s.lru.Len()
	s.cacheMu.Unlock()
	s.sessMu.Lock()
	liveSessions := len(s.sessions)
	s.sessMu.Unlock()
	return Stats{
		Workers:     s.cfg.Workers,
		QueueDepth:  len(s.queue),
		QueueCap:    cap(s.queue),
		Submitted:   s.submitted.Load(),
		Completed:   s.completed.Load(),
		Errors:      s.errs.Load(),
		Canceled:    s.canceled.Load(),
		CacheHits:   s.cacheHits.Load(),
		CacheMisses: s.cacheMisses.Load(),
		ModelReuses: s.modelReuses.Load(),
		CacheSize:   cached,
		Sessions:    liveSessions,

		JournalRecords:     s.journalRecords.Load(),
		JournalFsyncs:      s.journalFsyncs.Load(),
		JournalCompactions: s.journalCompactions.Load(),
		SessionsRestored:   s.sessionsRestored.Load(),
		JournalsDropped:    s.journalsDroppedCorrupt.Load(),
		JournalErrors:      s.journalErrors.Load(),
	}
}

// worker is the solver loop. Each worker owns a small model cache keyed
// by InstanceKey, so a batch of requests against one instance builds the
// bipartite model (and its per-processor slot indexes) once and reuses it
// for every algorithm/threshold variation — the incremental matchers then
// start from a prebuilt graph instead of re-deriving it per request.
func (s *Service) worker() {
	defer s.workers.Done()
	models := newModelCache()
	for t := range s.queue {
		if t.ctx.Err() != nil {
			// Abandoned while queued; the submitter already returned.
			continue
		}
		key := cacheKey(t.req)
		if hit, ok := s.cacheGet(key); ok {
			// A twin request was solved while this one sat in the queue.
			s.completed.Add(1)
			s.cacheHits.Add(1)
			t.done <- Result{Schedule: hit, CacheHit: true}
			continue
		}
		res := s.solve(models, t.req)
		s.completed.Add(1)
		if res.Err != nil {
			s.errs.Add(1)
		} else if key != "" {
			s.cacheMisses.Add(1)
			s.cachePut(key, res.Schedule)
		}
		t.done <- res
	}
}

// Solve answers one request synchronously on the caller's goroutine — the
// sequential reference path, with no pool, cache, or model reuse. The
// CLI's solve mode uses it, and service output is differential-tested
// against it.
func Solve(req Request) (*sched.Schedule, error) {
	r := (&Service{}).solve(nil, req)
	return r.Schedule, r.Err
}

// solve runs the request's algorithm, optionally reusing a cached model.
func (s *Service) solve(models *modelCache, req Request) Result {
	model, reused, err := models.get(req)
	if err != nil {
		return Result{Err: err}
	}
	if reused {
		s.modelReuses.Add(1)
	}
	var out *sched.Schedule
	switch req.Mode {
	case ModeAll:
		out, err = model.ScheduleAll(req.Opts)
	case ModePrize:
		out, err = model.PrizeCollecting(req.Z, req.Opts)
	case ModePrizeExact:
		out, err = model.PrizeCollectingExact(req.Z, req.Opts)
	default:
		err = fmt.Errorf("service: unknown mode %d", int(req.Mode))
	}
	if err != nil {
		return Result{Err: err}
	}
	if req.Improve {
		out = sched.Improve(req.Instance, out)
	}
	return Result{Schedule: out}
}

// cacheKey mixes the instance digest with every request field that
// changes the answer, including a caller-supplied candidate family
// (non-nil Opts.Candidates). Empty when the request opted out of caching.
func cacheKey(req Request) string {
	if req.InstanceKey == "" {
		return ""
	}
	key := fmt.Sprintf("%s|m%d|z%g|e%g|i%t",
		req.InstanceKey, req.Mode, req.Z, req.Opts.Eps, req.Improve)
	if req.Opts.Candidates != nil {
		key += fmt.Sprintf("|c%v", req.Opts.Candidates)
	}
	return key
}

func (s *Service) cacheGet(key string) (*sched.Schedule, bool) {
	stored, ok := s.cacheLookup(key)
	if !ok {
		return nil, false
	}
	// Hand out a copy: callers own their schedule and may mutate it.
	return copySchedule(stored), true
}

// cacheLookup returns the entry's own schedule, which callers must not
// mutate or hand out.
func (s *Service) cacheLookup(key string) (*sched.Schedule, bool) {
	if key == "" {
		return nil, false
	}
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	el, ok := s.cache[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).sched, true
}

func (s *Service) cachePut(key string, sc *sched.Schedule) {
	if key == "" || sc == nil {
		return
	}
	stored := copySchedule(sc)
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if el, ok := s.cache[key]; ok {
		// A session solve shares the key: the new schedule invalidates the
		// reply encoded from the old one.
		e := el.Value.(*cacheEntry)
		s.dropReply(e)
		e.sched = stored
		s.lru.MoveToFront(el)
		return
	}
	s.cache[key] = s.lru.PushFront(&cacheEntry{key: key, sched: stored})
	for s.lru.Len() > cacheEntries {
		oldest := s.lru.Remove(s.lru.Back()).(*cacheEntry)
		s.dropReply(oldest)
		delete(s.cache, oldest.key)
	}
}

// cacheFill stores reply, the encoded digest-hit reply for the schedule
// `from` that cacheLookup returned, under the sha256 of the request body.
// A fill that lost a race with cachePut or eviction stores nothing, so a
// stored reply always matches its entry's current schedule.
func (s *Service) cacheFill(key string, from *sched.Schedule, body [sha256.Size]byte, reply []byte) {
	if reply == nil {
		return
	}
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	el, ok := s.cache[key]
	if !ok || el.Value.(*cacheEntry).sched != from {
		return
	}
	e := el.Value.(*cacheEntry)
	s.dropReply(e)
	e.reply, e.body = reply, body
	s.byBody[body] = el
}

// storedReply answers a request body that filled an entry: it returns
// the stored reply and counts the hit as Do does. A closed service
// returns nothing, so the request falls through to Do's refusal.
func (s *Service) storedReply(body [sha256.Size]byte) ([]byte, bool) {
	if s.isClosed() {
		return nil, false
	}
	s.cacheMu.Lock()
	el, ok := s.byBody[body]
	var reply []byte
	if ok {
		s.lru.MoveToFront(el)
		reply = el.Value.(*cacheEntry).reply
	}
	s.cacheMu.Unlock()
	if !ok {
		return nil, false
	}
	s.countHit()
	return reply, true
}

// dropReply detaches e's stored reply and its body index; cacheMu held.
func (s *Service) dropReply(e *cacheEntry) {
	if e.reply != nil {
		delete(s.byBody, e.body)
		e.reply = nil
	}
}

func copySchedule(sc *sched.Schedule) *sched.Schedule {
	out := *sc
	out.Intervals = append([]sched.Interval(nil), sc.Intervals...)
	out.Assignment = append([]sched.SlotKey(nil), sc.Assignment...)
	return &out
}

// modelCache is a worker-local (single-goroutine) LRU of up to
// modelsPerWorker prebuilt scheduling models keyed by InstanceKey.
type modelCache struct {
	order []string // front = most recent
	byKey map[string]*sched.Model
}

func newModelCache() *modelCache {
	return &modelCache{byKey: map[string]*sched.Model{}}
}

// get returns a model for the request, reusing the cached one when the
// instance key matches. A nil receiver (the sequential Solve path) and
// keyless requests always build fresh.
func (c *modelCache) get(req Request) (*sched.Model, bool, error) {
	if c == nil || req.InstanceKey == "" {
		m, err := sched.NewModel(req.Instance)
		return m, false, err
	}
	if m, ok := c.byKey[req.InstanceKey]; ok {
		c.touch(req.InstanceKey)
		return m, true, nil
	}
	m, err := sched.NewModel(req.Instance)
	if err != nil {
		return nil, false, err
	}
	c.byKey[req.InstanceKey] = m
	c.order = append([]string{req.InstanceKey}, c.order...)
	if len(c.order) > modelsPerWorker {
		evict := c.order[len(c.order)-1]
		c.order = c.order[:len(c.order)-1]
		delete(c.byKey, evict)
	}
	return m, false, nil
}

func (c *modelCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			c.order = append([]string{key}, c.order...)
			return
		}
	}
}
