// Package cluster is the shard-router front end over N powersched
// serve backends: it consistent-hashes session ids and request bodies
// across the ring (ring.go), takes a failing backend out of routing and
// readmits it with hysteresis (health.go), retries idempotent requests
// under a deadline with capped exponential backoff and a global retry
// budget (route.go), and sheds load with 429/503 + Retry-After when the
// cluster degrades.
//
// The paper's value-oracle framing is what makes the router safe: a
// solve is a pure function of the instance digest, so any backend
// answers any solve byte-identically and the router may retry or fail
// over freely. The two stateful operations get explicit protocols —
// mutations retry only behind a journal-sequence check (a retried
// mutate whose first attempt landed is detected by its 409, never
// re-applied), and session ownership moves by a release on the donor
// and a read on the new owner against the shared StateDir, with the
// moved digest verified (failover.go).
//
// The degradation contract, from least to most degraded:
//
//	healthy    — requests proxy to the key's ring owner
//	retrying   — transient failures burn the retry budget with
//	             capped-exponential backoff, failing over along the
//	             key's ring sequence
//	shedding   — an exhausted retry budget answers 429 + Retry-After
//	             (wrapping ErrRetryBudgetExhausted in logs)
//	unavailable— no alive backend answers 503 + Retry-After (wrapping
//	             ErrBackendUnavailable); the cluster never answers a
//	             request it cannot answer correctly
package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBackendUnavailable is wrapped by every routing failure caused by
// backends being dead or ejected. It maps to 503 + Retry-After on the
// router's HTTP surface.
var ErrBackendUnavailable = errors.New("cluster: no backend available")

// ErrRetryBudgetExhausted is wrapped when a request still has failing
// attempts left by policy but the global retry budget is empty — the
// cluster is degrading and piling on retries would make it worse. It
// maps to 429 + Retry-After.
var ErrRetryBudgetExhausted = errors.New("cluster: retry budget exhausted")

// ErrReplyTooLarge is wrapped when a backend's reply exceeds
// service.MaxRequestBytes, the most the router buffers. It maps to 502
// and is neither retried (the reply is a pure function of the request)
// nor counted against the backend's health.
var ErrReplyTooLarge = errors.New("cluster: backend reply too large")

// ErrMigrationCorrupt is wrapped when a resize migration's digest
// verification fails: the taker recovered a state the donor never
// acked. The session keeps its old owner recorded and the mismatch is
// reported in the resize reply — corruption is surfaced, never routed
// around silently.
var ErrMigrationCorrupt = errors.New("cluster: migrated session failed digest verification")

// Config is a Router's deployment. Everything else about the router —
// deadlines, retries, backoff, the retry budget, health probing — is a
// package constant: a solve is a pure function of its instance digest,
// so what keeps the cluster correct is where sessions live, not how its
// timers are tuned.
type Config struct {
	// Backends are the powersched serve base URLs forming the ring.
	Backends []string
	// Transport is the network seam: every request and health probe goes
	// through it, so tests wrap it with netfault.Transport failpoints.
	// Defaults to http.DefaultTransport.
	Transport http.RoundTripper
	// Logf sinks routing diagnostics (default: discard).
	Logf func(format string, args ...any)

	// tune replaces the production timing; only in-package tests set it.
	tune *tuning
}

// The router's constants. A backend is ejected after ejectAfter
// consecutive failures, probe or request alike, and readmitted only by
// the prober after readmitAfter consecutive /healthz successes: the
// slower edge, so a flapping backend stays out.
const (
	requestTimeout = 5 * time.Second        // each proxy attempt and health probe
	maxAttempts    = 3                      // tries per request, first attempt included
	backoffBase    = 25 * time.Millisecond  // first retry delay, doubling per retry
	backoffCap     = time.Second            // backoff ceiling
	retryRate      = 10                     // retry-budget refill, retries/second
	probeInterval  = 500 * time.Millisecond // health-probe period
	ejectAfter     = 2
	readmitAfter   = 3
	retryAfter     = time.Second // advertised on 429/503
)

// RequestBudget bounds the router's work on one request: every attempt
// at its deadline plus the capped backoffs between them. A front-end
// server's write timeout must outlast it, or answers die mid-failover.
const RequestBudget = maxAttempts * (requestTimeout + backoffCap)

// tuning is the router's timing and retry policy. Production runs the
// constants above; tests shorten them through Config.tune.
type tuning struct {
	requestTimeout          time.Duration
	maxAttempts             int
	backoffBase, backoffCap time.Duration
	retryRate, retryBurst   float64 // first attempts are free: the budget prices only retries
	probeInterval           time.Duration
}

var production = tuning{
	requestTimeout: requestTimeout,
	maxAttempts:    maxAttempts,
	backoffBase:    backoffBase,
	backoffCap:     backoffCap,
	retryRate:      retryRate,
	retryBurst:     2 * retryRate,
	probeInterval:  probeInterval,
}

// Router is the shard-routing front end. Create with New, serve its
// Handler, stop with Close.
type Router struct {
	cfg    Config
	tune   tuning
	client *http.Client

	mu       sync.Mutex
	ring     *Ring
	backends map[string]*backendState
	sessions map[string]string // session id → owning backend
	creates  atomic.Uint64     // router-minted session id sequence
	epoch    int64             // stamps minted ids so restarts do not collide

	budget retryBudget

	// resizeMu serializes ring resizes: interleaved migrations of one
	// session would race one release against another's read.
	resizeMu sync.Mutex

	stop chan struct{}
	done chan struct{}

	proxied, retries, failovers atomic.Uint64
	ejections, readmissions     atomic.Uint64
	sheds, budgetExhausted      atomic.Uint64
	migrations                  atomic.Uint64
	mutationConflictsDetected   atomic.Uint64
	sessionsRecovered           atomic.Uint64
}

// New builds a router over cfg.Backends and starts the health prober.
// The caller must Close it.
func New(cfg Config) (*Router, error) {
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport //powersched:direct-net — the injectable default, like faultfs.OS
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	tune := production
	if cfg.tune != nil {
		tune = *cfg.tune
	}
	ring, err := NewRing(cfg.Backends)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:      cfg,
		tune:     tune,
		client:   &http.Client{Transport: cfg.Transport},
		ring:     ring,
		backends: make(map[string]*backendState, ring.N()),
		sessions: make(map[string]string),
		epoch:    time.Now().Unix(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	r.budget.max = tune.retryBurst
	r.budget.rate = tune.retryRate
	r.budget.tokens = tune.retryBurst
	r.budget.last = time.Now()
	for _, b := range ring.Backends() {
		r.backends[b] = newBackendState(b)
	}
	go r.probeLoop()
	return r, nil
}

// Close stops the health prober. In-flight requests finish on their own
// deadlines.
func (r *Router) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
}

// BackendStatus is one backend's health as the router sees it.
type BackendStatus struct {
	Name     string `json:"name"`
	Alive    bool   `json:"alive"`
	Sessions int    `json:"sessions"`
}

// Stats is a point-in-time snapshot of router counters.
type Stats struct {
	Backends []BackendStatus `json:"backends"`
	Sessions int             `json:"sessions"`

	Proxied           uint64 `json:"proxied"`            // requests answered through a backend
	Retries           uint64 `json:"retries"`            // attempts beyond the first
	Failovers         uint64 `json:"failovers"`          // answers from a non-preferred backend
	Ejections         uint64 `json:"ejections"`          // backends taken out of routing
	Readmissions      uint64 `json:"readmissions"`       // backends readmitted by the prober
	Sheds             uint64 `json:"sheds"`              // 503s: no backend available
	BudgetExhausted   uint64 `json:"budget_exhausted"`   // 429s: retry budget empty
	Migrations        uint64 `json:"migrations"`         // sessions moved on ring resize
	MutationConflicts uint64 `json:"mutation_conflicts"` // retried mutates detected as landed
	Recovered         uint64 `json:"sessions_recovered"` // sessions failed over to a new owner
}

// Stats snapshots the router's counters and backend health.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	backends := make([]BackendStatus, 0, len(r.backends))
	perOwner := make(map[string]int, len(r.backends))
	for _, owner := range r.sessions {
		perOwner[owner]++
	}
	for _, name := range r.ring.Backends() {
		b := r.backends[name]
		backends = append(backends, BackendStatus{
			Name:     name,
			Alive:    b.isAlive(),
			Sessions: perOwner[name],
		})
	}
	liveSessions := len(r.sessions)
	r.mu.Unlock()
	return Stats{
		Backends: backends,
		Sessions: liveSessions,

		Proxied:           r.proxied.Load(),
		Retries:           r.retries.Load(),
		Failovers:         r.failovers.Load(),
		Ejections:         r.ejections.Load(),
		Readmissions:      r.readmissions.Load(),
		Sheds:             r.sheds.Load(),
		BudgetExhausted:   r.budgetExhausted.Load(),
		Migrations:        r.migrations.Load(),
		MutationConflicts: r.mutationConflictsDetected.Load(),
		Recovered:         r.sessionsRecovered.Load(),
	}
}

// mintSessionID returns a fresh router-scoped session id. The epoch
// stamp keeps ids from colliding across router restarts sharing one
// cluster (the id also lands as a journal filename, so the format obeys
// the service's id grammar).
func (r *Router) mintSessionID() string {
	return fmt.Sprintf("c%d-%06d", r.epoch, r.creates.Add(1))
}
