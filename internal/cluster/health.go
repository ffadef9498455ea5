package cluster

// This file is the router's health machinery: the per-backend state a
// routing decision reads, the probe loop, and the global retry budget
// that keeps a degrading cluster from amplifying its own load.
//
// One state machine answers "may this backend take traffic?". It
// counts consecutive failures, and both the /healthz prober and the
// request path feed it: a failed probe and a transient request failure
// (transport error, torn body, 502/503/504) count alike, and any
// success resets the count. ejectAfter failures in a row take the
// backend out of routing, so a dead backend is ejected by the first
// two requests that hit it, before the prober has even noticed. Only
// the prober brings it back, after readmitAfter straight /healthz
// successes: readmission is the slower edge, so a flapping backend
// stays out.

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// backendState is the router's view of one backend. Guarded by its own
// mutex so the request path never contends with the router's ring lock.
type backendState struct {
	name string

	mu    sync.Mutex
	alive bool
	fails int // consecutive failures, probes and requests alike
	oks   int // consecutive probe successes while ejected
}

func newBackendState(name string) *backendState {
	return &backendState{name: name, alive: true}
}

func (b *backendState) isAlive() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.alive
}

// report feeds one outcome into the state machine and returns the
// transition it caused, if any. Only probe successes count toward
// readmission: a request that was in flight when its backend was
// ejected says nothing about the backend's health now.
func (b *backendState) report(ok, probe bool) (ejected, readmitted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !ok {
		b.fails++
		b.oks = 0
		if b.alive && b.fails >= ejectAfter {
			b.alive = false
			return true, false
		}
		return false, false
	}
	b.fails = 0
	if b.alive || !probe {
		return false, false
	}
	b.oks++
	if b.oks < readmitAfter {
		return false, false
	}
	b.alive = true
	b.oks = 0
	return false, true
}

// observe reports one outcome for b and counts and logs the transition.
func (r *Router) observe(b *backendState, ok, probe bool) {
	ejected, readmitted := b.report(ok, probe)
	if ejected {
		r.ejections.Add(1)
		r.cfg.Logf("powersched-route: backend %s ejected (%d straight failures)", b.name, ejectAfter)
	}
	if readmitted {
		r.readmissions.Add(1)
		r.cfg.Logf("powersched-route: backend %s readmitted (%d straight probe successes)", b.name, readmitAfter)
	}
}

// probeLoop drives /healthz against every backend until Close.
func (r *Router) probeLoop() {
	defer close(r.done)
	ticker := time.NewTicker(r.tune.probeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		r.mu.Lock()
		states := make([]*backendState, 0, len(r.backends))
		for _, b := range r.backends {
			states = append(states, b)
		}
		r.mu.Unlock()
		for _, b := range states {
			r.observe(b, r.probe(b.name), true)
		}
	}
}

// probe issues one GET /healthz through the injectable transport — the
// same seam requests use, so netfault latency and drops hit probes too.
func (r *Router) probe(backend string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.tune.requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// retryBudget is a token bucket priced in retries: first attempts are
// free, every attempt beyond the first takes a token, and an empty
// bucket means the cluster is already struggling — shed instead of
// amplifying (429 + Retry-After upstream).
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	rate   float64 // tokens per second
	last   time.Time
}

func (b *retryBudget) take(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * b.rate
		if b.tokens > b.max {
			b.tokens = b.max
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
