package cluster

// This file is the router's request path. Every request is bufferred
// (body and reply), keyed (session id, or a digest of the body for
// stateless work), and walked along the key's ring sequence:
//
//	attempt 0 → the key's preferred owner
//	attempt k → the next admittable backend, after a budgeted, capped
//	            exponential backoff
//
// Transport errors, partial replies, and backend 502/503/504 are
// transient: they count toward ejecting the backend (health.go) and
// burn the retry budget. A reply too large to buffer answers 502 at
// once, without a retry or a health mark. Everything
// else — including 404, 409, 422, 429 — is an authoritative answer and
// relays as-is. Solves and reads retry freely (a solve is a pure
// function of the instance digest); the two non-idempotent operations
// carry explicit retry protocols: a create retried after a lost reply
// detects "already exists" and recovers the landed session's digest,
// and a mutate retries only under an injected journal-sequence check
// (handleMutate), so a first attempt that landed surfaces as a 409 the
// router converts back into the success the client should have seen.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/service"
)

// result is one buffered backend reply.
type result struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

// candidates returns the key's failover preference order, with the
// explicitly preferred backend (the recorded session owner) moved to
// the front when it is still on the ring.
func (r *Router) candidates(key, preferred string) []string {
	r.mu.Lock()
	ring := r.ring
	r.mu.Unlock()
	seq := ring.Sequence(key)
	if preferred == "" || !ring.Contains(preferred) {
		return seq
	}
	out := make([]string, 0, len(seq))
	out = append(out, preferred)
	for _, b := range seq {
		if b != preferred {
			out = append(out, b)
		}
	}
	return out
}

func (r *Router) state(name string) *backendState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.backends[name]
}

// pickBackend returns the first alive candidate, scanning from the
// attempt index so consecutive retries prefer different backends.
func (r *Router) pickBackend(cands []string, attempt int) *backendState {
	for i := 0; i < len(cands); i++ {
		b := r.state(cands[(attempt+i)%len(cands)])
		if b != nil && b.isAlive() {
			return b
		}
	}
	return nil
}

// backoff sleeps the capped exponential delay before retry number n
// (n >= 1), honoring ctx.
func (r *Router) backoff(ctx context.Context, n int) error {
	d := r.tune.backoffBase << (n - 1)
	if d > r.tune.backoffCap || d <= 0 {
		d = r.tune.backoffCap
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// attempt performs one buffered exchange with one backend. A reply that
// cannot be read to completion (the partial-body failpoint) is a
// transport error, so the caller retries instead of relaying a torn
// reply. A reply longer than service.MaxRequestBytes is ErrReplyTooLarge,
// never a truncated success.
func (r *Router) attempt(ctx context.Context, backend, method, path string, body []byte) (*result, error) {
	actx, cancel := context.WithTimeout(ctx, r.tune.requestTimeout)
	defer cancel()
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, backend+path, rd)
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, service.MaxRequestBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > service.MaxRequestBytes {
		return nil, fmt.Errorf("%w: %s replied more than %d bytes", ErrReplyTooLarge, backend, service.MaxRequestBytes)
	}
	return &result{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        data,
	}, nil
}

// route drives one request to an authoritative answer: pick a backend,
// attempt, and — within the attempt limit and the retry budget — retry
// transient failures with backoff, failing over along the ring
// sequence. Errors wrap ErrBackendUnavailable (nothing admits traffic,
// or every attempt failed transiently) or ErrRetryBudgetExhausted.
func (r *Router) route(ctx context.Context, method, path string, body []byte, key, preferred string) (res *result, backend string, attempts int, err error) {
	cands := r.candidates(key, preferred)
	var lastErr error
	for attempts = 0; attempts < r.tune.maxAttempts; attempts++ {
		if attempts > 0 {
			if !r.budget.take(time.Now()) {
				r.budgetExhausted.Add(1)
				return nil, "", attempts, fmt.Errorf("%w: after %d attempts (last: %v)", ErrRetryBudgetExhausted, attempts, lastErr)
			}
			r.retries.Add(1)
			if berr := r.backoff(ctx, attempts); berr != nil {
				return nil, "", attempts, fmt.Errorf("%w: backoff interrupted: %v (last: %v)", ErrBackendUnavailable, berr, lastErr)
			}
		}
		b := r.pickBackend(cands, attempts)
		if b == nil {
			r.sheds.Add(1)
			return nil, "", attempts, fmt.Errorf("%w: %d on ring, none admits traffic (last: %v)", ErrBackendUnavailable, len(cands), lastErr)
		}
		got, aerr := r.attempt(ctx, b.name, method, path, body)
		if errors.Is(aerr, ErrReplyTooLarge) {
			// The backend answered; every retry would get the same reply.
			return nil, "", attempts + 1, aerr
		}
		transient := aerr != nil ||
			got.status == http.StatusBadGateway ||
			got.status == http.StatusServiceUnavailable ||
			got.status == http.StatusGatewayTimeout
		r.observe(b, !transient, false)
		if !transient {
			r.proxied.Add(1)
			if b.name != cands[0] {
				r.failovers.Add(1)
			}
			return got, b.name, attempts + 1, nil
		}
		if aerr != nil {
			lastErr = aerr
		} else {
			lastErr = fmt.Errorf("%w: backend %s answered %d", ErrBackendUnavailable, b.name, got.status)
		}
		if ctx.Err() != nil {
			return nil, "", attempts + 1, fmt.Errorf("%w: %v (last: %v)", ErrBackendUnavailable, ctx.Err(), lastErr)
		}
	}
	r.sheds.Add(1)
	return nil, "", attempts, fmt.Errorf("%w: %d attempts all failed (last: %v)", ErrBackendUnavailable, attempts, lastErr)
}

// bodyKey is the ring key for stateless requests: a digest of the exact
// body bytes, so identical instances prefer the same backend and its
// warm digest cache.
func bodyKey(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:8])
}

func (r *Router) recordOwner(id, backend string) {
	r.mu.Lock()
	prev, had := r.sessions[id]
	r.sessions[id] = backend
	r.mu.Unlock()
	if had && prev != backend {
		r.sessionsRecovered.Add(1)
		r.cfg.Logf("powersched-route: session %s recovered on %s (was %s)", id, backend, prev)
	}
}

func (r *Router) owner(id string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sessions[id]
}

func (r *Router) forgetSession(id string) {
	r.mu.Lock()
	delete(r.sessions, id)
	r.mu.Unlock()
}

// Handler returns the router's HTTP surface: the same /v1 routes the
// backends serve (proxied with retries and failover), the router's own
// /healthz, /stats, and /metrics, and /admin/ring for resize.
func (r *Router) Handler() http.Handler {
	retryAfterSecs := strconv.Itoa(int(math.Ceil(retryAfter.Seconds())))
	writeJSON := func(w http.ResponseWriter, status int, v any) {
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", retryAfterSecs)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v) //nolint:errcheck // the response is already committed
	}
	relay := func(w http.ResponseWriter, res *result) {
		if res.contentType != "" {
			w.Header().Set("Content-Type", res.contentType)
		}
		if res.retryAfter != "" {
			w.Header().Set("Retry-After", res.retryAfter)
		}
		w.WriteHeader(res.status)
		w.Write(res.body) //nolint:errcheck // the response is already committed
	}
	fail := func(w http.ResponseWriter, err error) {
		status := http.StatusServiceUnavailable
		switch {
		case errors.Is(err, ErrRetryBudgetExhausted):
			status = http.StatusTooManyRequests
		case errors.Is(err, ErrReplyTooLarge):
			status = http.StatusBadGateway
		}
		r.cfg.Logf("powersched-route: %v", err)
		writeJSON(w, status, map[string]string{"error": err.Error()})
	}
	readBody := func(w http.ResponseWriter, req *http.Request) ([]byte, error) {
		return io.ReadAll(http.MaxBytesReader(w, req.Body, service.MaxRequestBytes))
	}

	// proxyStateless routes a body-keyed request with free retries.
	proxyStateless := func(w http.ResponseWriter, req *http.Request, path string) {
		body, err := readBody(w, req)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		res, _, _, rerr := r.route(req.Context(), req.Method, path, body, bodyKey(body), "")
		if rerr != nil {
			fail(w, rerr)
			return
		}
		relay(w, res)
	}
	// proxySession routes a session-keyed request with free retries,
	// recording ownership on success.
	proxySession := func(w http.ResponseWriter, req *http.Request, id, path string) {
		body, err := readBody(w, req)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		res, backend, _, rerr := r.route(req.Context(), req.Method, path, body, id, r.owner(id))
		if rerr != nil {
			fail(w, rerr)
			return
		}
		if res.status == http.StatusOK {
			r.recordOwner(id, backend)
		}
		relay(w, res)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedule", func(w http.ResponseWriter, req *http.Request) {
		proxyStateless(w, req, "/v1/schedule")
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, req *http.Request) {
		proxyStateless(w, req, "/v1/batch")
	})
	mux.HandleFunc("POST /v1/session", func(w http.ResponseWriter, req *http.Request) {
		body, err := readBody(w, req)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		r.handleCreate(w, req.Context(), body, writeJSON, relay, fail)
	})
	mux.HandleFunc("POST /v1/session/{id}/mutate", func(w http.ResponseWriter, req *http.Request) {
		body, err := readBody(w, req)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		r.handleMutate(w, req.Context(), req.PathValue("id"), body, writeJSON, relay, fail)
	})
	mux.HandleFunc("POST /v1/session/{id}/solve", func(w http.ResponseWriter, req *http.Request) {
		id := req.PathValue("id")
		proxySession(w, req, id, "/v1/session/"+id+"/solve")
	})
	mux.HandleFunc("GET /v1/session/{id}", func(w http.ResponseWriter, req *http.Request) {
		id := req.PathValue("id")
		proxySession(w, req, id, "/v1/session/"+id)
	})
	mux.HandleFunc("DELETE /v1/session/{id}", func(w http.ResponseWriter, req *http.Request) {
		id := req.PathValue("id")
		res, _, attempts, rerr := r.route(req.Context(), http.MethodDelete, "/v1/session/"+id, nil, id, r.owner(id))
		if rerr != nil {
			fail(w, rerr)
			return
		}
		if res.status == http.StatusOK {
			r.forgetSession(id)
			relay(w, res)
			return
		}
		if res.status == http.StatusNotFound && attempts > 1 {
			// A retried delete whose first attempt landed: the session is
			// gone, which is what the client asked for.
			r.forgetSession(id)
			writeJSON(w, http.StatusOK, service.SessionResponse{ID: id})
			return
		}
		relay(w, res)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		alive := 0
		r.mu.Lock()
		for _, b := range r.backends {
			if b.isAlive() {
				alive++
			}
		}
		total := len(r.backends)
		r.mu.Unlock()
		status := http.StatusOK
		if alive == 0 {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]int{"alive": alive, "backends": total})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeRouterMetrics(w, r.Stats())
	})
	mux.HandleFunc("GET /admin/ring", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.ringInfo())
	})
	mux.HandleFunc("POST /admin/ring", func(w http.ResponseWriter, req *http.Request) {
		body, err := readBody(w, req)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		r.handleResize(w, req.Context(), body, writeJSON)
	})
	return mux
}

// handleCreate implements POST /v1/session at the routing tier: the
// router mints the id and creates via idempotent-capable PUT, so a
// retry after a lost reply can detect the landed create ("already
// exists") and recover its digest instead of creating a duplicate.
func (r *Router) handleCreate(w http.ResponseWriter, ctx context.Context, body []byte,
	writeJSON func(http.ResponseWriter, int, any), relay func(http.ResponseWriter, *result), fail func(http.ResponseWriter, error)) {
	for tries := 0; tries < 3; tries++ {
		id := r.mintSessionID()
		res, backend, attempts, err := r.route(ctx, http.MethodPut, "/v1/session/"+id, body, id, "")
		if err != nil {
			fail(w, err)
			return
		}
		if res.status == http.StatusOK {
			r.recordOwner(id, backend)
			relay(w, res)
			return
		}
		if res.status == http.StatusBadRequest && bytes.Contains(res.body, []byte("already exists")) {
			if attempts > 1 {
				// A lost reply on an earlier attempt: the create landed. Read
				// the session back and answer the success the client missed.
				ires, ibk, _, ierr := r.route(ctx, http.MethodGet, "/v1/session/"+id, nil, id, backend)
				if ierr == nil && ires.status == http.StatusOK {
					var info service.SessionInfo
					if jerr := json.Unmarshal(ires.body, &info); jerr == nil {
						r.recordOwner(id, ibk)
						writeJSON(w, http.StatusOK, service.SessionResponse{ID: id, Digest: info.Digest})
						return
					}
				}
			}
			continue // id collision with unrelated state: mint a fresh one
		}
		relay(w, res)
		return
	}
	fail(w, fmt.Errorf("%w: could not mint an unused session id", ErrBackendUnavailable))
}

// handleMutate implements POST /v1/session/{id}/mutate with the
// journal-sequence retry check. A mutate with no expect_seq is made
// conditional by injecting the session's current sequence; the
// conditional form is then safe to retry across lost replies and
// failover: a 409 at exactly expect+len(mutations) proves the first
// attempt landed and converts back into its success reply. A client
// that set expect_seq itself runs its own protocol, and its 409s relay
// untouched.
func (r *Router) handleMutate(w http.ResponseWriter, ctx context.Context, id string, body []byte,
	writeJSON func(http.ResponseWriter, int, any), relay func(http.ResponseWriter, *result), fail func(http.ResponseWriter, error)) {
	var mreq service.MutateRequest
	if err := json.Unmarshal(body, &mreq); err != nil {
		writeJSON(w, http.StatusBadRequest, service.SessionResponse{ID: id, Error: "decoding request: " + err.Error()})
		return
	}
	injected := false
	if mreq.ExpectSeq == nil {
		ires, ibk, _, ierr := r.route(ctx, http.MethodGet, "/v1/session/"+id, nil, id, r.owner(id))
		if ierr != nil {
			fail(w, ierr)
			return
		}
		if ires.status != http.StatusOK {
			relay(w, ires)
			return
		}
		var info service.SessionInfo
		if jerr := json.Unmarshal(ires.body, &info); jerr != nil {
			fail(w, fmt.Errorf("%w: undecodable session info from %s: %v", ErrBackendUnavailable, ibk, jerr))
			return
		}
		r.recordOwner(id, ibk)
		expect := int64(info.Seq)
		mreq.ExpectSeq = &expect
		injected = true
		var jerr error
		body, jerr = json.Marshal(mreq)
		if jerr != nil {
			writeJSON(w, http.StatusBadRequest, service.SessionResponse{ID: id, Error: jerr.Error()})
			return
		}
	}
	res, backend, attempts, err := r.route(ctx, http.MethodPost, "/v1/session/"+id+"/mutate", body, id, r.owner(id))
	if err != nil {
		fail(w, err)
		return
	}
	if res.status == http.StatusConflict && injected && attempts > 1 {
		var sr service.SessionResponse
		if jerr := json.Unmarshal(res.body, &sr); jerr == nil &&
			sr.Seq == uint64(*mreq.ExpectSeq)+uint64(len(mreq.Mutations)) {
			// The journal-sequence check: the session sits exactly where the
			// lost first attempt left it. Answer the success the client
			// should have received; applying again would double-mutate.
			r.mutationConflictsDetected.Add(1)
			r.recordOwner(id, backend)
			writeJSON(w, http.StatusOK, service.SessionResponse{ID: id, Digest: sr.Digest, Seq: sr.Seq})
			return
		}
	}
	if res.status == http.StatusOK {
		r.recordOwner(id, backend)
	}
	relay(w, res)
}

// writeRouterMetrics renders the router counters in Prometheus text
// format — the counters serve_smoke and the chaos tests assert on.
func writeRouterMetrics(w io.Writer, st Stats) {
	alive := 0
	for _, b := range st.Backends {
		if b.Alive {
			alive++
		}
	}
	type metric struct {
		name, kind, help string
		value            float64
	}
	metrics := []metric{
		{"powersched_route_backends", "gauge", "Backends on the ring.", float64(len(st.Backends))},
		{"powersched_route_backends_alive", "gauge", "Backends currently admitted by health checks.", float64(alive)},
		{"powersched_route_sessions", "gauge", "Sessions with a recorded owner.", float64(st.Sessions)},
		{"powersched_route_proxied_total", "counter", "Requests answered through a backend.", float64(st.Proxied)},
		{"powersched_route_retries_total", "counter", "Attempts beyond a request's first.", float64(st.Retries)},
		{"powersched_route_failovers_total", "counter", "Answers served by a non-preferred backend.", float64(st.Failovers)},
		{"powersched_route_ejections_total", "counter", "Backends taken out of routing after consecutive failures.", float64(st.Ejections)},
		{"powersched_route_readmissions_total", "counter", "Backends readmitted by health probes.", float64(st.Readmissions)},
		{"powersched_route_sheds_total", "counter", "Requests shed with 503 (no backend available).", float64(st.Sheds)},
		{"powersched_route_budget_exhausted_total", "counter", "Requests shed with 429 (retry budget empty).", float64(st.BudgetExhausted)},
		{"powersched_route_migrations_total", "counter", "Sessions migrated on ring resize.", float64(st.Migrations)},
		{"powersched_route_mutation_conflicts_total", "counter", "Retried mutates detected as already landed.", float64(st.MutationConflicts)},
		{"powersched_route_sessions_recovered_total", "counter", "Sessions failed over to a new owner.", float64(st.Recovered)},
	}
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			m.name, m.help, m.name, m.kind,
			m.name, strconv.FormatFloat(m.value, 'g', -1, 64))
	}
}
