package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/sched"
)

// ScheduleResponse is the /v1/schedule reply (and each /v1/batch entry).
type ScheduleResponse struct {
	Schedule *ScheduleSpec `json:"schedule,omitempty"`
	Error    string        `json:"error,omitempty"`
	CacheHit bool          `json:"cache_hit"`
}

// BatchRequest is the /v1/batch body.
type BatchRequest struct {
	Requests []InstanceSpec `json:"requests"`
}

// BatchResponse is the /v1/batch reply, aligned by index with the body.
type BatchResponse struct {
	Results []ScheduleResponse `json:"results"`
}

// MaxRequestBytes bounds request bodies so a hostile client cannot make
// the decoder buffer unbounded input.
const MaxRequestBytes = 64 << 20

// SessionResponse is the reply to session create/mutate/release calls.
// Seq is the session's mutation sequence after the call; on a 409 it is
// the current sequence the conflicting caller must reconcile against.
type SessionResponse struct {
	ID     string `json:"id,omitempty"`
	Digest string `json:"digest,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
	Error  string `json:"error,omitempty"`
}

// MutateRequest is the /v1/session/{id}/mutate body. ExpectSeq, when
// present, makes the mutate conditional: it applies only if the
// session's sequence equals it (409 + current seq otherwise) — the
// handshake that makes mutation retries safe across lost replies.
type MutateRequest struct {
	Mutations []MutationSpec `json:"mutations"`
	ExpectSeq *int64         `json:"expect_seq,omitempty"`
}

// NewHTTPHandler binds svc to the JSON-over-HTTP surface:
//
//	POST   /v1/schedule              one InstanceSpec in, ScheduleResponse out
//	POST   /v1/batch                 BatchRequest in, BatchResponse out
//	POST   /v1/session               InstanceSpec in, SessionResponse{id,digest} out
//	PUT    /v1/session/{id}          create under a caller-chosen id (router-minted)
//	POST   /v1/session/{id}/mutate   MutateRequest in, SessionResponse{digest,seq} out
//	POST   /v1/session/{id}/solve    ScheduleResponse out (digest-cached)
//	POST   /v1/session/{id}/release  unload it, leaving the journal for the next owner
//	GET    /v1/session/{id}          SessionInfo out
//	DELETE /v1/session/{id}          drop the session
//	GET    /healthz                  liveness
//	GET    /stats                    Stats counters
//
// Infeasible instances (unschedulable, value unreachable) answer 422 with
// the error in the body; malformed requests answer 400; unknown session
// ids answer 404; a conditional mutate whose expect_seq does not match
// answers 409 with the current seq; a draining service, a storage
// failure, or a solve past SolveDeadline answers 503; the session cap
// answers 429. Every 429/503 carries a Retry-After header (1 s) so
// well-behaved clients back off instead of hammering a draining or
// degraded server. GET /metrics exposes the Stats counters in
// Prometheus text format.
//
// The three solving endpoints get one SolveDeadline per HTTP request,
// a whole batch included, so every answer is written before the
// server's write timeout.
//
// A /v1/schedule digest hit stores its encoded reply in the cache entry,
// indexed by the sha256 of the request body; a byte-identical body is
// then answered from those bytes without decoding, digesting or
// encoding. Any other body (whitespace or field order changed, trailing
// data, errors) takes the full path.
func NewHTTPHandler(svc *Service) http.Handler {
	retryAfterSecs := strconv.Itoa(int(retryAfter / time.Second))
	writeJSON := func(w http.ResponseWriter, status int, v any) {
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", retryAfterSecs)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(encodeJSON(v)) //nolint:errcheck // the response is already committed
	}
	writeReply := func(w http.ResponseWriter, reply []byte) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(reply) //nolint:errcheck // the response is already committed
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedule", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, ScheduleResponse{Error: err.Error()})
			return
		}
		sum := sha256.Sum256(body)
		if reply, ok := svc.storedReply(sum); ok {
			writeReply(w, reply)
			return
		}
		var spec InstanceSpec
		if err := decodeJSON(body, &spec); err != nil {
			writeJSON(w, http.StatusBadRequest, ScheduleResponse{Error: err.Error()})
			return
		}
		req, err := BuildRequest(spec)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, ScheduleResponse{Error: err.Error()})
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), svc.lim.solveDeadline)
		defer cancel()
		key := cacheKey(req)
		res, stored := svc.do(ctx, req, key)
		if stored == nil {
			writeJSON(w, statusFor(res.Err), toResponse(res))
			return
		}
		// A digest hit: encode once, then write and store the same bytes.
		reply := encodeJSON(toResponse(res))
		writeReply(w, reply)
		svc.cacheFill(key, stored, sum, reply)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var batch BatchRequest
		if err := decodeBody(w, r, &batch); err != nil {
			writeJSON(w, http.StatusBadRequest, ScheduleResponse{Error: err.Error()})
			return
		}
		reqs := make([]Request, len(batch.Requests))
		for i, spec := range batch.Requests {
			req, err := BuildRequest(spec)
			if err != nil {
				writeJSON(w, http.StatusBadRequest,
					ScheduleResponse{Error: fmt.Sprintf("request %d: %v", i, err)})
				return
			}
			reqs[i] = req
		}
		ctx, cancel := context.WithTimeout(r.Context(), svc.lim.solveDeadline)
		defer cancel()
		results := svc.SubmitBatch(ctx, reqs)
		out := BatchResponse{Results: make([]ScheduleResponse, len(results))}
		for i, res := range results {
			out.Results[i] = toResponse(res)
		}
		// Per-request failures live inside each entry; the envelope is 200.
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("POST /v1/session", func(w http.ResponseWriter, r *http.Request) {
		var spec InstanceSpec
		if err := decodeBody(w, r, &spec); err != nil {
			writeJSON(w, http.StatusBadRequest, SessionResponse{Error: err.Error()})
			return
		}
		id, digest, err := svc.CreateSession(spec)
		if err != nil {
			writeJSON(w, statusFor(err), SessionResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, SessionResponse{ID: id, Digest: digest})
	})
	mux.HandleFunc("PUT /v1/session/{id}", func(w http.ResponseWriter, r *http.Request) {
		var spec InstanceSpec
		if err := decodeBody(w, r, &spec); err != nil {
			writeJSON(w, http.StatusBadRequest, SessionResponse{Error: err.Error()})
			return
		}
		id := r.PathValue("id")
		digest, err := svc.CreateSessionWithID(id, spec)
		if err != nil {
			writeJSON(w, statusFor(err), SessionResponse{ID: id, Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, SessionResponse{ID: id, Digest: digest})
	})
	mux.HandleFunc("POST /v1/session/{id}/mutate", func(w http.ResponseWriter, r *http.Request) {
		var body MutateRequest
		if err := decodeBody(w, r, &body); err != nil {
			writeJSON(w, http.StatusBadRequest, SessionResponse{Error: err.Error()})
			return
		}
		id := r.PathValue("id")
		expect := int64(-1)
		if body.ExpectSeq != nil {
			expect = *body.ExpectSeq
		}
		digest, seq, err := svc.MutateSessionAt(id, expect, body.Mutations)
		if err != nil {
			writeJSON(w, statusFor(err), SessionResponse{ID: id, Digest: digest, Seq: seq, Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, SessionResponse{ID: id, Digest: digest, Seq: seq})
	})
	mux.HandleFunc("POST /v1/session/{id}/release", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := svc.ReleaseSession(id); err != nil {
			writeJSON(w, statusFor(err), SessionResponse{ID: id, Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, SessionResponse{ID: id})
	})
	mux.HandleFunc("POST /v1/session/{id}/solve", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), svc.lim.solveDeadline)
		defer cancel()
		res := svc.SolveSession(ctx, r.PathValue("id"))
		writeJSON(w, statusFor(res.Err), toResponse(res))
	})
	mux.HandleFunc("GET /v1/session/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := svc.SessionInfo(r.PathValue("id"))
		if err != nil {
			writeJSON(w, statusFor(err), SessionResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("DELETE /v1/session/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := svc.DropSession(r.PathValue("id")); err != nil {
			writeJSON(w, statusFor(err), SessionResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, SessionResponse{ID: r.PathValue("id")})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, svc.Stats())
	})
	return mux
}

// writeMetrics renders the Stats snapshot in the Prometheus text
// exposition format, durability counters included — the scrape surface
// the ROADMAP's distributed tier watches.
func writeMetrics(w io.Writer, st Stats) {
	type metric struct {
		name, kind, help string
		value            float64
	}
	metrics := []metric{
		{"powersched_workers", "gauge", "Solver goroutines in the pool.", float64(st.Workers)},
		{"powersched_queue_depth", "gauge", "Requests waiting in the queue right now.", float64(st.QueueDepth)},
		{"powersched_queue_cap", "gauge", "Configured queue bound.", float64(st.QueueCap)},
		{"powersched_cache_size", "gauge", "Entries in the digest result cache.", float64(st.CacheSize)},
		{"powersched_sessions", "gauge", "Live solver sessions.", float64(st.Sessions)},
		{"powersched_submitted_total", "counter", "Requests accepted into the service.", float64(st.Submitted)},
		{"powersched_completed_total", "counter", "Requests answered (solved or cached).", float64(st.Completed)},
		{"powersched_errors_total", "counter", "Requests answered with an error.", float64(st.Errors)},
		{"powersched_canceled_total", "counter", "Requests abandoned before solving (timeouts included).", float64(st.Canceled)},
		{"powersched_cache_hits_total", "counter", "Requests answered from the digest cache.", float64(st.CacheHits)},
		{"powersched_cache_misses_total", "counter", "Requests solved and cached.", float64(st.CacheMisses)},
		{"powersched_model_reuses_total", "counter", "Worker reuses of a prebuilt model.", float64(st.ModelReuses)},
		{"powersched_journal_records_total", "counter", "Journal records written (snapshots included).", float64(st.JournalRecords)},
		{"powersched_journal_fsyncs_total", "counter", "Journal fsyncs issued.", float64(st.JournalFsyncs)},
		{"powersched_journal_compactions_total", "counter", "Journals folded to a snapshot record.", float64(st.JournalCompactions)},
		{"powersched_sessions_restored_total", "counter", "Sessions loaded from a journal on first touch.", float64(st.SessionsRestored)},
		{"powersched_journals_dropped_corrupt_total", "counter", "Journals quarantined as corrupt on first touch.", float64(st.JournalsDropped)},
		{"powersched_journal_errors_total", "counter", "Live-path journal failures (each drops its session).", float64(st.JournalErrors)},
	}
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			m.name, m.help, m.name, m.kind,
			m.name, strconv.FormatFloat(m.value, 'g', -1, 64))
	}
}

// encodeJSON renders v as the surface's indented JSON with a trailing
// newline (json.Encoder's SetIndent form): every reply, stored hit
// replies included, is encoded here. A value JSON cannot carry, such as
// a NaN, encodes to nil: an empty body.
func encodeJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil
	}
	return append(b, '\n')
}

// decodeBody reads the request body and decodes it into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	return decodeJSON(body, v)
}

// readBody reads the whole request body, at most MaxRequestBytes of it.
// The buffer grows as bytes arrive, never from the client's
// Content-Length, so a header alone cannot make the server allocate.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	return body, nil
}

// decodeJSON decodes exactly one JSON value from body: anything but
// whitespace after it is an error, as it is for the CLI's DecodeRequest.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("decoding request: unexpected data after the top-level JSON value")
	}
	return nil
}

func toResponse(res Result) ScheduleResponse {
	if res.Err != nil {
		return ScheduleResponse{Error: res.Err.Error(), CacheHit: res.CacheHit}
	}
	spec := EncodeSchedule(res.Schedule)
	return ScheduleResponse{Schedule: &spec, CacheHit: res.CacheHit}
}

func statusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, sched.ErrUnschedulable), errors.Is(err, sched.ErrValueUnreachable):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrClosed), errors.Is(err, ErrDurability),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNoSession):
		return http.StatusNotFound
	case errors.Is(err, ErrSeqConflict):
		return http.StatusConflict
	case errors.Is(err, ErrTooManySessions):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}
