package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*httptest.Server, *Service) {
	t.Helper()
	svc := New(Config{Workers: 2})
	srv := httptest.NewServer(NewHTTPHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Close(context.Background())
	})
	return srv, svc
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

const scheduleBody = `{
	"procs": 1, "horizon": 6,
	"cost": {"model": "affine", "alpha": 2, "rate": 1},
	"jobs": [
		{"allowed": [{"proc": 0, "time": 1}, {"proc": 0, "time": 2}]},
		{"allowed": [{"proc": 0, "time": 2}, {"proc": 0, "time": 3}]}
	]
}`

// reindent returns body with its whitespace redone: compact when indent
// is empty, else indented by it. The result decodes to the same spec but
// is not byte-identical to body.
func reindent(t testing.TB, body, indent string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, []byte(body)); err != nil {
		t.Fatal(err)
	}
	if indent != "" {
		compact := buf.Bytes()
		buf = bytes.Buffer{}
		if err := json.Indent(&buf, compact, "", indent); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

func TestHTTPScheduleAndCacheHit(t *testing.T) {
	srv, _ := newTestServer(t)
	status, body := postJSON(t, srv.URL+"/v1/schedule", scheduleBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out ScheduleResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Error != "" || out.Schedule == nil || out.Schedule.Scheduled != 2 || out.Schedule.Cost != 4 {
		t.Fatalf("response %+v", out)
	}
	if out.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	// Identical instance again: served from the digest cache.
	status, body = postJSON(t, srv.URL+"/v1/schedule", scheduleBody)
	if status != http.StatusOK {
		t.Fatalf("repeat status %d", status)
	}
	var repeat ScheduleResponse
	if err := json.Unmarshal(body, &repeat); err != nil {
		t.Fatal(err)
	}
	if !repeat.CacheHit {
		t.Fatal("repeat request not served from cache")
	}
	if a, _ := json.Marshal(out.Schedule); true {
		if b, _ := json.Marshal(repeat.Schedule); !bytes.Equal(a, b) {
			t.Fatalf("cached schedule differs: %s vs %s", a, b)
		}
	}
}

func TestHTTPBatch(t *testing.T) {
	srv, _ := newTestServer(t)
	body := `{"requests": [` + scheduleBody + `,
		{"procs":1,"horizon":2,"cost":{"alpha":1,"rate":1},
		 "jobs":[{"allowed":[{"proc":0,"time":0}]},{"allowed":[{"proc":0,"time":0}]}]}
	]}`
	status, raw := postJSON(t, srv.URL+"/v1/batch", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var out BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("results = %d", len(out.Results))
	}
	if out.Results[0].Error != "" || out.Results[0].Schedule == nil {
		t.Fatalf("result 0: %+v", out.Results[0])
	}
	if out.Results[1].Error == "" || !strings.Contains(out.Results[1].Error, "scheduled") {
		t.Fatalf("result 1 should be unschedulable: %+v", out.Results[1])
	}
}

func TestHTTPStatsAndHealth(t *testing.T) {
	srv, svc := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	postJSON(t, srv.URL+"/v1/schedule", scheduleBody)
	postJSON(t, srv.URL+"/v1/schedule", scheduleBody)
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 2 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats over the wire: %+v", st)
	}
	if got := svc.Stats(); got != st {
		t.Fatalf("wire stats %+v != service stats %+v", st, got)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"bad json", "/v1/schedule", `{"procs": `, http.StatusBadRequest},
		{"bad cost model", "/v1/schedule",
			`{"procs":1,"horizon":2,"cost":{"model":"quantum"},"jobs":[]}`, http.StatusBadRequest},
		{"unschedulable", "/v1/schedule",
			`{"procs":1,"horizon":2,"cost":{},"jobs":[{"allowed":[{"proc":0,"time":0}]},{"allowed":[{"proc":0,"time":0}]}]}`,
			http.StatusUnprocessableEntity},
		{"z unreachable", "/v1/schedule",
			`{"procs":1,"horizon":2,"cost":{},"jobs":[{"allowed":[{"proc":0,"time":0}]}],"mode":"prize","z":99}`,
			http.StatusUnprocessableEntity},
		{"batch bad entry", "/v1/batch",
			`{"requests":[{"procs":1,"horizon":2,"cost":{"model":"quantum"},"jobs":[]}]}`,
			http.StatusBadRequest},
		{"trailing garbage", "/v1/schedule", scheduleBody + ` garbage`, http.StatusBadRequest},
		{"trailing second value", "/v1/schedule", scheduleBody + `{"procs":-1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, body := postJSON(t, srv.URL+tc.path, tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.want, body)
		}
		var out ScheduleResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Errorf("%s: error response not JSON: %v", tc.name, err)
		} else if out.Error == "" {
			t.Errorf("%s: no error string in %s", tc.name, body)
		}
	}
	// Wrong method on a POST route.
	resp, err := http.Get(srv.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/schedule status %d, want 405", resp.StatusCode)
	}
}

// TestHTTPBodyBufferFollowsBytes: a request that claims a 64 MiB
// Content-Length but carries a short body costs the server what the
// body holds, not what the header says. Each endpoint's body buffer
// grows as bytes arrive.
func TestHTTPBodyBufferFollowsBytes(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	h := NewHTTPHandler(svc)
	for _, tc := range []struct{ path, body string }{
		{"/v1/schedule", scheduleBody},
		{"/v1/batch", `{"requests":[` + scheduleBody + `]}`},
	} {
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
		req.ContentLength = MaxRequestBytes
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", tc.path, rec.Code, rec.Body)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
			t.Errorf("%s: %d bytes allocated for a %d-byte body that claimed %d", tc.path, got, len(tc.body), MaxRequestBytes)
		}
	}
}

func TestHTTPClosedService(t *testing.T) {
	svc := New(Config{Workers: 1})
	srv := httptest.NewServer(NewHTTPHandler(svc))
	defer srv.Close()
	svc.Close(context.Background())
	status, _ := postJSON(t, srv.URL+"/v1/schedule", scheduleBody)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", status)
	}
}

// TestHTTPRetryAfterAndMetrics: every 429/503 carries the 1 s
// Retry-After header, and GET /metrics renders the counters in
// Prometheus text format.
func TestHTTPRetryAfterAndMetrics(t *testing.T) {
	svc := New(withLimits(Config{Workers: 1}, func(l *limits) { l.maxSessions = 1 }))
	srv := httptest.NewServer(NewHTTPHandler(svc))
	defer srv.Close()

	status, _ := postJSON(t, srv.URL+"/v1/session", scheduleBody)
	if status != http.StatusOK {
		t.Fatalf("create: %d", status)
	}
	resp, err := http.Post(srv.URL+"/v1/session", "application/json", strings.NewReader(scheduleBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap create: %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("429 Retry-After = %q, want \"1\"", got)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	metrics := buf.String()
	for _, want := range []string{
		"# TYPE powersched_sessions gauge",
		"powersched_sessions 1",
		"# TYPE powersched_journal_records_total counter",
		"powersched_journal_records_total 0",
		"powersched_sessions_restored_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// A draining service answers 503, also with Retry-After.
	svc.Close(context.Background())
	resp2, err := http.Post(srv.URL+"/v1/schedule", "application/json", strings.NewReader(scheduleBody))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained schedule: %d, want 503", resp2.StatusCode)
	}
	if got := resp2.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("503 Retry-After = %q, want \"1\"", got)
	}
}

// TestHTTPSolveTimeout: a solve past the solve deadline answers 503 +
// Retry-After while the underlying solve finishes in the background and
// primes the cache — the advertised retry actually works.
func TestHTTPSolveTimeout(t *testing.T) {
	svc := New(withLimits(Config{Workers: 1}, func(l *limits) { l.solveDeadline = time.Nanosecond }))
	srv := httptest.NewServer(NewHTTPHandler(svc))
	defer srv.Close()
	defer svc.Close(context.Background())

	status, body := postJSON(t, srv.URL+"/v1/session", scheduleBody)
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, body)
	}
	var created SessionResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	before := svc.submitted.Load()
	resp, err := http.Post(srv.URL+"/v1/session/"+created.ID+"/solve", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out solve: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("timed-out solve has no Retry-After")
	}
	// The abandoned solve still completes under the session lock and
	// populates the digest cache; a patient retry succeeds from there.
	svc.sessMu.Lock()
	h := svc.sessions[created.ID]
	svc.sessMu.Unlock()
	if h == nil {
		t.Fatalf("session %s is not registered", created.ID)
	}
	// The handler can give up before the background solve takes the
	// session lock; wait until it has (it counts the submission under
	// the lock), or the Lock below could win the race and look too early.
	for deadline := time.Now().Add(10 * time.Second); svc.submitted.Load() == before; {
		if time.Now().After(deadline) {
			t.Fatal("abandoned solve never started")
		}
		time.Sleep(time.Millisecond)
	}
	h.mu.Lock() // blocks until the background solve releases the session
	key := cacheKey(Request{InstanceKey: h.digest, Mode: ModeAll, Opts: h.opts})
	h.mu.Unlock()
	if _, ok := svc.cacheGet(key); !ok {
		t.Fatal("abandoned solve did not prime the digest cache")
	}
}

// TestHTTPLegacyWorkersFieldIgnored: clients written against the old
// wire format may still send the removed per-request fields "workers"
// (intra-solve parallelism) and "solver" (the retired solver-tier
// selector, whose values were "exact" and the bounded-memory tier). A
// /v1/schedule request and a session create carrying either must decode,
// digest and solve byte-identically to the same request without it.
func TestHTTPLegacyWorkersFieldIgnored(t *testing.T) {
	plain, err := DecodeRequest([]byte(scheduleBody))
	if err != nil {
		t.Fatal(err)
	}
	// A fresh service for the schedule and another for the session, so
	// neither answer comes from the other's cache entry.
	fresh := func() string {
		svc := New(Config{Workers: 1})
		srv := httptest.NewServer(NewHTTPHandler(svc))
		t.Cleanup(func() {
			srv.Close()
			svc.Close(context.Background())
		})
		return srv.URL
	}
	serve := func(body string) (schedule, sessionSolve []byte, digest string) {
		status, schedule := postJSON(t, fresh()+"/v1/schedule", body)
		if status != http.StatusOK {
			t.Fatalf("schedule status %d: %s", status, schedule)
		}
		url := fresh()
		status, created := postJSON(t, url+"/v1/session", body)
		if status != http.StatusOK {
			t.Fatalf("session create status %d: %s", status, created)
		}
		var sr SessionResponse
		if err := json.Unmarshal(created, &sr); err != nil {
			t.Fatal(err)
		}
		status, sessionSolve = postJSON(t, url+"/v1/session/"+sr.ID+"/solve", "")
		if status != http.StatusOK {
			t.Fatalf("session solve status %d: %s", status, sessionSolve)
		}
		return schedule, sessionSolve, sr.Digest
	}
	wantSchedule, wantSession, wantDigest := serve(scheduleBody)
	for _, field := range []string{`"workers": 4`, `"solver": "streaming"`, `"solver": "exact"`} {
		legacyBody := strings.Replace(scheduleBody, `"procs": 1,`, field+`, "procs": 1,`, 1)
		if legacyBody == scheduleBody {
			t.Fatal("failed to add the legacy field")
		}
		legacy, err := DecodeRequest([]byte(legacyBody))
		if err != nil {
			t.Fatalf("%s: legacy request rejected: %v", field, err)
		}
		if legacy.InstanceKey != plain.InstanceKey || cacheKey(legacy) != cacheKey(plain) {
			t.Fatalf("%s: legacy digest %s / cache key %s, want %s / %s",
				field, legacy.InstanceKey, cacheKey(legacy), plain.InstanceKey, cacheKey(plain))
		}
		gotSchedule, gotSession, gotDigest := serve(legacyBody)
		if !bytes.Equal(gotSchedule, wantSchedule) {
			t.Fatalf("%s: legacy /v1/schedule answer differs:\n%s\nwant\n%s", field, gotSchedule, wantSchedule)
		}
		if gotDigest != wantDigest || gotDigest != plain.InstanceKey {
			t.Fatalf("%s: legacy session digest %s, want %s", field, gotDigest, wantDigest)
		}
		if !bytes.Equal(gotSession, wantSession) {
			t.Fatalf("%s: legacy session solve differs:\n%s\nwant\n%s", field, gotSession, wantSession)
		}
	}
}

// serveRecorded runs one request through h in process.
func serveRecorded(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body)))
	return rec
}

// wantScheduleReply encodes the /v1/schedule reply for the schedule in
// key's cache entry the way the handler has always written it:
// json.Encoder with a two-space indent and a trailing newline.
func wantScheduleReply(t *testing.T, svc *Service, key string, cacheHit bool) []byte {
	t.Helper()
	sc, ok := svc.cacheGet(key)
	if !ok {
		t.Fatalf("no cache entry for %s", key)
	}
	spec := EncodeSchedule(sc)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ScheduleResponse{Schedule: &spec, CacheHit: cacheHit}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sessionReput re-puts key's entry the way a session solve on the same
// instance does when it misses (solveSessionLocked): it solves the
// session and puts the schedule under the shared cache key.
func sessionReput(svc *Service, id, key string) error {
	h, err := svc.lockSession(id)
	if err != nil {
		return err
	}
	defer h.mu.Unlock()
	if got := cacheKey(Request{InstanceKey: h.digest, Mode: ModeAll, Opts: h.opts}); got != key {
		return fmt.Errorf("session cache key %s, want the schedule key %s", got, key)
	}
	out, err := h.sess.Solve()
	if err != nil {
		return err
	}
	svc.cachePut(key, out)
	return nil
}

// TestHTTPStoredReplyMatchesDigestHit: a byte-identical /v1/schedule
// body answered from the stored reply gets the status, Content-Type,
// bytes and counter ticks of a digest hit decoded the long way, through
// eviction, a session re-put of the entry, trailing data, an oversized
// body and Close.
func TestHTTPStoredReplyMatchesDigestHit(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	h := NewHTTPHandler(svc)
	req, err := DecodeRequest([]byte(scheduleBody))
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(req)
	variant := reindent(t, scheduleBody, "\t")
	stored := func(body string) bool {
		svc.cacheMu.Lock()
		defer svc.cacheMu.Unlock()
		_, ok := svc.byBody[sha256.Sum256([]byte(body))]
		return ok
	}
	counters := func() [3]uint64 {
		st := svc.Stats()
		return [3]uint64{st.Submitted, st.Completed, st.CacheHits}
	}
	// post checks one reply and returns the counter deltas it caused.
	post := func(step, body string, wantStatus int, want []byte) [3]uint64 {
		t.Helper()
		before := counters()
		rec := serveRecorded(h, body)
		after := counters()
		if rec.Code != wantStatus {
			t.Fatalf("%s: status %d, want %d (%s)", step, rec.Code, wantStatus, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", step, ct)
		}
		if want != nil && !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: reply\n%s\nwant\n%s", step, rec.Body, want)
		}
		return [3]uint64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}
	}
	hitTicks := [3]uint64{1, 1, 1}
	// hitTwice posts body on the digest path (it must not be stored yet),
	// then again on the stored path, and checks both against want.
	hitTwice := func(step, body string) {
		t.Helper()
		if stored(body) {
			t.Fatalf("%s: body stored before its digest hit", step)
		}
		want := wantScheduleReply(t, svc, key, true)
		if d := post(step+" digest hit", body, http.StatusOK, want); d != hitTicks {
			t.Fatalf("%s digest hit: counter deltas %v, want %v", step, d, hitTicks)
		}
		if !stored(body) {
			t.Fatalf("%s: digest hit stored no reply", step)
		}
		if d := post(step+" stored hit", body, http.StatusOK, want); d != hitTicks {
			t.Fatalf("%s stored hit: counter deltas %v, want %v", step, d, hitTicks)
		}
	}

	post("miss", scheduleBody, http.StatusOK, nil)
	if stored(scheduleBody) {
		t.Fatal("a miss stored a reply")
	}
	if got := serveRecorded(h, variant).Body.Bytes(); !bytes.Equal(got, wantScheduleReply(t, svc, key, true)) {
		t.Fatalf("whitespace variant:\n%s", got)
	}
	if d := post("variant repeat", variant, http.StatusOK, wantScheduleReply(t, svc, key, true)); d != hitTicks {
		t.Fatalf("variant repeat: counter deltas %v", d)
	}
	// Filling for the original body replaces the variant's stored reply:
	// an entry holds one.
	hitTwice("original", scheduleBody)
	if stored(variant) {
		t.Fatal("entry holds two stored replies")
	}

	// Eviction takes the stored reply and its index with the entry.
	for i := 0; i <= cacheEntries; i++ {
		other, err := BuildRequest(testSpec(2, 16, 10, CostSpec{Model: "affine", Alpha: float64(2 + i), Rate: 1}))
		if err != nil {
			t.Fatal(err)
		}
		if res := svc.Do(context.Background(), other); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if _, ok := svc.cacheGet(key); ok || stored(scheduleBody) {
		t.Fatalf("entry survived eviction (stored reply %v)", stored(scheduleBody))
	}
	if len(svc.byBody) != 0 {
		t.Fatalf("%d body index entries outlive their cache entries", len(svc.byBody))
	}
	if d := post("miss after eviction", scheduleBody, http.StatusOK, nil); d[2] != 0 {
		t.Fatalf("post-eviction request was a hit: %v", d)
	}
	hitTwice("after eviction", scheduleBody)

	// A session solve on the same instance re-puts the entry and drops
	// the reply encoded from the old schedule.
	var spec InstanceSpec
	if err := json.Unmarshal([]byte(scheduleBody), &spec); err != nil {
		t.Fatal(err)
	}
	id, _, err := svc.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sessionReput(svc, id, key); err != nil {
		t.Fatal(err)
	}
	hitTwice("after session re-put", scheduleBody)

	// Anything but the stored bytes takes the full path, errors included.
	post("trailing garbage", scheduleBody+" garbage", http.StatusBadRequest,
		[]byte("{\n  \"error\": \"decoding request: unexpected data after the top-level JSON value\",\n  \"cache_hit\": false\n}\n"))
	post("trailing value", scheduleBody+`{"procs":-1}`, http.StatusBadRequest,
		[]byte("{\n  \"error\": \"decoding request: unexpected data after the top-level JSON value\",\n  \"cache_hit\": false\n}\n"))
	oversized := strings.TrimSuffix(scheduleBody, "}") + `, "pad": "` + strings.Repeat("x", MaxRequestBytes) + `"}`
	post("oversized", oversized, http.StatusBadRequest,
		[]byte("{\n  \"error\": \"decoding request: http: request body too large\",\n  \"cache_hit\": false\n}\n"))

	// A closed service refuses a stored body like any other.
	if !stored(scheduleBody) {
		t.Fatal("stored reply lost before Close")
	}
	svc.Close(context.Background())
	for _, body := range []string{scheduleBody, variant} {
		rec := serveRecorded(h, body)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "1" {
			t.Fatalf("after Close: status %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
		}
	}
}

// TestHTTPStoredReplyConcurrent: clients posting the stored body and
// whitespace variants race sessions re-putting the same cache entry;
// every 200 reply is the same bytes. Run under -race.
func TestHTTPStoredReplyConcurrent(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close(context.Background())
	h := NewHTTPHandler(svc)
	req, err := DecodeRequest([]byte(scheduleBody))
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(req)
	var spec InstanceSpec
	if err := json.Unmarshal([]byte(scheduleBody), &spec); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 2)
	for i := range ids {
		if ids[i], _, err = svc.CreateSession(spec); err != nil {
			t.Fatal(err)
		}
	}
	serveRecorded(h, scheduleBody)
	want := wantScheduleReply(t, svc, key, true)
	bodies := []string{scheduleBody, reindent(t, scheduleBody, ""), reindent(t, scheduleBody, "\t")}

	const clients, posts = 6, 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if err := sessionReput(svc, id, key); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(id)
	}
	errs := make(chan string, clients*posts)
	var posters sync.WaitGroup
	for c := 0; c < clients; c++ {
		posters.Add(1)
		go func(c int) {
			defer posters.Done()
			for i := 0; i < posts; i++ {
				rec := serveRecorded(h, bodies[(c+i)%len(bodies)])
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
					errs <- fmt.Sprintf("client %d post %d: status %d\n%s", c, i, rec.Code, rec.Body)
				}
			}
		}(c)
	}
	posters.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := wantScheduleReply(t, svc, key, true); !bytes.Equal(got, want) {
		t.Fatalf("entry's schedule changed under re-puts:\n%s", got)
	}
}
