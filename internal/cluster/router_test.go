package cluster

// Router tests run real service backends (httptest servers over one
// shared StateDir, first-touch restore) behind a Router whose transport is a
// netfault seam, so every failure mode here is the injected kind the
// chaos matrix sweeps: dropped replies, dead backends, torn responses.
//
// Byte-level comparisons normalize the cache_hit field: cache
// temperature is observability, not part of the answer, and a failover
// legitimately answers cold where a long-lived process answers warm.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netfault"
	"repro/internal/service"
)

func discardLogf(string, ...any) {}

func clusterSpec() service.InstanceSpec {
	spec := service.InstanceSpec{
		Procs:   2,
		Horizon: 12,
		Cost:    service.CostSpec{Model: "affine", Alpha: 3, Rate: 1},
	}
	for j := 0; j < 4; j++ {
		spec.Jobs = append(spec.Jobs, service.JobSpec{Allowed: []service.SlotSpec{
			{Proc: 0, Time: 2 + j}, {Proc: 1, Time: 2 + j}, {Proc: 0, Time: 7 + j},
		}})
	}
	return spec
}

func clusterJob() service.JobSpec {
	return service.JobSpec{Allowed: []service.SlotSpec{
		{Proc: 1, Time: 3}, {Proc: 1, Time: 4}, {Proc: 1, Time: 5},
	}}
}

// tc is one router over n real backends sharing a StateDir.
type tc struct {
	t       testing.TB
	dir     string
	servers []*httptest.Server
	svcs    []*service.Service
	tr      *netfault.Transport
	r       *Router
	front   *httptest.Server
}

func startBackend(t testing.TB, dir string) (*service.Service, *httptest.Server) {
	t.Helper()
	svc, err := service.Open(service.Config{Workers: 1, StateDir: dir, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHTTPHandler(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close(context.Background())
	})
	return svc, ts
}

func newTestCluster(t testing.TB, n int, mut func(*tuning)) *tc {
	t.Helper()
	c := &tc{t: t, dir: t.TempDir(), tr: netfault.NewTransport(nil, netfault.Plan{})}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		svc, ts := startBackend(t, c.dir)
		c.svcs = append(c.svcs, svc)
		c.servers = append(c.servers, ts)
		urls = append(urls, ts.URL)
	}
	tune := tuning{
		requestTimeout: 2 * time.Second,
		maxAttempts:    maxAttempts,
		backoffBase:    time.Millisecond,
		backoffCap:     4 * time.Millisecond,
		retryRate:      1000,
		retryBurst:     1000,
		// Probing off by default so Nth-trip failpoints stay deterministic;
		// probe-driven tests shorten this.
		probeInterval: time.Hour,
	}
	if mut != nil {
		mut(&tune)
	}
	cfg := Config{Backends: urls, Transport: c.tr, Logf: discardLogf, tune: &tune}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.r = r
	c.front = httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		c.front.Close()
		r.Close()
	})
	return c
}

func doJSON(t *testing.T, method, url string, v any) (int, http.Header, []byte) {
	t.Helper()
	var body io.Reader
	if v != nil {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// scheduleBytes canonicalizes a ScheduleResponse body down to the
// schedule itself, failing on error responses.
func scheduleBytes(t *testing.T, body []byte) []byte {
	t.Helper()
	var resp service.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding schedule response %q: %v", body, err)
	}
	if resp.Error != "" || resp.Schedule == nil {
		t.Fatalf("schedule response carries no schedule: %s", body)
	}
	data, err := json.Marshal(resp.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func createViaRouter(t *testing.T, c *tc) (id, digest string) {
	t.Helper()
	status, _, body := doJSON(t, http.MethodPost, c.front.URL+"/v1/session", clusterSpec())
	if status != http.StatusOK {
		t.Fatalf("create via router: %d %s", status, body)
	}
	var sr service.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ID == "" || sr.Digest == "" {
		t.Fatalf("create reply missing id or digest: %s", body)
	}
	return sr.ID, sr.Digest
}

func solveViaRouter(t *testing.T, c *tc, id string) []byte {
	t.Helper()
	status, _, body := doJSON(t, http.MethodPost, c.front.URL+"/v1/session/"+id+"/solve", nil)
	if status != http.StatusOK {
		t.Fatalf("solve %s via router: %d %s", id, status, body)
	}
	return scheduleBytes(t, body)
}

func TestRouterProxiesByteIdentical(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	spec := clusterSpec()
	status, _, viaRouter := doJSON(t, http.MethodPost, c.front.URL+"/v1/schedule", spec)
	if status != http.StatusOK {
		t.Fatalf("schedule via router: %d %s", status, viaRouter)
	}
	for i, ts := range c.servers {
		st, _, direct := doJSON(t, http.MethodPost, ts.URL+"/v1/schedule", spec)
		if st != http.StatusOK {
			t.Fatalf("schedule direct to backend %d: %d %s", i, st, direct)
		}
		if !bytes.Equal(scheduleBytes(t, viaRouter), scheduleBytes(t, direct)) {
			t.Fatalf("backend %d disagrees with routed answer:\n%s\nvs\n%s", i, direct, viaRouter)
		}
	}
	if st := c.r.Stats(); st.Proxied == 0 {
		t.Fatal("proxied counter did not move")
	}
}

func TestRouterRetriesTransportFaults(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	c.tr.SetPlan(netfault.Plan{FailRoundTrip: 1})
	status, _, body := doJSON(t, http.MethodPost, c.front.URL+"/v1/schedule", clusterSpec())
	if status != http.StatusOK {
		t.Fatalf("schedule with a failed first attempt: %d %s", status, body)
	}
	scheduleBytes(t, body)
	if st := c.r.Stats(); st.Retries == 0 {
		t.Fatal("a transport fault must be retried, retries counter is 0")
	}
}

func TestRouterRetriesPartialReply(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	c.tr.SetPlan(netfault.Plan{PartialBody: 1, Partial: 10})
	status, _, body := doJSON(t, http.MethodPost, c.front.URL+"/v1/schedule", clusterSpec())
	if status != http.StatusOK {
		t.Fatalf("schedule with a torn first reply: %d %s", status, body)
	}
	// The relayed body must be complete, never the 10-byte torn prefix.
	scheduleBytes(t, body)
	if st := c.r.Stats(); st.Retries == 0 {
		t.Fatal("a torn reply must be retried, retries counter is 0")
	}
}

// TestRouterRejectsOversizedReply: a backend reply longer than the
// buffer bound answers 502 naming the limit, where a cut-off prefix used
// to relay as a 200. It is not retried and does not count against the
// backend's health.
func TestRouterRejectsOversizedReply(t *testing.T) {
	var calls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		chunk := bytes.Repeat([]byte(" "), 1<<20)
		for left := service.MaxRequestBytes + 10; left > 0; left -= len(chunk) {
			w.Write(chunk[:min(left, len(chunk))])
		}
	}))
	defer backend.Close()
	tune := tuning{
		requestTimeout: 10 * time.Second,
		maxAttempts:    maxAttempts,
		backoffBase:    time.Millisecond,
		backoffCap:     4 * time.Millisecond,
		retryRate:      1000,
		retryBurst:     1000,
		probeInterval:  time.Hour,
	}
	r, err := New(Config{Backends: []string{backend.URL}, Transport: netfault.NewTransport(nil, netfault.Plan{}),
		Logf: discardLogf, tune: &tune})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	status, _, body := doJSON(t, http.MethodPost, front.URL+"/v1/schedule", clusterSpec())
	if status != http.StatusBadGateway {
		t.Fatalf("oversized reply relayed as %d (%d bytes)", status, len(body))
	}
	if want := strconv.Itoa(service.MaxRequestBytes); !bytes.Contains(body, []byte(want)) {
		t.Fatalf("502 body does not name the %s-byte limit: %s", want, body)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("backend called %d times, want 1: an oversized reply is not retried", n)
	}
	if st := r.Stats(); st.Retries != 0 || st.Ejections != 0 {
		t.Fatalf("retries %d, ejections %d: want neither", st.Retries, st.Ejections)
	}
	b := r.state(backend.URL)
	b.mu.Lock()
	fails := b.fails
	b.mu.Unlock()
	if fails != 0 {
		t.Fatalf("oversized reply counted %d health failures", fails)
	}
}

func TestRouterFailoverRecoversSession(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	id, _ := createViaRouter(t, c)
	muts := service.MutateRequest{Mutations: []service.MutationSpec{{Op: "add_job", Job: ptrJob(clusterJob())}}}
	if status, _, body := doJSON(t, http.MethodPost, c.front.URL+"/v1/session/"+id+"/mutate", muts); status != http.StatusOK {
		t.Fatalf("mutate via router: %d %s", status, body)
	}
	want := solveViaRouter(t, c, id)

	owner := c.r.owner(id)
	if owner == "" {
		t.Fatal("router recorded no owner for the session")
	}
	for i, ts := range c.servers {
		if ts.URL == owner {
			c.servers[i].Close() // kill the owner; journal stays on shared disk
		}
	}
	got := solveViaRouter(t, c, id)
	if !bytes.Equal(got, want) {
		t.Fatalf("failover answer differs from pre-failure answer:\n%s\nvs\n%s", got, want)
	}
	st := c.r.Stats()
	if st.Recovered == 0 {
		t.Fatal("failover must count a recovered session")
	}
	if st.Failovers == 0 {
		t.Fatal("failover must count a non-preferred answer")
	}
	if newOwner := c.r.owner(id); newOwner == owner || newOwner == "" {
		t.Fatalf("ownership did not move off the dead backend: %q", newOwner)
	}
}

func TestRouterCreateRetryDoesNotDuplicate(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	// Trip 1 is the PUT create: the backend creates the session, the
	// reply is lost. The retried PUT (possibly on another backend over
	// the shared dir) answers "already exists", which the router converts
	// into the landed create's success.
	c.tr.SetPlan(netfault.Plan{DropReply: 1})
	id, digest := createViaRouter(t, c)
	if digest == "" {
		t.Fatal("recovered create lost its digest")
	}
	info := c.r.ringInfo()
	if n := info["sessions"].(int); n != 1 {
		t.Fatalf("lost-reply create duplicated sessions: %d recorded", n)
	}
	solveViaRouter(t, c, id) // the recovered id must be live
}

func TestRouterMutateRetryDoesNotDoubleApply(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	id, _ := createViaRouter(t, c)

	// Reference: the same spec mutated exactly once on a pristine
	// in-memory service. The digest is a pure function of instance
	// content, so it must match across processes.
	ref := service.New(service.Config{Workers: 1})
	defer ref.Close(context.Background())
	refID, _, err := ref.CreateSession(clusterSpec())
	if err != nil {
		t.Fatal(err)
	}
	muts := []service.MutationSpec{{Op: "add_job", Job: ptrJob(clusterJob())}}
	wantDigest, err := ref.MutateSession(refID, muts)
	if err != nil {
		t.Fatal(err)
	}

	// Trip 1 is the router's expect_seq-priming GET, trip 2 the mutate
	// whose reply is lost after the backend applied it. The retried
	// conditional mutate answers 409 at exactly expect+1, which the
	// router reports as the success the client should have seen.
	c.tr.SetPlan(netfault.Plan{DropReply: 2})
	status, _, body := doJSON(t, http.MethodPost, c.front.URL+"/v1/session/"+id+"/mutate",
		service.MutateRequest{Mutations: muts})
	if status != http.StatusOK {
		t.Fatalf("retried mutate: %d %s", status, body)
	}
	var sr service.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Digest != wantDigest {
		t.Fatalf("retried mutate digest %s, single-apply reference %s", sr.Digest, wantDigest)
	}
	if sr.Seq != 1 {
		t.Fatalf("retried mutate reports seq %d, want 1 (applied exactly once)", sr.Seq)
	}
	if st := c.r.Stats(); st.MutationConflicts != 1 {
		t.Fatalf("mutation_conflicts = %d, want 1", st.MutationConflicts)
	}
	// Differential: the session's journal really holds one application.
	status, _, body = doJSON(t, http.MethodGet, c.front.URL+"/v1/session/"+id, nil)
	if status != http.StatusOK {
		t.Fatalf("info after retried mutate: %d %s", status, body)
	}
	var info service.SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 || info.Digest != wantDigest {
		t.Fatalf("session holds seq %d digest %s, want 1 %s", info.Seq, info.Digest, wantDigest)
	}
}

func TestRouterSheds503WhenNoBackendAnswers(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	for _, ts := range c.servers {
		ts.Close()
	}
	status, header, body := doJSON(t, http.MethodPost, c.front.URL+"/v1/schedule", clusterSpec())
	if status != http.StatusServiceUnavailable {
		t.Fatalf("all backends dead: %d %s, want 503", status, body)
	}
	if header.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}
	if st := c.r.Stats(); st.Sheds == 0 {
		t.Fatal("sheds counter did not move")
	}
}

func TestRouterSheds429WhenRetryBudgetEmpty(t *testing.T) {
	c := newTestCluster(t, 2, func(tune *tuning) {
		tune.retryRate = 0.0001 // effectively no refill inside the test
		tune.retryBurst = 1
	})
	for _, ts := range c.servers {
		ts.Close()
	}
	status, header, body := doJSON(t, http.MethodPost, c.front.URL+"/v1/schedule", clusterSpec())
	if status != http.StatusTooManyRequests {
		t.Fatalf("empty retry budget: %d %s, want 429", status, body)
	}
	if header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if st := c.r.Stats(); st.BudgetExhausted == 0 {
		t.Fatal("budget_exhausted counter did not move")
	}
}

func TestRouterResizeMigratesSessions(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	const sessions = 6
	ids := make([]string, 0, sessions)
	want := make(map[string][]byte, sessions)
	for i := 0; i < sessions; i++ {
		id, _ := createViaRouter(t, c)
		if i%2 == 0 { // give half the sessions some journal tail to replay
			muts := service.MutateRequest{Mutations: []service.MutationSpec{{Op: "add_job", Job: ptrJob(clusterJob())}}}
			if status, _, body := doJSON(t, http.MethodPost, c.front.URL+"/v1/session/"+id+"/mutate", muts); status != http.StatusOK {
				t.Fatalf("mutate %s: %d %s", id, status, body)
			}
		}
		ids = append(ids, id)
		want[id] = solveViaRouter(t, c, id)
	}

	keep := []string{c.servers[0].URL, c.servers[1].URL}
	forced := 0 // sessions on the removed backend must move no matter what
	for _, id := range ids {
		if c.r.owner(id) == c.servers[2].URL {
			forced++
		}
	}
	status, _, body := doJSON(t, http.MethodPost, c.front.URL+"/admin/ring", resizeRequest{Backends: keep})
	if status != http.StatusOK {
		t.Fatalf("resize: %d %s", status, body)
	}
	var resp resizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Failed) != 0 {
		t.Fatalf("resize failed migrations: %v", resp.Failed)
	}
	if resp.Migrated+resp.Retained != sessions {
		t.Fatalf("resize accounted for %d+%d sessions, want %d", resp.Migrated, resp.Retained, sessions)
	}
	// The ring's movement bound: beyond the forced moves off the removed
	// backend, a resize volunteers at most ⌈K/N⌉ total moves.
	bound := (sessions + len(keep) - 1) / len(keep)
	if forced > bound {
		bound = forced
	}
	if resp.Migrated > bound {
		t.Fatalf("resize moved %d sessions, bound is %d (%d forced)", resp.Migrated, bound, forced)
	}
	gotBackends := append([]string(nil), resp.Backends...)
	sort.Strings(gotBackends)
	sort.Strings(keep)
	if fmt.Sprint(gotBackends) != fmt.Sprint(keep) {
		t.Fatalf("resized ring is %v, want %v", gotBackends, keep)
	}
	// Every session must now be owned inside the new ring and still
	// answer byte-identically.
	for _, id := range ids {
		owner := c.r.owner(id)
		if owner != keep[0] && owner != keep[1] {
			t.Fatalf("session %s owned by %q, outside the resized ring", id, owner)
		}
		if got := solveViaRouter(t, c, id); !bytes.Equal(got, want[id]) {
			t.Fatalf("session %s answers differently after resize:\n%s\nvs\n%s", id, got, want[id])
		}
	}
	if st := c.r.Stats(); st.Migrations != uint64(resp.Migrated) {
		t.Fatalf("migrations counter %d, response said %d", st.Migrations, resp.Migrated)
	}
}

func TestRouterProbesEjectDeadBackend(t *testing.T) {
	c := newTestCluster(t, 3, func(tune *tuning) {
		tune.probeInterval = 20 * time.Millisecond
	})
	dead := c.servers[2].URL
	c.servers[2].Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.r.Stats()
		ejected := false
		for _, b := range st.Backends {
			if b.Name == dead && !b.Alive {
				ejected = true
			}
		}
		if ejected && st.Ejections >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend never ejected: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The cluster keeps answering around the ejected backend.
	status, _, body := doJSON(t, http.MethodPost, c.front.URL+"/v1/schedule", clusterSpec())
	if status != http.StatusOK {
		t.Fatalf("schedule with one ejected backend: %d %s", status, body)
	}
}

func ptrJob(j service.JobSpec) *service.JobSpec { return &j }

// --- pure unit tests for the health machinery ---

func TestBackendStateProbeHysteresis(t *testing.T) {
	b := newBackendState("b")
	probe := func(ok bool) (ejected, readmitted bool) { return b.report(ok, true) }
	if ej, _ := probe(false); ej {
		t.Fatal("one failure must not eject (ejectAfter=2)")
	}
	if ej, _ := probe(false); !ej {
		t.Fatal("second straight failure must eject")
	}
	// Readmission is the slower edge.
	if _, re := probe(true); re {
		t.Fatal("one success must not readmit (readmitAfter=3)")
	}
	if _, re := probe(true); re {
		t.Fatal("two successes must not readmit")
	}
	if _, re := probe(true); !re {
		t.Fatal("third straight success must readmit")
	}
	// A flap resets the success streak.
	probe(false)
	probe(false)
	probe(true)
	probe(false)
	if _, re := probe(true); re {
		t.Fatal("flapping backend readmitted too eagerly")
	}
}

// TestBackendStateRequestFailuresEject pins the one state machine's
// request face: request failures count toward ejection exactly as probe
// failures do, a success of either kind resets the count, and only the
// prober readmits.
func TestBackendStateRequestFailuresEject(t *testing.T) {
	b := newBackendState("b")
	if ej, _ := b.report(false, false); ej {
		t.Fatal("one failed request must not eject")
	}
	b.report(true, false)
	if ej, _ := b.report(false, false); ej {
		t.Fatal("a successful request must reset the failure count")
	}
	if ej, _ := b.report(false, true); !ej {
		t.Fatal("a failed request then a failed probe must eject: both feed one count")
	}
	if b.isAlive() {
		t.Fatal("ejected backend still alive")
	}
	for i := 0; i < 2*readmitAfter; i++ {
		if _, re := b.report(true, false); re {
			t.Fatal("a request success readmitted an ejected backend")
		}
	}
	for i := 1; i < readmitAfter; i++ {
		b.report(true, true)
	}
	if _, re := b.report(true, true); !re || !b.isAlive() {
		t.Fatal("readmitAfter straight probe successes must readmit")
	}
	if ej, _ := b.report(false, false); ej {
		t.Fatal("readmission must start the failure count from zero")
	}
}

func TestRetryBudgetRefills(t *testing.T) {
	b := &retryBudget{tokens: 1, max: 2, rate: 10, last: time.Unix(1000, 0)}
	now := time.Unix(1000, 0)
	if !b.take(now) {
		t.Fatal("a full bucket must grant a token")
	}
	if b.take(now) {
		t.Fatal("an empty bucket must refuse")
	}
	if !b.take(now.Add(200 * time.Millisecond)) { // 10/s × 0.2s = 2 tokens, capped at max
		t.Fatal("refill did not grant a token")
	}
	if !b.take(now.Add(200 * time.Millisecond)) {
		t.Fatal("burst capacity lost in refill")
	}
	if b.take(now.Add(200 * time.Millisecond)) {
		t.Fatal("bucket exceeded burst cap")
	}
}
