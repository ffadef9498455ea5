package cluster

// The chaos matrix. One fixed workload — schedule, batch, session
// create/mutate/solve/info/delete — runs against a single clean
// in-memory process to produce the reference answers, then replays
// against a 3-backend cluster under every netfault failpoint (dial
// failures, dropped replies, torn response bodies, injected latency
// beyond the request deadline) swept across every request position,
// plus backend kills up to total blackout.
//
// The contract under test is the degradation contract from the package
// doc: every answer the faulted cluster gives must be byte-identical
// (after normalizing cache temperature) to the clean process's answer
// for that step, or a loud, documented shed — 429/503 with Retry-After.
// Anything else — a torn body relayed, a double-applied mutation, a
// quiet wrong answer — fails the matrix.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/netfault"
	"repro/internal/service"
)

// chaosStep is one workload step's observed outcome.
type chaosStep struct {
	name       string
	ok         bool // 2xx answer
	status     int
	retryAfter string
	norm       []byte // normalized answer, valid when ok
}

// chaosWorkload drives the fixed workload against base and records each
// step's normalized outcome. A failed state-changing step poisons the
// steps after it (their reference answers assume it applied), so the
// runner stops there; the contract has still been checked for every
// answer actually given.
func chaosWorkload(t *testing.T, base string) []chaosStep {
	t.Helper()
	specA := clusterSpec()
	specB := clusterSpec()
	specB.Horizon = 13
	var steps []chaosStep
	record := func(name string, status int, header http.Header, norm []byte) bool {
		ok := status == http.StatusOK
		st := chaosStep{name: name, ok: ok, status: status, norm: norm}
		if !ok {
			st.retryAfter = header.Get("Retry-After")
		}
		steps = append(steps, st)
		return ok
	}

	status, header, body := doJSON(t, http.MethodPost, base+"/v1/schedule", specA)
	if !record("schedule", status, header, normSchedule(t, status, body)) {
		return steps
	}
	status, header, body = doJSON(t, http.MethodPost, base+"/v1/batch",
		service.BatchRequest{Requests: []service.InstanceSpec{specA, specB}})
	if !record("batch", status, header, normBatch(t, status, body)) {
		return steps
	}
	status, header, body = doJSON(t, http.MethodPost, base+"/v1/session", specA)
	id, norm := normSession(t, status, body)
	if !record("create", status, header, norm) {
		return steps
	}
	status, header, body = doJSON(t, http.MethodPost, base+"/v1/session/"+id+"/mutate",
		service.MutateRequest{Mutations: []service.MutationSpec{{Op: "add_job", Job: ptrJob(clusterJob())}}})
	_, norm = normSession(t, status, body)
	if !record("mutate", status, header, norm) {
		return steps
	}
	status, header, body = doJSON(t, http.MethodPost, base+"/v1/session/"+id+"/solve", nil)
	if !record("solve", status, header, normSchedule(t, status, body)) {
		return steps
	}
	status, header, body = doJSON(t, http.MethodGet, base+"/v1/session/"+id, nil)
	if !record("info", status, header, normInfo(t, status, body)) {
		return steps
	}
	status, header, _ = doJSON(t, http.MethodDelete, base+"/v1/session/"+id, nil)
	record("delete", status, header, []byte("deleted"))
	return steps
}

// workloadTrips is how many backend round trips the clean workload
// costs the router (mutate costs two: the expect_seq-priming GET plus
// the POST). The failpoint sweeps cover every position, plus slack for
// the retries the faults themselves cause.
const workloadTrips = 9

func normSchedule(t *testing.T, status int, body []byte) []byte {
	if status != http.StatusOK {
		return nil
	}
	return scheduleBytes(t, body)
}

func normBatch(t *testing.T, status int, body []byte) []byte {
	if status != http.StatusOK {
		return nil
	}
	t.Helper()
	var resp service.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding batch response %q: %v", body, err)
	}
	var out bytes.Buffer
	for i, res := range resp.Results {
		if res.Error != "" || res.Schedule == nil {
			t.Fatalf("batch result %d carries no schedule: %s", i, body)
		}
		data, err := json.Marshal(res.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(data)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// normSession reduces a SessionResponse to its portable part: the
// digest and sequence. Ids differ by design between the router (which
// mints its own) and a standalone process.
func normSession(t *testing.T, status int, body []byte) (id string, norm []byte) {
	if status != http.StatusOK {
		return "", nil
	}
	t.Helper()
	var sr service.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decoding session response %q: %v", body, err)
	}
	return sr.ID, []byte(fmt.Sprintf("digest=%s seq=%d", sr.Digest, sr.Seq))
}

func normInfo(t *testing.T, status int, body []byte) []byte {
	if status != http.StatusOK {
		return nil
	}
	t.Helper()
	var info service.SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("decoding session info %q: %v", body, err)
	}
	return []byte(fmt.Sprintf("digest=%s seq=%d jobs=%d horizon=%d", info.Digest, info.Seq, info.Jobs, info.Horizon))
}

// chaosReference runs the workload against one clean in-memory process.
func chaosReference(t *testing.T) []chaosStep {
	t.Helper()
	svc := service.New(service.Config{Workers: 1, Logf: discardLogf})
	t.Cleanup(func() { svc.Close(context.Background()) })
	ts := httptest.NewServer(service.NewHTTPHandler(svc))
	t.Cleanup(ts.Close)
	ref := chaosWorkload(t, ts.URL)
	for _, st := range ref {
		if !st.ok {
			t.Fatalf("reference step %s failed with %d — the clean process must answer everything", st.name, st.status)
		}
	}
	return ref
}

// assertChaosRun checks one faulted run against the reference: every
// answered step byte-identical, every refused step a documented shed.
func assertChaosRun(t *testing.T, caseName string, ref, got []chaosStep) {
	t.Helper()
	for i, st := range got {
		if st.name != ref[i].name {
			t.Fatalf("%s: step %d is %s, reference ran %s", caseName, i, st.name, ref[i].name)
		}
		if st.ok {
			if !bytes.Equal(st.norm, ref[i].norm) {
				t.Fatalf("%s: step %s diverged from the clean process:\n%s\nvs\n%s",
					caseName, st.name, st.norm, ref[i].norm)
			}
			continue
		}
		if st.status != http.StatusTooManyRequests && st.status != http.StatusServiceUnavailable {
			t.Fatalf("%s: step %s failed with undocumented status %d", caseName, st.name, st.status)
		}
		if st.retryAfter == "" {
			t.Fatalf("%s: step %s shed %d without Retry-After", caseName, st.name, st.status)
		}
		if i != len(got)-1 {
			t.Fatalf("%s: workload continued past shed step %s", caseName, st.name)
		}
	}
}

func TestChaosMatrix(t *testing.T) {
	ref := chaosReference(t)

	type chaosCase struct {
		name string
		plan netfault.Plan
		kill int // close this many backends before the workload
		// mustComplete: every step must answer (the fault is absorbable)
		mustComplete bool
	}
	var cases []chaosCase
	cases = append(cases, chaosCase{name: "clean", mustComplete: true})
	for n := 1; n <= workloadTrips; n++ {
		cases = append(cases,
			chaosCase{name: fmt.Sprintf("dial-fail@%d", n), plan: netfault.Plan{FailRoundTrip: n}, mustComplete: true},
			chaosCase{name: fmt.Sprintf("drop-reply@%d", n), plan: netfault.Plan{DropReply: n}, mustComplete: true},
			chaosCase{name: fmt.Sprintf("partial-body@%d", n), plan: netfault.Plan{PartialBody: n, Partial: 7}, mustComplete: true},
		)
	}
	for _, n := range []int{1, 3, 5} {
		cases = append(cases, chaosCase{
			name: fmt.Sprintf("latency@%d", n),
			// Latency beyond the request deadline: attempt n times out,
			// the retry goes elsewhere.
			plan:         netfault.Plan{Latency: 2 * time.Second, LatencyN: n},
			mustComplete: true,
		})
	}
	// A single-shot fault is absorbable, so those runs must also answer
	// every step; kills of a minority too. Total blackout must shed.
	cases = append(cases,
		chaosCase{name: "kill-one", kill: 1, mustComplete: true},
		chaosCase{name: "kill-two", kill: 2, mustComplete: true},
		chaosCase{name: "kill-all", kill: 3},
	)

	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			c := newTestCluster(t, 3, func(tune *tuning) {
				tune.requestTimeout = 500 * time.Millisecond
				tune.maxAttempts = 4
			})
			for i := 0; i < cse.kill; i++ {
				c.servers[len(c.servers)-1-i].Close()
			}
			c.tr.SetPlan(cse.plan)
			got := chaosWorkload(t, c.front.URL)
			assertChaosRun(t, cse.name, ref, got)
			if cse.mustComplete && len(got) != len(ref) {
				t.Fatalf("absorbable fault stopped the workload at step %d/%d: %+v",
					len(got), len(ref), got[len(got)-1])
			}
			if cse.name == "kill-all" {
				if len(got) == len(ref) && got[len(got)-1].ok {
					t.Fatal("total blackout answered the whole workload")
				}
			}
		})
	}
}

// TestChaosFailoverMidSession kills the session's owner between the
// mutate and the solve — the journal-driven failover path — and demands
// the solve still answer byte-identically to the clean process.
func TestChaosFailoverMidSession(t *testing.T) {
	ref := chaosReference(t)
	c := newTestCluster(t, 3, nil)

	specA := clusterSpec()
	status, _, body := doJSON(t, http.MethodPost, c.front.URL+"/v1/session", specA)
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, body)
	}
	var sr service.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	id := sr.ID
	status, _, body = doJSON(t, http.MethodPost, c.front.URL+"/v1/session/"+id+"/mutate",
		service.MutateRequest{Mutations: []service.MutationSpec{{Op: "add_job", Job: ptrJob(clusterJob())}}})
	if status != http.StatusOK {
		t.Fatalf("mutate: %d %s", status, body)
	}

	owner := c.r.owner(id)
	for i, ts := range c.servers {
		if ts.URL == owner {
			c.servers[i].Close()
		}
	}

	status, _, body = doJSON(t, http.MethodPost, c.front.URL+"/v1/session/"+id+"/solve", nil)
	if status != http.StatusOK {
		t.Fatalf("solve after owner kill: %d %s", status, body)
	}
	var refSolve []byte
	for _, st := range ref {
		if st.name == "solve" {
			refSolve = st.norm
		}
	}
	if got := scheduleBytes(t, body); !bytes.Equal(got, refSolve) {
		t.Fatalf("failed-over solve diverged from the clean process:\n%s\nvs\n%s", got, refSolve)
	}
	status, _, body = doJSON(t, http.MethodGet, c.front.URL+"/v1/session/"+id, nil)
	if status != http.StatusOK {
		t.Fatalf("info after owner kill: %d %s", status, body)
	}
	var refInfo []byte
	for _, st := range ref {
		if st.name == "info" {
			refInfo = st.norm
		}
	}
	if got := normInfo(t, status, body); !bytes.Equal(got, refInfo) {
		t.Fatalf("failed-over session state diverged:\n%s\nvs\n%s", got, refInfo)
	}
}
