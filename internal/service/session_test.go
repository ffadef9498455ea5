package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/sched"
)

// sessionSpec is a small feasible instance for session tests.
func sessionSpec() InstanceSpec {
	spec := InstanceSpec{
		Procs:   2,
		Horizon: 12,
		Cost:    CostSpec{Model: "affine", Alpha: 3, Rate: 1},
	}
	for j := 0; j < 4; j++ {
		spec.Jobs = append(spec.Jobs, JobSpec{Allowed: []SlotSpec{
			{Proc: 0, Time: 2 + j}, {Proc: 1, Time: 2 + j}, {Proc: 0, Time: 7 + j},
		}})
	}
	return spec
}

func extraJob() JobSpec {
	return JobSpec{Allowed: []SlotSpec{{Proc: 1, Time: 3}, {Proc: 1, Time: 4}, {Proc: 1, Time: 5}}}
}

// applyMutationToSpec mirrors a mutation onto a plain spec so tests can
// build the from-scratch reference instance.
func mutatedSpec(spec InstanceSpec, muts []MutationSpec) InstanceSpec {
	spec.Jobs = append([]JobSpec(nil), spec.Jobs...)
	for _, m := range muts {
		switch m.Op {
		case "add_job":
			spec.Jobs = append(spec.Jobs, *m.Job)
		case "remove_job":
			spec.Jobs = append(spec.Jobs[:m.Index:m.Index], spec.Jobs[m.Index+1:]...)
		case "block":
			if spec.Cost.Model == "unavailable" {
				spec.Cost.Blocked = append(spec.Cost.Blocked, *m.Slot)
			} else {
				base := spec.Cost
				spec.Cost = CostSpec{Model: "unavailable", Base: &base, Blocked: []SlotSpec{*m.Slot}}
			}
		case "advance_horizon":
			spec.Horizon = m.Horizon
		}
	}
	return spec
}

// TestSessionCacheMutationInterplay is the satellite's contract:
//  1. solving an unchanged session twice hits the digest cache,
//  2. a mutated session produces a fresh digest — no stale cache hit —
//     and the fresh solve matches the from-scratch reference,
//  3. a second session replaying the identical trace hits the cache at
//     every step.
func TestSessionCacheMutationInterplay(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close(context.Background())

	id, digest0, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	first := svc.SolveSession(context.Background(), id)
	if first.Err != nil || first.CacheHit {
		t.Fatalf("first solve: err=%v hit=%v", first.Err, first.CacheHit)
	}
	again := svc.SolveSession(context.Background(), id)
	if again.Err != nil || !again.CacheHit {
		t.Fatalf("unchanged re-solve: err=%v hit=%v, want cache hit", again.Err, again.CacheHit)
	}

	muts := []MutationSpec{
		{Op: "add_job", Job: ptr(extraJob())},
		{Op: "block", Slot: &SlotSpec{Proc: 0, Time: 11}},
	}
	digest1, err := svc.MutateSession(id, muts)
	if err != nil {
		t.Fatal(err)
	}
	if digest1 == digest0 {
		t.Fatal("mutation did not change the digest")
	}
	mutated := svc.SolveSession(context.Background(), id)
	if mutated.Err != nil {
		t.Fatal(mutated.Err)
	}
	if mutated.CacheHit {
		t.Fatal("mutated session answered from stale cache")
	}
	// The mutated solve matches solving the equivalently-mutated instance
	// from scratch.
	ref, err := BuildRequest(mutatedSpec(sessionSpec(), muts))
	if err != nil {
		t.Fatal(err)
	}
	if ref.InstanceKey != digest1 {
		t.Fatalf("spec-replay digest %s != session digest %s", ref.InstanceKey, digest1)
	}
	want, err := sched.ScheduleAll(ref.Instance, ref.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want.Cost-mutated.Schedule.Cost) > 1e-9 || want.Scheduled != mutated.Schedule.Scheduled {
		t.Fatalf("mutated session solve differs from from-scratch: %+v vs %+v", mutated.Schedule, want)
	}

	// Replay the identical trace in a second session: every solve is a
	// cache hit.
	id2, d0, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if d0 != digest0 {
		t.Fatalf("replayed create digest %s != %s", d0, digest0)
	}
	if res := svc.SolveSession(context.Background(), id2); res.Err != nil || !res.CacheHit {
		t.Fatalf("replayed initial solve: err=%v hit=%v, want hit", res.Err, res.CacheHit)
	}
	d1, err := svc.MutateSession(id2, muts)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != digest1 {
		t.Fatalf("replayed mutation digest %s != %s", d1, digest1)
	}
	if res := svc.SolveSession(context.Background(), id2); res.Err != nil || !res.CacheHit {
		t.Fatalf("replayed mutated solve: err=%v hit=%v, want hit", res.Err, res.CacheHit)
	}
}

func ptr[T any](v T) *T { return &v }

// TestSessionSharedCacheWithStateless: a stateless /v1/schedule-style
// request for the same instance content shares cache entries with the
// session path (both key on the instance digest).
func TestSessionSharedCacheWithStateless(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	id, _, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res := svc.SolveSession(context.Background(), id); res.Err != nil {
		t.Fatal(res.Err)
	}
	req, err := BuildRequest(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	res := svc.Do(context.Background(), req)
	if res.Err != nil || !res.CacheHit {
		t.Fatalf("stateless twin request: err=%v hit=%v, want session-primed hit", res.Err, res.CacheHit)
	}
}

// TestSessionLifecycleErrors: unknown ids, bad mutations, unsupported
// modes, and drops.
func TestSessionLifecycleErrors(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())

	if _, _, err := svc.CreateSession(InstanceSpec{Procs: 1, Horizon: 4, Mode: "prize",
		Cost: CostSpec{Alpha: 1}, Jobs: []JobSpec{{Allowed: []SlotSpec{{Proc: 0, Time: 0}}}}}); err == nil {
		t.Fatal("prize-mode session accepted")
	}
	if res := svc.SolveSession(context.Background(), "nope"); !errors.Is(res.Err, ErrNoSession) {
		t.Fatalf("unknown id err = %v", res.Err)
	}
	if _, err := svc.MutateSession("nope", nil); !errors.Is(err, ErrNoSession) {
		t.Fatalf("unknown id mutate err = %v", err)
	}
	id, _, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.MutateSession(id, []MutationSpec{{Op: "explode"}}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := svc.MutateSession(id, []MutationSpec{{Op: "remove_job", Index: 99}}); err == nil {
		t.Fatal("out-of-range removal accepted")
	}
	// The session survives rejected mutations and still solves.
	if res := svc.SolveSession(context.Background(), id); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := svc.DropSession(id); err != nil {
		t.Fatal(err)
	}
	if err := svc.DropSession(id); !errors.Is(err, ErrNoSession) {
		t.Fatalf("double drop err = %v", err)
	}
	if svc.Stats().Sessions != 0 {
		t.Fatalf("stats still count %d sessions", svc.Stats().Sessions)
	}
}

// TestSessionHTTPRoundTrip drives create → solve → mutate → solve → info
// → delete through the HTTP surface.
func TestSessionHTTPRoundTrip(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	ts := httptest.NewServer(NewHTTPHandler(svc))
	defer ts.Close()

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, body := post("/v1/session", sessionSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var created SessionResponse
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		t.Fatalf("create reply %s: %v", body, err)
	}

	resp, body = post("/v1/session/"+created.ID+"/solve", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	var solved ScheduleResponse
	if err := json.Unmarshal(body, &solved); err != nil || solved.Schedule == nil {
		t.Fatalf("solve reply %s: %v", body, err)
	}
	if solved.Schedule.Scheduled != 4 {
		t.Fatalf("scheduled %d of 4", solved.Schedule.Scheduled)
	}

	resp, body = post("/v1/session/"+created.ID+"/mutate",
		MutateRequest{Mutations: []MutationSpec{{Op: "add_job", Job: ptr(extraJob())}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, body)
	}
	var mutated SessionResponse
	if err := json.Unmarshal(body, &mutated); err != nil {
		t.Fatal(err)
	}
	if mutated.Digest == created.Digest {
		t.Fatal("mutate did not move the digest")
	}

	resp, body = post("/v1/session/"+created.ID+"/solve", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-solve: %d %s", resp.StatusCode, body)
	}
	var solved2 ScheduleResponse
	if err := json.Unmarshal(body, &solved2); err != nil {
		t.Fatal(err)
	}
	if solved2.CacheHit {
		t.Fatal("mutated re-solve served from stale cache")
	}
	if solved2.Schedule.Scheduled != 5 {
		t.Fatalf("scheduled %d of 5 after add", solved2.Schedule.Scheduled)
	}

	getResp, err := http.Get(ts.URL + "/v1/session/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	if err := json.NewDecoder(getResp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if info.Jobs != 5 || info.Solves != 2 {
		t.Fatalf("info = %+v, want 5 jobs, 2 solves", info)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+created.ID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", delResp.StatusCode)
	}
	if res := svc.SolveSession(context.Background(), created.ID); !errors.Is(res.Err, ErrNoSession) {
		t.Fatalf("solve after delete err = %v, want 404-mapped ErrNoSession", res.Err)
	}
	resp2, err := http.Get(ts.URL + "/v1/session/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("info after delete: %d, want 404", resp2.StatusCode)
	}
}

// TestSessionConcurrentSolves: many goroutines mutating and solving
// distinct sessions while stateless traffic flows — exercised under the
// CI race job.
func TestSessionConcurrentSolves(t *testing.T) {
	svc := New(Config{Workers: 4})
	defer svc.Close(context.Background())
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			id, _, err := svc.CreateSession(sessionSpec())
			if err != nil {
				done <- err
				return
			}
			for i := 0; i < 5; i++ {
				if res := svc.SolveSession(context.Background(), id); res.Err != nil {
					done <- fmt.Errorf("g%d solve %d: %w", g, i, res.Err)
					return
				}
				job := extraJob()
				job.Allowed[0].Time = (g + i) % 12
				if _, err := svc.MutateSession(id, []MutationSpec{{Op: "add_job", Job: &job}}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionResourceControls: the registry is bounded by the session
// cap, and a draining service refuses session create/mutate/solve with
// ErrClosed — matching the stateless path's 503 contract.
func TestSessionResourceControls(t *testing.T) {
	svc := New(withLimits(Config{Workers: 1}, func(l *limits) { l.maxSessions = 2 }))
	id1, _, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.CreateSession(sessionSpec()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.CreateSession(sessionSpec()); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("over-cap create err = %v, want ErrTooManySessions", err)
	}
	// Dropping one frees a slot.
	if err := svc.DropSession(id1); err != nil {
		t.Fatal(err)
	}
	id3, _, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatalf("post-drop create: %v", err)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.CreateSession(sessionSpec()); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close err = %v, want ErrClosed", err)
	}
	if _, err := svc.MutateSession(id3, []MutationSpec{{Op: "add_job", Job: ptr(extraJob())}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("mutate after close err = %v, want ErrClosed", err)
	}
	if res := svc.SolveSession(context.Background(), id3); !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("solve after close err = %v, want ErrClosed", res.Err)
	}
}

// TestSessionSpecsDoNotAlias: two sessions created from one caller spec
// (whose blocked list has spare capacity) must not share slice backing —
// a block mutation in one session must not leak into the other's spec
// or digest.
func TestSessionSpecsDoNotAlias(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	spec := sessionSpec()
	base := spec.Cost
	blocked := make([]SlotSpec, 0, 8) // spare capacity invites aliased appends
	spec.Cost = CostSpec{Model: "unavailable", Base: &base, Blocked: blocked}

	idA, _, err := svc.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	idB, _, err := svc.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	dA, err := svc.MutateSession(idA, []MutationSpec{{Op: "block", Slot: &SlotSpec{Proc: 0, Time: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	dB, err := svc.MutateSession(idB, []MutationSpec{{Op: "block", Slot: &SlotSpec{Proc: 1, Time: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if dA == dB {
		t.Fatal("different mutations produced the same digest")
	}
	// A's digest must still describe a (0,0)-blocked instance: replaying
	// the same mutation on a fresh spec must land on the same digest.
	ref := mutatedSpec(spec, []MutationSpec{{Op: "block", Slot: &SlotSpec{Proc: 0, Time: 0}}})
	if got := InstanceDigest(ref); got != dA {
		t.Fatalf("session A digest %s drifted from its own mutation history %s", dA, got)
	}
}
