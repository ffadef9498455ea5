package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
)

// testSpec builds a deterministic, fully schedulable instance spec: each
// job gets a two-slot window, windows disjoint per processor, so ModeAll
// always succeeds and prize modes have headroom. Jobs must fit:
// jobs <= procs * (horizon/2).
func testSpec(procs, horizon, jobs int, cost CostSpec) InstanceSpec {
	if jobs > procs*(horizon/2) {
		panic("testSpec: too many jobs to stay trivially feasible")
	}
	spec := InstanceSpec{Procs: procs, Horizon: horizon, Cost: cost}
	for j := 0; j < jobs; j++ {
		proc := j % procs
		t := (j / procs) * 2
		spec.Jobs = append(spec.Jobs, JobSpec{
			Value:   float64(1 + j%3),
			Allowed: []SlotSpec{{Proc: proc, Time: t}, {Proc: proc, Time: t + 1}},
		})
	}
	return spec
}

// testSpecs covers every wire cost model.
func testSpecs() []InstanceSpec {
	price := make([]float64, 16)
	for t := range price {
		price[t] = 1 + float64(t%5)
	}
	return []InstanceSpec{
		testSpec(2, 16, 10, CostSpec{Model: "affine", Alpha: 2, Rate: 1}),
		testSpec(3, 16, 12, CostSpec{Model: "perproc",
			Alphas: []float64{1, 3, 5}, Rates: []float64{1, 0.5, 2}}),
		testSpec(2, 16, 8, CostSpec{Model: "timeofuse",
			Alphas: []float64{2, 2}, Rates: []float64{1, 1}, Price: price}),
		testSpec(2, 16, 9, CostSpec{Model: "superlinear", Alpha: 1, Rate: 1, Fan: 0.2, Exp: 1.5}),
		testSpec(2, 16, 6, CostSpec{Model: "unavailable",
			Base:    &CostSpec{Model: "affine", Alpha: 2, Rate: 1},
			Blocked: []SlotSpec{{Proc: 0, Time: 15}, {Proc: 1, Time: 14}}}),
	}
}

// specValue sums the (defaulted) job values of a spec.
func specValue(spec InstanceSpec) float64 {
	total := 0.0
	for _, j := range spec.Jobs {
		v := j.Value
		if v == 0 {
			v = 1
		}
		total += v
	}
	return total
}

// mixedRequests builds n requests cycling through instances, modes, and
// the Improve post-pass.
func mixedRequests(t *testing.T, n int) []Request {
	t.Helper()
	specs := testSpecs()
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		spec := specs[i%len(specs)]
		switch i % 3 {
		case 1:
			spec.Mode, spec.Z, spec.Eps = "prize", specValue(spec)/2, 0.1
		case 2:
			spec.Mode, spec.Z = "prize-exact", specValue(spec)/2
		}
		spec.Improve = i%4 == 0
		req, err := BuildRequest(spec)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		reqs = append(reqs, req)
	}
	return reqs
}

func scheduleBytes(t *testing.T, s *sched.Schedule) []byte {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServiceLoadMatchesSequential is the acceptance load test: 64+
// concurrent mixed-algorithm requests all validate and are byte-identical
// to the sequential library path, and a repeat wave is served from the
// digest cache.
func TestServiceLoadMatchesSequential(t *testing.T) {
	reqs := mixedRequests(t, 64)
	// Sequential reference, computed once per distinct cache key.
	want := map[string][]byte{}
	for i, req := range reqs {
		key := cacheKey(req)
		if _, ok := want[key]; ok {
			continue
		}
		ref, err := Solve(req)
		if err != nil {
			t.Fatalf("sequential solve %d: %v", i, err)
		}
		if err := ref.Validate(req.Instance); err != nil {
			t.Fatalf("sequential result %d invalid: %v", i, err)
		}
		want[key] = scheduleBytes(t, ref)
	}

	svc := New(Config{Workers: 8})
	defer svc.Close(context.Background())

	results := svc.SubmitBatch(context.Background(), reqs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if err := res.Schedule.Validate(reqs[i].Instance); err != nil {
			t.Fatalf("request %d: invalid schedule: %v", i, err)
		}
		if got := scheduleBytes(t, res.Schedule); !bytes.Equal(got, want[cacheKey(reqs[i])]) {
			t.Fatalf("request %d: service schedule differs from sequential:\n service: %s\n library: %s",
				i, got, want[cacheKey(reqs[i])])
		}
	}

	// Second identical wave: every request must now be a cache hit.
	results = svc.SubmitBatch(context.Background(), reqs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("repeat request %d: %v", i, res.Err)
		}
		if !res.CacheHit {
			t.Fatalf("repeat request %d not served from cache", i)
		}
		if got := scheduleBytes(t, res.Schedule); !bytes.Equal(got, want[cacheKey(reqs[i])]) {
			t.Fatalf("repeat request %d: cached schedule differs from sequential", i)
		}
	}
	st := svc.Stats()
	if st.CacheHits < uint64(len(reqs)) {
		t.Fatalf("cache hits = %d, want >= %d", st.CacheHits, len(reqs))
	}
	if st.Submitted != uint64(2*len(reqs)) || st.Completed != st.Submitted {
		t.Fatalf("stats accounting off: %+v", st)
	}
	if st.Errors != 0 || st.Canceled != 0 {
		t.Fatalf("unexpected errors/cancels: %+v", st)
	}
}

// TestServiceConcurrentSharedInstance drives many goroutines through one
// shared instance and cost model — the -race proof that solving is
// read-only over shared request state.
func TestServiceConcurrentSharedInstance(t *testing.T) {
	spec := testSpecs()[4] // the Unavailable-masked instance
	req, err := BuildRequest(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := scheduleBytes(t, ref)
	req.InstanceKey = "" // no cache: every call solves

	svc := New(Config{Workers: 4})
	defer svc.Close(context.Background())
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := svc.Submit(context.Background(), req) // shared Request value
			if err != nil {
				errs <- err
				return
			}
			if err := s.Validate(req.Instance); err != nil {
				errs <- err
				return
			}
			if got, _ := json.Marshal(s); !bytes.Equal(got, wantBytes) {
				errs <- fmt.Errorf("concurrent result diverged: %s", got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServiceModelReuse: one worker solving several thresholds against
// one instance must rebuild the model only once.
func TestServiceModelReuse(t *testing.T) {
	spec := testSpecs()[0]
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	for i := 0; i < 4; i++ {
		s := spec
		s.Mode, s.Z = "prize", float64(i+1)
		req, err := BuildRequest(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Submit(context.Background(), req); err != nil {
			t.Fatalf("z=%d: %v", i+1, err)
		}
	}
	if st := svc.Stats(); st.ModelReuses < 3 {
		t.Fatalf("model reuses = %d, want >= 3 (stats %+v)", st.ModelReuses, st)
	}
}

func TestServiceCacheOptOut(t *testing.T) {
	req, err := BuildRequest(testSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	req.InstanceKey = "" // opt out
	svc := New(Config{Workers: 2})
	defer svc.Close(context.Background())
	for i := 0; i < 3; i++ {
		res := svc.Do(context.Background(), req)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.CacheHit {
			t.Fatal("keyless request hit the cache")
		}
	}
	if st := svc.Stats(); st.CacheHits != 0 || st.CacheSize != 0 {
		t.Fatalf("cache touched by keyless requests: %+v", st)
	}
}

// TestServiceCacheKeySeparatesExtraIntervals: requests differing only in
// a caller-supplied extra candidate interval (the EventPoints family plus
// one block) must not share cache entries.
func TestServiceCacheKeySeparatesExtraIntervals(t *testing.T) {
	req, err := BuildRequest(testSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	m, err := sched.NewModel(req.Instance)
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := m.Candidates(sched.EventPoints)
	withExtra := req
	withExtra.Opts.Candidates = append(ev, sched.Interval{Proc: 0, Start: 0, End: 16})
	if cacheKey(req) == cacheKey(withExtra) {
		t.Fatal("cache key ignores Opts.Candidates")
	}
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	if res := svc.Do(context.Background(), req); res.Err != nil {
		t.Fatal(res.Err)
	}
	res := svc.Do(context.Background(), withExtra)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.CacheHit {
		t.Fatal("request with extra intervals served from the plain request's cache entry")
	}
}

func TestServiceCacheEviction(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	mk := func(i int) Request {
		req, err := BuildRequest(testSpec(1, 16, 1, CostSpec{Model: "affine", Alpha: float64(1 + i), Rate: 1}))
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	first := mk(0)
	for i := 0; i <= cacheEntries; i++ { // the last put evicts the first
		if res := svc.Do(context.Background(), mk(i)); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if res := svc.Do(context.Background(), first); res.Err != nil || res.CacheHit {
		t.Fatalf("evicted entry served from cache: %+v", res)
	}
	if st := svc.Stats(); st.CacheSize != cacheEntries {
		t.Fatalf("cache size = %d, want %d", st.CacheSize, cacheEntries)
	}
}

func TestServiceSubmitContextCancellation(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	req, err := BuildRequest(testSpec(2, 16, 12, CostSpec{Model: "affine", Alpha: 2, Rate: 1}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Expired context: Submit must return promptly with ctx.Err, whether
	// it lost the race before or after enqueueing.
	if _, err := svc.Submit(ctx, req); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled or success", err)
	}
	// Live context still works.
	if _, err := svc.Submit(context.Background(), req); err != nil {
		t.Fatal(err)
	}
}

func TestServiceCloseDrainsAndRefuses(t *testing.T) {
	svc := New(Config{Workers: 2})
	req, err := BuildRequest(testSpecs()[1])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	okOrClosed := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := svc.Submit(context.Background(), req)
			okOrClosed <- err
		}()
	}
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	close(okOrClosed)
	for err := range okOrClosed {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight submit: %v", err)
		}
	}
	if _, err := svc.Submit(context.Background(), req); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit err = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := svc.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestServiceInfeasibleErrors(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	// Two jobs, one usable slot: unschedulable under ModeAll.
	spec := InstanceSpec{
		Procs: 1, Horizon: 2, Cost: CostSpec{Model: "affine", Alpha: 1, Rate: 1},
		Jobs: []JobSpec{
			{Allowed: []SlotSpec{{Proc: 0, Time: 0}}},
			{Allowed: []SlotSpec{{Proc: 0, Time: 0}}},
		},
	}
	req, err := BuildRequest(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(context.Background(), req); !errors.Is(err, sched.ErrUnschedulable) {
		t.Fatalf("err = %v, want ErrUnschedulable", err)
	}
	spec.Mode, spec.Z = "prize", 99
	req, err = BuildRequest(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(context.Background(), req); !errors.Is(err, sched.ErrValueUnreachable) {
		t.Fatalf("err = %v, want ErrValueUnreachable", err)
	}
	if st := svc.Stats(); st.Errors != 2 {
		t.Fatalf("errors = %d, want 2", st.Errors)
	}
}
