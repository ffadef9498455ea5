package powersched_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	powersched "repro"
	"repro/internal/bitset"
	"repro/internal/matroid"
	"repro/internal/service"
	"repro/internal/submodular"
)

// The facade tests exercise the public API exactly as a downstream user
// would: only names exported from the root package (plus constructors the
// examples use).

func TestFacadeScheduleAll(t *testing.T) {
	window := func(lo, hi int) []powersched.SlotKey {
		var out []powersched.SlotKey
		for tt := lo; tt < hi; tt++ {
			out = append(out, powersched.SlotKey{Proc: 0, Time: tt})
		}
		return out
	}
	ins := &powersched.Instance{
		Procs:   1,
		Horizon: 10,
		Jobs: []powersched.Job{
			{Value: 1, Allowed: window(0, 3)},
			{Value: 2, Allowed: window(1, 4)},
		},
		Cost: powersched.Affine{Alpha: 2, Rate: 1},
	}
	s, err := powersched.ScheduleAll(ins, powersched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheduled != 2 {
		t.Fatalf("scheduled %d", s.Scheduled)
	}
	if err := s.Validate(ins); err != nil {
		t.Fatal(err)
	}
	// Prize variants.
	p, err := powersched.PrizeCollecting(ins, 2, powersched.Options{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if p.Value < 1 {
		t.Fatalf("prize value %v", p.Value)
	}
	pe, err := powersched.PrizeCollectingExact(ins, 2, powersched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pe.Value < 2 {
		t.Fatalf("exact prize value %v", pe.Value)
	}
}

// TestFacadeService drives the serving layer through the public facade
// only: build a request from a wire spec, submit it programmatically and
// over HTTP, and require agreement with the sequential path.
func TestFacadeService(t *testing.T) {
	spec := powersched.InstanceSpec{
		Procs: 1, Horizon: 8,
		Cost: service.CostSpec{Model: "affine", Alpha: 2, Rate: 1},
		Jobs: []service.JobSpec{
			{Allowed: []service.SlotSpec{{Proc: 0, Time: 1}, {Proc: 0, Time: 2}}},
			{Allowed: []service.SlotSpec{{Proc: 0, Time: 2}, {Proc: 0, Time: 3}}},
		},
	}
	req, err := powersched.BuildServiceRequest(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := powersched.SolveRequest(req)
	if err != nil {
		t.Fatal(err)
	}

	svc := powersched.NewService(powersched.ServiceConfig{Workers: 2})
	defer svc.Close(context.Background())
	got, err := svc.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(req.Instance); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("service disagrees with sequential:\n seq: %s\n svc: %s", a, b)
	}

	// Same instance over the HTTP surface. The programmatic Submit above
	// already cached this digest, so both waves are cache hits — the
	// programmatic and HTTP faces share one cache.
	srv := httptest.NewServer(powersched.NewServiceHandler(svc))
	defer srv.Close()
	body, _ := json.Marshal(spec)
	for i, wantHit := range []bool{true, true} {
		resp, err := http.Post(srv.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out service.ScheduleResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if out.Error != "" || out.Schedule == nil || out.Schedule.Cost != want.Cost {
			t.Fatalf("wave %d: response %+v", i, out)
		}
		if out.CacheHit != wantHit {
			t.Fatalf("wave %d: cache hit = %v, want %v", i, out.CacheHit, wantHit)
		}
	}
	if st := svc.Stats(); st.CacheHits < 1 || st.Workers != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFacadeErrors(t *testing.T) {
	ins := &powersched.Instance{
		Procs:   1,
		Horizon: 2,
		Jobs: []powersched.Job{
			{Value: 1, Allowed: []powersched.SlotKey{{Proc: 0, Time: 0}}},
			{Value: 1, Allowed: []powersched.SlotKey{{Proc: 0, Time: 0}}},
		},
		Cost: powersched.Affine{Alpha: 1, Rate: 1},
	}
	if _, err := powersched.ScheduleAll(ins, powersched.Options{}); err == nil {
		t.Fatal("expected ErrUnschedulable")
	}
}

func TestFacadeBudgetedGreedy(t *testing.T) {
	sets := []*bitset.Set{
		bitset.FromSlice(4, []int{0, 1}),
		bitset.FromSlice(4, []int{2, 3}),
	}
	f := submodular.NewCoverage(4, sets, nil)
	prob := powersched.BudgetProblem{
		F: f,
		Subsets: []powersched.BudgetSubset{
			{Items: bitset.FromSlice(2, []int{0}), Cost: 1},
			{Items: bitset.FromSlice(2, []int{1}), Cost: 1},
		},
		Threshold: 4,
	}
	res, err := powersched.BudgetedGreedy(prob, powersched.BudgetOptions{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 2 || res.Utility != 4 {
		t.Fatalf("res = %+v", res)
	}
	lazy, err := powersched.BudgetedLazyGreedy(prob, powersched.BudgetOptions{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Cost != res.Cost {
		t.Fatal("lazy/plain disagree")
	}
}

func TestFacadeSecretary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Observation window is ⌊4/e⌋ = 1; the first arrival beating the
	// sampled value 1 is position 1.
	if got := powersched.ClassicalSecretary([]float64{1, 2, 9, 3}); got != 1 {
		t.Fatalf("classical hired %d", got)
	}
	f := &submodular.Modular{Weights: []float64{3, 1, 4, 1, 5, 9, 2, 6}}
	team := powersched.SubmodularSecretary(f, rng.Perm(8), 3)
	if team.Count() > 3 {
		t.Fatalf("picked %d", team.Count())
	}
	nm := powersched.SubmodularSecretaryNonMonotone(f, rng.Perm(8), 3, rng)
	if nm.Count() > 3 {
		t.Fatalf("picked %d", nm.Count())
	}
	constraints := powersched.NewMatroidIntersection(matroid.Uniform{N: 8, K: 2})
	ms := powersched.MatroidSecretary(f, constraints, rng.Perm(8), rng)
	if !constraints.Independent(ms) {
		t.Fatal("dependent pick")
	}
	weights := [][]float64{{1, 1, 1, 1, 1, 1, 1, 1}}
	ks := powersched.KnapsackSecretary(f, weights, []float64{2}, rng.Perm(8), rng)
	if ks.Count() > 2 {
		t.Fatalf("knapsack overfull: %d", ks.Count())
	}
	sa := powersched.SubadditiveSecretary(f, rng.Perm(8), 2, rng)
	if sa.Count() > 2 {
		t.Fatalf("subadditive picked %d", sa.Count())
	}
	hired := powersched.BottleneckSecretary([]float64{5, 1, 7, 8, 2, 9}, 2)
	if len(hired) > 2 {
		t.Fatalf("bottleneck hired %v", hired)
	}
	if powersched.NewSet(5).Count() != 0 {
		t.Fatal("NewSet")
	}
}

func TestFacadeCostModels(t *testing.T) {
	tou := powersched.NewTimeOfUse([]float64{1}, []float64{1}, []float64{2, 3})
	if tou.Cost(0, 0, 2) != 6 {
		t.Fatalf("tou = %v", tou.Cost(0, 0, 2))
	}
	u := powersched.NewUnavailable(powersched.Affine{Alpha: 1, Rate: 1}, 4)
	u.Block(0, 2)
	if c := u.Cost(0, 1, 4); c == c && c < 1e300 { // +Inf check without math import
		t.Fatalf("blocked interval cost %v", c)
	}
	var fn powersched.CostFunc = func(proc, start, end int) float64 { return 7 }
	if fn.Cost(0, 0, 1) != 7 {
		t.Fatal("CostFunc")
	}
}

func TestFacadeSessionAndEngine(t *testing.T) {
	ins := &powersched.Instance{
		Procs: 1, Horizon: 8,
		Cost: powersched.Affine{Alpha: 2, Rate: 1},
		Jobs: []powersched.Job{
			{Value: 1, Allowed: []powersched.SlotKey{{Proc: 0, Time: 1}, {Proc: 0, Time: 2}}},
		},
	}
	sess, err := powersched.NewSession(ins, powersched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AddJob(powersched.Job{Value: 1,
		Allowed: []powersched.SlotKey{{Proc: 0, Time: 2}, {Proc: 0, Time: 3}}}); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := powersched.ScheduleAll(sess.Instance(), powersched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || got.Scheduled != want.Scheduled {
		t.Fatalf("session %+v vs from-scratch %+v", got, want)
	}

	tr := powersched.PoissonBurstTrace(rand.New(rand.NewSource(5)), powersched.TraceParams{
		Procs: 2, Horizon: 24, Jobs: 8, Window: 1,
	})
	rep, err := powersched.RunTrace(tr, powersched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served+rep.Missed != 8 || rep.Plan == nil {
		t.Fatalf("engine report %+v", rep)
	}
}
