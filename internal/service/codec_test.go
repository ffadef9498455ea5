package service

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestBuildCostValidation(t *testing.T) {
	bad := []struct {
		name string
		spec CostSpec
	}{
		{"unknown model", CostSpec{Model: "quantum"}},
		{"perproc mismatched", CostSpec{Model: "perproc", Alphas: []float64{1}, Rates: []float64{1, 2}}},
		{"perproc too few procs", CostSpec{Model: "perproc", Alphas: []float64{1}, Rates: []float64{1}}},
		{"timeofuse short price", CostSpec{Model: "timeofuse",
			Alphas: []float64{1, 1}, Rates: []float64{1, 1}, Price: []float64{1, 2}}},
		{"unavailable no base", CostSpec{Model: "unavailable"}},
		{"unavailable nested mask", CostSpec{Model: "unavailable", Base: &CostSpec{Model: "unavailable"}}},
		{"unavailable blocked out of range", CostSpec{Model: "unavailable",
			Base: &CostSpec{Model: "affine", Alpha: 1, Rate: 1}, Blocked: []SlotSpec{{Proc: 0, Time: 99}}}},
		{"unavailable blocked bad proc", CostSpec{Model: "unavailable",
			Base: &CostSpec{Model: "affine", Alpha: 1, Rate: 1}, Blocked: []SlotSpec{{Proc: 5, Time: 0}}}},
	}
	for _, tc := range bad {
		if _, err := BuildCost(tc.spec, 2, 8); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestBuildCostUnavailableFrozenRoundtrip(t *testing.T) {
	m, err := BuildCost(CostSpec{
		Model:   "unavailable",
		Base:    &CostSpec{Model: "affine", Alpha: 2, Rate: 1},
		Blocked: []SlotSpec{{Proc: 0, Time: 3}},
	}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Cost(0, 2, 5); !math.IsInf(got, 1) {
		t.Fatalf("blocked interval cost = %v, want +Inf", got)
	}
	if got := m.Cost(1, 2, 5); got != 5 {
		t.Fatalf("clear interval cost = %v, want 5", got)
	}
	// The codec must hand back a frozen mask: Block-after-serve panics
	// instead of racing with concurrent Cost reads.
	defer func() {
		if recover() == nil {
			t.Fatal("Block on a codec-built mask should panic (frozen)")
		}
	}()
	type blocker interface{ Block(proc, t int) }
	m.(blocker).Block(0, 4)
}

func TestInstanceDigestCanonical(t *testing.T) {
	// Field order and whitespace in the JSON must not change the digest.
	a := `{"procs":1,"horizon":4,"cost":{"model":"affine","alpha":2,"rate":1},
	       "jobs":[{"value":2,"allowed":[{"proc":0,"time":1}]}],"mode":"all"}`
	b := `{
	  "jobs":[{"allowed":[{"time":1,"proc":0}],"value":2}],
	  "cost":{"rate":1,"alpha":2,"model":"affine"},
	  "horizon":4, "procs":1, "eps": 0.25
	}`
	var sa, sb InstanceSpec
	if err := json.Unmarshal([]byte(a), &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &sb); err != nil {
		t.Fatal(err)
	}
	da, db := InstanceDigest(sa), InstanceDigest(sb)
	if da == "" || da != db {
		t.Fatalf("digests differ for identical instances: %q vs %q", da, db)
	}
	// Mode/z/eps are not part of the instance identity...
	sa.Mode, sa.Z = "prize", 3
	if InstanceDigest(sa) != da {
		t.Fatal("mode/z changed the instance digest")
	}
	// ...but the jobs are.
	sa.Jobs[0].Value = 7
	if InstanceDigest(sa) == da {
		t.Fatal("job change did not change the digest")
	}
}

func TestDecodeRequestDefaultsAndErrors(t *testing.T) {
	req, err := DecodeRequest([]byte(`{
		"procs":1,"horizon":3,"cost":{"alpha":1,"rate":1},
		"jobs":[{"allowed":[{"proc":0,"time":0}]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Mode != ModeAll || req.Instance.Jobs[0].Value != 1 {
		t.Fatalf("defaults wrong: mode %v value %v", req.Mode, req.Instance.Jobs[0].Value)
	}
	if req.InstanceKey == "" {
		t.Fatal("decoded request has no instance digest")
	}
	if _, err := DecodeRequest([]byte(`{"procs": `)); err == nil {
		t.Fatal("accepted truncated JSON")
	}
	if _, err := DecodeRequest([]byte(`{"procs":1,"horizon":2,"cost":{},"jobs":[],"mode":"noop"}`)); err == nil ||
		!strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("bad mode err = %v", err)
	}
}

// TestDecodeRequestSolverField: "solver" is a removed wire field. Any
// value — including ones the decoder used to reject, and alongside the
// prize modes — must decode to the same request as the body without it:
// same options, digest and cache key.
func TestDecodeRequestSolverField(t *testing.T) {
	base := `{"procs":1,"horizon":3,"cost":{"alpha":1,"rate":1},
		"jobs":[{"allowed":[{"proc":0,"time":0}]}]`
	for _, mode := range []string{``, `,"mode":"prize","z":1`} {
		want, err := DecodeRequest([]byte(base + mode + `}`))
		if err != nil {
			t.Fatal(err)
		}
		for _, solver := range []string{"", "exact", "quantum"} {
			got, err := DecodeRequest([]byte(base + mode + `,"solver":"` + solver + `"}`))
			if err != nil {
				t.Fatalf("mode %q solver %q: %v", mode, solver, err)
			}
			if got.Mode != want.Mode || got.Opts.Eps != want.Opts.Eps ||
				got.InstanceKey != want.InstanceKey || cacheKey(got) != cacheKey(want) {
				t.Fatalf("mode %q solver %q: decoded to %+v (key %s), want %+v (key %s)",
					mode, solver, got, cacheKey(got), want, cacheKey(want))
			}
		}
	}
}

func TestEncodeScheduleRoundtrip(t *testing.T) {
	req, err := BuildRequest(testSpec(2, 8, 4, CostSpec{Model: "affine", Alpha: 2, Rate: 1}))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	out := EncodeSchedule(s)
	if out.Scheduled != 4 || len(out.Jobs) != 4 || out.Cost != s.Cost || out.Value != s.Value {
		t.Fatalf("encoded %+v from %+v", out, s)
	}
	for _, j := range out.Jobs {
		if !j.Scheduled {
			t.Fatalf("job %d unscheduled in a ModeAll solution", j.Job)
		}
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeAll: "all", ModePrize: "prize", ModePrizeExact: "prize-exact", Mode(9): "mode(9)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}
