package sched

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/budget"
	"repro/internal/power"
	"repro/internal/submodular"
)

// greedyScheduleAll runs greedy (budget.Greedy or budget.LazyGreedy)
// over ScheduleAll's prepared solve input — candidates, Hall check, ε
// and first-slot groups — with from-scratch probes when plain is set.
func greedyScheduleAll(ins *Instance, opts Options, greedy func(budget.Problem, budget.Options) (*budget.Result, error), plain bool) (*Schedule, error) {
	m, err := NewModel(ins)
	if err != nil {
		return nil, err
	}
	if len(ins.Jobs) == 0 {
		return &Schedule{Assignment: []SlotKey{}}, nil
	}
	in, err := m.scheduleAllInput(opts)
	if err != nil {
		return nil, err
	}
	res, err := greedy(in.prob, budget.Options{Eps: in.eps, PlainEval: plain})
	if err != nil {
		return nil, err
	}
	return m.finishScheduleAll(opts, in, res)
}

// eagerScheduleAll is the textbook eager reference for ScheduleAll: the
// same prepared solve input run through budget.Greedy, which probes
// every unpicked candidate every round. The twin built only from the
// public surface is conformance.EagerScheduleAll.
func eagerScheduleAll(ins *Instance, opts Options) (*Schedule, error) {
	return greedyScheduleAll(ins, opts, budget.Greedy, false)
}

// singleSlots is the finest candidate family: one unit interval per
// usable slot, in slot-index order.
func singleSlots(m *Model) []Interval {
	out := make([]Interval, len(m.Slots))
	for i, s := range m.Slots {
		out[i] = Interval{Proc: s.Proc, Start: s.Time, End: s.Time + 1}
	}
	return out
}

// allPairs is the exhaustive candidate family: every [s, e) on every
// processor.
func allPairs(ins *Instance) []Interval {
	var out []Interval
	for proc := 0; proc < ins.Procs; proc++ {
		for s := 0; s < ins.Horizon; s++ {
			for e := s + 1; e <= ins.Horizon; e++ {
				out = append(out, Interval{Proc: proc, Start: s, End: e})
			}
		}
	}
	return out
}

// window returns the slots [lo, hi) on proc as an Allowed list.
func window(proc, lo, hi int) []SlotKey {
	var out []SlotKey
	for t := lo; t < hi; t++ {
		out = append(out, SlotKey{Proc: proc, Time: t})
	}
	return out
}

func tinyInstance() *Instance {
	return &Instance{
		Procs:   1,
		Horizon: 10,
		Jobs: []Job{
			{Value: 1, Allowed: window(0, 0, 3)},
			{Value: 1, Allowed: window(0, 2, 5)},
			{Value: 1, Allowed: window(0, 7, 9)},
		},
		Cost: power.Affine{Alpha: 2, Rate: 1},
	}
}

// randomInstance builds a feasible random instance by planting jobs into
// distinct slots and then widening their windows.
func randomInstance(rng *rand.Rand, procs, horizon, jobs int) *Instance {
	used := map[SlotKey]bool{}
	var js []Job
	for len(js) < jobs {
		s := SlotKey{Proc: rng.Intn(procs), Time: rng.Intn(horizon)}
		if used[s] {
			continue
		}
		used[s] = true
		allowed := []SlotKey{s}
		// Widen: extra random slots, possibly on other processors.
		for k := 0; k < rng.Intn(4); k++ {
			allowed = append(allowed, SlotKey{Proc: rng.Intn(procs), Time: rng.Intn(horizon)})
		}
		js = append(js, Job{Value: 1 + float64(rng.Intn(5)), Allowed: allowed})
	}
	return &Instance{Procs: procs, Horizon: horizon, Jobs: js,
		Cost: power.Affine{Alpha: 1 + rng.Float64()*2, Rate: 0.5 + rng.Float64()}}
}

func TestScheduleAllTiny(t *testing.T) {
	ins := tinyInstance()
	s, err := ScheduleAll(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheduled != 3 {
		t.Fatalf("Scheduled = %d, want 3", s.Scheduled)
	}
	if err := s.Validate(ins); err != nil {
		t.Fatal(err)
	}
	if s.Cost <= 0 {
		t.Fatalf("Cost = %v", s.Cost)
	}
}

func TestScheduleAllEmpty(t *testing.T) {
	ins := &Instance{Procs: 1, Horizon: 5, Cost: power.Affine{Alpha: 1, Rate: 1}}
	s, err := ScheduleAll(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Intervals) != 0 || s.Cost != 0 {
		t.Fatalf("empty instance produced %+v", s)
	}
}

func TestScheduleAllUnschedulable(t *testing.T) {
	ins := &Instance{
		Procs:   1,
		Horizon: 5,
		Jobs: []Job{
			{Allowed: []SlotKey{{0, 1}}},
			{Allowed: []SlotKey{{0, 1}}},
		},
		Cost: power.Affine{Alpha: 1, Rate: 1},
	}
	_, err := ScheduleAll(ins, Options{})
	if !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("err = %v, want ErrUnschedulable", err)
	}
}

func TestScheduleAllJobWithNoSlots(t *testing.T) {
	ins := &Instance{
		Procs: 1, Horizon: 5,
		Jobs: []Job{{Allowed: nil}},
		Cost: power.Affine{Alpha: 1, Rate: 1},
	}
	_, err := ScheduleAll(ins, Options{})
	if !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("err = %v, want ErrUnschedulable", err)
	}
}

func TestScheduleAllBadInstance(t *testing.T) {
	cases := []*Instance{
		{Procs: 0, Horizon: 5, Cost: power.Affine{}},
		{Procs: 1, Horizon: 0, Cost: power.Affine{}},
		{Procs: 1, Horizon: 5, Cost: nil},
		{Procs: 1, Horizon: 5, Cost: power.Affine{},
			Jobs: []Job{{Allowed: []SlotKey{{3, 1}}}}},
		{Procs: 1, Horizon: 5, Cost: power.Affine{},
			Jobs: []Job{{Value: -2, Allowed: []SlotKey{{0, 1}}}}},
	}
	for i, ins := range cases {
		if _, err := ScheduleAll(ins, Options{}); err == nil {
			t.Errorf("case %d: bad instance accepted", i)
		}
	}
}

func TestScheduleAllValidatesOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		ins := randomInstance(rng, 1+rng.Intn(3), 8+rng.Intn(8), 3+rng.Intn(6))
		s, err := ScheduleAll(ins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Scheduled != len(ins.Jobs) {
			t.Fatalf("scheduled %d of %d", s.Scheduled, len(ins.Jobs))
		}
		if err := s.Validate(ins); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFastMatchesBudgetPath: the default path (group-keyed lazy greedy,
// incremental matcher) picks the eager budget greedy's exact sequence.
func TestFastMatchesBudgetPath(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		ins := randomInstance(rng, 2, 10, 5)
		slow, err := eagerScheduleAll(ins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := ScheduleAll(ins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(slow.Cost-fast.Cost) > 1e-9 {
			t.Fatalf("fast cost %v != slow cost %v", fast.Cost, slow.Cost)
		}
		if len(slow.Intervals) != len(fast.Intervals) {
			t.Fatalf("interval counts differ: %v vs %v", slow.Intervals, fast.Intervals)
		}
		for i := range slow.Intervals {
			if slow.Intervals[i] != fast.Intervals[i] {
				t.Fatalf("pick sequences differ: %v vs %v", slow.Intervals, fast.Intervals)
			}
		}
		if err := fast.Validate(ins); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLazyMatchesPlainSched: ScheduleAll's lazy greedy reproduces the
// eager reference decision for decision, with no more evals.
func TestLazyMatchesPlainSched(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		ins := randomInstance(rng, 2, 10, 5)
		plain, err := eagerScheduleAll(ins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := ScheduleAll(ins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := lazy.SameAs(plain); err != nil {
			t.Fatalf("lazy diverges from the eager reference: %v", err)
		}
		if lazy.Evals > plain.Evals {
			t.Fatalf("lazy evals %d > plain evals %d", lazy.Evals, plain.Evals)
		}
	}
}

// TestScheduleAllLogNEnvelope: on planted instances the cost stays within
// the Theorem 2.2.1 envelope c·log(n+1)·B against the planted cost B.
func TestScheduleAllLogNEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		// Plant: one awake interval per processor covering contiguous jobs.
		procs := 2
		perProc := 4
		horizon := 12
		var jobs []Job
		cost := power.Affine{Alpha: 2, Rate: 1}
		planted := 0.0
		for p := 0; p < procs; p++ {
			start := rng.Intn(horizon - perProc)
			for k := 0; k < perProc; k++ {
				jobs = append(jobs, Job{Value: 1, Allowed: window(p, start, start+perProc)})
			}
			planted += cost.Cost(p, start, start+perProc)
		}
		ins := &Instance{Procs: procs, Horizon: horizon, Jobs: jobs, Cost: cost}
		s, err := ScheduleAll(ins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := float64(len(jobs))
		envelope := 4 * planted * (math.Log2(n+1) + 1)
		if s.Cost > envelope {
			t.Fatalf("cost %v exceeds O(B log n) envelope %v (B=%v, n=%v)", s.Cost, envelope, planted, n)
		}
	}
}

// TestModelUtilitiesSubmodular checks Lemmas 2.2.2 and 2.3.2 on the real
// scheduling utilities of random instances.
func TestModelUtilitiesSubmodular(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		ins := randomInstance(rng, 2, 8, 5)
		model, err := NewModel(ins)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []submodular.Function{model.MatchingUtility(), model.WeightedUtility()} {
			if err := submodular.CheckSubmodular(f, rng, 100, 1e-9); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := submodular.CheckMonotone(f, rng, 100, 1e-9); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

func TestPrizeCollecting(t *testing.T) {
	ins := tinyInstance()
	ins.Jobs[0].Value = 10
	ins.Jobs[1].Value = 1
	ins.Jobs[2].Value = 1
	z := 10.0
	eps := 0.25
	s, err := PrizeCollecting(ins, z, Options{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if s.Value < (1-eps)*z {
		t.Fatalf("value %v below (1-eps)Z = %v", s.Value, (1-eps)*z)
	}
	if err := s.Validate(ins); err != nil {
		t.Fatal(err)
	}
}

func TestPrizeCollectingZeroZ(t *testing.T) {
	ins := tinyInstance()
	s, err := PrizeCollecting(ins, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheduled != 0 || s.Cost != 0 {
		t.Fatalf("Z=0 should schedule nothing: %+v", s)
	}
	if err := s.Validate(ins); err != nil {
		t.Fatal(err)
	}
}

func TestPrizeCollectingUnreachable(t *testing.T) {
	ins := tinyInstance() // total value 3
	_, err := PrizeCollecting(ins, 100, Options{})
	if !errors.Is(err, ErrValueUnreachable) {
		t.Fatalf("err = %v, want ErrValueUnreachable", err)
	}
}

func TestPrizeCollectingExactReachesZ(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		ins := randomInstance(rng, 2, 10, 6)
		total := 0.0
		for _, j := range ins.Jobs {
			total += j.Value
		}
		z := total * 0.7
		s, err := PrizeCollectingExact(ins, z, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Value < z-1e-9 {
			t.Fatalf("value %v < Z %v", s.Value, z)
		}
		if err := s.Validate(ins); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnavailableSlotsAvoided(t *testing.T) {
	base := power.Affine{Alpha: 1, Rate: 1}
	u := power.NewUnavailable(base, 10)
	// Block proc 0 entirely during [0,5); job can run on proc 1 instead.
	for tt := 0; tt < 5; tt++ {
		u.Block(0, tt)
	}
	ins := &Instance{
		Procs:   2,
		Horizon: 10,
		Jobs: []Job{
			{Value: 1, Allowed: append(window(0, 0, 5), window(1, 0, 5)...)},
		},
		Cost: u,
	}
	s, err := ScheduleAll(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Assignment[0].Proc != 1 {
		t.Fatalf("job scheduled on blocked processor: %+v", s.Assignment[0])
	}
	if err := s.Validate(ins); err != nil {
		t.Fatal(err)
	}
}

func TestMultiIntervalJob(t *testing.T) {
	// A job with two disjoint windows — the multi-interval generality of
	// Definition 2 that one-interval baselines cannot express.
	ins := &Instance{
		Procs:   1,
		Horizon: 20,
		Jobs: []Job{
			{Value: 1, Allowed: append(window(0, 1, 3), window(0, 15, 17)...)},
			{Value: 1, Allowed: window(0, 15, 17)},
			{Value: 1, Allowed: window(0, 16, 18)},
		},
		Cost: power.Affine{Alpha: 5, Rate: 1},
	}
	s, err := ScheduleAll(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(ins); err != nil {
		t.Fatal(err)
	}
	if s.Scheduled != 3 {
		t.Fatalf("scheduled %d of 3", s.Scheduled)
	}
	// One awake interval around [15,18) hosts all three jobs if job 0 uses
	// a late slot; the greedy should not pay a second α=5 wake at t=1.
	if len(s.Intervals) != 1 {
		t.Logf("intervals: %v (cost %v)", s.Intervals, s.Cost)
	}
	if s.Cost > 13 {
		t.Fatalf("cost %v; combining into one interval costs at most 8+... ", s.Cost)
	}
}

// TestCandidatePolicies: ScheduleAll schedules every job under the
// default family and under given SingleSlots and AllPairs families.
func TestCandidatePolicies(t *testing.T) {
	ins := tinyInstance()
	m, err := NewModel(ins)
	if err != nil {
		t.Fatal(err)
	}
	for name, family := range map[string][]Interval{
		"event-points": nil, "single-slots": singleSlots(m), "all-pairs": allPairs(ins),
	} {
		s, err := ScheduleAll(ins, Options{Candidates: family})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Scheduled != 3 {
			t.Fatalf("%s: scheduled %d", name, s.Scheduled)
		}
		if err := s.Validate(ins); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ins := tinyInstance()
	s, err := ScheduleAll(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: move an assignment outside its allowed window.
	bad := *s
	bad.Assignment = append([]SlotKey(nil), s.Assignment...)
	bad.Assignment[0] = SlotKey{Proc: 0, Time: 9}
	if err := bad.Validate(ins); err == nil {
		t.Fatal("validator missed disallowed slot")
	}
	// Corrupt: wrong cost.
	bad2 := *s
	bad2.Cost += 5
	if err := bad2.Validate(ins); err == nil {
		t.Fatal("validator missed cost mismatch")
	}
	// Corrupt: duplicate slot.
	bad3 := *s
	bad3.Assignment = append([]SlotKey(nil), s.Assignment...)
	bad3.Assignment[1] = bad3.Assignment[0]
	if err := bad3.Validate(ins); err == nil {
		t.Fatal("validator missed slot collision")
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Proc: 1, Start: 2, End: 5}
	if iv.Length() != 3 {
		t.Fatal("Length")
	}
	if !iv.Contains(1, 4) || iv.Contains(1, 5) || iv.Contains(0, 3) {
		t.Fatal("Contains")
	}
	if iv.String() != "P1[2,5)" {
		t.Fatalf("String = %q", iv.String())
	}
}

func BenchmarkScheduleAll(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ins := randomInstance(rng, 3, 40, 25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleAll(ins, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrizeCollecting(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ins := randomInstance(rng, 3, 40, 25)
	total := 0.0
	for _, j := range ins.Jobs {
		total += j.Value
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PrizeCollecting(ins, total*0.6, Options{Eps: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}
