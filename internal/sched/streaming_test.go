package sched

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/power"
)

// streamOpts forces the sieve path regardless of instance size.
func streamOpts() Options {
	return Options{Streaming: true, StreamThreshold: -1}
}

func TestStreamingScheduleAllSchedulesEveryJob(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 15; trial++ {
		ins := randomInstance(rng, 2, 24, 3+rng.Intn(10))
		got, err := ScheduleAll(ins, streamOpts())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Scheduled != len(ins.Jobs) {
			t.Fatalf("trial %d: scheduled %d of %d", trial, got.Scheduled, len(ins.Jobs))
		}
		if err := got.Validate(ins); err != nil {
			t.Fatalf("trial %d: invalid schedule: %v", trial, err)
		}
	}
}

func TestStreamingScheduleAllCostStaysCompetitive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		ins := randomInstance(rng, 2, 20, 8)
		exact, err := ScheduleAll(ins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		stream, err := ScheduleAll(ins, streamOpts())
		if err != nil {
			t.Fatal(err)
		}
		// The streaming tier trades cost for bounded memory; O(log n)
		// residual passes each within the sieve guarantee keep it inside
		// a small multiple of the exact greedy on these instances.
		if stream.Cost > 8*exact.Cost {
			t.Fatalf("trial %d: streaming cost %g vs exact %g", trial, stream.Cost, exact.Cost)
		}
	}
}

func TestStreamingScheduleAllInfeasibleMatchesExact(t *testing.T) {
	// Two jobs fighting over one slot: same Hall witness on both paths.
	ins := &Instance{
		Procs: 1, Horizon: 4,
		Jobs: []Job{
			{Value: 1, Allowed: window(0, 0, 1)},
			{Value: 1, Allowed: window(0, 0, 1)},
		},
		Cost: power.Affine{Alpha: 1, Rate: 1},
	}
	_, exactErr := ScheduleAll(ins, Options{})
	_, streamErr := ScheduleAll(ins, streamOpts())
	if !errors.Is(exactErr, ErrUnschedulable) || !errors.Is(streamErr, ErrUnschedulable) {
		t.Fatalf("want ErrUnschedulable on both paths, got exact=%v stream=%v", exactErr, streamErr)
	}
	var ew, sw *UnschedulableError
	if !errors.As(exactErr, &ew) || !errors.As(streamErr, &sw) {
		t.Fatalf("want Hall witnesses, got exact=%v stream=%v", exactErr, streamErr)
	}
	if ew.Matched != sw.Matched || len(ew.Jobs) != len(sw.Jobs) {
		t.Fatalf("witness mismatch: exact=%+v stream=%+v", ew, sw)
	}
}

func TestStreamingThresholdFallsBackToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ins := randomInstance(rng, 2, 20, 6)
	exact, err := ScheduleAll(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 6 jobs < threshold 100: the streaming flag must be a no-op.
	got, err := ScheduleAll(ins, Options{Streaming: true, StreamThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.SameAs(exact); err != nil {
		t.Fatalf("below-threshold streaming solve should be byte-identical to exact: %v", err)
	}
	// And the default threshold (2048) also keeps small instances exact.
	got, err = ScheduleAll(ins, Options{Streaming: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.SameAs(exact); err != nil {
		t.Fatalf("default-threshold streaming solve should be byte-identical to exact: %v", err)
	}
}

func TestScheduleBudgetWithinBudgetAndCompetitive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		ins := randomInstance(rng, 2, 24, 8)
		exact, err := ScheduleAll(ins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts := streamOpts()
		got, err := ScheduleBudget(ins, exact.Cost, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(ins); err != nil {
			t.Fatalf("trial %d: invalid: %v", trial, err)
		}
		if got.Cost > exact.Cost+1e-9 {
			t.Fatalf("trial %d: budget %g exceeded: cost %g", trial, exact.Cost, got.Cost)
		}
		eps := opts.streamEps()
		if float64(got.Scheduled) < (0.5-eps)*float64(exact.Scheduled)-1e-9 {
			t.Fatalf("trial %d: scheduled %d, want >= (1/2-eps)*%d", trial, got.Scheduled, exact.Scheduled)
		}
	}
}

func TestSessionSolveStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ins := randomInstance(rng, 2, 24, 8)
	s, err := NewSession(ins, streamOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.SolveStreaming()
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheduled != len(ins.Jobs) {
		t.Fatalf("scheduled %d of %d", got.Scheduled, len(ins.Jobs))
	}
	if err := got.Validate(ins); err != nil {
		t.Fatal(err)
	}
	if s.StreamSolves() != 1 {
		t.Fatalf("StreamSolves = %d, want 1", s.StreamSolves())
	}
	// Second call on an unchanged session hits the streaming cache: no
	// oracle work, identical schedule.
	again, err := s.SolveStreaming()
	if err != nil {
		t.Fatal(err)
	}
	if s.LastEvals() != 0 {
		t.Fatalf("cache hit spent %d evals", s.LastEvals())
	}
	if err := again.SameAs(got); err != nil {
		t.Fatalf("cached streaming solve differs: %v", err)
	}
	// A mutation invalidates the streaming cache.
	if _, err := s.AddJob(Job{Value: 1, Allowed: window(0, 0, 4)}); err != nil {
		t.Fatal(err)
	}
	got, err = s.SolveStreaming()
	if err != nil {
		t.Fatal(err)
	}
	if s.LastEvals() == 0 {
		t.Fatal("post-mutation streaming solve did no oracle work — stale cache served")
	}
	if got.Scheduled != s.Jobs() {
		t.Fatalf("post-mutation scheduled %d of %d", got.Scheduled, s.Jobs())
	}
	if s.StreamSolves() != 2 {
		t.Fatalf("StreamSolves = %d, want 2", s.StreamSolves())
	}
}

func TestSessionSolveStreamingBelowThresholdDelegates(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ins := randomInstance(rng, 2, 20, 6)
	exactSess, err := NewSession(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exactSess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// 6 jobs < the default threshold: SolveStreaming is Solve.
	s, err := NewSession(ins, Options{Streaming: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.SolveStreaming()
	if err != nil {
		t.Fatal(err)
	}
	if err := got.SameAs(want); err != nil {
		t.Fatalf("below-threshold SolveStreaming differs from Solve: %v", err)
	}
	if s.StreamSolves() != 0 {
		t.Fatalf("delegated solve counted as streaming: %d", s.StreamSolves())
	}
	// The delegated result lands in the exact cache, so a plain Solve
	// after it is a cache hit.
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if s.LastEvals() != 0 {
		t.Fatalf("Solve after delegated SolveStreaming spent %d evals", s.LastEvals())
	}
}

func TestScheduleBudgetTinyBudget(t *testing.T) {
	ins := tinyInstance()
	// A budget below the cheapest candidate schedules nothing but stays
	// well-formed.
	got, err := ScheduleBudget(ins, 0.5, streamOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheduled != 0 || len(got.Intervals) != 0 || got.Cost != 0 {
		t.Fatalf("want empty schedule, got %+v", got)
	}
	if err := got.Validate(ins); err != nil {
		t.Fatal(err)
	}
	// Empty instance short-circuits.
	empty := &Instance{Procs: 1, Horizon: 3, Cost: power.Affine{Alpha: 1, Rate: 1}}
	got, err = ScheduleBudget(empty, 10, streamOpts())
	if err != nil || got.Scheduled != 0 {
		t.Fatalf("empty instance: %v %+v", err, got)
	}
}
