package sched_test

import (
	"math/rand"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestScheduleAllAllocs pins ScheduleAll's allocations on the solve-cold
// serving shape (20 Poisson-burst jobs, 2 processors, 64 slots, window
// 2 — BenchmarkScheduleAllSolveCold's pool): the model, the candidates,
// the budget problem and one greedy run with its matcher take 108
// allocations on this instance. The pin keeps per-candidate work, such
// as a second initial-pricing matcher or a gains slice per solve beside
// the greedy's own, from coming back.
func TestScheduleAllAllocs(t *testing.T) {
	const pin = 108
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, adding allocations")
	}
	tr := workload.PoissonBurstTrace(rand.New(rand.NewSource(1)),
		workload.TraceParams{Procs: 2, Horizon: 64, Jobs: 20, Window: 2})
	ins := tr.FinalInstance()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sched.ScheduleAll(ins, sched.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > pin {
		t.Fatalf("ScheduleAll allocates %v times per solve, pinned at %d", allocs, pin)
	}
}

// TestSessionSlideAllocs pins a session's allocations per step of the
// serving benchmark's session-churn shape (BenchmarkSessionSlide): a
// 20-job window over a 40-job Poisson-burst trace drops its oldest job,
// admits the next and re-solves. The session runs ScheduleAll's solve,
// so the step allocates what a model rebuild plus that solve allocate;
// the pin keeps per-solve session state, such as a map of gains per
// candidate interval (128 allocations per step here), from coming back.
// The measured runs cover whole 40-step cycles, so the average is
// deterministic.
func TestSessionSlideAllocs(t *testing.T) {
	const pin = 120
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, adding allocations")
	}
	tr := workload.PoissonBurstTrace(rand.New(rand.NewSource(1)),
		workload.TraceParams{Procs: 2, Horizon: 80, Jobs: 40, Window: 2})
	ins := tr.FinalInstance()
	jobs := ins.Jobs
	ins.Jobs = jobs[:20]
	sess, err := sched.NewSession(ins, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	next := 20
	allocs := testing.AllocsPerRun(2*len(jobs), func() {
		if err := sess.RemoveJob(0); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.AddJob(jobs[next%len(jobs)]); err != nil {
			t.Fatal(err)
		}
		next++
		if _, err := sess.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > pin {
		t.Fatalf("a session slide step allocates %v times, pinned at %d", allocs, pin)
	}
}
