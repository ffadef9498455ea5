package sched_test

import (
	"math/rand"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestScheduleAllSweepAllocs pins ScheduleAll's allocations on the
// solve-cold serving shape (20 Poisson-burst jobs, 2 processors, 64
// slots, window 2 — BenchmarkScheduleAllSolveCold's pool) at or below the
// lazy greedy that probes every candidate for its initial heap: the
// prefix sweep reuses one matcher, handed on to the greedy afterwards,
// and a Model-owned buffer, so pricing the heap by sweep adds nothing.
// (Before the sweep the wire path's lazy solve took 118 allocations on
// this instance; the sweep path takes 116.)
func TestScheduleAllSweepAllocs(t *testing.T) {
	tr := workload.PoissonBurstTrace(rand.New(rand.NewSource(1)),
		workload.TraceParams{Procs: 2, Horizon: 64, Jobs: 20, Window: 2})
	ins := tr.FinalInstance()
	swept, err := sched.ScheduleAll(ins, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	probed, err := sched.ScheduleAllProbed(ins, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := swept.SameAs(probed); err != nil || swept.Evals != probed.Evals {
		t.Fatalf("sweep path diverges from the probing path (evals %d vs %d): %v", swept.Evals, probed.Evals, err)
	}
	sweptAllocs := testing.AllocsPerRun(20, func() { _, _ = sched.ScheduleAll(ins, sched.Options{}) })
	probedAllocs := testing.AllocsPerRun(20, func() { _, _ = sched.ScheduleAllProbed(ins, sched.Options{}) })
	if sweptAllocs > probedAllocs {
		t.Fatalf("ScheduleAll allocates %v times per solve, the probing lazy path %v", sweptAllocs, probedAllocs)
	}
}
