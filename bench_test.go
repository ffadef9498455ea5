// Top-level benchmarks, in two groups. The experiment benchmarks (E1–E17,
// A1–A4 in DESIGN.md's index) each regenerate one experiment's table at
// quick scale, so `go test -bench=.` re-derives every reproduced result.
// The solve benchmarks below them time single solves, session re-solves
// and engine runs in serving shapes; BenchmarkScheduleAllSolveCold and
// BenchmarkSessionSlide are rungs of scripts/bench_snapshot.sh's ladder.
// Per-module micro-benchmarks live next to their packages.
package powersched_test

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/online"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Seed: 42, Quick: true}
	for _, e := range experiments.All() {
		if e.ID != id {
			continue
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(cfg).WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatalf("no experiment %s", id)
}

func BenchmarkE1BudgetedGreedy(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2ScheduleAll(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3PrizeCollecting(b *testing.B)     { benchExperiment(b, "E3") }
func BenchmarkE4ExactThreshold(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5Classical(b *testing.B)           { benchExperiment(b, "E5") }
func BenchmarkE6MonotoneSecretary(b *testing.B)   { benchExperiment(b, "E6") }
func BenchmarkE7NonMonotone(b *testing.B)         { benchExperiment(b, "E7") }
func BenchmarkE8MatroidSecretary(b *testing.B)    { benchExperiment(b, "E8") }
func BenchmarkE9KnapsackSecretary(b *testing.B)   { benchExperiment(b, "E9") }
func BenchmarkE10Subadditive(b *testing.B)        { benchExperiment(b, "E10") }
func BenchmarkE11Bottleneck(b *testing.B)         { benchExperiment(b, "E11") }
func BenchmarkE12HardnessReduction(b *testing.B)  { benchExperiment(b, "E12") }
func BenchmarkE13GapDP(b *testing.B)              { benchExperiment(b, "E13") }
func BenchmarkE14OnlinePowerDown(b *testing.B)    { benchExperiment(b, "E14") }
func BenchmarkE15GammaOblivious(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkE16RollingHorizon(b *testing.B)     { benchExperiment(b, "E16") }
func BenchmarkE17ScenarioMatrix(b *testing.B)     { benchExperiment(b, "E17") }
func BenchmarkA1LazyGreedy(b *testing.B)          { benchExperiment(b, "A1") }
func BenchmarkA2CandidatePolicy(b *testing.B)     { benchExperiment(b, "A2") }
func BenchmarkA3IncrementalMatching(b *testing.B) { benchExperiment(b, "A3") }
func BenchmarkA4EpsilonSweep(b *testing.B)        { benchExperiment(b, "A4") }

// BenchmarkScheduleAllLazy isolates one solve from the experiments'
// trial-level parallelism: one planted instance, one sweep-seeded lazy
// incremental greedy. This is the latency story a single service request
// sees; the experiment benchmarks above measure throughput.
func BenchmarkScheduleAllLazy(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ins, _ := workload.PlantedSchedule(rng, workload.PlantedParams{
		Procs: 2, Horizon: 96, IntervalsPerProc: 2, JobsPerInterval: 16,
		ExtraSlotsPerJob: 2,
		Cost:             power.Affine{Alpha: 4, Rate: 1},
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ScheduleAll(ins, sched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// solveColdPool is the solve-cold serving shape: distinct 20-job
// Poisson-burst instances on 2 processors over a 64-slot horizon, each
// job free to move 2 slots around its anchor. (internal/sched's
// TestScheduleAllSweepAllocs pins the allocations on the same shape.)
func solveColdPool(n int) []*sched.Instance {
	pool := make([]*sched.Instance, n)
	for i := range pool {
		tr := workload.PoissonBurstTrace(rand.New(rand.NewSource(int64(i+1))),
			workload.TraceParams{Procs: 2, Horizon: 64, Jobs: 20, Window: 2})
		pool[i] = tr.FinalInstance()
	}
	return pool
}

// BenchmarkScheduleAllSolveCold is ScheduleAll as a cold wire solve runs
// it — model build, candidate pricing, the sweep-seeded lazy greedy and
// schedule extraction — cycling through distinct instances so no state
// carries over between operations. evals/op is the oracle calls
// (Schedule.Evals) a solve bills on average over the pool, counted off
// the clock so the figure does not depend on b.N: a host-independent
// work figure.
func BenchmarkScheduleAllSolveCold(b *testing.B) {
	pool := solveColdPool(64)
	solve := func(i int) *sched.Schedule {
		s, err := sched.ScheduleAll(pool[i%len(pool)], sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	var evals int64
	for i := range pool {
		evals += solve(i).Evals
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve(i)
	}
	b.ReportMetric(float64(evals)/float64(len(pool)), "evals/op")
}

// BenchmarkSessionResolve measures the session's re-solve cycle —
// mutate (add a job), solve, mutate back (remove it), solve — against
// the same planted instance BenchmarkScheduleAllLazy solves from
// scratch. The add-side re-solve rides the in-place model extension; the
// remove side pays the model rebuild, keeping the number honest about
// both invalidation paths.
func BenchmarkSessionResolve(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ins, _ := workload.PlantedSchedule(rng, workload.PlantedParams{
		Procs: 2, Horizon: 96, IntervalsPerProc: 2, JobsPerInterval: 16,
		ExtraSlotsPerJob: 2,
		Cost:             power.Affine{Alpha: 4, Rate: 1},
	})
	sess, err := sched.NewSession(ins, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		b.Fatal(err)
	}
	extra := sched.Job{Value: 1, Allowed: ins.Jobs[0].Allowed}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := sess.AddJob(extra)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Solve(); err != nil {
			b.Fatal(err)
		}
		if err := sess.RemoveJob(j); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionSlide is one step of the serving benchmark's
// session-churn workload, in process: a 20-job window sliding over a
// 40-job Poisson-burst trace (2 processors, horizon 80, window 2) drops
// its oldest job, admits the next one and re-solves. RemoveJob forces a
// model rebuild, so each step pays model build, candidate pricing and
// the sweep-priced lazy greedy. evals/op is the oracle calls a re-solve
// bills on average over one 40-step cycle of the window, counted off the
// clock on a twin session.
func BenchmarkSessionSlide(b *testing.B) {
	step := slideSession(b)
	twin := slideSession(b)
	var evals int64
	for i := 0; i < 40; i++ {
		evals += twin(i).Evals
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.ReportMetric(float64(evals)/40, "evals/op")
}

// slideSession opens BenchmarkSessionSlide's session, solved once, and
// returns its step i: drop the oldest job, admit trace job i+20 (mod
// 40), re-solve.
func slideSession(b *testing.B) func(i int) *sched.Schedule {
	tr := workload.PoissonBurstTrace(rand.New(rand.NewSource(1)),
		workload.TraceParams{Procs: 2, Horizon: 80, Jobs: 40, Window: 2})
	ins := tr.FinalInstance()
	jobs := ins.Jobs
	ins.Jobs = jobs[:20]
	sess, err := sched.NewSession(ins, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		b.Fatal(err)
	}
	return func(i int) *sched.Schedule {
		if err := sess.RemoveJob(0); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.AddJob(jobs[(i+20)%len(jobs)]); err != nil {
			b.Fatal(err)
		}
		s, err := sess.Solve()
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
}

// BenchmarkEngineTrace runs a whole Poisson-burst arrival trace through
// the rolling-horizon engine per iteration: trace generation, one
// session re-solve per event, commitment, and the final report.
func BenchmarkEngineTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := workload.PoissonBurstTrace(rand.New(rand.NewSource(11)), workload.TraceParams{
			Procs: 2, Horizon: 64, Jobs: 24, Window: 2,
		})
		rep, err := online.RunTrace(tr, sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Plan == nil {
			b.Fatal("no plan")
		}
	}
}
