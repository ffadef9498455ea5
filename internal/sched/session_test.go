package sched

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/power"
)

// equalSchedules compares everything but Evals (the eager reference
// spends more probes than the lazy greedy for the same answer).
func equalSchedules(a, b *Schedule) bool { return a.SameAs(b) == nil }

// plantedSessionInstance builds the A-series (e2-style) planted workload
// without importing the experiments package.
func plantedSessionInstance(rng *rand.Rand, per int) *Instance {
	ins := &Instance{Procs: 2, Horizon: 6 * per, Cost: power.Affine{Alpha: 4, Rate: 1}}
	stripe := ins.Horizon / 2
	for proc := 0; proc < ins.Procs; proc++ {
		for w := 0; w < 2; w++ {
			start := w*stripe + rng.Intn(stripe-per+1)
			for j := 0; j < per; j++ {
				job := Job{Value: 1}
				for t := start; t < start+per; t++ {
					job.Allowed = append(job.Allowed, SlotKey{Proc: proc, Time: t})
				}
				for e := 0; e < 2; e++ {
					job.Allowed = append(job.Allowed, SlotKey{
						Proc: rng.Intn(ins.Procs), Time: rng.Intn(ins.Horizon),
					})
				}
				ins.Jobs = append(ins.Jobs, job)
			}
		}
	}
	return ins
}

// checkAgainstFromScratch asserts the session's Solve is byte-identical
// to the eager reference on the session's current instance built from
// scratch (including agreeing on infeasibility), and spends exactly the
// evals ScheduleAll spends there: the session runs ScheduleAll's solve.
func checkAgainstFromScratch(t *testing.T, sess *Session, opts Options, label string) {
	t.Helper()
	got, errS := sess.Solve()
	want, errF := eagerScheduleAll(sess.Instance(), opts)
	if (errS == nil) != (errF == nil) {
		t.Fatalf("%s: feasibility disagreement: session=%v from-scratch=%v", label, errS, errF)
	}
	if errS != nil {
		if !errors.Is(errS, ErrUnschedulable) || !errors.Is(errF, ErrUnschedulable) {
			t.Fatalf("%s: errors disagree: session=%v from-scratch=%v", label, errS, errF)
		}
		return
	}
	if !equalSchedules(got, want) {
		t.Fatalf("%s: session schedule differs from from-scratch:\n got %+v\nwant %+v", label, got, want)
	}
	if err := got.Validate(sess.Instance()); err != nil {
		t.Fatalf("%s: session schedule invalid: %v", label, err)
	}
	cold, err := ScheduleAll(sess.Instance(), opts)
	if err != nil {
		t.Fatalf("%s: from-scratch ScheduleAll: %v", label, err)
	}
	if got.Evals != cold.Evals {
		t.Fatalf("%s: session solve spent %d evals, ScheduleAll %d", label, got.Evals, cold.Evals)
	}
}

// TestSessionMatchesFromScratchUnderMutations drives a session through a
// random mutation script (adds, removes, blocks, horizon advances) and
// checks the differential invariant after every step.
func TestSessionMatchesFromScratchUnderMutations(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		ins := plantedSessionInstance(rng, 4)
		opts := Options{}
		sess, err := NewSession(ins, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstFromScratch(t, sess, opts, "initial")
		for step := 0; step < 8; step++ {
			switch rng.Intn(5) {
			case 0, 1: // add a job with a modest random window
				start := rng.Intn(sess.Horizon() - 3)
				job := Job{Value: 1}
				proc := rng.Intn(sess.Procs())
				for t2 := start; t2 < start+3; t2++ {
					job.Allowed = append(job.Allowed, SlotKey{Proc: proc, Time: t2})
				}
				if _, err := sess.AddJob(job); err != nil {
					t.Fatal(err)
				}
			case 2: // remove a random job
				if sess.Jobs() > 1 {
					if err := sess.RemoveJob(rng.Intn(sess.Jobs())); err != nil {
						t.Fatal(err)
					}
				}
			case 3: // block a random slot
				if err := sess.SetUnavailable(rng.Intn(sess.Procs()), rng.Intn(sess.Horizon())); err != nil {
					t.Fatal(err)
				}
			case 4: // advance the horizon
				if err := sess.AdvanceHorizon(sess.Horizon() + 1 + rng.Intn(4)); err != nil {
					t.Fatal(err)
				}
			}
			checkAgainstFromScratch(t, sess, opts, "after mutation")
		}
	}
}

// TestSessionWarmResolveBeatsColdOnASeries pins the session's eval
// accounting on the A-series planted instances: a re-solve after a small
// mutation is ScheduleAll's solve, so it spends exactly the
// oracle calls of solving the mutated instance from scratch, and picks
// the eager reference's schedule.
func TestSessionWarmResolveBeatsColdOnASeries(t *testing.T) {
	for _, per := range []int{4, 8} { // n = 16, 32 — A3's instance sizes
		for trial := 0; trial < 4; trial++ {
			rng := rand.New(rand.NewSource(int64(1000*per + trial)))
			ins := plantedSessionInstance(rng, per)
			sess, err := NewSession(ins, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Solve(); err != nil {
				t.Fatal(err)
			}
			// Small mutation: one more job inside an existing job's window
			// (no new slots, the common online case).
			donor := ins.Jobs[rng.Intn(len(ins.Jobs))]
			if _, err := sess.AddJob(Job{Value: 1, Allowed: donor.Allowed[:per]}); err != nil {
				t.Fatal(err)
			}
			resolve, err := sess.Solve()
			if err != nil {
				t.Fatal(err)
			}
			cold, err := ScheduleAll(sess.Instance(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			eager, err := eagerScheduleAll(sess.Instance(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !equalSchedules(resolve, eager) {
				t.Fatalf("per=%d: re-solve schedule differs from the eager reference", per)
			}
			if resolve.Evals != cold.Evals || sess.LastEvals() != cold.Evals {
				t.Fatalf("per=%d: re-solve used %d evals (LastEvals %d), ScheduleAll %d",
					per, resolve.Evals, sess.LastEvals(), cold.Evals)
			}
		}
	}
}

// TestSessionCacheAndTargetedInvalidation pins the invalidation matrix:
// repeat Solve hits the cache (0 evals); AdvanceHorizon under EventPoints
// keeps even the cached schedule; SetUnavailable invalidates the cache,
// and the re-solve spends exactly ScheduleAll's evals.
func TestSessionCacheAndTargetedInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ins := plantedSessionInstance(rng, 4)
	sess, err := NewSession(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	again, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sess.LastEvals() != 0 {
		t.Fatalf("repeat Solve spent %d evals, want 0 (cache)", sess.LastEvals())
	}
	if !equalSchedules(first, again) {
		t.Fatal("cached solve differs")
	}
	// Horizon advance under EventPoints: still served from cache.
	if err := sess.AdvanceHorizon(sess.Horizon() + 10); err != nil {
		t.Fatal(err)
	}
	advanced, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sess.LastEvals() != 0 {
		t.Fatalf("post-AdvanceHorizon Solve spent %d evals, want 0", sess.LastEvals())
	}
	if !equalSchedules(first, advanced) {
		t.Fatal("horizon advance changed the schedule")
	}
	checkAgainstFromScratch(t, sess, Options{}, "after advance")

	// Block a slot no job uses: re-solve required (cache invalidated).
	if err := sess.SetUnavailable(0, sess.Horizon()-1); err != nil {
		t.Fatal(err)
	}
	blocked, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !equalSchedules(first, blocked) {
		t.Fatal("blocking an unused slot changed the schedule")
	}
	cold, err := ScheduleAll(sess.Instance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !equalSchedules(blocked, cold) {
		t.Fatal("re-solve after block differs from the cold solve")
	}
	if got := sess.LastEvals(); got != cold.Evals {
		t.Fatalf("re-solve after block spent %d evals, cold %d", got, cold.Evals)
	}
}

// TestSessionRemoveJobAndInfeasibility: removing jobs matches the
// shifted from-scratch instance, and blocking a planted window until the
// instance is unschedulable surfaces the same Hall-witness error the
// from-scratch path reports.
func TestSessionRemoveJobAndInfeasibility(t *testing.T) {
	ins := &Instance{Procs: 1, Horizon: 4, Cost: power.Affine{Alpha: 2, Rate: 1}}
	for t2 := 0; t2 < 3; t2++ {
		ins.Jobs = append(ins.Jobs, Job{Value: 1, Allowed: []SlotKey{
			{Proc: 0, Time: t2}, {Proc: 0, Time: t2 + 1},
		}})
	}
	sess, err := NewSession(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstFromScratch(t, sess, Options{}, "initial")
	if err := sess.RemoveJob(1); err != nil {
		t.Fatal(err)
	}
	if sess.Jobs() != 2 {
		t.Fatalf("jobs = %d after removal, want 2", sess.Jobs())
	}
	checkAgainstFromScratch(t, sess, Options{}, "after remove")
	// Block every slot: both paths must report unschedulable.
	for t2 := 0; t2 < 4; t2++ {
		if err := sess.SetUnavailable(0, t2); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstFromScratch(t, sess, Options{}, "after full block")
	if _, err := sess.Solve(); !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("err = %v, want ErrUnschedulable", err)
	}
}

// TestSessionMutationValidation: out-of-range mutations are rejected and
// leave the session usable.
func TestSessionMutationValidation(t *testing.T) {
	ins := &Instance{Procs: 1, Horizon: 4, Cost: power.Affine{Alpha: 2, Rate: 1},
		Jobs: []Job{{Value: 1, Allowed: []SlotKey{{Proc: 0, Time: 0}}}}}
	sess, err := NewSession(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AddJob(Job{Allowed: []SlotKey{{Proc: 2, Time: 0}}}); err == nil {
		t.Fatal("out-of-range job accepted")
	}
	if _, err := sess.AddJob(Job{Value: -1, Allowed: []SlotKey{{Proc: 0, Time: 0}}}); err == nil {
		t.Fatal("negative-value job accepted")
	}
	if err := sess.RemoveJob(5); err == nil {
		t.Fatal("out-of-range removal accepted")
	}
	if err := sess.SetUnavailable(0, 9); err == nil {
		t.Fatal("out-of-range block accepted")
	}
	if err := sess.AdvanceHorizon(2); err == nil {
		t.Fatal("horizon shrink accepted")
	}
	checkAgainstFromScratch(t, sess, Options{}, "after rejected mutations")
}

// TestSessionEmptySolve: an empty session solves to the empty schedule
// at zero evals, answers a repeat from its cache, and keeps the model
// that solve built: the next AddJob extends it in place, and the solve
// after that matches ScheduleAll on the same instance.
func TestSessionEmptySolve(t *testing.T) {
	ins := &Instance{Procs: 2, Horizon: 6, Cost: power.Affine{Alpha: 2, Rate: 1}}
	sess, err := NewSession(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		got, err := sess.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Intervals) != 0 || len(got.Assignment) != 0 || got.Cost != 0 || sess.LastEvals() != 0 {
			t.Fatalf("solve %d of the empty session: %+v, %d evals", k, got, sess.LastEvals())
		}
	}
	if solves, hits := sess.Stats(); solves != 1 || hits != 1 || sess.model == nil {
		t.Fatalf("stats (%d solves, %d hits), model built %v; want (1, 1), true", solves, hits, sess.model != nil)
	}
	if _, err := sess.AddJob(Job{Value: 1, Allowed: []SlotKey{{Proc: 1, Time: 2}, {Proc: 0, Time: 4}}}); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ScheduleAll(sess.Instance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.SameAs(want); err != nil || got.Evals != want.Evals || sess.TotalEvals() != want.Evals {
		t.Fatalf("after AddJob: %v (evals %d, total %d, cold %d)", err, got.Evals, sess.TotalEvals(), want.Evals)
	}
}
