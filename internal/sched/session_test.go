package sched

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/power"
)

// equalSchedules compares everything but Evals (warm and cold re-solves
// legitimately spend different probe counts for the same answer).
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
// to ScheduleAll on the session's current instance built from scratch
// (including agreeing on infeasibility).
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

// TestSessionWarmResolveBeatsColdOnASeries is the acceptance criterion's
// eval accounting: on the A-series planted instances, a warm re-solve
// after a small mutation spends strictly fewer oracle calls than solving
// the mutated instance from scratch — while producing the identical
// schedule.
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
			warm, err := sess.Solve()
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
			if !equalSchedules(warm, eager) {
				t.Fatalf("per=%d: warm schedule differs from the eager reference", per)
			}
			if warm.Evals >= cold.Evals {
				t.Fatalf("per=%d: warm re-solve used %d evals, cold used %d — no savings",
					per, warm.Evals, cold.Evals)
			}
		}
	}
}

// TestSessionCacheAndTargetedInvalidation pins the invalidation matrix:
// repeat Solve hits the cache (0 evals); AdvanceHorizon under EventPoints
// keeps even the cached schedule; SetUnavailable invalidates the cache
// but not the warm-start records (churn stays 0, so bounds are exact).
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

	// Block a slot no job uses: re-solve required (cache invalidated),
	// but gains are unchanged so the warm run re-picks with few probes.
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
		t.Fatal("warm re-solve after block differs from the cold solve")
	}
	if blocked2 := sess.LastEvals(); blocked2 >= cold.Evals {
		t.Fatalf("warm re-solve after block spent %d evals, cold %d", blocked2, cold.Evals)
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

// TestSessionParallelWorkersIdentical: the session's warm-started solves
// are worker-count invariant like every other greedy path.
func TestSessionParallelWorkersIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ins := plantedSessionInstance(rng, 4)
	var ref *Schedule
	for _, workers := range []int{1, 4} {
		sess, err := NewSession(ins, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Solve(); err != nil {
			t.Fatal(err)
		}
		donor := ins.Jobs[0]
		if _, err := sess.AddJob(Job{Value: 1, Allowed: donor.Allowed}); err != nil {
			t.Fatal(err)
		}
		got, err := sess.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
		} else if !equalSchedules(ref, got) {
			t.Fatalf("workers=%d: schedule differs from serial", workers)
		}
	}
}

// TestSessionWarmStateRoundTrip: exporting a solved session's warm state
// into a fresh session over the same instance must (a) keep the restored
// session's solve byte-identical to the original's, and (b) actually
// warm-start it — fewer oracle evals than a cold from-scratch session —
// including across a post-restore mutation.
func TestSessionWarmStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ins := plantedSessionInstance(rng, 4)
	opts := Options{}

	live, err := NewSession(ins, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Solve(); err != nil {
		t.Fatal(err)
	}
	job := Job{Value: 1, Allowed: []SlotKey{{Proc: 0, Time: 1}, {Proc: 1, Time: 2}}}
	if _, err := live.AddJob(job); err != nil {
		t.Fatal(err)
	}
	want, err := live.Solve()
	if err != nil {
		t.Fatal(err)
	}

	ws := live.ExportWarmState()
	if !ws.Solved || len(ws.Hints) == 0 {
		t.Fatalf("export = %+v, want solved state with hints", ws)
	}
	restored, err := NewSession(live.Instance(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ImportWarmState(ws); err != nil {
		t.Fatal(err)
	}
	got, err := restored.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !equalSchedules(got, want) {
		t.Fatalf("restored solve differs:\n got %+v\nwant %+v", got, want)
	}
	cold, err := NewSession(live.Instance(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Solve(); err != nil {
		t.Fatal(err)
	}
	if restored.LastEvals() >= cold.LastEvals() {
		t.Fatalf("restored solve spent %d evals, cold %d — warm state did not warm",
			restored.LastEvals(), cold.LastEvals())
	}

	// Mutate both and re-solve: still byte-identical, churn accounting intact.
	for _, s := range []*Session{live, restored} {
		if err := s.SetUnavailable(0, 2); err != nil {
			t.Fatal(err)
		}
	}
	w2, err := live.Solve()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := restored.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !equalSchedules(g2, w2) {
		t.Fatalf("post-restore mutation diverged:\n got %+v\nwant %+v", g2, w2)
	}
}

// TestSessionWarmStateValidation: imports into used sessions and unsound
// hints are rejected; a rejected import leaves the session cold and
// fully usable.
func TestSessionWarmStateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ins := plantedSessionInstance(rng, 3)
	sess, err := NewSession(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := sess.ImportWarmState(WarmState{}); err == nil {
		t.Fatal("import into a solved session accepted")
	}

	iv := Interval{Proc: 0, Start: 0, End: 1}
	bad := []WarmState{
		{Churn: -1},
		{Hints: []WarmHint{{Interval: iv, Gain: -1}}},
		{Hints: []WarmHint{{Interval: iv, Gain: math.NaN()}}},
		{Hints: []WarmHint{{Interval: iv, Gain: math.Inf(1)}}},
		{Churn: 2, Hints: []WarmHint{{Interval: iv, Gain: 1, Stamp: 5}}},
	}
	for i, ws := range bad {
		fresh, err := NewSession(ins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.ImportWarmState(ws); err == nil {
			t.Fatalf("unsound warm state %d accepted: %+v", i, ws)
		}
		checkAgainstFromScratch(t, fresh, Options{}, fmt.Sprintf("after rejected import %d", i))
	}
}

// TestSessionUnderstatedWarmStateFallsBackCold: warm state whose gains
// were corrupted below the truth is caught by the lazy loop's bound check
// on the first re-probe; the session answers from one cold re-solve,
// byte-identical to the cold ScheduleAll and the eager reference.
func TestSessionUnderstatedWarmStateFallsBackCold(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ins := plantedSessionInstance(rng, 4)
	donor, err := NewSession(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.Solve(); err != nil {
		t.Fatal(err)
	}
	state := donor.ExportWarmState()
	for i := range state.Hints {
		state.Hints[i].Gain /= 4 // still non-negative, so ImportWarmState accepts it
	}
	sess, err := NewSession(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ImportWarmState(state); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sess.ColdFallbacks() != 1 {
		t.Fatalf("ColdFallbacks = %d, want 1", sess.ColdFallbacks())
	}
	cold, err := ScheduleAll(sess.Instance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.SameAs(cold); err != nil {
		t.Fatalf("fallback answer differs from the cold ScheduleAll: %v", err)
	}
	eager, err := eagerScheduleAll(sess.Instance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.SameAs(eager); err != nil {
		t.Fatalf("fallback answer differs from the eager reference: %v", err)
	}
	// The cold re-solve re-recorded sound gains: the next warm solve after
	// a harmless mutation needs no fallback.
	if err := sess.SetUnavailable(0, sess.Horizon()-1); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	if sess.ColdFallbacks() != 1 {
		t.Fatalf("ColdFallbacks = %d after a sound warm solve, want 1", sess.ColdFallbacks())
	}
}
