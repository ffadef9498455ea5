package online

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/workload"
)

func engineGenerators() map[string]func(*rand.Rand, workload.TraceParams) *workload.ArrivalTrace {
	return map[string]func(*rand.Rand, workload.TraceParams) *workload.ArrivalTrace{
		"poisson":     workload.PoissonBurstTrace,
		"diurnal":     workload.DiurnalTrace,
		"frontloaded": workload.FrontLoadedTrace,
	}
}

func schedulesEqual(a, b *sched.Schedule) bool { return a.SameAs(b) == nil }

// TestEngineMatchesClairvoyantFromScratch is the PR's differential
// invariant: for every generated arrival trace, the engine's post-trace
// schedule is byte-identical to sched.ScheduleAll on the equivalently-
// mutated instance built from scratch.
func TestEngineMatchesClairvoyantFromScratch(t *testing.T) {
	params := workload.TraceParams{Procs: 2, Horizon: 32, Jobs: 12, Window: 2}
	for name, gen := range engineGenerators() {
		for seed := int64(0); seed < 5; seed++ {
			tr := gen(rand.New(rand.NewSource(seed)), params)
			rep, err := RunTrace(tr, sched.Options{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			want, err := sched.ScheduleAll(tr.FinalInstance(), sched.Options{})
			if err != nil {
				t.Fatalf("%s seed %d: from-scratch: %v", name, seed, err)
			}
			if !schedulesEqual(rep.Plan, want) {
				t.Fatalf("%s seed %d: engine plan differs from clairvoyant from-scratch solve\n got %+v\nwant %+v",
					name, seed, rep.Plan, want)
			}
		}
	}
}

// TestEngineCommittedScheduleSound checks the online output's invariants:
// committed runs lie inside the horizon and are maximal (no two adjacent
// runs touch), every served job ran on a committed-awake slot its window
// allows, no slot served two jobs, counts add up, and the committed cost
// matches re-pricing the runs.
func TestEngineCommittedScheduleSound(t *testing.T) {
	params := workload.TraceParams{Procs: 2, Horizon: 32, Jobs: 12, Window: 2}
	for name, gen := range engineGenerators() {
		for seed := int64(0); seed < 5; seed++ {
			tr := gen(rand.New(rand.NewSource(seed)), params)
			rep, err := RunTrace(tr, sched.Options{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			ins := tr.FinalInstance()
			if got := rep.Served + rep.Missed; got != len(ins.Jobs) {
				t.Fatalf("%s seed %d: served %d + missed %d != %d jobs", name, seed, rep.Served, rep.Missed, len(ins.Jobs))
			}
			awake := map[sched.SlotKey]bool{}
			var lastEnd = map[int]int{}
			cost := 0.0
			for _, iv := range rep.CommittedIntervals {
				if iv.Start < 0 || iv.End > tr.Horizon || iv.Start >= iv.End {
					t.Fatalf("%s seed %d: bad committed run %v", name, seed, iv)
				}
				if prev, ok := lastEnd[iv.Proc]; ok && iv.Start <= prev {
					t.Fatalf("%s seed %d: committed runs touch or overlap on proc %d", name, seed, iv.Proc)
				}
				lastEnd[iv.Proc] = iv.End
				for u := iv.Start; u < iv.End; u++ {
					awake[sched.SlotKey{Proc: iv.Proc, Time: u}] = true
				}
				cost += tr.Cost.Cost(iv.Proc, iv.Start, iv.End)
			}
			if math.Abs(cost-rep.CommittedCost) > 1e-9 {
				t.Fatalf("%s seed %d: committed cost %g, re-priced %g", name, seed, rep.CommittedCost, cost)
			}
			seen := map[sched.SlotKey]int{}
			for j, slot := range rep.Assignment {
				if slot == sched.Unassigned {
					continue
				}
				if !awake[slot] {
					t.Fatalf("%s seed %d: job %d ran on un-committed slot %+v", name, seed, j, slot)
				}
				if prev, dup := seen[slot]; dup {
					t.Fatalf("%s seed %d: jobs %d and %d share slot %+v", name, seed, prev, j, slot)
				}
				seen[slot] = j
				allowed := false
				for _, a := range ins.Jobs[j].Allowed {
					if a == slot {
						allowed = true
						break
					}
				}
				if !allowed {
					t.Fatalf("%s seed %d: job %d ran on disallowed slot %+v", name, seed, j, slot)
				}
			}
		}
	}
}

// TestEngineEventOrderingEnforced: time travel, out-of-horizon events,
// and past-slot demands are rejected.
func TestEngineEventOrderingEnforced(t *testing.T) {
	if _, err := NewEngine(1, 10, nil, sched.Options{}); err == nil {
		t.Fatal("nil cost model accepted")
	}
	e, err := NewEngine(1, 10, power.Affine{Alpha: 2, Rate: 1}, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	job := func(t2 int) sched.Job {
		return sched.Job{Value: 1, Allowed: []sched.SlotKey{{Proc: 0, Time: t2}}}
	}
	if err := e.Arrive(4, []sched.Job{job(6)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Arrive(2, nil); err == nil {
		t.Fatal("time travel accepted")
	}
	if err := e.Arrive(12, nil); err == nil {
		t.Fatal("out-of-horizon event accepted")
	}
	if err := e.Arrive(6, []sched.Job{job(5)}); err == nil {
		t.Fatal("past-slot demand accepted")
	}
	if e.Now() != 4 {
		t.Fatalf("rejected events moved time to %d", e.Now())
	}
	rep := e.Finish()
	if rep.Served != 1 || rep.Missed != 0 {
		t.Fatalf("served %d missed %d, want 1/0", rep.Served, rep.Missed)
	}
}
