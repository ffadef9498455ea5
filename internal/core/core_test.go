package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestSolveAllSmallWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		ins, _ := workload.PlantedSchedule(rng, workload.PlantedParams{
			Procs: 2, Horizon: 12, IntervalsPerProc: 1, JobsPerInterval: 2,
			ExtraSlotsPerJob: 1,
			Cost:             power.Affine{Alpha: 2, Rate: 1},
		})
		if _, err := SolveAll(ins, 2_000_000); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSolveAllLargerWithoutExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ins, _ := workload.PlantedSchedule(rng, workload.PlantedParams{
		Procs: 3, Horizon: 40, IntervalsPerProc: 2, JobsPerInterval: 4,
		ExtraSlotsPerJob: 2,
		Cost:             power.PerProcessor{Alpha: []float64{2, 4, 6}, Rate: []float64{1, 0.5, 2}},
	})
	r, err := SolveAll(ins, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Exact != nil {
		t.Fatal("exact should be disabled")
	}
	if r.Greedy.Cost > r.AlwaysOn.Cost {
		t.Fatalf("greedy %v should not lose to always-on %v", r.Greedy.Cost, r.AlwaysOn.Cost)
	}
}

// TestSolveAllStress fuzzes random instances through the whole system;
// SolveAll's internal cross-checks are the assertions.
func TestSolveAllStress(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		ins := workload.MultiIntervalJobs(rng, 1+rng.Intn(3), 10+rng.Intn(10),
			3+rng.Intn(5), 1+rng.Intn(2), 2, nil)
		r, err := SolveAll(ins, 0)
		if errors.Is(err, sched.ErrUnschedulable) {
			continue // random windows may genuinely collide
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_ = r
	}
}

func TestSolveAllUnschedulable(t *testing.T) {
	ins := &sched.Instance{
		Procs: 1, Horizon: 3,
		Jobs: []sched.Job{
			{Value: 1, Allowed: []sched.SlotKey{{Proc: 0, Time: 0}}},
			{Value: 1, Allowed: []sched.SlotKey{{Proc: 0, Time: 0}}},
		},
		Cost: power.Affine{Alpha: 1, Rate: 1},
	}
	if _, err := SolveAll(ins, 0); err == nil {
		t.Fatal("unschedulable instance accepted")
	}
}

// TestSolveAllNewArmsPopulated pins the session mutation-replay arm: it
// is solved and agrees with the default path byte for byte.
func TestSolveAllNewArmsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ins, _ := workload.PlantedSchedule(rng, workload.PlantedParams{
		Procs: 2, Horizon: 24, IntervalsPerProc: 2, JobsPerInterval: 3,
		ExtraSlotsPerJob: 1,
		Cost:             power.Affine{Alpha: 3, Rate: 1},
	})
	r, err := SolveAll(ins, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Session == nil {
		t.Fatal("session arm missing from the report")
	}
	if err := r.Session.SameAs(r.Fast); err != nil {
		t.Fatalf("session replay differs: %v", err)
	}
}
