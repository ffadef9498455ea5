package conformance

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/schedexact"
	"repro/internal/workload"
)

// checkEveryArm runs the whole self-check on one instance: CheckSolve
// (ScheduleAll's arms against the eager baseline), CheckBaselines (the
// schedexact baselines and, with exactLimit > 0, the exact optimum and
// the O(log n) envelope) and CheckSession over an arrival replay — a
// session opened on the empty instance that receives every job one at a
// time, so its model is extended in place rather than rebuilt.
func checkEveryArm(t *testing.T, ins *sched.Instance, exactLimit int) {
	t.Helper()
	if err := CheckSolve(ins, sched.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := CheckBaselines(ins, exactLimit); err != nil {
		t.Fatal(err)
	}
	empty := &sched.Instance{Procs: ins.Procs, Horizon: ins.Horizon, Cost: ins.Cost}
	var arrivals []Mutation
	for _, job := range ins.Jobs {
		arrivals = append(arrivals, Mutation{Op: OpAddJob, Job: job})
	}
	if err := CheckSession(empty, sched.Options{}, arrivals); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesSmallWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		ins, _ := workload.PlantedSchedule(rng, workload.PlantedParams{
			Procs: 2, Horizon: 12, IntervalsPerProc: 1, JobsPerInterval: 2,
			ExtraSlotsPerJob: 1,
			Cost:             power.Affine{Alpha: 2, Rate: 1},
		})
		checkEveryArm(t, ins, 2_000_000)
		// The exact arm really runs: a one-leaf budget cannot finish.
		if err := CheckBaselines(ins, 1); !errors.Is(err, schedexact.ErrBudgetExceeded) {
			t.Fatalf("trial %d: one-leaf exact arm err = %v, want ErrBudgetExceeded", trial, err)
		}
	}
}

func TestBaselinesLargerWithoutExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ins, _ := workload.PlantedSchedule(rng, workload.PlantedParams{
		Procs: 3, Horizon: 40, IntervalsPerProc: 2, JobsPerInterval: 4,
		ExtraSlotsPerJob: 2,
		Cost:             power.PerProcessor{Alpha: []float64{2, 4, 6}, Rate: []float64{1, 0.5, 2}},
	})
	checkEveryArm(t, ins, 0)
	greedy, err := sched.ScheduleAll(ins, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := schedexact.AlwaysOn(ins)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Cost > on.Cost {
		t.Fatalf("greedy %v should not lose to always-on %v", greedy.Cost, on.Cost)
	}
}

// TestBaselinesStress fuzzes random multi-window instances through every
// arm; the checkers' cross-checks are the assertions.
func TestBaselinesStress(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		ins := workload.MultiIntervalJobs(rng, 1+rng.Intn(3), 10+rng.Intn(10),
			3+rng.Intn(5), 1+rng.Intn(2), 2, nil)
		checkEveryArm(t, ins, 0)
	}
}

// TestBaselinesUnschedulable: two jobs sharing one slot. Every arm must
// reject the instance, and the checkers must accept that agreement.
func TestBaselinesUnschedulable(t *testing.T) {
	ins := &sched.Instance{
		Procs: 1, Horizon: 3,
		Jobs: []sched.Job{
			{Value: 1, Allowed: []sched.SlotKey{{Proc: 0, Time: 0}}},
			{Value: 1, Allowed: []sched.SlotKey{{Proc: 0, Time: 0}}},
		},
		Cost: power.Affine{Alpha: 1, Rate: 1},
	}
	if _, err := sched.ScheduleAll(ins, sched.Options{}); !errors.Is(err, sched.ErrUnschedulable) {
		t.Fatalf("unschedulable instance: err = %v", err)
	}
	checkEveryArm(t, ins, 1000)
}

// TestBaselinesSessionReplay pins the arrival-replay arm on a larger
// planted instance: jobs revealed one at a time and re-solved must end
// byte-identical to the from-scratch solve of the final instance.
func TestBaselinesSessionReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ins, _ := workload.PlantedSchedule(rng, workload.PlantedParams{
		Procs: 2, Horizon: 24, IntervalsPerProc: 2, JobsPerInterval: 3,
		ExtraSlotsPerJob: 1,
		Cost:             power.Affine{Alpha: 3, Rate: 1},
	})
	checkEveryArm(t, ins, 0)
}

// TestCheckBaselinesAgreesOnMaskedInstance: blocking a job's only slot
// makes ScheduleAll reject the instance while the cost-blind baselines
// still place the job. That is agreement, not a violation.
func TestCheckBaselinesAgreesOnMaskedInstance(t *testing.T) {
	u := power.NewUnavailable(power.Affine{Alpha: 2, Rate: 1}, 4)
	u.Block(0, 1)
	ins := &sched.Instance{
		Procs: 1, Horizon: 4,
		Jobs: []sched.Job{{Value: 1, Allowed: []sched.SlotKey{{Proc: 0, Time: 1}}}},
		Cost: u.Freeze(),
	}
	if _, err := sched.ScheduleAll(ins, sched.Options{}); !errors.Is(err, sched.ErrUnschedulable) {
		t.Fatalf("masked instance: err = %v", err)
	}
	if err := CheckBaselines(ins, 1000); err != nil {
		t.Fatal(err)
	}
}
