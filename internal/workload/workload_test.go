package workload

import (
	"math/rand"
	"testing"

	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/submodular"
)

func TestPlantedScheduleFeasibleAtPlantedCost(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		ins, planted := PlantedSchedule(rng, PlantedParams{
			Procs: 2, Horizon: 24, IntervalsPerProc: 2, JobsPerInterval: 3,
			ExtraSlotsPerJob: 2,
		})
		if len(ins.Jobs) != 2*2*3 {
			t.Fatalf("jobs = %d", len(ins.Jobs))
		}
		if planted <= 0 {
			t.Fatalf("planted cost = %v", planted)
		}
		s, err := sched.ScheduleAll(ins, sched.Options{})
		if err != nil {
			t.Fatalf("planted instance unschedulable: %v", err)
		}
		if err := s.Validate(ins); err != nil {
			t.Fatal(err)
		}
		// Planted cost upper-bounds OPT, so greedy must respect the
		// Theorem 2.2.1 envelope against it.
		n := float64(len(ins.Jobs))
		if s.Cost > 4*planted*(log2(n+1)+1) {
			t.Fatalf("greedy %v far above planted %v", s.Cost, planted)
		}
	}
}

func log2(x float64) float64 {
	l := 0.0
	for x > 1 {
		x /= 2
		l++
	}
	return l
}

func TestPlantedValueSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ins, _ := PlantedSchedule(rng, PlantedParams{
		Procs: 1, Horizon: 20, IntervalsPerProc: 2, JobsPerInterval: 4,
		ValueSpread: 8,
	})
	lo, hi := 1e18, 0.0
	for _, j := range ins.Jobs {
		if j.Value < lo {
			lo = j.Value
		}
		if j.Value > hi {
			hi = j.Value
		}
	}
	if lo < 1 || hi > 8 {
		t.Fatalf("values outside [1,8]: [%v,%v]", lo, hi)
	}
	if hi/lo < 1.5 {
		t.Fatalf("spread too narrow: [%v,%v]", lo, hi)
	}
}

// plantedWindows reconstructs the planted windows (per processor) from a
// decoy-free instance: each job's Allowed set is exactly its window.
func plantedWindows(t *testing.T, ins *sched.Instance) map[int][][2]int {
	t.Helper()
	byProc := map[int]map[[2]int]int{} // proc -> window -> jobs sharing it
	for j, job := range ins.Jobs {
		if len(job.Allowed) == 0 {
			t.Fatalf("job %d has no allowed slots", j)
		}
		proc := job.Allowed[0].Proc
		lo, hi := job.Allowed[0].Time, job.Allowed[0].Time
		for _, s := range job.Allowed {
			if s.Proc != proc {
				t.Fatalf("job %d spans processors without decoys", j)
			}
			if s.Time < lo {
				lo = s.Time
			}
			if s.Time > hi {
				hi = s.Time
			}
		}
		if hi-lo+1 != len(job.Allowed) {
			t.Fatalf("job %d window [%d,%d] is not contiguous over %d slots", j, lo, hi, len(job.Allowed))
		}
		if byProc[proc] == nil {
			byProc[proc] = map[[2]int]int{}
		}
		byProc[proc][[2]int{lo, hi + 1}]++
	}
	out := map[int][][2]int{}
	for proc, windows := range byProc {
		for w, jobs := range windows {
			if jobs > w[1]-w[0] {
				t.Fatalf("proc %d window [%d,%d) holds %d jobs for %d slots: planted solution infeasible",
					proc, w[0], w[1], jobs, w[1]-w[0])
			}
			out[proc] = append(out[proc], w)
		}
	}
	return out
}

// TestPlantedWindowsDisjointAndInRange is the regression test for the
// stripe clamp: with JobsPerInterval far above the stripe width, the old
// generator emitted overlapping "disjoint" windows and negative starts.
func TestPlantedWindowsDisjointAndInRange(t *testing.T) {
	cases := []PlantedParams{
		{Procs: 2, Horizon: 24, IntervalsPerProc: 2, JobsPerInterval: 3},
		{Procs: 1, Horizon: 10, IntervalsPerProc: 3, JobsPerInterval: 7},  // width 7 > stripe 3
		{Procs: 2, Horizon: 6, IntervalsPerProc: 2, JobsPerInterval: 40},  // width >> horizon
		{Procs: 3, Horizon: 7, IntervalsPerProc: 7, JobsPerInterval: 2},   // stripe 1
		{Procs: 1, Horizon: 31, IntervalsPerProc: 4, JobsPerInterval: 13}, // uneven stripes
	}
	rng := rand.New(rand.NewSource(11))
	for ci, p := range cases {
		for trial := 0; trial < 20; trial++ {
			ins, planted := PlantedSchedule(rng, p)
			if planted <= 0 {
				t.Fatalf("case %d: planted cost %v", ci, planted)
			}
			for j, job := range ins.Jobs {
				for _, s := range job.Allowed {
					if s.Proc < 0 || s.Proc >= p.Procs || s.Time < 0 || s.Time >= p.Horizon {
						t.Fatalf("case %d: job %d slot %+v outside instance", ci, j, s)
					}
				}
			}
			for proc, windows := range plantedWindows(t, ins) {
				for a := 0; a < len(windows); a++ {
					for b := a + 1; b < len(windows); b++ {
						if windows[a][0] < windows[b][1] && windows[b][0] < windows[a][1] {
							t.Fatalf("case %d: proc %d windows %v and %v overlap",
								ci, proc, windows[a], windows[b])
						}
					}
				}
			}
			// The planted solution must actually be feasible end-to-end.
			if _, err := sched.ScheduleAll(ins, sched.Options{}); err != nil {
				t.Fatalf("case %d: planted instance unschedulable: %v", ci, err)
			}
		}
	}
}

func TestPlantedScheduleRejectsBadParams(t *testing.T) {
	bad := []PlantedParams{
		{Procs: 0, Horizon: 10, IntervalsPerProc: 1, JobsPerInterval: 1},
		{Procs: 1, Horizon: 0, IntervalsPerProc: 1, JobsPerInterval: 1},
		{Procs: 1, Horizon: 10, IntervalsPerProc: 0, JobsPerInterval: 1}, // old div-by-zero
		{Procs: 1, Horizon: 10, IntervalsPerProc: -2, JobsPerInterval: 1},
		{Procs: 1, Horizon: 10, IntervalsPerProc: 11, JobsPerInterval: 1}, // stripe 0
		{Procs: 1, Horizon: 10, IntervalsPerProc: 1, JobsPerInterval: 0},
		{Procs: 1, Horizon: 10, IntervalsPerProc: 1, JobsPerInterval: 1, ExtraSlotsPerJob: -1},
	}
	for i, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d (%+v): expected panic", i, p)
				}
			}()
			PlantedSchedule(rand.New(rand.NewSource(1)), p)
		}()
	}
}

func TestMarketTracePositiveAndPeaked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	price := MarketTrace(rng, 48)
	min, max := price[0], price[0]
	for _, p := range price {
		if p <= 0 {
			t.Fatal("non-positive price")
		}
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	if max < 2*min {
		t.Fatalf("trace too flat: [%v, %v]", min, max)
	}
}

func TestMultiIntervalJobsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ins := MultiIntervalJobs(rng, 3, 30, 10, 2, 3, nil)
	if len(ins.Jobs) != 10 {
		t.Fatalf("jobs = %d", len(ins.Jobs))
	}
	for j, job := range ins.Jobs {
		if len(job.Allowed) != 2*3 {
			t.Fatalf("job %d has %d slots, want 6", j, len(job.Allowed))
		}
	}
	// Must at least build a model (windows in range).
	if _, err := sched.NewModel(ins); err != nil {
		t.Fatal(err)
	}
}

func TestGapInstanceValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		ins := GapInstance(rng, 12, 8)
		if err := ins.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGeneratedFunctionsAreSubmodular(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	fns := []submodular.Function{
		Coverage(rng, 10, 20, 0.2),
		Cut(rng, 10, 0.3),
		FacilityLocation(rng, 8, 9),
	}
	for _, f := range fns {
		if err := submodular.CheckSubmodular(f, rng, 200, 1e-9); err != nil {
			t.Errorf("%T: %v", f, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, ca := PlantedSchedule(rand.New(rand.NewSource(9)), PlantedParams{
		Procs: 2, Horizon: 20, IntervalsPerProc: 2, JobsPerInterval: 2,
		Cost: power.Affine{Alpha: 1, Rate: 1},
	})
	b, cb := PlantedSchedule(rand.New(rand.NewSource(9)), PlantedParams{
		Procs: 2, Horizon: 20, IntervalsPerProc: 2, JobsPerInterval: 2,
		Cost: power.Affine{Alpha: 1, Rate: 1},
	})
	if ca != cb || len(a.Jobs) != len(b.Jobs) {
		t.Fatal("same seed produced different instances")
	}
	for j := range a.Jobs {
		if len(a.Jobs[j].Allowed) != len(b.Jobs[j].Allowed) {
			t.Fatal("same seed produced different jobs")
		}
		for s := range a.Jobs[j].Allowed {
			if a.Jobs[j].Allowed[s] != b.Jobs[j].Allowed[s] {
				t.Fatal("same seed produced different slots")
			}
		}
	}
}
