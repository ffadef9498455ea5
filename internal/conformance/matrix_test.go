package conformance

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/workload"
)

// matrixProcs/matrixHorizon are the shared instance dimensions every row
// is built for.
const (
	matrixProcs   = 2
	matrixHorizon = 24
)

// modelRow is one cost model in the scenario matrix. Adding a model to
// the codebase means adding a row here — every checker in the package
// runs against it, so no new test file is needed.
type modelRow struct {
	name     string
	monotone bool // interval monotonicity is part of the model's contract
	build    func(rng *rand.Rand) power.CostModel
}

// matrix lists every bundled cost model: the four originals plus the
// scenario-matrix additions (speed scaling, sleep states, the composite
// stack) and the Unavailable wrapper over a priced-horizon base — the
// frozen-mask-inside-a-session interplay the session script exercises.
func matrix() []modelRow {
	return []modelRow{
		{"affine", true, func(*rand.Rand) power.CostModel {
			return power.Affine{Alpha: 4, Rate: 1}
		}},
		{"perproc", true, func(*rand.Rand) power.CostModel {
			return power.NewPerProcessor([]float64{3, 5}, []float64{1, 0.5})
		}},
		{"timeofuse", true, func(rng *rand.Rand) power.CostModel {
			return power.NewTimeOfUse([]float64{4, 2}, []float64{1, 1.5},
				workload.MarketTrace(rng, matrixHorizon))
		}},
		{"superlinear", true, func(*rand.Rand) power.CostModel {
			return power.Superlinear{Alpha: 3, Rate: 1, Fan: 0.05, Exp: 1.7}
		}},
		{"speedscaled", true, func(*rand.Rand) power.CostModel {
			return power.NewSpeedScaled([]float64{4, 4}, []float64{1, 1.6}, 3)
		}},
		{"sleepstate", true, func(*rand.Rand) power.CostModel {
			return power.NewSleepState(6, 1, 0.4)
		}},
		{"composite", true, func(rng *rand.Rand) power.CostModel {
			c := power.NewComposite([]float64{4, 2}, []float64{1, 1.4}, 2,
				workload.MarketTrace(rng, matrixHorizon))
			c.Block(0, 3)
			c.Block(1, 17)
			return c.Freeze()
		}},
		{"unavailable(timeofuse)", true, func(rng *rand.Rand) power.CostModel {
			base := power.NewTimeOfUse([]float64{4, 2}, []float64{1, 1.5},
				workload.MarketTrace(rng, matrixHorizon))
			u := power.NewUnavailable(base, matrixHorizon)
			u.Block(0, 5)
			u.Block(1, 11)
			return u.Freeze()
		}},
	}
}

// matrixInstance plants a feasible-by-construction workload priced by the
// row's model. Decoy slots give the solver room when the row's mask
// blocks a planted slot; if a mask still kills feasibility the checkers
// verify that every path agrees on the failure.
func matrixInstance(rng *rand.Rand, cost power.CostModel) *sched.Instance {
	ins, _ := workload.PlantedSchedule(rng, workload.PlantedParams{
		Procs: matrixProcs, Horizon: matrixHorizon,
		IntervalsPerProc: 2, JobsPerInterval: 3,
		ExtraSlotsPerJob: 2, ValueSpread: 3,
		Cost: cost,
	})
	return ins
}

// sessionScript is the canonical mutation script every row's session is
// driven through: adds, a mask, horizon growth (past the priced horizon
// for bounded models — new slots price +Inf and must prune, not crash),
// removals, and rejected mutations that must leave the session intact.
func sessionScript() []Mutation {
	job := func(slots ...sched.SlotKey) sched.Job {
		return sched.Job{Value: 1, Allowed: slots}
	}
	return []Mutation{
		{Op: OpAddJob, Job: job(
			sched.SlotKey{Proc: 0, Time: 2}, sched.SlotKey{Proc: 1, Time: 5}, sched.SlotKey{Proc: 0, Time: 7})},
		{Op: OpBlock, Proc: 1, Time: 3},
		{Op: OpAdvance, Horizon: matrixHorizon + 4},
		{Op: OpAddJob, Job: job(
			sched.SlotKey{Proc: 1, Time: 9}, sched.SlotKey{Proc: 0, Time: 14})},
		{Op: OpRemoveJob, Index: 0},
		{Op: OpRemoveJob, Index: 999}, // rejected: no such job
		{Op: OpAdvance, Horizon: 2},   // rejected: horizons only grow
		{Op: OpBlock, Proc: 0, Time: 0},
		{Op: OpAddJob, Job: job(sched.SlotKey{Proc: 0, Time: 1})},
	}
}

// TestMatrix runs every cost model — existing and new — through the full
// conformance suite from one table. This is the acceptance gate the
// scenario matrix hangs off: contract checks, incremental==plain picks,
// feasible baselines, and session solves byte-identical to cold, evals included, across the
// mutation script.
func TestMatrix(t *testing.T) {
	for _, row := range matrix() {
		t.Run(row.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			model := row.build(rng)
			if err := CheckCostModel(model, matrixProcs, matrixHorizon); err != nil {
				t.Fatal(err)
			}
			if row.monotone {
				if err := CheckMonotone(model, matrixProcs, matrixHorizon); err != nil {
					t.Fatal(err)
				}
			}
			if err := CheckConcurrent(model, matrixProcs, matrixHorizon); err != nil {
				t.Fatal(err)
			}
			ins := matrixInstance(rng, model)
			if err := CheckSolve(ins, sched.Options{}); err != nil {
				t.Fatal(err)
			}
			if err := CheckBaselines(ins, 0); err != nil {
				t.Fatal(err)
			}
			if err := CheckSession(ins, sched.Options{}, sessionScript()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMatrixCoversEveryBundledModel pins the matrix against the power
// package's surface: forgetting to add a row for a new model is a test
// failure here, not a silent coverage gap.
func TestMatrixCoversEveryBundledModel(t *testing.T) {
	want := []string{"affine", "perproc", "timeofuse", "superlinear",
		"speedscaled", "sleepstate", "composite"}
	have := map[string]bool{}
	for _, row := range matrix() {
		have[row.name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Fatalf("matrix is missing bundled model %q", name)
		}
	}
}

// TestCheckersRejectViolations proves the checkers detect what they claim
// to: a panicking model, a NaN model, and a non-monotone model must all
// be flagged — otherwise a green matrix means nothing.
func TestCheckersRejectViolations(t *testing.T) {
	panicky := power.Func(func(proc, start, end int) float64 {
		if proc < 0 {
			panic("negative proc")
		}
		return 1
	})
	if err := CheckCostModel(panicky, matrixProcs, matrixHorizon); err == nil {
		t.Fatal("panicking model passed CheckCostModel")
	}
	nan := power.Func(func(proc, start, end int) float64 {
		if start > end {
			return math.NaN()
		}
		return 1
	})
	if err := CheckCostModel(nan, matrixProcs, matrixHorizon); err == nil {
		t.Fatal("NaN model passed CheckCostModel")
	}
	shrinking := power.Func(func(proc, start, end int) float64 {
		return 100 - float64(end-start)
	})
	if err := CheckMonotone(shrinking, matrixProcs, matrixHorizon); err == nil {
		t.Fatal("shrinking model passed CheckMonotone")
	}
}
