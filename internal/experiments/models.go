package experiments

import (
	"math"
	"math/rand"

	"repro/internal/gapdp"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/schedexact"
	"repro/internal/stats"
	"repro/internal/workload"
)

// e17Row is one cost-model family in the scenario matrix: a generator
// producing a small instance priced by that model, sized so the exact
// solver stays tractable (n ≤ 12, few allowed slots per job).
type e17Row struct {
	name string
	gen  func(rng *rand.Rand, quick bool) *sched.Instance
}

// e17Planted builds the standard small planted instance under a model.
// quick: 2 procs × 2 intervals × 2 jobs (n=8, ≤3 slots/job); full adds a
// third interval per proc (n=12) — both far inside schedexact's range.
func e17Planted(rng *rand.Rand, quick bool, cost power.CostModel) *sched.Instance {
	intervals := 3
	if quick {
		intervals = 2
	}
	ins, _ := workload.PlantedSchedule(rng, workload.PlantedParams{
		Procs: 2, Horizon: e17Horizon, IntervalsPerProc: intervals, JobsPerInterval: 2,
		ExtraSlotsPerJob: 1, ValueSpread: 2,
		Cost: cost,
	})
	return ins
}

const e17Horizon = 18

// e17Rows lists every bundled cost model. The speed-scaled and
// sleep-state rows come from their scenario generators
// (workload.HeterogeneousCluster, workload.BurstySleep), so E17 also
// exercises the generator → model pairing end to end.
func e17Rows() []e17Row {
	return []e17Row{
		{"affine", func(rng *rand.Rand, quick bool) *sched.Instance {
			return e17Planted(rng, quick, power.Affine{Alpha: 4, Rate: 1})
		}},
		{"perproc", func(rng *rand.Rand, quick bool) *sched.Instance {
			return e17Planted(rng, quick, power.NewPerProcessor([]float64{3, 5}, []float64{1, 0.5}))
		}},
		{"timeofuse", func(rng *rand.Rand, quick bool) *sched.Instance {
			return e17Planted(rng, quick, power.NewTimeOfUse([]float64{4, 2}, []float64{1, 1.5},
				workload.MarketTrace(rng, e17Horizon)))
		}},
		{"superlinear", func(rng *rand.Rand, quick bool) *sched.Instance {
			return e17Planted(rng, quick, power.Superlinear{Alpha: 3, Rate: 1, Fan: 0.05, Exp: 1.6})
		}},
		{"speedscaled", func(rng *rand.Rand, quick bool) *sched.Instance {
			ins, _ := workload.HeterogeneousCluster(rng, 2, e17Horizon, 2, 3)
			return ins
		}},
		{"sleepstate", func(rng *rand.Rand, quick bool) *sched.Instance {
			bursts := 3
			if quick {
				bursts = 2
			}
			// Wake 2 sits between idle·gap and busy·gap for typical
			// burst spacings: separate wakes beat spanning the gap, yet
			// keeping alive beats re-waking — the regime where the
			// schedule-aware hook's credit (hw/add < 1) is visible.
			ins, _ := workload.BurstySleep(rng, 2, e17Horizon, bursts, 2, 2)
			return ins
		}},
		{"composite", func(rng *rand.Rand, quick bool) *sched.Instance {
			c := power.NewComposite([]float64{4, 2}, []float64{1, 1.4}, 2,
				workload.MarketTrace(rng, e17Horizon))
			c.Block(0, rng.Intn(e17Horizon))
			c.Block(1, rng.Intn(e17Horizon))
			return e17Planted(rng, quick, c.Freeze())
		}},
	}
}

// E17 runs the scenario matrix against ground truth: for every cost
// model — the four originals and the three scenario additions — the
// greedy's schedule-all cost is compared to the exact optimum
// (schedexact) on small instances, checking Theorem 2.2.1's O(log n)
// envelope model by model. A dedicated one-processor row cross-validates
// the two exact solvers: with wake cost ≤ per-slot rate, covering an
// idle slot never beats re-waking, so OPT = α·(MinGaps+1) + rate·n with
// MinGaps from the gap DP — schedexact must agree exactly. The hw/add
// column reports the schedule-aware hardware price (Schedule
// .HardwareCost) relative to the additive objective: 1 for additive
// models, < 1 when the sleep-state hook credits kept-alive gaps.
func E17(cfg Config) *stats.Table {
	tbl := stats.NewTable("E17 — scenario matrix: greedy vs exact optimum per cost model",
		"model", "n", "greedy/opt", "max", "envelope 2(log2(n+1)+1)", "bound ok", "hw/add", "xcheck")
	trials := pick(cfg, 6, 3)
	run := func(name string, gen func(rng *rand.Rand, quick bool) *sched.Instance,
		xcheck func(rng *rand.Rand, ins *sched.Instance, opt *sched.Schedule) float64) {
		ratios := make([]float64, trials)
		ok := make([]float64, trials)
		hw := make([]float64, trials)
		xc := make([]float64, trials)
		ns := make([]float64, trials)
		parTrials(trials, cfg.Seed, func(trial int, rng *rand.Rand) {
			ins := gen(rng, cfg.Quick)
			n := len(ins.Jobs)
			ns[trial] = float64(n)
			greedy, err := sched.ScheduleAll(ins, sched.Options{})
			if err != nil {
				return // leaves zeros; planted instances are feasible
			}
			opt, err := schedexact.Optimal(ins, 0)
			if err != nil {
				return
			}
			ratios[trial] = greedy.Cost / opt.Cost
			envelope := 2 * (math.Log2(float64(n)+1) + 1)
			if ratios[trial] <= envelope+1e-9 {
				ok[trial] = 1
			}
			hw[trial] = greedy.HardwareCost(ins) / greedy.Cost
			if xcheck != nil {
				xc[trial] = xcheck(rng, ins, opt)
			} else {
				xc[trial] = 1
			}
		})
		n := stats.Mean(ns)
		maxRatio := 0.0
		for _, r := range ratios {
			if r > maxRatio {
				maxRatio = r
			}
		}
		tbl.AddRow(name, n, stats.Mean(ratios), maxRatio,
			2*(math.Log2(n+1)+1), stats.Mean(ok), stats.Mean(hw), stats.Mean(xc))
	}
	for _, row := range e17Rows() {
		run(row.name, row.gen, nil)
	}
	// One-processor affine row with wake ≤ rate: the gap DP is an
	// independent exact optimum, cross-checked against schedexact.
	run("affine-1p/gapdp", func(rng *rand.Rand, quick bool) *sched.Instance {
		windows := 3
		if quick {
			windows = 2
		}
		ins, _ := workload.PlantedSchedule(rng, workload.PlantedParams{
			Procs: 1, Horizon: 4 * windows, IntervalsPerProc: windows, JobsPerInterval: 2,
			Cost: power.Affine{Alpha: 1, Rate: 2},
		})
		return ins
	}, gapdpCrossCheck)
	tbl.Note = "Shape check: greedy/opt ≥ 1 and under the envelope in every row (bound ok = 1); hw/add = 1 for additive models and < 1 for sleepstate (the hook credits kept-alive gaps); xcheck = 1 on the 1-proc row (gap-DP optimum equals schedexact)."
	return tbl
}

// gapdpCrossCheck converts a one-processor contiguous-window instance to
// the gap DP's form and returns 1 when α·(MinGaps+1) + rate·n equals
// schedexact's optimal cost. Valid because the instance uses
// Affine{Alpha: 1, Rate: 2} with Alpha ≤ Rate: covering an idle slot
// (≥ rate) never beats waking anew (α), so optimal awake intervals are
// exactly the assignment's busy blocks and minimizing cost is minimizing
// blocks.
func gapdpCrossCheck(rng *rand.Rand, ins *sched.Instance, opt *sched.Schedule) float64 {
	g := &gapdp.Instance{Horizon: ins.Horizon}
	for _, job := range ins.Jobs {
		lo, hi := ins.Horizon, 0
		for _, s := range job.Allowed {
			if s.Time < lo {
				lo = s.Time
			}
			if s.Time+1 > hi {
				hi = s.Time + 1
			}
		}
		g.Jobs = append(g.Jobs, gapdp.Job{Release: lo, Deadline: hi, Value: 1})
	}
	minGaps, err := gapdp.MinGaps(g)
	if err != nil {
		return 0
	}
	want := 1*float64(minGaps+1) + 2*float64(len(ins.Jobs))
	if math.Abs(want-opt.Cost) < 1e-9 {
		return 1
	}
	return 0
}
