package experiments

import (
	"math"
	"math/rand"

	"repro/internal/budget"
	"repro/internal/conformance"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/schedexact"
	"repro/internal/setcover"
	"repro/internal/stats"
	"repro/internal/workload"
)

// coverBudgetProblem lifts a set-cover instance into the budgeted
// submodular framework: items are set indices, utility is coverage,
// subsets are singletons (the classical linear-cost special case).
func coverBudgetProblem(ins *setcover.Instance) budget.Problem {
	cov := toCoverage(ins)
	subs := make([]budget.Subset, len(ins.Sets))
	for i := range ins.Sets {
		subs[i] = budget.Subset{Items: singleton(len(ins.Sets), i), Cost: ins.Costs[i]}
	}
	return budget.Problem{F: cov, Subsets: subs, Threshold: float64(ins.N)}
}

// E1 sweeps ε and reports the bicriteria pair of Lemma 2.1.2: utility
// fraction achieved vs cost ratio against the planted budget B, with the
// proof's 2·log₂(1/ε) phase envelope alongside.
func E1(cfg Config) *stats.Table {
	tbl := stats.NewTable("E1 — Lemma 2.1.2: utility ≥ (1-ε)x at cost O(B·log 1/ε)",
		"eps", "log2(1/eps)", "utility/x", "cost/B", "envelope 2(log2(1/eps)+1)")
	trials := pick(cfg, 12, 4)
	for _, eps := range []float64{0.5, 0.25, 0.1, 0.05, 0.01} {
		utilFrac := make([]float64, trials)
		costRatio := make([]float64, trials)
		parTrials(trials, cfg.Seed, func(trial int, rng *rand.Rand) {
			ins, b := setcover.Planted(rng, 60, 6, 40)
			res, err := budget.Greedy(coverBudgetProblem(ins), budget.Options{Eps: eps})
			if err != nil {
				return // leaves zeros; planted instances are always feasible
			}
			utilFrac[trial] = res.Utility / float64(ins.N)
			costRatio[trial] = res.Cost / b
		})
		tbl.AddRow(eps, math.Log2(1/eps),
			stats.Mean(utilFrac), stats.Mean(costRatio), 2*(math.Log2(1/eps)+1))
	}
	tbl.Note = "Shape check: utility/x ≥ 1-ε per row; cost/B grows ~linearly in log2(1/ε) and stays under the envelope."
	return tbl
}

// e2Instance builds the planted schedule-all workload for n jobs.
func e2Instance(rng *rand.Rand, n int) (*sched.Instance, float64) {
	per := n / 4 // 2 procs × 2 intervals
	if per < 1 {
		per = 1
	}
	return workload.PlantedSchedule(rng, workload.PlantedParams{
		Procs: 2, Horizon: 6 * per, IntervalsPerProc: 2, JobsPerInterval: per,
		ExtraSlotsPerJob: 2,
		Cost:             power.Affine{Alpha: 4, Rate: 1},
	})
}

// E2 sweeps n and reports schedule-all cost ratios against the planted
// cost — the textbook eager greedy (greedy/B) next to ScheduleAll's lazy
// path (lazy/B), which picks the same intervals — alongside the
// prior-work baselines.
func E2(cfg Config) *stats.Table {
	tbl := stats.NewTable("E2 — Theorem 2.2.1: schedule-all cost vs O(log n)·B and baselines",
		"n", "log2(n+1)", "greedy/B", "lazy/B", "always-on/B", "per-job/B", "merge-gaps/B")
	sizes := []int{8, 16, 32, 64}
	if cfg.Quick {
		sizes = []int{8, 16}
	}
	trials := pick(cfg, 8, 3)
	for _, n := range sizes {
		ratios := make(map[string][]float64)
		for _, k := range []string{"greedy", "lazy", "ao", "pj", "mg"} {
			ratios[k] = make([]float64, trials)
		}
		parTrials(trials, cfg.Seed+int64(n), func(trial int, rng *rand.Rand) {
			ins, b := e2Instance(rng, n)
			if s, err := conformance.EagerScheduleAll(ins, sched.Options{}); err == nil {
				ratios["greedy"][trial] = s.Cost / b
			}
			if s, err := sched.ScheduleAll(ins, sched.Options{}); err == nil {
				ratios["lazy"][trial] = s.Cost / b
			}
			if s, err := schedexact.AlwaysOn(ins); err == nil {
				ratios["ao"][trial] = s.Cost / b
			}
			if s, err := schedexact.PerJob(ins); err == nil {
				ratios["pj"][trial] = s.Cost / b
			}
			if s, err := schedexact.MergeGaps(ins, 4); err == nil {
				ratios["mg"][trial] = s.Cost / b
			}
		})
		tbl.AddRow(n, math.Log2(float64(n)+1),
			stats.Mean(ratios["greedy"]), stats.Mean(ratios["lazy"]),
			stats.Mean(ratios["ao"]), stats.Mean(ratios["pj"]), stats.Mean(ratios["mg"]))
	}
	tbl.Note = "Shape check: greedy/B stays O(log n) and far below always-on and per-job; B is the planted cost (≥ OPT), so ratios are conservative."
	return tbl
}

// E3 sweeps ε for the prize-collecting bicriteria (Theorem 2.3.1).
func E3(cfg Config) *stats.Table {
	tbl := stats.NewTable("E3 — Theorem 2.3.1: value ≥ (1-ε)Z at cost O(B·log 1/ε)",
		"eps", "log2(1/eps)", "value/Z", "1-eps", "cost/B")
	trials := pick(cfg, 10, 4)
	for _, eps := range []float64{0.5, 0.25, 0.1, 0.05} {
		valFrac := make([]float64, trials)
		costRatio := make([]float64, trials)
		parTrials(trials, cfg.Seed, func(trial int, rng *rand.Rand) {
			ins, b := workload.PlantedSchedule(rng, workload.PlantedParams{
				Procs: 2, Horizon: 30, IntervalsPerProc: 2, JobsPerInterval: 4,
				ExtraSlotsPerJob: 1, ValueSpread: 4,
				Cost: power.Affine{Alpha: 4, Rate: 1},
			})
			total := 0.0
			for _, j := range ins.Jobs {
				total += j.Value
			}
			z := 0.8 * total
			s, err := sched.PrizeCollecting(ins, z, sched.Options{Eps: eps})
			if err != nil {
				return
			}
			valFrac[trial] = s.Value / z
			costRatio[trial] = s.Cost / b
		})
		tbl.AddRow(eps, math.Log2(1/eps), stats.Mean(valFrac), 1-eps, stats.Mean(costRatio))
	}
	tbl.Note = "Shape check: value/Z ≥ 1-ε per row; cost/B grows with log(1/ε). B is the planted all-jobs cost, an over-generous budget for value 0.8·total."
	return tbl
}

// E4 sweeps the value spread Δ for the exact-threshold variant
// (Theorem 2.3.3): cost within O((log n + log Δ)·B) while value ≥ Z always.
func E4(cfg Config) *stats.Table {
	tbl := stats.NewTable("E4 — Theorem 2.3.3: value ≥ Z at cost O((log n + log Δ)·B)",
		"Δ", "log2(n)+log2(Δ)", "value ≥ Z (frac of trials)", "cost/B")
	trials := pick(cfg, 10, 4)
	const n = 2 * 2 * 4 // procs × intervals × jobs-per-interval below
	for _, delta := range []float64{1, 4, 16, 64} {
		reached := make([]float64, trials)
		costRatio := make([]float64, trials)
		parTrials(trials, cfg.Seed, func(trial int, rng *rand.Rand) {
			ins, b := workload.PlantedSchedule(rng, workload.PlantedParams{
				Procs: 2, Horizon: 30, IntervalsPerProc: 2, JobsPerInterval: 4,
				ExtraSlotsPerJob: 1, ValueSpread: delta,
				Cost: power.Affine{Alpha: 4, Rate: 1},
			})
			total := 0.0
			for _, j := range ins.Jobs {
				total += j.Value
			}
			z := 0.7 * total
			s, err := sched.PrizeCollectingExact(ins, z, sched.Options{})
			if err != nil {
				return
			}
			if s.Value >= z-1e-9 {
				reached[trial] = 1
			}
			costRatio[trial] = s.Cost / b
		})
		tbl.AddRow(delta, math.Log2(float64(n))+math.Log2(delta),
			stats.Mean(reached), stats.Mean(costRatio))
	}
	tbl.Note = "Shape check: value threshold met in every trial; cost/B tracks log n + log Δ (slowly, since planted B is generous)."
	return tbl
}

// E12 runs the Theorem .1.2 reduction: scheduling greedy through the
// reduction vs the direct set-cover greedy, both against the planted cover.
func E12(cfg Config) *stats.Table {
	tbl := stats.NewTable("E12 — Theorem .1.2: Set-Cover-hardness reduction round trip",
		"elements n", "ln n", "setcover-greedy/k", "via-scheduling/k", "cover valid (frac)")
	sizes := []int{12, 24, 48}
	if cfg.Quick {
		sizes = []int{12, 24}
	}
	trials := pick(cfg, 8, 3)
	for _, n := range sizes {
		gr := make([]float64, trials)
		vs := make([]float64, trials)
		ok := make([]float64, trials)
		parTrials(trials, cfg.Seed+int64(n), func(trial int, rng *rand.Rand) {
			ins, k := setcover.Planted(rng, n, n/6, n/2)
			_, cost, err := setcover.Greedy(ins)
			if err != nil {
				return
			}
			gr[trial] = cost / k
			red := setcover.ToScheduling(ins)
			s, err := sched.ScheduleAll(red, sched.Options{})
			if err != nil {
				return
			}
			chosen, ccost := setcover.CoverFromSchedule(ins, s)
			vs[trial] = ccost / k
			if setcover.IsCover(ins, chosen) {
				ok[trial] = 1
			}
		})
		tbl.AddRow(n, math.Log(float64(n)), stats.Mean(gr), stats.Mean(vs), stats.Mean(ok))
	}
	tbl.Note = "Shape check: the scheduling algorithm run through the reduction behaves like greedy set cover — both within the ln n envelope of the planted cover, confirming the hardness coupling is tight."
	return tbl
}
