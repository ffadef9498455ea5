package experiments

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/budget"
	"repro/internal/gapdp"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/setcover"
	"repro/internal/stats"
	"repro/internal/workload"
)

// E13 compares the exact prize-collecting gap DP (Theorem .2.1) with the
// submodular greedy on the same instances: the DP fixes the optimal value
// achievable with g gaps; the greedy must reach that value using at most a
// log factor more awake intervals (= blocks).
func E13(cfg Config) *stats.Table {
	tbl := stats.NewTable("E13 — Theorem .2.1: prize-collecting gap DP vs submodular greedy",
		"gap budget g", "DP value (mean)", "DP blocks ≤ g+1 (frac)", "greedy intervals / (g+1)")
	trials := pick(cfg, 10, 4)
	horizon, jobs := 12, 8
	if cfg.Quick {
		horizon, jobs = 10, 6
	}
	for g := 0; g <= 3; g++ {
		dpVals := make([]float64, trials)
		dpOK := make([]float64, trials)
		grdRatio := make([]float64, trials)
		parTrials(trials, cfg.Seed+int64(g), func(trial int, rng *rand.Rand) {
			gins := workload.GapInstance(rng, horizon, jobs)
			res, err := gapdp.MaxValue(gins, g)
			if err != nil || res.Value <= 0 {
				return
			}
			dpVals[trial] = res.Value
			if gapdp.CountBlocks(gins.Horizon, res.Slots) <= g+1 {
				dpOK[trial] = 1
			}
			// Same instance for the greedy: awake intervals cost 1 each, so
			// minimizing cost = minimizing blocks; target the DP's value.
			sins := gapToSched(gins)
			s, err := sched.PrizeCollectingExact(sins, res.Value, sched.Options{})
			if err != nil {
				return
			}
			grdRatio[trial] = float64(len(s.Intervals)) / float64(g+1)
		})
		tbl.AddRow(g, stats.Mean(dpVals), stats.Mean(dpOK), stats.Mean(grdRatio))
	}
	tbl.Note = "Shape check: DP always respects its block budget (optimal comparator); the greedy reaches the same value with #intervals within a small factor of g+1 — the Theorem 2.3.3 log envelope applied to the gap objective."
	return tbl
}

// gapToSched converts a gap instance into a scheduling instance where
// every awake interval costs exactly 1 (cost = number of blocks).
func gapToSched(gins *gapdp.Instance) *sched.Instance {
	ins := &sched.Instance{
		Procs:   1,
		Horizon: gins.Horizon,
		Cost:    power.Func(func(proc, start, end int) float64 { return 1 }),
	}
	for _, j := range gins.Jobs {
		job := sched.Job{Value: j.Value}
		for t := j.Release; t < j.Deadline; t++ {
			job.Allowed = append(job.Allowed, sched.SlotKey{Proc: 0, Time: t})
		}
		ins.Jobs = append(ins.Jobs, job)
	}
	return ins
}

// A1 compares the greedy's oracle layers: plain from-scratch Eval, lazy
// evaluation, and the incremental coverage oracle — identical picks by
// construction, so only probe counts and wall-clock differ.
func A1(cfg Config) *stats.Table {
	tbl := stats.NewTable("A1 — plain vs lazy vs incremental greedy oracles (identical picks)",
		"decoy sets m", "plain evals", "lazy evals", "inc evals", "plain ms", "inc ms", "speedup ×", "same picks (frac)")
	trials := pick(cfg, 8, 3)
	for _, decoys := range []int{20, 60, 120} {
		pe := make([]float64, trials)
		le := make([]float64, trials)
		ie := make([]float64, trials)
		pms := make([]float64, trials)
		ims := make([]float64, trials)
		same := make([]float64, trials)
		parTrials(trials, cfg.Seed+int64(decoys), func(trial int, rng *rand.Rand) {
			ins, _ := setcover.Planted(rng, 60, 6, decoys)
			prob := coverBudgetProblem(ins)
			t0 := time.Now()
			plain, err1 := budget.Greedy(prob, budget.Options{Eps: 0.02, PlainEval: true})
			t1 := time.Now()
			lazy, err2 := budget.LazyGreedy(prob, budget.Options{Eps: 0.02, PlainEval: true})
			t2 := time.Now()
			incr, err3 := budget.Greedy(prob, budget.Options{Eps: 0.02})
			t3 := time.Now()
			if err1 != nil || err2 != nil || err3 != nil {
				return
			}
			pe[trial] = float64(plain.Evals)
			le[trial] = float64(lazy.Evals)
			ie[trial] = float64(incr.Evals)
			pms[trial] = float64(t1.Sub(t0).Microseconds()) / 1000
			ims[trial] = float64(t3.Sub(t2).Microseconds()) / 1000
			if slices.Equal(plain.Chosen, lazy.Chosen) && slices.Equal(plain.Chosen, incr.Chosen) {
				same[trial] = 1
			}
		})
		tbl.AddRow(decoys, stats.Mean(pe), stats.Mean(le), stats.Mean(ie),
			stats.Mean(pms), stats.Mean(ims),
			stats.Mean(pms)/math.Max(stats.Mean(ims), 1e-9), stats.Mean(same))
	}
	tbl.Note = "All three oracles pick the same sets. Lazy evaluation cuts how many probes the greedy issues; the incremental oracle cuts what each probe costs (a coverage diff instead of a union rebuild), and the two compose."
	return tbl
}

// A2 compares candidate-interval policies: solution cost and candidate
// pool size.
func A2(cfg Config) *stats.Table {
	tbl := stats.NewTable("A2 — candidate interval policies (schedule-all)",
		"policy", "cost/B", "wall ms")
	trials := pick(cfg, 6, 3)
	type row struct {
		policy sched.CandidatePolicy
		name   string
	}
	for _, r := range []row{{sched.EventPoints, "event-points"}, {sched.SingleSlots, "single-slots"}, {sched.AllPairs, "all-pairs"}} {
		ratios := make([]float64, trials)
		walls := make([]float64, trials)
		parTrials(trials, cfg.Seed, func(trial int, rng *rand.Rand) {
			ins, b := e2Instance(rng, 16)
			start := time.Now()
			s, err := sched.ScheduleAll(ins, sched.Options{Policy: r.policy})
			if err != nil {
				return
			}
			walls[trial] = float64(time.Since(start).Microseconds()) / 1000
			ratios[trial] = s.Cost / b
		})
		tbl.AddRow(r.name, stats.Mean(ratios), stats.Mean(walls))
	}
	tbl.Note = "Single-slot candidates pay the wake cost per slot (worst cost); all-pairs adds useless endpoints (slowest); event-points matches all-pairs' cost at a fraction of the pool."
	return tbl
}

// A3 compares the incremental-matcher oracle (the default) with the
// from-scratch Hopcroft–Karp oracle path (PlainOracle) — identical
// schedules, different wall time, probe cost and probe count (only the
// incremental arm can re-price a candidate group by one prefix pass).
func A3(cfg Config) *stats.Table {
	tbl := stats.NewTable("A3 — incremental matcher vs Hopcroft–Karp recompute",
		"n jobs", "inc ms", "hk ms", "speedup ×", "inc evals", "hk evals", "same cost (frac)")
	trials := pick(cfg, 6, 2)
	sizes := []int{16, 32}
	if !cfg.Quick {
		sizes = append(sizes, 64)
	}
	for _, n := range sizes {
		incMs := make([]float64, trials)
		hkMs := make([]float64, trials)
		incEv := make([]float64, trials)
		hkEv := make([]float64, trials)
		same := make([]float64, trials)
		parTrials(trials, cfg.Seed+int64(n), func(trial int, rng *rand.Rand) {
			ins, _ := e2Instance(rng, n)
			t0 := time.Now()
			f, err1 := sched.ScheduleAll(ins, sched.Options{})
			t1 := time.Now()
			h, err2 := sched.ScheduleAll(ins, sched.Options{PlainOracle: true})
			t2 := time.Now()
			if err1 != nil || err2 != nil {
				return
			}
			incMs[trial] = float64(t1.Sub(t0).Microseconds()) / 1000
			hkMs[trial] = float64(t2.Sub(t1).Microseconds()) / 1000
			incEv[trial] = float64(f.Evals)
			hkEv[trial] = float64(h.Evals)
			if math.Abs(f.Cost-h.Cost) < 1e-9 {
				same[trial] = 1
			}
		})
		tbl.AddRow(n, stats.Mean(incMs), stats.Mean(hkMs),
			stats.Mean(hkMs)/math.Max(stats.Mean(incMs), 1e-9),
			stats.Mean(incEv), stats.Mean(hkEv), stats.Mean(same))
	}
	tbl.Note = "Both arms run the lazy greedy and pick identical interval sequences at identical cost (Lemma 2.2.2 marginals agree). They no longer bill the same evals: the incremental arm keeps one heap entry per first-slot group and re-prices a stale group with one prefix pass of the matcher (one eval), where the HK arm re-probes each stale candidate by a full Hopcroft–Karp run."
	return tbl
}

// A4 sweeps ε for schedule-all: looser ε stops earlier (cheaper) but may
// leave jobs unscheduled; ε = 1/(n+1) is the Theorem 2.2.1 choice.
func A4(cfg Config) *stats.Table {
	tbl := stats.NewTable("A4 — ε sweep for schedule-all completeness/cost trade",
		"eps", "scheduled frac", "cost/B")
	trials := pick(cfg, 8, 3)
	n := 16
	for _, eps := range []float64{0.3, 0.1, 0.03, 0} { // 0 = default 1/(n+1)
		frac := make([]float64, trials)
		ratio := make([]float64, trials)
		parTrials(trials, cfg.Seed, func(trial int, rng *rand.Rand) {
			ins, b := e2Instance(rng, n)
			s, err := sched.ScheduleAll(ins, sched.Options{Eps: eps})
			if err != nil {
				return
			}
			frac[trial] = float64(s.Scheduled) / float64(len(ins.Jobs))
			ratio[trial] = s.Cost / b
		})
		label := stats.FormatFloat(eps)
		if eps == 0 {
			label = "1/(n+1)"
		}
		tbl.AddRow(label, stats.Mean(frac), stats.Mean(ratio))
	}
	tbl.Note = "The bicriteria knob in action: ε = 1/(n+1) forces full completion (integral utility), looser ε trades jobs for cost."
	return tbl
}
