package experiments

import (
	"math/rand"

	"repro/internal/online"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// E16 drives the rolling-horizon engine (online.Engine over a
// sched.Session) across every arrival-trace family and compares the
// schedule it actually commits against the clairvoyant offline solve of
// the same final instance — which the engine's last re-solve equals byte
// for byte, so the comparator is free. It measures the price of not
// knowing the future: committed cost / clairvoyant cost, plus the
// fraction of jobs the online run misses outright on the adversarial
// trace.
func E16(cfg Config) *stats.Table {
	tbl := stats.NewTable("E16 — rolling-horizon online engine vs clairvoyant offline",
		"trace", "events", "committed/clairvoyant", "missed frac")
	trials := pick(cfg, 8, 3)
	params := workload.TraceParams{
		Procs:   2,
		Horizon: pick(cfg, 64, 32),
		Jobs:    pick(cfg, 24, 12),
		Window:  2,
	}
	gens := []struct {
		name string
		gen  func(*rand.Rand, workload.TraceParams) *workload.ArrivalTrace
	}{
		{"poisson-bursts", workload.PoissonBurstTrace},
		{"diurnal", workload.DiurnalTrace},
		{"front-loaded", workload.FrontLoadedTrace},
	}
	for _, g := range gens {
		events := make([]float64, trials)
		ratio := make([]float64, trials)
		missed := make([]float64, trials)
		parTrials(trials, cfg.Seed, func(trial int, rng *rand.Rand) {
			tr := g.gen(rng, params)
			rep, err := online.RunTrace(tr, sched.Options{})
			if err != nil {
				return // leaves zeros; planted traces are always feasible
			}
			events[trial] = float64(len(tr.Events))
			ratio[trial] = rep.CommittedCost / rep.Plan.Cost
			missed[trial] = float64(rep.Missed) / float64(tr.Jobs())
		})
		tbl.AddRow(g.name, stats.Mean(events), stats.Mean(ratio), stats.Mean(missed))
	}
	tbl.Note = "Shape check: committed/clairvoyant hovers above 1 (the online run pays for plans the future invalidates; on front-loaded traces misses can push it below 1 by skipping work); missed stays a small fraction (a re-plan may park a job on a slot that already passed)."
	return tbl
}
