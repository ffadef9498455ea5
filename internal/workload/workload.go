// Package workload generates the deterministic synthetic workloads used by
// tests, benchmarks, and the experiment harness.
//
// The thesis evaluates nothing empirically, so every generator here is a
// substitution (DESIGN.md §3): planted instances provide a known feasible
// cost that upper-bounds OPT; the market trace stands in for real
// energy-price data; the job families realize the motivating scenarios of
// the introduction. All generators take an explicit *rand.Rand so runs are
// reproducible from a seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/gapdp"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/submodular"
)

// PlantedParams controls PlantedSchedule.
type PlantedParams struct {
	Procs            int
	Horizon          int
	IntervalsPerProc int
	JobsPerInterval  int
	ExtraSlotsPerJob int // decoy Allowed entries beyond the planted window
	ValueSpread      float64
	Cost             power.CostModel
}

// PlantedSchedule builds an instance containing a known feasible solution:
// each processor gets IntervalsPerProc disjoint awake windows, each filled
// with jobs whose windows lie inside it. The returned planted cost (sum of
// the planted windows' costs) upper-bounds OPT. Values are drawn uniformly
// from [1, ValueSpread] (1 if spread <= 1).
//
// Windows are confined to disjoint horizon stripes, one per interval. When
// JobsPerInterval exceeds the stripe width, the window — and the number of
// jobs planted in it — is clamped to the stripe so that the planted
// solution stays feasible and the windows stay disjoint; callers wanting
// the full job count must supply a horizon with
// Horizon/IntervalsPerProc >= JobsPerInterval. Procs, Horizon,
// IntervalsPerProc, and JobsPerInterval must all be positive, and
// IntervalsPerProc must not exceed Horizon; violations panic.
func PlantedSchedule(rng *rand.Rand, p PlantedParams) (*sched.Instance, float64) {
	switch {
	case p.Procs <= 0:
		panic(fmt.Sprintf("workload: PlantedSchedule Procs = %d, want > 0", p.Procs))
	case p.Horizon <= 0:
		panic(fmt.Sprintf("workload: PlantedSchedule Horizon = %d, want > 0", p.Horizon))
	case p.IntervalsPerProc <= 0:
		panic(fmt.Sprintf("workload: PlantedSchedule IntervalsPerProc = %d, want > 0", p.IntervalsPerProc))
	case p.IntervalsPerProc > p.Horizon:
		panic(fmt.Sprintf("workload: PlantedSchedule IntervalsPerProc = %d exceeds Horizon = %d",
			p.IntervalsPerProc, p.Horizon))
	case p.JobsPerInterval <= 0:
		panic(fmt.Sprintf("workload: PlantedSchedule JobsPerInterval = %d, want > 0", p.JobsPerInterval))
	case p.ExtraSlotsPerJob < 0:
		panic(fmt.Sprintf("workload: PlantedSchedule ExtraSlotsPerJob = %d, want >= 0", p.ExtraSlotsPerJob))
	}
	if p.Cost == nil {
		p.Cost = power.Affine{Alpha: 2, Rate: 1}
	}
	ins := &sched.Instance{Procs: p.Procs, Horizon: p.Horizon, Cost: p.Cost}
	planted := 0.0
	// Disjoint windows: partition the horizon into IntervalsPerProc
	// stripes and place one window at a random offset in each. The window
	// width equals the jobs planted inside it, clamped to the stripe so
	// windows never spill into a neighbouring stripe (or past the horizon).
	stripe := p.Horizon / p.IntervalsPerProc
	width := p.JobsPerInterval
	if width > stripe {
		width = stripe
	}
	for proc := 0; proc < p.Procs; proc++ {
		for w := 0; w < p.IntervalsPerProc; w++ {
			start := w*stripe + rng.Intn(stripe-width+1)
			end := start + width
			planted += p.Cost.Cost(proc, start, end)
			for j := 0; j < width; j++ {
				job := sched.Job{Value: 1}
				if p.ValueSpread > 1 {
					job.Value = 1 + rng.Float64()*(p.ValueSpread-1)
				}
				for t := start; t < end; t++ {
					job.Allowed = append(job.Allowed, sched.SlotKey{Proc: proc, Time: t})
				}
				for e := 0; e < p.ExtraSlotsPerJob; e++ {
					job.Allowed = append(job.Allowed, sched.SlotKey{
						Proc: rng.Intn(p.Procs), Time: rng.Intn(p.Horizon),
					})
				}
				ins.Jobs = append(ins.Jobs, job)
			}
		}
	}
	return ins, planted
}

// HeterogeneousCluster plants a feasible schedule on a speed-scaled
// fleet (power.SpeedScaled): speeds ramp from 1 up to maxSpeed across
// the processors with seeded jitter, wake costs ramp the other way, so
// slow-but-frugal machines compete with fast-but-hungry ones under the
// s^alpha energy law. Returns the instance and the planted cost (an
// upper bound on OPT under the same model).
func HeterogeneousCluster(rng *rand.Rand, procs, horizon, jobsPerInterval int, alpha float64) (*sched.Instance, float64) {
	if procs <= 0 {
		panic(fmt.Sprintf("workload: HeterogeneousCluster Procs = %d, want > 0", procs))
	}
	wake := make([]float64, procs)
	speed := make([]float64, procs)
	const maxSpeed = 2.0
	for p := range speed {
		frac := 0.0
		if procs > 1 {
			frac = float64(p) / float64(procs-1)
		}
		speed[p] = 1 + frac*(maxSpeed-1) + rng.Float64()*0.1
		wake[p] = 4 - 2*frac // fast machines wake cheap, run hot
	}
	cost := power.NewSpeedScaled(wake, speed, alpha)
	return PlantedSchedule(rng, PlantedParams{
		Procs: procs, Horizon: horizon,
		IntervalsPerProc: 2, JobsPerInterval: jobsPerInterval,
		ExtraSlotsPerJob: 2, ValueSpread: 3,
		Cost: cost,
	})
}

// BurstySleep plants the wake-cost-dominated bursty regime for the
// sleep-state model (power.SleepState): jobs cluster into `bursts` tight
// windows per processor separated by long idle stripes, and the model's
// wake cost dwarfs the per-slot burn, so whether to power down between
// bursts or keep the processor alive dominates the objective. Returns
// the instance and the planted additive cost; the model's
// schedule-aware hook (Schedule.HardwareCost) credits kept-alive gaps
// below it.
func BurstySleep(rng *rand.Rand, procs, horizon, bursts, jobsPerBurst int, wake float64) (*sched.Instance, float64) {
	cost := power.NewSleepState(wake, 0.5, 0.25)
	return PlantedSchedule(rng, PlantedParams{
		Procs: procs, Horizon: horizon,
		IntervalsPerProc: bursts, JobsPerInterval: jobsPerBurst,
		ExtraSlotsPerJob: 1,
		Cost:             cost,
	})
}

// MarketTrace synthesizes a day-ahead electricity price curve over the
// horizon: a base load with morning and evening peaks plus seeded noise,
// strictly positive (DESIGN.md substitution 1).
func MarketTrace(rng *rand.Rand, horizon int) []float64 {
	price := make([]float64, horizon)
	for t := range price {
		x := float64(t) / float64(horizon) // day fraction
		morning := 6 * math.Exp(-40*(x-0.35)*(x-0.35))
		evening := 9 * math.Exp(-30*(x-0.8)*(x-0.8))
		price[t] = 4 + morning + evening + rng.Float64()*1.5
	}
	return price
}

// MultiIntervalJobs builds an instance whose jobs each have several
// disjoint candidate windows, possibly on different processors — the
// generality separating this model from prior single-interval work.
func MultiIntervalJobs(rng *rand.Rand, procs, horizon, jobs, windows, width int, cost power.CostModel) *sched.Instance {
	if cost == nil {
		cost = power.Affine{Alpha: 3, Rate: 1}
	}
	ins := &sched.Instance{Procs: procs, Horizon: horizon, Cost: cost}
	for j := 0; j < jobs; j++ {
		job := sched.Job{Value: 1 + float64(rng.Intn(4))}
		for w := 0; w < windows; w++ {
			proc := rng.Intn(procs)
			start := rng.Intn(horizon - width + 1)
			for t := start; t < start+width; t++ {
				job.Allowed = append(job.Allowed, sched.SlotKey{Proc: proc, Time: t})
			}
		}
		ins.Jobs = append(ins.Jobs, job)
	}
	return ins
}

// GapInstance builds a one-processor unit-job instance for the gap DP,
// guaranteeing per-slot feasibility is plausible (windows of width ≥ 2).
func GapInstance(rng *rand.Rand, horizon, jobs int) *gapdp.Instance {
	ins := &gapdp.Instance{Horizon: horizon}
	for j := 0; j < jobs; j++ {
		r := rng.Intn(horizon - 1)
		width := 2 + rng.Intn(horizon/2)
		d := r + width
		if d > horizon {
			d = horizon
		}
		ins.Jobs = append(ins.Jobs, gapdp.Job{
			Release: r, Deadline: d, Value: float64(1 + rng.Intn(9)),
		})
	}
	return ins
}

// Coverage builds a random coverage function: nItems sets over a ground
// set, each element included with probability p.
func Coverage(rng *rand.Rand, nItems, ground int, p float64) *submodular.Coverage {
	sets := make([]*bitset.Set, nItems)
	for i := range sets {
		sets[i] = bitset.New(ground)
		for e := 0; e < ground; e++ {
			if rng.Float64() < p {
				sets[i].Add(e)
			}
		}
	}
	return submodular.NewCoverage(ground, sets, nil)
}

// Cut builds a random weighted graph cut function on n vertices with edge
// probability p and weights in [1, 4).
func Cut(rng *rand.Rand, n int, p float64) *submodular.Cut {
	c := submodular.NewCut(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				c.AddEdge(i, j, 1+rng.Float64()*3)
			}
		}
	}
	return c
}

// FacilityLocation builds a random facility-location function with the
// given client and facility counts.
func FacilityLocation(rng *rand.Rand, clients, facilities int) *submodular.FacilityLocation {
	benefit := make([][]float64, clients)
	for c := range benefit {
		benefit[c] = make([]float64, facilities)
		for f := range benefit[c] {
			benefit[c][f] = rng.Float64() * 10
		}
	}
	return submodular.NewFacilityLocation(benefit)
}
