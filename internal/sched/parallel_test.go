package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// sameSchedule asserts two schedules are identical pick for pick — not
// just equal cost: the parallel greedy must reproduce the serial pick
// sequence exactly, so intervals arrive in the same order and the final
// matching assigns every job the same slot.
func sameSchedule(t *testing.T, label string, ref, got *Schedule) {
	t.Helper()
	if !slices.Equal(ref.Intervals, got.Intervals) {
		t.Fatalf("%s: interval sequences diverge:\nserial  %v\nworkers %v", label, ref.Intervals, got.Intervals)
	}
	if !slices.Equal(ref.Assignment, got.Assignment) {
		t.Fatalf("%s: assignments diverge:\nserial  %v\nworkers %v", label, ref.Assignment, got.Assignment)
	}
	if ref.Cost != got.Cost || ref.Value != got.Value || ref.Scheduled != got.Scheduled {
		t.Fatalf("%s: totals diverge: (%g,%g,%d) vs (%g,%g,%d)",
			label, ref.Cost, ref.Value, ref.Scheduled, got.Cost, got.Value, got.Scheduled)
	}
}

// TestSchedulingWorkerCountDeterminism runs every algorithm over the
// matcher oracles (Lemmas 2.2.2 and 2.3.2) serial vs 2/4/8 workers,
// incremental and from-scratch oracles, and asserts the schedules are
// identical. The CI race job runs this package with -race,
// which exercises the sharded matcher replicas for data races.
func TestSchedulingWorkerCountDeterminism(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*6151 + 29))
		ins := randomOracleInstance(rng)
		total := 0.0
		for _, j := range ins.Jobs {
			total += j.Value
		}
		z := 0.6 * total

		for _, plain := range []bool{false, true} {
			base := Options{PlainOracle: plain}
			run := func(opts Options) (map[string]*Schedule, map[string]error) {
				scheds, errs := map[string]*Schedule{}, map[string]error{}
				scheds["all"], errs["all"] = ScheduleAll(ins, opts)
				scheds["prize"], errs["prize"] = PrizeCollecting(ins, z, withEps(opts, 0.1))
				scheds["prize-exact"], errs["prize-exact"] = PrizeCollectingExact(ins, z, opts)
				return scheds, errs
			}
			refScheds, refErrs := run(base)
			for _, workers := range []int{2, 4, 8} {
				opts := base
				opts.Workers = workers
				gotScheds, gotErrs := run(opts)
				for algo := range refScheds {
					label := algo
					if (refErrs[algo] == nil) != (gotErrs[algo] == nil) {
						t.Fatalf("trial %d %s plain=%t workers=%d: feasibility disagreement: %v vs %v",
							trial, label, plain, workers, refErrs[algo], gotErrs[algo])
					}
					if refErrs[algo] != nil {
						continue
					}
					sameSchedule(t, label, refScheds[algo], gotScheds[algo])
				}
			}
		}
	}
}

func withEps(opts Options, eps float64) Options {
	opts.Eps = eps
	return opts
}
