package sched

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/power"
	"repro/internal/submodular"
)

// randomOracleInstance builds a small random scheduling instance for the
// oracle differential tests.
func randomOracleInstance(rng *rand.Rand) *Instance {
	procs := 1 + rng.Intn(3)
	horizon := 4 + rng.Intn(8)
	jobs := make([]Job, 1+rng.Intn(8))
	for j := range jobs {
		job := Job{Value: rng.Float64() * 10}
		if rng.Intn(4) == 0 {
			job.Value = float64(1 + rng.Intn(3)) // force value ties
		}
		for p := 0; p < procs; p++ {
			for t := 0; t < horizon; t++ {
				if rng.Intn(4) == 0 {
					job.Allowed = append(job.Allowed, SlotKey{Proc: p, Time: t})
				}
			}
		}
		if len(job.Allowed) == 0 {
			job.Allowed = append(job.Allowed, SlotKey{Proc: rng.Intn(procs), Time: rng.Intn(horizon)})
		}
		jobs[j] = job
	}
	return &Instance{
		Procs: procs, Horizon: horizon, Jobs: jobs,
		Cost: power.Affine{Alpha: 2, Rate: 1},
	}
}

// TestMatchingOraclesIncremental runs randomized Commit/Gain sequences on
// the matching utilities (Lemmas 2.2.2 and 2.3.2) and asserts the
// incremental oracles agree with their plain Eval counterparts to 1e-9.
func TestMatchingOraclesIncremental(t *testing.T) {
	const eps = 1e-9
	for trial := 0; trial < 150; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*2654435761 + 5))
		model, err := NewModel(randomOracleInstance(rng))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			f    submodular.Function
		}{
			{"matching", model.MatchingUtility()},
			{"weighted-matching", model.WeightedUtility()},
		} {
			inc, ok := submodular.AsIncremental(tc.f)
			if !ok {
				t.Fatalf("%s: utility should provide an incremental oracle", tc.name)
			}
			n := tc.f.Universe()
			base := bitset.New(n)
			for step := 0; step < 6; step++ {
				var items []int
				for x := 0; x < n; x++ {
					if rng.Intn(3) == 0 {
						items = append(items, x)
					}
				}
				union := base.Clone()
				for _, x := range items {
					union.Add(x)
				}
				wantBase := tc.f.Eval(base)
				wantUnion := tc.f.Eval(union)
				if got := inc.Value(); math.Abs(got-wantBase) > eps {
					t.Fatalf("%s trial %d: Value = %g, want %g", tc.name, trial, got, wantBase)
				}
				if got := inc.Gain(items); math.Abs(got-(wantUnion-wantBase)) > eps {
					t.Fatalf("%s trial %d: Gain = %g, want %g", tc.name, trial, got, wantUnion-wantBase)
				}
				if !inc.Base().Equal(base) {
					t.Fatalf("%s trial %d: Gain mutated the base set", tc.name, trial)
				}
				if rng.Intn(2) == 0 {
					inc.Commit(items)
					base = union
					if got := inc.Value(); math.Abs(got-wantUnion) > eps {
						t.Fatalf("%s trial %d: post-Commit Value = %g, want %g", tc.name, trial, got, wantUnion)
					}
				}
			}
		}
	}
}

// TestPlainOracleMatchesIncremental checks that the from-scratch and
// incremental oracle paths produce identical schedules for both the
// schedule-all and prize-collecting greedy stacks, and that both
// schedule-all paths match the eager reference.
func TestPlainOracleMatchesIncremental(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7907 + 13))
		ins := randomOracleInstance(rng)

		inc, errInc := ScheduleAll(ins, Options{})
		plain, errPlain := ScheduleAll(ins, Options{PlainOracle: true})
		eager, errEager := eagerScheduleAll(ins, Options{})
		if (errInc == nil) != (errPlain == nil) || (errInc == nil) != (errEager == nil) {
			t.Fatalf("trial %d: paths disagree on feasibility: inc=%v plain=%v eager=%v",
				trial, errInc, errPlain, errEager)
		}
		if errInc == nil {
			if err := inc.SameAs(eager); err != nil {
				t.Fatalf("trial %d: incremental path diverges from the eager reference: %v", trial, err)
			}
			if err := plain.SameAs(eager); err != nil {
				t.Fatalf("trial %d: plain-oracle path diverges from the eager reference: %v", trial, err)
			}
			if inc.Evals >= plain.Evals {
				t.Fatalf("trial %d: incremental path should issue fewer counted evals (%d vs %d)",
					trial, inc.Evals, plain.Evals)
			}
		}

		total := 0.0
		for _, j := range ins.Jobs {
			total += j.Value
		}
		z := 0.6 * total
		pInc, errInc := PrizeCollecting(ins, z, Options{Eps: 0.1})
		pPlain, errPlain := PrizeCollecting(ins, z, Options{Eps: 0.1, PlainOracle: true})
		if (errInc == nil) != (errPlain == nil) {
			t.Fatalf("trial %d: prize paths disagree on feasibility: inc=%v plain=%v", trial, errInc, errPlain)
		}
		if errInc == nil {
			if math.Abs(pInc.Cost-pPlain.Cost) > 1e-9 || math.Abs(pInc.Value-pPlain.Value) > 1e-9 {
				t.Fatalf("trial %d: prize schedules diverge: inc (%g, %g) plain (%g, %g)",
					trial, pInc.Cost, pInc.Value, pPlain.Cost, pPlain.Value)
			}
		}
	}
}

// TestCandidateRepricingAllocs pins the steady-state allocation cost of
// re-pricing candidates on a live model — the hot path of session
// re-solves. After the first solve grows the interval scratch buffer, each
// re-pricing may allocate only the fresh candidate slice (the greedy
// workspace must not be able to observe a recycled one).
func TestCandidateRepricingAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ins := randomOracleInstance(rng)
	m, err := NewModel(ins)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	if _, err := m.buildCandidates(EventPoints, nil); err != nil { // warm the scratch
		t.Fatalf("buildCandidates: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		cands, err := m.buildCandidates(EventPoints, nil)
		if err != nil || len(cands) == 0 {
			t.Fatalf("buildCandidates: %d cands, %v", len(cands), err)
		}
	})
	if allocs > 1 {
		t.Fatalf("candidate re-pricing allocates %.1f objects/run, want <= 1 (the candidate slice)", allocs)
	}
}
