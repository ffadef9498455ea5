package conformance

import (
	"math/rand"
	"testing"

	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/workload"
)

// fuzzInstance is the small fixed base every fuzzed script mutates: a
// planted 2-processor instance with decoy slots, priced by a Composite
// model so the fuzz also crosses the priced-horizon and blocked-slot
// paths. Deterministic: the fuzzer's entropy goes into the script, not
// the instance.
func fuzzInstance() *sched.Instance {
	rng := rand.New(rand.NewSource(3))
	cost := power.NewComposite([]float64{4, 2}, []float64{1, 1.3}, 2,
		workload.MarketTrace(rng, 12))
	cost.Block(0, 4)
	ins, _ := workload.PlantedSchedule(rng, workload.PlantedParams{
		Procs: 2, Horizon: 12, IntervalsPerProc: 1, JobsPerInterval: 3,
		ExtraSlotsPerJob: 1,
		Cost:             cost.Freeze(),
	})
	return ins
}

// decodeScript turns fuzz bytes into a bounded mutation script. Every
// byte string decodes to *some* script — including ops the session must
// reject (out-of-range removes, shrinking horizons, out-of-instance
// blocks), which CheckSession requires to leave the session intact.
func decodeScript(data []byte, procs, horizon int) []Mutation {
	const maxOps = 10
	var script []Mutation
	for i := 0; i+2 < len(data) && len(script) < maxOps; i += 3 {
		op, a, b := data[i], int(data[i+1]), int(data[i+2])
		switch op % 4 {
		case 0:
			job := sched.Job{Value: 1 + float64(b%3)}
			anchor := a % (horizon + 4) // may exceed the priced horizon after advances
			for w := 0; w <= b%2; w++ {
				job.Allowed = append(job.Allowed, sched.SlotKey{
					Proc: (a + w) % procs, Time: (anchor + 2*w) % (horizon + 4),
				})
			}
			script = append(script, Mutation{Op: OpAddJob, Job: job})
		case 1:
			script = append(script, Mutation{Op: OpRemoveJob, Index: a%8 - 1})
		case 2:
			script = append(script, Mutation{Op: OpBlock, Proc: a%3 - 1, Time: b%(horizon+2) - 1})
		case 3:
			script = append(script, Mutation{Op: OpAdvance, Horizon: horizon - 2 + a%8})
		}
	}
	return script
}

// FuzzSessionScript drives random mutation scripts through CheckSession:
// whatever the script does, a session's solve must stay byte-identical
// to the cold from-scratch solve of the equivalent instance, evals
// included, and rejected mutations must leave the session consistent.
// Run long with:
//
//	go test -run '^$' -fuzz FuzzSessionScript ./internal/conformance
func FuzzSessionScript(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 2, 5, 3, 3, 7, 0})           // add, block, advance
	f.Add([]byte{1, 0, 0, 1, 9, 0, 0, 11, 1})          // removes incl. rejected, add past horizon
	f.Add([]byte{3, 7, 7, 0, 13, 1, 2, 0, 0, 1, 1, 0}) // advance, add in new range, block, remove
	f.Add([]byte{2, 2, 0, 2, 0, 5, 0, 2, 2, 3, 0, 0})  // blocks that may kill feasibility
	ins := fuzzInstance()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return // bound the work per input; longer scripts add no new ops
		}
		script := decodeScript(data, ins.Procs, ins.Horizon)
		if err := CheckSession(ins, sched.Options{}, script); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSessionScriptSeeds replays the committed seed corpus logic without
// the fuzz driver, so plain `go test` exercises the same decode paths CI
// fuzz-smokes.
func TestSessionScriptSeeds(t *testing.T) {
	seeds := [][]byte{
		{},
		{0, 3, 1, 2, 5, 3, 3, 7, 0},
		{1, 0, 0, 1, 9, 0, 0, 11, 1},
		{3, 7, 7, 0, 13, 1, 2, 0, 0, 1, 1, 0},
		{2, 2, 0, 2, 0, 5, 0, 2, 2, 3, 0, 0},
	}
	ins := fuzzInstance()
	for i, data := range seeds {
		script := decodeScript(data, ins.Procs, ins.Horizon)
		if err := CheckSession(ins, sched.Options{}, script); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
}
