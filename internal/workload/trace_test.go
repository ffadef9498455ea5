package workload

import (
	"math/rand"
	"testing"

	"repro/internal/sched"
)

func traceGenerators() map[string]func(*rand.Rand, TraceParams) *ArrivalTrace {
	return map[string]func(*rand.Rand, TraceParams) *ArrivalTrace{
		"poisson":     PoissonBurstTrace,
		"diurnal":     DiurnalTrace,
		"frontloaded": FrontLoadedTrace,
	}
}

// TestTracesValidAndPrefixFeasible: every generator yields a structurally
// valid trace whose every prefix instance is schedulable — the invariant
// the rolling-horizon engine's re-solves depend on.
func TestTracesValidAndPrefixFeasible(t *testing.T) {
	params := TraceParams{Procs: 2, Horizon: 32, Jobs: 12, Window: 2}
	for name, gen := range traceGenerators() {
		for seed := int64(0); seed < 4; seed++ {
			tr := gen(rand.New(rand.NewSource(seed)), params)
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if tr.Jobs() != params.Jobs {
				t.Fatalf("%s seed %d: %d jobs, want %d", name, seed, tr.Jobs(), params.Jobs)
			}
			for k := 1; k <= len(tr.Events); k++ {
				ins := tr.InstancePrefix(k)
				if _, err := sched.ScheduleAll(ins, sched.Options{}); err != nil {
					t.Fatalf("%s seed %d: prefix %d infeasible: %v", name, seed, k, err)
				}
			}
		}
	}
}

// TestTracesDeterministic: a generator is a pure function of its seed.
func TestTracesDeterministic(t *testing.T) {
	params := TraceParams{Procs: 2, Horizon: 24, Jobs: 8, Window: 1}
	for name, gen := range traceGenerators() {
		a := gen(rand.New(rand.NewSource(9)), params)
		b := gen(rand.New(rand.NewSource(9)), params)
		if len(a.Events) != len(b.Events) {
			t.Fatalf("%s: event counts differ", name)
		}
		for i := range a.Events {
			if a.Events[i].At != b.Events[i].At || len(a.Events[i].Jobs) != len(b.Events[i].Jobs) {
				t.Fatalf("%s: event %d differs", name, i)
			}
			for j := range a.Events[i].Jobs {
				ja, jb := a.Events[i].Jobs[j], b.Events[i].Jobs[j]
				if len(ja.Allowed) != len(jb.Allowed) {
					t.Fatalf("%s: event %d job %d differs", name, i, j)
				}
				for s := range ja.Allowed {
					if ja.Allowed[s] != jb.Allowed[s] {
						t.Fatalf("%s: event %d job %d slot %d differs", name, i, j, s)
					}
				}
			}
		}
	}
}

// TestTraceShapes pins each generator's distinguishing shape.
func TestTraceShapes(t *testing.T) {
	params := TraceParams{Procs: 2, Horizon: 40, Jobs: 15, Window: 2}
	rng := rand.New(rand.NewSource(3))

	fl := FrontLoadedTrace(rng, params)
	if fl.Events[0].At != 0 {
		t.Fatalf("front-loaded first event at %d, want 0", fl.Events[0].At)
	}
	if n := len(fl.Events[0].Jobs); n < params.Jobs*3/5 {
		t.Fatalf("front-loaded first burst has %d jobs, want >= %d", n, params.Jobs*3/5)
	}

	pb := PoissonBurstTrace(rng, params)
	if len(pb.Events) < 2 {
		t.Fatalf("poisson trace collapsed to %d events", len(pb.Events))
	}

	di := DiurnalTrace(rng, params)
	if len(di.Events) < 2 {
		t.Fatalf("diurnal trace collapsed to %d events", len(di.Events))
	}
}

// TestTraceParamsRejected: the half-load cap and bad dimensions panic.
func TestTraceParamsRejected(t *testing.T) {
	for name, p := range map[string]TraceParams{
		"overload":  {Procs: 1, Horizon: 10, Jobs: 6},
		"zero-jobs": {Procs: 1, Horizon: 10, Jobs: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: params %+v accepted", name, p)
				}
			}()
			PoissonBurstTrace(rand.New(rand.NewSource(1)), p)
		}()
	}
}
