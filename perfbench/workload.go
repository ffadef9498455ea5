package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/workload"
)

// workloadSpec is one traffic mix: the deployment it runs against, its
// generated op stream, and the fixed rate ladder and latency limit its
// end-to-end metrics are measured on.
type workloadSpec struct {
	name     string
	backends int      // `powersched serve` processes
	router   bool     // front the backends with `powersched route`
	serve    []string // extra serve flags
	stateDir bool     // give each backend a fresh -state-dir
	pin      bool     // serving processes on one CPU, the driver on the rest (affinity.go)
	// ladder holds the offered op rates (ops/s, ascending); low and high
	// index into it. A run measures low and high, then climbs the steps
	// above high until one misses the limit.
	ladder    []float64
	low, high int
	limitMs   float64 // p99 latency limit of a passing step
	newInputs func(seed int64) inputs
}

var workloads = []*workloadSpec{
	{
		name: "replay-hot", backends: 2, router: true, serve: []string{"-workers", "1"},
		pin:    true,
		ladder: []float64{300, 800, 1100, 6000}, low: 0, high: 1, limitMs: 25,
		newInputs: newReplayHot,
	},
	{
		name: "solve-cold", backends: 1,
		ladder: []float64{70, 170, 220, 600}, low: 0, high: 1, limitMs: 100,
		newInputs: newSolveCold,
	},
	{
		name: "session-churn", backends: 1, stateDir: true, pin: true,
		ladder: []float64{50, 120, 170, 1500}, low: 0, high: 1, limitMs: 100,
		newInputs: newSessionChurn,
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// op is one unit of offered load: a /v1/schedule request, or a session
// slide step (one mutate plus one solve).
type op struct {
	id      int
	session int    // session index; -1 for a stateless op
	seq     int64  // expected session sequence before the mutate
	body    []byte // InstanceSpec JSON, or MutateRequest JSON for a session op
	// spec is the instance the answer must schedule: the request itself,
	// or the session's instance after the step.
	spec *service.InstanceSpec
	// key identifies spec across ops, so reference solves are shared by
	// ops that post the same instance.
	key int
}

// inputs generates a workload's op stream from its seed. op(i) is
// deterministic in (seed, i); ops of one session must run in id order.
type inputs interface {
	op(i int) op
	// sessions returns the instances the deployment's sessions start
	// from (nil for stateless workloads).
	sessions() []service.InstanceSpec
}

// affineSpec is the wire form of a trace's instance: the generators'
// default cost (affine α=4, rate=1).
func affineSpec(procs, horizon int, jobs []sched.Job) service.InstanceSpec {
	spec := service.InstanceSpec{
		Procs: procs, Horizon: horizon,
		Cost: service.CostSpec{Model: "affine", Alpha: 4, Rate: 1},
	}
	for _, j := range jobs {
		js := service.JobSpec{Value: j.Value, Allowed: []service.SlotSpec{}}
		for _, s := range j.Allowed {
			js.Allowed = append(js.Allowed, service.SlotSpec{Proc: s.Proc, Time: s.Time})
		}
		spec.Jobs = append(spec.Jobs, js)
	}
	return spec
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers and slices always marshal
	}
	return b
}

// subSeed derives the seed of generated item k from the workload seed,
// keeping the pools of neighbouring workload seeds disjoint.
func subSeed(seed int64, k int) int64 { return seed<<16 + int64(k) }

// pool is a stateless op stream cycling over a fixed list of instances.
type pool struct {
	specs  []service.InstanceSpec
	bodies [][]byte
}

func newPool(specs []service.InstanceSpec) *pool {
	p := &pool{specs: specs}
	for _, s := range specs {
		p.bodies = append(p.bodies, mustJSON(s))
	}
	return p
}

func (p *pool) op(i int) op {
	k := i % len(p.specs)
	return op{id: i, session: -1, body: p.bodies[k], spec: &p.specs[k], key: k}
}

func (p *pool) sessions() []service.InstanceSpec { return nil }

// hotTraces is the number of traces whose prefixes make up the
// replay-hot pool: enough that the mean instance size, and with it the
// codec's work per op, barely moves from seed to seed, while the pool
// (hotTraces × 16 prefixes) stays well inside each backend's result
// cache.
const hotTraces = 8

// newReplayHot posts the prefix instances of Poisson burst traces (the
// loadgen defaults) in repeated laps: after the first lap nearly every
// op is a digest-cache hit.
func newReplayHot(seed int64) inputs {
	var specs []service.InstanceSpec
	for t := 0; t < hotTraces; t++ {
		tr := workload.PoissonBurstTrace(rand.New(rand.NewSource(subSeed(seed, t))),
			workload.TraceParams{Procs: 2, Horizon: 48, Jobs: 16, Window: 2})
		for k := 1; k <= len(tr.Events); k++ {
			ins := tr.InstancePrefix(k)
			specs = append(specs, affineSpec(ins.Procs, ins.Horizon, ins.Jobs))
		}
	}
	return newPool(specs)
}

// coldPool is larger than the service's 256-entry result cache, so a
// cyclic replay never hits it.
const coldPool = 512

// newSolveCold posts a distinct instance per op: final instances of
// Poisson burst traces, cycled through a pool that defeats the cache.
func newSolveCold(seed int64) inputs {
	specs := make([]service.InstanceSpec, coldPool)
	for k := range specs {
		tr := workload.PoissonBurstTrace(rand.New(rand.NewSource(subSeed(seed, k))),
			workload.TraceParams{Procs: 2, Horizon: 64, Jobs: 20, Window: 2})
		ins := tr.FinalInstance()
		specs[k] = affineSpec(ins.Procs, ins.Horizon, ins.Jobs)
	}
	return newPool(specs)
}

const (
	churnSessions = 16
	churnJobs     = 40 // jobs per session trace
	churnWindow   = 20 // active jobs per session
)

// churn is the session-churn op stream: session s slides a window of
// churnWindow active jobs around its trace of churnJobs jobs, one job
// out and one in per op. The trace's planted anchors are pairwise
// distinct, so every window is feasible.
type churn struct {
	procs, horizon int
	jobs           [][]service.JobSpec // per session, the whole trace
}

func newSessionChurn(seed int64) inputs {
	c := &churn{procs: 2, horizon: 80}
	for s := 0; s < churnSessions; s++ {
		tr := workload.PoissonBurstTrace(rand.New(rand.NewSource(subSeed(seed, s))),
			workload.TraceParams{Procs: c.procs, Horizon: c.horizon, Jobs: churnJobs, Window: 2})
		ins := tr.FinalInstance()
		c.jobs = append(c.jobs, affineSpec(ins.Procs, ins.Horizon, ins.Jobs).Jobs)
	}
	return c
}

// window is session s's instance after step steps: jobs step..step+19
// of its trace, cyclically.
func (c *churn) window(s, step int) service.InstanceSpec {
	spec := affineSpec(c.procs, c.horizon, nil)
	for k := 0; k < churnWindow; k++ {
		spec.Jobs = append(spec.Jobs, c.jobs[s][(step+k)%churnJobs])
	}
	return spec
}

func (c *churn) sessions() []service.InstanceSpec {
	out := make([]service.InstanceSpec, churnSessions)
	for s := range out {
		out[s] = c.window(s, 0)
	}
	return out
}

// op i is step i/churnSessions of session i%churnSessions: remove the
// oldest job, append the next one, conditional on the session having
// applied exactly the earlier steps.
func (c *churn) op(i int) op {
	s, step := i%churnSessions, i/churnSessions
	next := c.jobs[s][(step+churnWindow)%churnJobs]
	seq := int64(2 * step)
	body := mustJSON(service.MutateRequest{
		Mutations: []service.MutationSpec{
			{Op: "remove_job", Index: 0},
			{Op: "add_job", Job: &next},
		},
		ExpectSeq: &seq,
	})
	spec := c.window(s, step+1)
	return op{id: i, session: s, seq: seq, body: body, spec: &spec, key: i}
}

func sessionID(s int) string { return fmt.Sprintf("bench-s%02d", s) }
