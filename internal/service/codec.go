// Package service is the concurrent batch-scheduling layer: a bounded
// worker pool serving the thesis algorithms (ScheduleAll, PrizeCollecting,
// PrizeCollectingExact, plus the Improve post-pass) behind a request queue
// with backpressure and an instance-digest result cache.
//
// The package has three faces:
//
//   - Request/Solve: the sequential, pool-free path — one request in, one
//     schedule out. The CLI's solve mode uses it, and the service's
//     differential tests compare pool output against it byte for byte.
//   - Service: the pool. Submit/SubmitBatch block with context
//     cancellation while the queue is full (that is the backpressure),
//     workers reuse per-instance models so the incremental matchers
//     amortize across a batch, and identical requests are answered from
//     the digest cache.
//   - NewHTTPHandler: JSON-over-HTTP bindings (/v1/schedule, /v1/batch,
//     /healthz, /stats) for `powersched serve`.
//
// This file is the wire codec, shared between the CLI and the HTTP
// server: JSON specs for instances, jobs, and every cost model in
// internal/power (Affine, PerProcessor, TimeOfUse, Superlinear,
// SpeedScaled, SleepState, Composite, Unavailable), schedule encoding,
// and the canonical instance digest that keys the result cache.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/power"
	"repro/internal/sched"
)

// CostSpec describes a cost model on the wire. Model selects the variant;
// the other fields are variant-specific. "unavailable" nests its base
// model in Base and lists blocked slots in Blocked; "composite" and
// "speedscaled" use the per-processor Wakes/Speeds fleet description with
// Exp as the power-law exponent; "sleepstate" reads Wake/Rate/Idle.
type CostSpec struct {
	Model  string    `json:"model"`
	Alpha  float64   `json:"alpha,omitempty"`
	Rate   float64   `json:"rate,omitempty"`
	Fan    float64   `json:"fan,omitempty"`
	Exp    float64   `json:"exp,omitempty"`
	Wake   float64   `json:"wake,omitempty"`
	Idle   float64   `json:"idle,omitempty"`
	Alphas []float64 `json:"alphas,omitempty"`
	Rates  []float64 `json:"rates,omitempty"`
	Price  []float64 `json:"price,omitempty"`
	Wakes  []float64 `json:"wakes,omitempty"`
	Speeds []float64 `json:"speeds,omitempty"`

	Base    *CostSpec  `json:"base,omitempty"`
	Blocked []SlotSpec `json:"blocked,omitempty"`
}

// SlotSpec is a (processor, time-slot) pair on the wire.
type SlotSpec struct {
	Proc int `json:"proc"`
	Time int `json:"time"`
}

// JobSpec is a unit job on the wire. A zero value means 1.
type JobSpec struct {
	Value   float64    `json:"value,omitempty"`
	Allowed []SlotSpec `json:"allowed"`
}

// InstanceSpec is a full scheduling request on the wire: the instance
// itself plus algorithm selection.
type InstanceSpec struct {
	Procs   int       `json:"procs"`
	Horizon int       `json:"horizon"`
	Cost    CostSpec  `json:"cost"`
	Jobs    []JobSpec `json:"jobs"`

	Mode    string  `json:"mode,omitempty"` // "all" (default), "prize", "prize-exact"
	Z       float64 `json:"z,omitempty"`
	Eps     float64 `json:"eps,omitempty"`
	Improve bool    `json:"improve,omitempty"`
}

// ScheduleSpec is a solved schedule on the wire.
type ScheduleSpec struct {
	Intervals []IntervalSpec `json:"intervals"`
	Jobs      []JobResult    `json:"jobs"`
	Cost      float64        `json:"cost"`
	Value     float64        `json:"value"`
	Scheduled int            `json:"scheduled"`
}

// IntervalSpec is an awake interval on the wire.
type IntervalSpec struct {
	Proc  int `json:"proc"`
	Start int `json:"start"`
	End   int `json:"end"`
}

// JobResult reports one job's placement.
type JobResult struct {
	Job       int  `json:"job"`
	Scheduled bool `json:"scheduled"`
	Proc      int  `json:"proc,omitempty"`
	Time      int  `json:"time,omitempty"`
}

// BuildCost validates a cost spec against the instance dimensions and
// constructs the model. Per-processor specs must cover all procs and
// time-of-use prices the whole horizon: a shorter spec would make every
// schedule +Inf/unschedulable, which is an input error better reported
// up front than as a mysterious infeasibility. Unavailable models are
// frozen before they are returned, so the result is safe to share across
// worker goroutines.
func BuildCost(spec CostSpec, procs, horizon int) (power.CostModel, error) {
	switch spec.Model {
	case "affine", "":
		return power.Affine{Alpha: spec.Alpha, Rate: spec.Rate}, nil
	case "perproc":
		if len(spec.Alphas) != len(spec.Rates) {
			return nil, fmt.Errorf("perproc: %d alphas vs %d rates", len(spec.Alphas), len(spec.Rates))
		}
		if len(spec.Alphas) < procs {
			return nil, fmt.Errorf("perproc: %d alphas for %d processors", len(spec.Alphas), procs)
		}
		return power.PerProcessor{Alpha: spec.Alphas, Rate: spec.Rates}, nil
	case "timeofuse":
		if len(spec.Alphas) != len(spec.Rates) {
			return nil, fmt.Errorf("timeofuse: %d alphas vs %d rates", len(spec.Alphas), len(spec.Rates))
		}
		if len(spec.Alphas) < procs {
			return nil, fmt.Errorf("timeofuse: %d alphas for %d processors", len(spec.Alphas), procs)
		}
		if len(spec.Price) < horizon {
			return nil, fmt.Errorf("timeofuse: %d prices for horizon %d", len(spec.Price), horizon)
		}
		return power.NewTimeOfUse(spec.Alphas, spec.Rates, spec.Price), nil
	case "superlinear":
		return power.Superlinear{Alpha: spec.Alpha, Rate: spec.Rate, Fan: spec.Fan, Exp: spec.Exp}, nil
	case "speedscaled":
		if err := checkFleet(spec, procs); err != nil {
			return nil, fmt.Errorf("speedscaled: %w", err)
		}
		return power.NewSpeedScaled(spec.Wakes, spec.Speeds, spec.Exp), nil
	case "sleepstate":
		if spec.Wake < 0 || spec.Rate < 0 || spec.Idle < 0 {
			return nil, fmt.Errorf("sleepstate: rates (%g, %g, %g) must all be >= 0",
				spec.Wake, spec.Rate, spec.Idle)
		}
		return power.NewSleepState(spec.Wake, spec.Rate, spec.Idle), nil
	case "composite":
		if err := checkFleet(spec, procs); err != nil {
			return nil, fmt.Errorf("composite: %w", err)
		}
		if len(spec.Price) < horizon {
			return nil, fmt.Errorf("composite: %d prices for horizon %d", len(spec.Price), horizon)
		}
		for t, pr := range spec.Price {
			if pr < 0 {
				return nil, fmt.Errorf("composite: price[%d] = %g, want >= 0", t, pr)
			}
		}
		c := power.NewComposite(spec.Wakes, spec.Speeds, spec.Exp, spec.Price)
		for _, s := range spec.Blocked {
			if s.Proc < 0 || s.Proc >= procs || s.Time < 0 || s.Time >= horizon {
				return nil, fmt.Errorf("composite: blocked slot %+v outside %d procs × horizon %d",
					s, procs, horizon)
			}
			c.Block(s.Proc, s.Time)
		}
		return c.Freeze(), nil
	case "unavailable":
		baseSpec := spec.Base
		if baseSpec == nil {
			return nil, fmt.Errorf("unavailable: missing base model")
		}
		if baseSpec.Model == "unavailable" {
			return nil, fmt.Errorf("unavailable: base must be a concrete model, not another mask")
		}
		base, err := BuildCost(*baseSpec, procs, horizon)
		if err != nil {
			return nil, fmt.Errorf("unavailable base: %w", err)
		}
		u := power.NewUnavailable(base, horizon)
		for _, s := range spec.Blocked {
			if s.Proc < 0 || s.Proc >= procs || s.Time < 0 || s.Time >= horizon {
				return nil, fmt.Errorf("unavailable: blocked slot %+v outside %d procs × horizon %d",
					s, procs, horizon)
			}
			u.Block(s.Proc, s.Time)
		}
		return u.Freeze(), nil
	default:
		return nil, fmt.Errorf("unknown cost model %q", spec.Model)
	}
}

// checkFleet validates the Wakes/Speeds fleet description shared by the
// speed-scaled and composite models: matching lengths covering every
// processor, strictly positive speeds, non-negative wakes (the power
// constructors panic on these — input errors must come back as errors
// instead, and a negative wake would yield negative costs in violation
// of the CostModel contract).
func checkFleet(spec CostSpec, procs int) error {
	if len(spec.Wakes) != len(spec.Speeds) {
		return fmt.Errorf("%d wakes vs %d speeds", len(spec.Wakes), len(spec.Speeds))
	}
	if len(spec.Wakes) < procs {
		return fmt.Errorf("%d wakes for %d processors", len(spec.Wakes), procs)
	}
	for p, s := range spec.Speeds {
		if s <= 0 {
			return fmt.Errorf("speed[%d] = %g, want > 0", p, s)
		}
	}
	for p, w := range spec.Wakes {
		if w < 0 {
			return fmt.Errorf("wake[%d] = %g, want >= 0", p, w)
		}
	}
	return nil
}

// BuildRequest turns a wire spec into a runnable Request. The instance
// digest (InstanceKey) is computed from the spec's canonical encoding, so
// two requests for the same instance share cache entries and worker-local
// models regardless of field order or whitespace in the original JSON.
func BuildRequest(spec InstanceSpec) (Request, error) {
	cost, err := BuildCost(spec.Cost, spec.Procs, spec.Horizon)
	if err != nil {
		return Request{}, err
	}
	ins := &sched.Instance{Procs: spec.Procs, Horizon: spec.Horizon, Cost: cost}
	for _, j := range spec.Jobs {
		job := sched.Job{Value: j.Value}
		if job.Value == 0 {
			job.Value = 1
		}
		for _, s := range j.Allowed {
			job.Allowed = append(job.Allowed, sched.SlotKey{Proc: s.Proc, Time: s.Time})
		}
		ins.Jobs = append(ins.Jobs, job)
	}
	var mode Mode
	switch spec.Mode {
	case "all", "":
		mode = ModeAll
	case "prize":
		mode = ModePrize
	case "prize-exact":
		mode = ModePrizeExact
	default:
		return Request{}, fmt.Errorf("unknown mode %q", spec.Mode)
	}
	return Request{
		Instance:    ins,
		Mode:        mode,
		Z:           spec.Z,
		Opts:        sched.Options{Eps: spec.Eps},
		Improve:     spec.Improve,
		InstanceKey: InstanceDigest(spec),
	}, nil
}

// DecodeRequest parses request JSON and builds the Request.
func DecodeRequest(data []byte) (Request, error) {
	var spec InstanceSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return Request{}, fmt.Errorf("decoding instance: %w", err)
	}
	return BuildRequest(spec)
}

// InstanceDigest hashes the instance portion of a spec (dimensions, cost
// model, jobs — not mode/z/eps, which the service mixes into the result
// cache key separately). The digest is the identity the worker-local
// model caches key on: equal digests must mean equal instances, which the
// canonical re-marshalling of the typed spec guarantees.
func InstanceDigest(spec InstanceSpec) string {
	canon := InstanceSpec{
		Procs: spec.Procs, Horizon: spec.Horizon, Cost: spec.Cost, Jobs: spec.Jobs,
	}
	data, err := json.Marshal(canon)
	if err != nil {
		// Marshalling a plain struct of numbers and slices cannot fail;
		// treat it as "no digest" (disables caching) rather than crash.
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// EncodeSchedule converts a solved schedule to its wire form.
func EncodeSchedule(s *sched.Schedule) ScheduleSpec {
	out := ScheduleSpec{Cost: s.Cost, Value: s.Value, Scheduled: s.Scheduled}
	for _, iv := range s.Intervals {
		out.Intervals = append(out.Intervals, IntervalSpec{Proc: iv.Proc, Start: iv.Start, End: iv.End})
	}
	for j, a := range s.Assignment {
		jr := JobResult{Job: j, Scheduled: a != sched.Unassigned}
		if jr.Scheduled {
			jr.Proc, jr.Time = a.Proc, a.Time
		}
		out.Jobs = append(out.Jobs, jr)
	}
	return out
}
