// Package powersched is a Go implementation of "Scheduling to Minimize
// Power Consumption using Submodular Functions" (Zadimoghaddam, MIT/SPAA
// 2010 line of work).
//
// It exposes, as one documented surface, the repository's three layers:
//
//   - Offline power scheduling: multi-interval multi-processor instances
//     with arbitrary interval-cost oracles, solved to O(log n) of optimal
//     by budgeted submodular maximization (Theorems 2.2.1, 2.3.1, 2.3.3).
//   - The budgeted submodular greedy itself (Lemma 2.1.2), usable with any
//     monotone submodular utility.
//   - The online (secretary) algorithms of Chapter 3: classical,
//     submodular (monotone and non-monotone), matroid-constrained,
//     knapsack-constrained, subadditive, and bottleneck.
//
// The implementation packages live under internal/; this facade re-exports
// the stable API via type aliases, so internal refactors do not move the
// public names. See DESIGN.md for the system inventory and EXPERIMENTS.md
// for the reproduced results.
package powersched

import (
	"math/rand"
	"net/http"

	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/cluster"
	"repro/internal/matroid"
	"repro/internal/online"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/secretary"
	"repro/internal/service"
	"repro/internal/submodular"
	"repro/internal/workload"
)

// ---- Scheduling (thesis §2.2–2.3) ----

// Re-exported scheduling types; see the sched package for full semantics.
type (
	// Instance is a power-scheduling instance: processors, a slotted
	// horizon, an interval-cost oracle, and unit jobs with arbitrary
	// time-slot/processor pair sets.
	Instance = sched.Instance
	// Job is a unit job with its valid slot set and prize value.
	Job = sched.Job
	// SlotKey identifies a (processor, time-slot) pair.
	SlotKey = sched.SlotKey
	// Interval is an awake interval on one processor.
	Interval = sched.Interval
	// Schedule is the algorithms' output: intervals, assignments, cost.
	Schedule = sched.Schedule
	// Options tunes candidate enumeration and greedy strategy.
	Options = sched.Options
	// CandidatePolicy selects candidate awake-interval enumeration.
	CandidatePolicy = sched.CandidatePolicy
)

// Candidate policies.
const (
	EventPoints = sched.EventPoints
	SingleSlots = sched.SingleSlots
	AllPairs    = sched.AllPairs
)

// Unassigned marks an unscheduled job in Schedule.Assignment.
var Unassigned = sched.Unassigned

// Errors returned by the scheduling algorithms.
var (
	ErrUnschedulable    = sched.ErrUnschedulable
	ErrValueUnreachable = sched.ErrValueUnreachable
)

// ScheduleAll schedules every job at cost within O(log n) of optimal
// (Theorem 2.2.1).
func ScheduleAll(ins *Instance, opts Options) (*Schedule, error) {
	return sched.ScheduleAll(ins, opts)
}

// PrizeCollecting schedules value ≥ (1−ε)Z at cost within O(log 1/ε) of
// any schedule of value ≥ Z (Theorem 2.3.1).
func PrizeCollecting(ins *Instance, z float64, opts Options) (*Schedule, error) {
	return sched.PrizeCollecting(ins, z, opts)
}

// PrizeCollectingExact schedules value ≥ Z at cost within
// O(log n + log Δ) of optimal (Theorem 2.3.3).
func PrizeCollectingExact(ins *Instance, z float64, opts Options) (*Schedule, error) {
	return sched.PrizeCollectingExact(ins, z, opts)
}

// Improve post-processes a schedule with cost-decreasing local moves
// (dropping redundant intervals, merging profitably priced spans). The
// result never costs more and stays feasible for the same assignment.
func Improve(ins *Instance, s *Schedule) *Schedule {
	return sched.Improve(ins, s)
}

// ---- Solver sessions (instance → model → session lifecycle) ----

// Session is the mutable solver-session stage of the lifecycle: it owns
// the instance, the built model and the last schedule across mutations
// (AddJob, RemoveJob, SetUnavailable, AdvanceHorizon), and re-solves with
// targeted invalidation instead of full rebuilds. Solve runs ScheduleAll's
// solve, so it is byte-identical to ScheduleAll on the equivalently-mutated
// instance built from scratch, oracle-eval spend included.
type Session = sched.Session

// NewSession opens a solver session over a private copy of the instance.
func NewSession(ins *Instance, opts Options) (*Session, error) {
	return sched.NewSession(ins, opts)
}

// ---- Rolling-horizon online engine ----

// Re-exported online-engine types; see the online package for semantics.
type (
	// Engine is the rolling-horizon event loop: it commits the executed
	// prefix of the current plan (never revoking past decisions), mutates
	// its session with each arrival batch, and re-solves.
	Engine = online.Engine
	// EngineReport is a finished run's outcome: the clairvoyant-equal
	// final plan, the committed online schedule and cost, and the oracle
	// accounting.
	EngineReport = online.RunReport
	// ArrivalTrace is an online workload: instance dimensions plus
	// time-ordered arrival events, feasible at every prefix.
	ArrivalTrace = workload.ArrivalTrace
	// ArrivalEvent is one trace step: jobs revealing themselves at a slot.
	ArrivalEvent = workload.ArrivalEvent
	// TraceParams tunes the arrival-trace generators.
	TraceParams = workload.TraceParams
)

// NewEngine opens an empty rolling-horizon engine.
func NewEngine(procs, horizon int, cost CostModel, opts Options) (*Engine, error) {
	return online.NewEngine(procs, horizon, cost, opts)
}

// RunTrace drives a whole arrival trace through a fresh engine.
func RunTrace(tr *ArrivalTrace, opts Options) (*EngineReport, error) {
	return online.RunTrace(tr, opts)
}

// PoissonBurstTrace generates exponentially spaced arrival bursts.
func PoissonBurstTrace(rng *rand.Rand, p TraceParams) *ArrivalTrace {
	return workload.PoissonBurstTrace(rng, p)
}

// DiurnalTrace draws arrivals from a two-peak daily intensity curve.
func DiurnalTrace(rng *rand.Rand, p TraceParams) *ArrivalTrace {
	return workload.DiurnalTrace(rng, p)
}

// FrontLoadedTrace is the adversarial regime: a big opening burst with
// wide windows, then tight single-slot stragglers.
func FrontLoadedTrace(rng *rand.Rand, p TraceParams) *ArrivalTrace {
	return workload.FrontLoadedTrace(rng, p)
}

// ---- Serving layer ----

// Re-exported serving types; see the service package for full semantics.
type (
	// Service is the concurrent batch scheduler: a bounded worker pool
	// with a backpressured request queue and an instance-digest result
	// cache. Create with NewService; feed with Submit/SubmitBatch; stop
	// with Close (graceful drain).
	Service = service.Service
	// ServiceConfig is a service's deployment: its worker count and
	// state dir (plus the filesystem and log seams). Queue depth, cache
	// sizes, the session cap, compaction and the solve deadline are
	// fixed constants of the service package.
	ServiceConfig = service.Config
	// ServiceRequest is one unit of work: an instance plus algorithm
	// selection (ScheduleMode), threshold, options, and Improve flag.
	ServiceRequest = service.Request
	// ServiceResult is one request's outcome, with cache visibility.
	ServiceResult = service.Result
	// ServiceStats snapshots the service counters.
	ServiceStats = service.Stats
	// ScheduleMode selects the algorithm a request runs.
	ScheduleMode = service.Mode
	// InstanceSpec is the JSON wire form of a request (shared between
	// the CLI, the HTTP server, and programmatic clients).
	InstanceSpec = service.InstanceSpec
	// ServiceMutation is one wire-form session mutation (add_job,
	// remove_job, block, advance_horizon) for Service.MutateSession and
	// POST /v1/session/{id}/mutate.
	ServiceMutation = service.MutationSpec
	// ServiceSessionInfo snapshots one live service session.
	ServiceSessionInfo = service.SessionInfo
)

// Algorithm selectors for ServiceRequest.Mode.
const (
	ModeAll        = service.ModeAll
	ModePrize      = service.ModePrize
	ModePrizeExact = service.ModePrizeExact
)

// ErrServiceClosed is returned by Submit once Close has begun.
var ErrServiceClosed = service.ErrClosed

// ErrNoSession is returned for unknown or dropped service-session ids.
var ErrNoSession = service.ErrNoSession

// ErrDurability marks journal I/O failures on a durable service: on the
// live path the affected session is dropped rather than served
// unjournaled; on a first-touch restore the journal is kept for the
// next touch.
var ErrDurability = service.ErrDurability

// ErrSnapshotCorrupt marks snapshots and journals that fail
// verification; they are never restored.
var ErrSnapshotCorrupt = service.ErrSnapshotCorrupt

// NewService starts the concurrent batch-scheduling service. The caller
// owns it and must Close it to release the worker pool.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// OpenService is NewService that returns its startup error (an
// unusable state dir) instead of panicking. With
// ServiceConfig.StateDir set, sessions are journaled and each is
// restored from its journal on first touch after a restart — answering
// solve/info exactly as before, or dropped cleanly if the journal is
// corrupt.
func OpenService(cfg ServiceConfig) (*Service, error) { return service.Open(cfg) }

// NewServiceHandler binds a service to its JSON-over-HTTP surface
// (/v1/schedule, /v1/batch, /healthz, /stats) — what `powersched serve`
// listens with.
func NewServiceHandler(svc *Service) http.Handler { return service.NewHTTPHandler(svc) }

// BuildServiceRequest turns a wire spec into a runnable request,
// validating the cost model and computing the instance digest that keys
// the result cache.
func BuildServiceRequest(spec InstanceSpec) (ServiceRequest, error) {
	return service.BuildRequest(spec)
}

// SolveRequest answers one request synchronously with no pool or cache —
// the sequential reference path the service is differential-tested
// against.
func SolveRequest(req ServiceRequest) (*Schedule, error) { return service.Solve(req) }

// ---- Cluster routing (shard-router front end) ----

// Re-exported cluster types; see the cluster package for full semantics.
type (
	// ClusterRouter is the shard-router front end over N serve backends:
	// consistent-hash routing, one backend-health state machine (eject
	// after consecutive failed probes or requests, readmit after
	// consecutive good probes), deadline/retry/backoff with a global
	// retry budget, load shedding, and journal-driven session failover
	// over a shared StateDir. Serve its Handler; what `powersched route`
	// listens with.
	ClusterRouter = cluster.Router
	// ClusterConfig names the router's backends, its transport, and its
	// log sink. The router's timing is constant and not configurable.
	ClusterConfig = cluster.Config
	// ClusterStats snapshots the router's counters and backend health.
	ClusterStats = cluster.Stats
	// HashRing is the consistent-hash ring the router shards with. A
	// request goes to the first alive backend of its key's Sequence, the
	// owner on the ring without the ejected backends; Rebalance plans
	// resize migrations under the ⌈K/N⌉ movement bound.
	HashRing = cluster.Ring
)

// ErrBackendUnavailable is wrapped by routing failures caused by dead
// or ejected backends (503 + Retry-After on the wire).
var ErrBackendUnavailable = cluster.ErrBackendUnavailable

// ErrRetryBudgetExhausted is wrapped when the cluster-wide retry budget
// is empty (429 + Retry-After on the wire).
var ErrRetryBudgetExhausted = cluster.ErrRetryBudgetExhausted

// ErrMigrationCorrupt is wrapped when a resize migration's digest
// verification fails; the mismatch is surfaced, never routed around.
var ErrMigrationCorrupt = cluster.ErrMigrationCorrupt

// NewClusterRouter builds a router over cfg.Backends and starts its
// health prober. The caller must Close it.
func NewClusterRouter(cfg ClusterConfig) (*ClusterRouter, error) { return cluster.New(cfg) }

// NewHashRing builds a consistent-hash ring over the named backends.
func NewHashRing(backends []string) (*HashRing, error) { return cluster.NewRing(backends) }

// ---- Energy-cost models (thesis §1) ----

// Re-exported cost models; all implement CostModel.
type (
	// CostModel prices awake intervals per processor.
	CostModel = power.CostModel
	// Affine is the classical α + rate·length model.
	Affine = power.Affine
	// PerProcessor gives each processor its own α and rate.
	PerProcessor = power.PerProcessor
	// TimeOfUse prices slots by a market curve.
	TimeOfUse = power.TimeOfUse
	// Superlinear adds a fan/cooling premium growing in interval length.
	Superlinear = power.Superlinear
	// SpeedScaled is the heterogeneous speed-scaling model: processor p
	// burns Speed[p]^Alpha energy per awake slot plus a per-proc wake cost.
	SpeedScaled = power.SpeedScaled
	// SleepState models idle-keepalive vs power-down-and-rewake machines;
	// it also implements ScheduleCoster, the schedule-aware costing hook.
	SleepState = power.SleepState
	// Composite stacks time-of-use pricing × speed-scaled heterogeneity ×
	// unavailability in one model.
	Composite = power.Composite
	// Unavailable marks blocked (processor, slot) pairs at infinite cost.
	Unavailable = power.Unavailable
	// CostFunc adapts a plain function to CostModel.
	CostFunc = power.Func
	// Span is a half-open busy interval, the unit ScheduleCoster prices.
	Span = power.Span
	// ScheduleCoster is the schedule-aware costing hook: models that can
	// price a processor's busy spans jointly (cross-interval gap effects)
	// implement it; Schedule.HardwareCost consumes it.
	ScheduleCoster = power.ScheduleCoster
)

// NewTimeOfUse builds a market-curve model from per-slot prices.
func NewTimeOfUse(alpha, rate, price []float64) *TimeOfUse {
	return power.NewTimeOfUse(alpha, rate, price)
}

// NewUnavailable wraps a base model with an unavailability mask.
func NewUnavailable(base CostModel, horizon int) *Unavailable {
	return power.NewUnavailable(base, horizon)
}

// NewSpeedScaled builds the heterogeneous speed-scaling model (per-proc
// wake costs and speeds, shared power-law exponent).
func NewSpeedScaled(wake, speed []float64, alpha float64) SpeedScaled {
	return power.NewSpeedScaled(wake, speed, alpha)
}

// NewSleepState builds the sleep-state model (wake cost, busy rate, idle
// keep-alive rate).
func NewSleepState(wake, busy, idle float64) SleepState {
	return power.NewSleepState(wake, busy, idle)
}

// NewComposite builds the composite model: time-of-use prices × speed
// heterogeneity, with an unavailability mask populated via Block and
// sealed with Freeze.
func NewComposite(wake, speed []float64, alpha float64, price []float64) *Composite {
	return power.NewComposite(wake, speed, alpha, price)
}

// ---- Submodular machinery (thesis §2.1) ----

// Re-exported submodular types.
type (
	// Set is a subset of a fixed universe {0..n-1}.
	Set = bitset.Set
	// SubmodularFunction is the value-oracle interface.
	SubmodularFunction = submodular.Function
	// BudgetSubset is one allowable subset with its cost (Definition 1).
	BudgetSubset = budget.Subset
	// BudgetProblem asks for utility ≥ Threshold at minimum cost.
	BudgetProblem = budget.Problem
	// BudgetOptions tunes the budgeted greedy.
	BudgetOptions = budget.Options
	// BudgetResult reports the greedy's picks, cost, and trace.
	BudgetResult = budget.Result
)

// NewSet returns an empty set over {0..n-1}.
func NewSet(n int) *Set { return bitset.New(n) }

// Incremental is the stateful value-oracle interface behind the greedy
// fast paths: probes answer F(S ∪ items) − F(S) against a committed base
// set without recomputing F from scratch.
type Incremental = submodular.Incremental

// IncrementalProvider is implemented by functions that can manufacture an
// incremental oracle for themselves (Coverage, FacilityLocation, Modular,
// the matching utilities, ...).
type IncrementalProvider = submodular.IncrementalProvider

// AsIncremental returns a fresh incremental oracle for f, or (nil, false)
// if f offers none. The budgeted greedy calls this internally; it is
// exported for custom algorithms that want the same fast path.
func AsIncremental(f SubmodularFunction) (Incremental, bool) {
	return submodular.AsIncremental(f)
}

// BudgetedGreedy runs Lemma 2.1.2's algorithm: utility ≥ (1−ε)·Threshold
// at cost within O(log 1/ε) of any collection reaching Threshold.
func BudgetedGreedy(p BudgetProblem, opts BudgetOptions) (*BudgetResult, error) {
	return budget.Greedy(p, opts)
}

// BudgetedLazyGreedy computes the same picks with fewer oracle calls.
func BudgetedLazyGreedy(p BudgetProblem, opts BudgetOptions) (*BudgetResult, error) {
	return budget.LazyGreedy(p, opts)
}

// ---- Secretary algorithms (thesis Chapter 3) ----

// Matroid re-exports the independence-oracle interface for the matroid
// secretary problem.
type Matroid = matroid.Matroid

// MatroidIntersection is the feasibility structure of l matroids.
type MatroidIntersection = matroid.Intersection

// NewMatroidIntersection validates and combines matroids over one universe.
func NewMatroidIntersection(ms ...Matroid) MatroidIntersection {
	return matroid.NewIntersection(ms...)
}

// ClassicalSecretary runs the 1/e rule; returns the hired arrival
// position or -1.
func ClassicalSecretary(values []float64) int { return secretary.Classical(values) }

// SubmodularSecretary runs Algorithm 1 (monotone f, pick ≤ k).
func SubmodularSecretary(f SubmodularFunction, order []int, k int) *Set {
	return secretary.MonotoneSubmodular(f, order, k)
}

// SubmodularSecretaryNonMonotone runs Algorithm 2 (8e²-competitive).
func SubmodularSecretaryNonMonotone(f SubmodularFunction, order []int, k int, rng *rand.Rand) *Set {
	return secretary.Submodular(f, order, k, rng)
}

// MatroidSecretary runs Algorithm 3 under l matroid constraints.
func MatroidSecretary(f SubmodularFunction, constraints MatroidIntersection, order []int, rng *rand.Rand) *Set {
	return secretary.MatroidSubmodular(f, constraints, order, rng)
}

// KnapsackSecretary runs the O(l)-competitive multi-knapsack algorithm.
func KnapsackSecretary(f SubmodularFunction, weights [][]float64, caps []float64, order []int, rng *rand.Rand) *Set {
	return secretary.Knapsack(f, weights, caps, order, rng)
}

// SubadditiveSecretary runs the O(√n)-competitive subadditive algorithm.
func SubadditiveSecretary(f SubmodularFunction, order []int, k int, rng *rand.Rand) *Set {
	return secretary.Subadditive(f, order, k, rng)
}

// BottleneckSecretary runs the min-aggregation rule of Theorem 3.6.1.
func BottleneckSecretary(values []float64, k int) []int {
	return secretary.BottleneckMin(values, k)
}
