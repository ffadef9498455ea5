// Command powersched solves power-scheduling instances given as JSON,
// serves them over HTTP, and simulates online rolling-horizon runs.
//
//	powersched [solve] [flags] [file]   solve one instance (stdin or file) to stdout
//	powersched serve [flags]            long-lived JSON-over-HTTP scheduling service
//	powersched route [flags]            shard-router front end over N serve backends
//	powersched simulate [flags]         rolling-horizon engine over a generated arrival trace
//
// Instance schema (shared by solve, /v1/schedule, and /v1/batch entries):
//
//	{
//	  "procs": 2, "horizon": 24,
//	  "cost": {"model": "affine", "alpha": 2, "rate": 1},
//	  "jobs": [{"value": 1, "allowed": [{"proc": 0, "time": 3}, ...]}, ...],
//	  "mode": "all" | "prize" | "prize-exact",
//	  "z": 10.0, "eps": 0.1, "improve": false
//	}
//
// Cost models: "affine" {alpha, rate}; "perproc" {alphas, rates};
// "timeofuse" {alphas, rates, price}; "superlinear" {alpha, rate, fan,
// exp}; "speedscaled" {wakes, speeds, exp}; "sleepstate" {wake, rate,
// idle}; "composite" {wakes, speeds, exp, price, blocked};
// "unavailable" {base: <model>, blocked: [{proc, time}, ...]}.
//
// Serve flags: -addr (default :8080), -workers (solver goroutines),
// -state-dir and -drain (graceful-shutdown budget). Nothing else is a
// flag: the queue (4×workers), the result cache (256 entries), the
// model cache (8 per worker), the session cap (1024), journal
// compaction (every 64 mutations), the solve deadline (60 s per
// request, 503 + Retry-After past it) and Retry-After (1 s) are
// constants of internal/service. The server drains gracefully on
// SIGINT/SIGTERM: in-flight and queued requests are answered, new ones
// are refused with 503. Session endpoints (/v1/session …) expose the
// mutable solver-session lifecycle. With -state-dir every session is
// journaled to disk (write-ahead, fsynced on every record) and survives
// a restart — kill -9 and power loss included. No journal is read at
// startup: each session is restored on its first touch, so a backend
// with a large shared state dir serves at once, and a corrupt journal
// is quarantined (journals_dropped_corrupt) when its session is
// touched. GET /metrics exposes Prometheus-text counters.
//
// Route flags: -backends (required, comma-separated serve base URLs),
// -addr, and -drain (graceful-shutdown budget). Nothing else is a
// flag: deadlines, retries, backoff, the retry budget and health
// probing are constants of internal/cluster, and a backend is ejected
// after 2 consecutive failed probes or requests and readmitted after 3
// good probes. The router exposes the same /v1 surface as serve plus
// /admin/ring (GET topology, POST resize) and its own /stats and
// /metrics.
//
// Simulate flags: -trace poisson|diurnal|frontloaded, -cost
// affine|speedscaled|sleepstate|composite, -procs, -horizon, -jobs,
// -window, -seed, -alpha (wake cost, all models), -rate (per-slot cost;
// read by affine and sleepstate only). The run is
// deterministic per seed; the JSON report compares the committed online
// schedule against the clairvoyant offline solve of the same trace, and
// for sleep-state models also reports the gap-aware hardware cost of the
// committed intervals (keep-alive vs re-wake priced across gaps).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/online"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/workload"
)

func run(in io.Reader, out io.Writer) error {
	data, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	req, err := service.DecodeRequest(data)
	if err != nil {
		return err
	}
	s, err := service.Solve(req)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(service.EncodeSchedule(s))
}

func solveMain(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	in := io.Reader(os.Stdin)
	if rest := fs.Args(); len(rest) > 0 {
		f, err := os.Open(rest[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	return run(in, os.Stdout)
}

func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "solver goroutines (0 = GOMAXPROCS)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	stateDir := fs.String("state-dir", "", "durable session state directory (empty = in-memory sessions only)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	svc, err := service.Open(service.Config{Workers: *workers, StateDir: *stateDir})
	if err != nil {
		return err
	}
	server := &http.Server{
		Addr:              *addr,
		Handler:           service.NewHTTPHandler(svc),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		// The write timeout must outlast the solve deadline, or the server
		// kills answers the service would still have given in time.
		WriteTimeout: service.SolveDeadline + 15*time.Second,
		IdleTimeout:  120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	log.Printf("powersched: serving on %s", *addr)

	select {
	case err := <-errc:
		svc.Close(context.Background())
		return err
	case <-ctx.Done():
	}
	log.Printf("powersched: draining (budget %s)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = server.Shutdown(drainCtx)
	if cerr := svc.Close(drainCtx); err == nil {
		err = cerr
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("drain budget exceeded; abandoning queued requests")
	}
	return err
}

// simulateReport is the JSON output of `powersched simulate`.
type simulateReport struct {
	Trace           string  `json:"trace"`
	Cost            string  `json:"cost_model"`
	Seed            int64   `json:"seed"`
	Procs           int     `json:"procs"`
	Horizon         int     `json:"horizon"`
	Jobs            int     `json:"jobs"`
	Events          int     `json:"events"`
	Solves          int     `json:"solves"`
	Evals           int64   `json:"evals"`
	CommittedCost   float64 `json:"committed_cost"`
	ClairvoyantCost float64 `json:"clairvoyant_cost"`
	CostRatio       float64 `json:"cost_ratio"`
	// CommittedHardware is the schedule-aware price of the committed
	// intervals (power.ScheduleCoster); equals CommittedCost for models
	// without cross-interval effects.
	CommittedHardware float64                `json:"committed_hardware_cost"`
	Served            int                    `json:"served"`
	Missed            int                    `json:"missed"`
	Committed         []service.IntervalSpec `json:"committed_intervals"`
}

// simulateCost builds the -cost model for a simulate run. Heterogeneous
// fleets ramp speeds 1→2 (and wake costs down) across the processors;
// the composite's price curve is the seeded market trace. Each kind
// reads the flags it has a use for: -alpha (wake) everywhere, -rate for
// affine (per-slot cost) and sleepstate (busy rate; idle = rate/2); the
// speed-scaled and composite exponents are fixed (3 and 2). Negative
// flags are input errors — the power constructors would panic on them.
func simulateCost(kind string, procs, horizon int, wake, rate float64, seed int64) (power.CostModel, error) {
	if wake < 0 || rate < 0 {
		return nil, fmt.Errorf("-alpha %g / -rate %g: costs must be >= 0", wake, rate)
	}
	ramp := func() (wakes, speeds []float64) {
		wakes = make([]float64, procs)
		speeds = make([]float64, procs)
		for p := 0; p < procs; p++ {
			frac := 0.0
			if procs > 1 {
				frac = float64(p) / float64(procs-1)
			}
			speeds[p] = 1 + frac
			wakes[p] = wake * (1 - frac/2)
		}
		return wakes, speeds
	}
	switch kind {
	case "affine":
		return power.Affine{Alpha: wake, Rate: rate}, nil
	case "speedscaled":
		wakes, speeds := ramp()
		return power.NewSpeedScaled(wakes, speeds, 3), nil
	case "sleepstate":
		return power.NewSleepState(wake, rate, rate/2), nil
	case "composite":
		wakes, speeds := ramp()
		price := workload.MarketTrace(rand.New(rand.NewSource(seed+1)), horizon)
		return power.NewComposite(wakes, speeds, 2, price).Freeze(), nil
	default:
		return nil, fmt.Errorf("unknown cost model %q (want affine, speedscaled, sleepstate, or composite)", kind)
	}
}

func simulateMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	traceKind := fs.String("trace", "poisson", "arrival trace generator: poisson | diurnal | frontloaded")
	costKind := fs.String("cost", "affine", "cost model: affine | speedscaled | sleepstate | composite")
	seed := fs.Int64("seed", 42, "RNG seed (runs are deterministic per seed)")
	procs := fs.Int("procs", 2, "processors")
	horizon := fs.Int("horizon", 64, "slotted horizon")
	jobs := fs.Int("jobs", 24, "total jobs across the trace")
	window := fs.Int("window", 2, "half-window of each job around its planted slot")
	alpha := fs.Float64("alpha", 4, "wake cost (all cost models)")
	rate := fs.Float64("rate", 1, "per-slot cost (affine and sleepstate; speedscaled/composite derive slot costs from the speed ramp)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	gens := map[string]func(*rand.Rand, workload.TraceParams) *workload.ArrivalTrace{
		"poisson":     workload.PoissonBurstTrace,
		"diurnal":     workload.DiurnalTrace,
		"frontloaded": workload.FrontLoadedTrace,
	}
	gen, ok := gens[*traceKind]
	if !ok {
		return fmt.Errorf("unknown trace %q (want poisson, diurnal, or frontloaded)", *traceKind)
	}
	cost, err := simulateCost(*costKind, *procs, *horizon, *alpha, *rate, *seed)
	if err != nil {
		return err
	}
	params := workload.TraceParams{
		Procs: *procs, Horizon: *horizon, Jobs: *jobs, Window: *window,
		Cost: cost,
	}
	if err := workload.CheckParams(params); err != nil {
		return err
	}
	tr := gen(rand.New(rand.NewSource(*seed)), params)
	rep, err := online.RunTrace(tr, sched.Options{})
	if err != nil {
		return err
	}
	report := simulateReport{
		Trace:           *traceKind,
		Cost:            *costKind,
		Seed:            *seed,
		Procs:           *procs,
		Horizon:         *horizon,
		Jobs:            tr.Jobs(),
		Events:          len(tr.Events),
		Solves:          rep.Solves,
		Evals:           rep.Evals,
		CommittedCost:   rep.CommittedCost,
		ClairvoyantCost: rep.Plan.Cost,
		Served:          rep.Served,
		Missed:          rep.Missed,
	}
	if rep.Plan.Cost > 0 {
		report.CostRatio = rep.CommittedCost / rep.Plan.Cost
	}
	committed := &sched.Schedule{Intervals: rep.CommittedIntervals, Cost: rep.CommittedCost}
	report.CommittedHardware = committed.HardwareCost(tr.FinalInstance())
	for _, iv := range rep.CommittedIntervals {
		report.Committed = append(report.Committed, service.IntervalSpec{
			Proc: iv.Proc, Start: iv.Start, End: iv.End,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "serve":
		err = serveMain(args[1:])
	case len(args) > 0 && args[0] == "route":
		err = routeMain(args[1:])
	case len(args) > 0 && args[0] == "simulate":
		err = simulateMain(args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "solve":
		err = solveMain(args[1:])
	default:
		// Bare invocation stays the classic filter: JSON in, JSON out.
		err = solveMain(args)
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "powersched:", err)
		os.Exit(1)
	}
}
