// Command perfbench is the repository's serving benchmark. It starts
// `powersched serve` (and `powersched route`) as separate processes on
// loopback, offers one of three workloads open-loop, verifies every
// answer, and prints the end-to-end metrics; with -trace 1 it prints the
// per-layer metrics instead, from a traced in-process replay of the same
// generated requests plus the servers' /stats counters.
//
//	perfbench -bin <powersched binary> -work <dir> \
//	    -workload replay-hot|solve-cold|session-churn -seed N -seconds S -trace 0|1
//
// perfbench/run.sh builds both binaries and supplies -bin and -work. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it are a readable
// report with sample counts, provenance and the answers digest.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/internal/service"
)

// config is one benchmark run.
type config struct {
	w       *workloadSpec
	seed    int64
	seconds float64
	trace   bool
	bin     string
	work    string
	setups  int // deployments started (and timed) per run
	warmOps int // closed-loop ops before the ladder; they feed the answers digest
	log     io.Writer
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order.
type report struct {
	names   []string
	metrics map[string]metric
	notes   map[string]string // sample counts and other context per metric
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) add(name string, v float64, unit, note string) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

func main() {
	wl := flag.String("workload", "", "replay-hot | solve-cold | session-churn")
	seed := flag.Int64("seed", 1, "workload seed: the generated inputs are a function of it")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: print per-layer metrics from a traced run")
	bin := flag.String("bin", "", "powersched binary")
	work := flag.String("work", "", "directory for server logs, state and span dumps")
	flag.Parse()
	w, err := findWorkload(*wl)
	if err == nil && (*bin == "" || *work == "") {
		err = errors.New("-bin and -work are required")
	}
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = errors.New("-seconds must be positive and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// The driver shares the host's CPUs with the servers it measures;
	// fewer collections of its own keep it out of their way.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		bin: *bin, work: filepath.Join(*work, w.name), setups: 5, warmOps: 256, log: os.Stdout,
	}
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run and prints the readable report.
func run(ctx context.Context, cfg config) (*result, error) {
	if err := os.RemoveAll(cfg.work); err != nil {
		return nil, err
	}
	host, _ := os.Hostname() // a label only; empty on error
	fmt.Fprintf(cfg.log, "perfbench: workload=%s seed=%d seconds=%g trace=%t go=%s nproc=%d gomaxprocs=%d host=%s\n",
		cfg.w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), host)
	rep := newReport()
	scfg := cfg
	if cfg.trace {
		scfg.seconds /= 2 // the other half replays in-process
	}
	sv, err := serve(ctx, scfg, rep)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := traceRun(ctx, cfg, rep); err != nil {
			return nil, err
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	for _, name := range rep.names {
		m := rep.metrics[name]
		fmt.Fprintf(cfg.log, "  %-34s %14.6g %-6s %s\n", name, m.Value, m.Unit, rep.notes[name])
	}
	fmt.Fprintf(cfg.log, "perfbench: attempted=%d failed=%d verified=%d referenced=%d answers_digest=%s (ops 0..%d)\n",
		sv.attempted, sv.failed, sv.v.verified, sv.v.referenced, sv.digest, cfg.warmOps-1)
	for _, e := range sv.errs {
		fmt.Fprintln(cfg.log, "  failure:", e)
	}
	res := &result{Correct: sv.failed == 0, Attempted: sv.attempted, Failed: sv.failed, Metrics: map[string]metric{}}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	for _, n := range names {
		m, ok := rep.metrics[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = m
	}
	return res, nil
}

// endToEnd and perLayer are the metric names of the final JSON line,
// as BENCHMARK.json declares them. Every untraced run also prints
// p50_ms.low, p99_ms.low, p50_ms.high and p99_ms.high; they are not bounded
// end-to-end metrics because their spread across runs on a shared
// 2-CPU host exceeds the largest bound a metric may have (README).
var (
	endToEnd = []string{"setup_s", "max_rps", "cpu_ms_per_op", "peak_rss_mb"}
	perLayer = []string{
		"codec.decode_us", "codec.decode_allocs", "codec.digest_us", "codec.encode_us",
		"http.handler_self_us", "http.loopback_us",
		"service.hit_us", "service.cache_hit_ratio", "service.model_reuse_ratio",
		"service.queue_wait_us.high", "service.queue_depth_p99",
		"sched.model_build_us", "sched.candidates_us", "sched.candidates_per_solve",
		"sched.solve_ms", "sched.evals_per_solve", "sched.solve_allocs",
		"budget.rounds_per_solve", "budget.evals_per_round", "bipartite.probe_ns",
		"sched.warm_solve_ms", "sched.warm_evals_per_solve", "sched.warm_eval_ratio",
		"service.session_solve_us", "service.mutate_us", "journal.append_us",
		"journal.fsyncs_per_op", "journal.records_per_op", "journal.compactions_per_1k_ops",
		"cluster.hop_us", "cluster.retries_per_op", "cluster.failovers_per_op", "cluster.affinity_ratio",
		"runtime.allocs_per_op", "runtime.bytes_per_op", "runtime.gc_per_1k_ops",
		"loadgen.lag_p99_ms", "loadgen.sent", "loadgen.failed", "error_rate",
		"trace.e2e_p50_us", "trace.overhead_pct", "trace.unaccounted_pct", "trace.op_self_us",
		"p50_ms.high", "p99_ms.high",
	}
)

// served is what the serving run reports beyond its metrics.
type served struct {
	*checker
	digest string
}

// serve runs the workload against real server processes: timed set-ups
// (each but the last followed by a warm-up and a CPU probe at the high
// rate), a closed-loop warm-up of the last, then the rate ladder
// (tracing off). With cfg.trace it skips the probes and offers only the
// high step, for the /stats-derived layer counters.
func serve(ctx context.Context, cfg config, rep *report) (*served, error) {
	w := cfg.w
	in := w.newInputs(cfg.seed)
	conns := runtime.NumCPU()
	var pin pinning
	if w.pin {
		if pin = newPinning(); pin.ok {
			if err := pin.pinDriver(); err != nil {
				return nil, err
			}
			fmt.Fprintf(cfg.log, "perfbench: serving processes on CPU %v, driver on CPUs %v\n", pin.servers.cpus(), pin.driver.cpus())
		}
	}
	v := newVerifier(cfg.seed, cfg.warmOps)
	v.digesting = false // until the measured deployment's warm-up
	c := newChecker(in, v)
	check := c.check
	newGen := func(d *deployment) *generator {
		return &generator{in: in, do: d.do, inflight: conns, turns: newSessionTurns(), stride: churnSessions}
	}
	steps := ladderSteps(w, cfg.trace)
	probes := 0
	if !cfg.trace {
		probes = cfg.setups - 1
	}
	stepDur, probeDur := plan(w, steps, probes, cfg.seconds)
	var (
		d      *deployment
		setups []float64
		// high tallies the CPU windows at the high rate: a probe on
		// every set-up but the last, then the ladder's high step on the
		// last.
		high cpuTally
		err  error
	)
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		if d, err = start(ctx, w, cfg.bin, filepath.Join(cfg.work, fmt.Sprintf("setup%d", i)), in, conns, &pin); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == cfg.setups-1 {
			break
		}
		if i < probes {
			if err := probeCPU(ctx, cfg.log, d, newGen(d), c, w.ladder[w.high], cfg.warmOps, probeDur, &high); err != nil {
				d.stop()
				return nil, err
			}
		}
		d.stop()
	}
	defer d.stop()
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))

	c.seen = map[int]bool{} // repeats count on the measured deployment only
	v.digesting = true
	gen := newGen(d)
	check(gen.run(ctx, math.Inf(1), 0, cfg.warmOps))
	digest, err := v.answersDigest()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w (%v)", err, c.errs)
	}

	st0, err := d.backendStats()
	if err != nil {
		return nil, err
	}
	rt0, err := d.routerStats()
	if err != nil {
		return nil, err
	}
	c.repeats, c.repeatHits = 0, 0
	var (
		maxRPS  float64
		ops     int
		depths  []float64
		highLag float64
		passing = true
	)
	for _, i := range steps {
		ph, marks, stepDepths := runSampled(ctx, gen, d, w.ladder[i], stepDur[i], i == w.high && cfg.trace)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		check(ph)
		ops += len(ph.samples)
		st := ph.stats()
		ok := ph.pass(w.limitMs)
		var stepCPU cpuTally
		stepCPU.add(ph, marks)
		fmt.Fprintf(cfg.log, "  step %7.1f ops/s: n=%d windows=%d p50=%.3fms p99=%.3fms (whole step %.3fms) lag_p99=%.3fms (%.3fms) cpu=%.4fms/op failed=%d abandoned=%t pass=%t\n",
			ph.rate, st.n, st.windows, st.p50, st.p99, st.rawP99, st.lag99, st.rawLag99, stepCPU.msPerOp(), ph.failed, ph.abandoned, ok)
		if passing = passing && ok; passing {
			maxRPS = w.ladder[i]
		}
		note50 := fmt.Sprintf("n=%d at %g ops/s", st.n, w.ladder[i])
		note99 := fmt.Sprintf("median of %d windows of %d ops at %g ops/s", st.windows, window, w.ladder[i])
		switch i {
		case w.low:
			rep.add("p50_ms.low", st.p50, "ms", note50)
			rep.add("p99_ms.low", st.p99, "ms", note99)
		case w.high:
			rep.add("p50_ms.high", st.p50, "ms", note50)
			rep.add("p99_ms.high", st.p99, "ms", note99)
			high.add(ph, marks)
			depths = stepDepths
			highLag = st.lag99
		}
		if i > w.high && !ok {
			break
		}
	}
	if high.ops == 0 {
		return nil, errors.New("no op at the high rate completed")
	}
	if !cfg.trace {
		rep.add("max_rps", maxRPS, "1/s", fmt.Sprintf("ladder %v, p99 limit %g ms", w.ladder, w.limitMs))
	}
	rep.add("error_rate", float64(c.failed)/float64(c.attempted), "ratio", fmt.Sprintf("%d of %d ops", c.failed, c.attempted))
	rep.add("cpu_ms_per_op", high.msPerOp(), "ms", fmt.Sprintf("%d deployments, n=%d ops at %g ops/s", probes+1, high.ops, w.ladder[w.high]))
	u, err := d.usage()
	if err != nil {
		return nil, err
	}
	rep.add("peak_rss_mb", float64(u.peakRSS)/(1<<20), "MB", fmt.Sprintf("%d processes", len(d.procs)))

	st1, err := d.backendStats()
	if err != nil {
		return nil, err
	}
	rt1, err := d.routerStats()
	if err != nil {
		return nil, err
	}
	solves := float64(st1.CacheMisses - st0.CacheMisses)
	answered := float64(st1.CacheHits-st0.CacheHits) + solves
	fops := float64(ops)
	rep.add("service.cache_hit_ratio", ratio(float64(st1.CacheHits-st0.CacheHits), answered), "ratio", "")
	rep.add("service.model_reuse_ratio", ratio(float64(st1.ModelReuses-st0.ModelReuses), solves), "ratio", "")
	rep.add("service.queue_depth_p99", quantile(depths, 0.99), "count", fmt.Sprintf("n=%d /stats samples", len(depths)))
	rep.add("journal.fsyncs_per_op", float64(st1.JournalFsyncs-st0.JournalFsyncs)/fops, "count", "")
	rep.add("journal.records_per_op", float64(st1.JournalRecords-st0.JournalRecords)/fops, "count", "")
	rep.add("journal.compactions_per_1k_ops", 1000*float64(st1.JournalCompactions-st0.JournalCompactions)/fops, "count", "")
	rep.add("cluster.retries_per_op", float64(rt1.Retries-rt0.Retries)/fops, "count", "")
	rep.add("cluster.failovers_per_op", float64(rt1.Failovers-rt0.Failovers)/fops, "count", "")
	rep.add("cluster.affinity_ratio", ratio(float64(c.repeatHits), float64(c.repeats)), "ratio", fmt.Sprintf("%d repeats", c.repeats))
	rep.add("loadgen.lag_p99_ms", highLag, "ms", "high step")
	rep.add("loadgen.sent", float64(c.attempted), "count", "")
	rep.add("loadgen.failed", float64(c.failed), "count", "")
	return &served{checker: c, digest: digest}, nil
}

// checker verifies the answers of each phase after it ends, counting a
// transport error, a non-200 answer or a rejected schedule as a failed
// op. It also counts repeated instances answered as cache hits.
type checker struct {
	in                  inputs
	v                   *verifier
	seen                map[int]bool
	repeats, repeatHits int
	attempted, failed   int
	errs                []string // the first few failures
}

func newChecker(in inputs, v *verifier) *checker {
	return &checker{in: in, v: v, seen: map[int]bool{}}
}

func (c *checker) check(ph *phase) {
	for k := range ph.samples {
		s := &ph.samples[k]
		o := c.in.op(ph.first + k)
		err := s.err
		if err == nil {
			err = c.v.check(o, s.body)
		}
		if err == nil && c.seen[o.key] {
			c.repeats++
			if cacheHit(s.body) {
				c.repeatHits++
			}
		}
		c.seen[o.key] = true
		s.body = nil
		if err != nil {
			ph.failed++
			if len(c.errs) < 5 {
				c.errs = append(c.errs, err.Error())
			}
		}
	}
	c.attempted += len(ph.samples)
	c.failed += ph.failed
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cacheHit reads the cache_hit flag of a schedule answer.
func cacheHit(body []byte) bool {
	var resp service.ScheduleResponse
	return json.Unmarshal(body, &resp) == nil && resp.CacheHit
}

// ladderSteps lists the ladder indices a run offers: low, high, and the
// steps above high (a traced run offers high only).
func ladderSteps(w *workloadSpec, trace bool) []int {
	if trace {
		return []int{w.high}
	}
	steps := []int{w.low, w.high}
	for i := w.high + 1; i < len(w.ladder); i++ {
		steps = append(steps, i)
	}
	sort.Ints(steps)
	return steps
}

// plan splits a run's seconds between the ladder steps and the CPU
// probes. Each step above high gets an eighth of the run: long enough to
// show whether the limit holds. Low, high and each probe share the rest
// 2:3:1; low and high need samples for a steady p99, the probes add
// deployments to the CPU figure. A traced run offers high only, for all
// of its seconds.
func plan(w *workloadSpec, steps []int, probes int, seconds float64) (map[int]time.Duration, time.Duration) {
	secs := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	dur := map[int]time.Duration{}
	rest, shares := seconds, float64(probes)
	for _, i := range steps {
		switch {
		case i > w.high:
			dur[i] = secs(seconds / 8)
			rest -= seconds / 8
		case i == w.high:
			shares += 3
		default:
			shares += 2
		}
	}
	unit := rest / shares
	for _, i := range steps {
		switch {
		case i == w.high:
			dur[i] = secs(3 * unit)
		case i < w.high:
			dur[i] = secs(2 * unit)
		}
	}
	return dur, secs(unit)
}
