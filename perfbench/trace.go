package main

// The traced run: the workload's generated requests replayed in-process
// through each layer's public functions, with spans recorded by the
// benchmark around every call. Spans stay in memory and are written to
// <work>/spans.jsonl when the run ends.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bipartite"
	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/service"
)

// span is one timed call into a layer. Spans of one op share Op; a
// root span has Parent 0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start)
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, op, parent int, f func()) time.Duration {
	id := t.begin(name, op, parent)
	f()
	return t.end(id)
}

// selfTimes is each span's duration minus the part of it that its
// children cover.
func (t *tracer) selfTimes() map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stack is the in-process deployment of one workload: the entry server
// the op's end-to-end call goes to (a router over two backends, or one
// backend), a direct backend, and bare services for the layer probes.
// Every service sees every op, so their caches and sessions evolve
// exactly like the served run's.
type stack struct {
	entry   string // base URL of the end-to-end path
	direct  string // base URL of a backend without the router ("" without a router)
	handler http.Handler
	do      *service.Service // Service.Do / session calls, not durable
	journal *service.Service // durable twin for journal.append (session workloads)
	client  *http.Client
	closers []func()
}

func serviceConfig(w *workloadSpec, stateDir string) service.Config {
	cfg := service.Config{StateDir: stateDir}
	if w.router {
		cfg.Workers = 1 // the served backends run -workers 1
	}
	return cfg
}

func newStack(w *workloadSpec, dir string, in inputs) (*stack, error) {
	st := &stack{client: newClient(runtime.NumCPU())}
	n := 0
	open := func(durable bool) (*service.Service, error) {
		state := ""
		if durable {
			n++
			state = filepath.Join(dir, fmt.Sprintf("state%d", n))
		}
		svc, err := service.Open(serviceConfig(w, state))
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, func() { svc.Close(context.Background()) }) //nolint:errcheck // teardown
		for s, spec := range in.sessions() {
			if _, err := svc.CreateSessionWithID(sessionID(s), spec); err != nil {
				return nil, err
			}
			if res := svc.SolveSession(context.Background(), sessionID(s)); res.Err != nil {
				return nil, res.Err
			}
		}
		return svc, nil
	}
	serveHTTP := func(h http.Handler) string {
		srv := httptest.NewServer(h)
		st.closers = append(st.closers, srv.Close)
		return srv.URL
	}
	durable := w.stateDir
	var err error
	fail := func(e error) (*stack, error) { st.close(); return nil, e }
	if w.router {
		var urls []string
		for b := 0; b < w.backends; b++ {
			svc, err := open(durable)
			if err != nil {
				return fail(err)
			}
			urls = append(urls, serveHTTP(service.NewHTTPHandler(svc)))
		}
		router, err := cluster.New(cluster.Config{Backends: urls})
		if err != nil {
			return fail(err)
		}
		st.closers = append(st.closers, router.Close)
		st.entry = serveHTTP(router.Handler())
		svc, err := open(durable)
		if err != nil {
			return fail(err)
		}
		st.direct = serveHTTP(service.NewHTTPHandler(svc))
	} else {
		svc, err := open(durable)
		if err != nil {
			return fail(err)
		}
		st.entry = serveHTTP(service.NewHTTPHandler(svc))
	}
	hsvc, err := open(durable)
	if err != nil {
		return fail(err)
	}
	st.handler = service.NewHTTPHandler(hsvc)
	if st.do, err = open(false); err != nil {
		return fail(err)
	}
	if durable {
		if st.journal, err = open(true); err != nil {
			return fail(err)
		}
	}
	return st, nil
}

func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.client.CloseIdleConnections()
}

// post is one op's HTTP exchange against base (mutate then solve for a
// session op); the answer must be a 200.
func (st *stack) post(base string, o op) error {
	send := func(path string, body []byte) error {
		resp, err := st.client.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters here
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return nil
	}
	if o.session < 0 {
		return send("/v1/schedule", o.body)
	}
	path := "/v1/session/" + sessionID(o.session)
	if err := send(path+"/mutate", o.body); err != nil {
		return err
	}
	return send(path+"/solve", nil)
}

// serveLocal is post through the handler with no network in between.
func (st *stack) serveLocal(o op) error {
	call := func(path string, body []byte) error {
		rec := httptest.NewRecorder()
		st.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, rec.Code)
		}
		return nil
	}
	if o.session < 0 {
		return call("/v1/schedule", o.body)
	}
	path := "/v1/session/" + sessionID(o.session)
	if err := call(path+"/mutate", o.body); err != nil {
		return err
	}
	return call(path+"/solve", nil)
}

// samples collects per-op durations by name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) p50(name string) float64 {
	if len(s[name]) == 0 {
		return 0
	}
	return median(s[name])
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replayer runs the traced probes of each op.
type replayer struct {
	st     *stack
	tr     *tracer
	s      samples
	in     inputs
	warm   map[int]*sched.Session // per session, the benchmark's own solver session
	wire   sched.Options          // the options the wire path solves with
	ctx    context.Context
	solves map[int]time.Duration // model build + solve per op key, for the queue probe
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// traceOp replays op o with spans around every layer call.
func (r *replayer) traceOp(o op) error {
	tr, s := r.tr, r.s
	root := tr.begin("op", o.id, 0)
	defer tr.end(root)
	var err error
	e2e := tr.timed("op.e2e", o.id, root, func() { err = r.st.post(r.st.entry, o) })
	if err != nil {
		return err
	}
	s.add("e2e", us(e2e))
	if r.st.direct != "" {
		direct := tr.timed("cluster.direct", o.id, root, func() { err = r.st.post(r.st.direct, o) })
		if err != nil {
			return err
		}
		s.add("cluster.hop", us(e2e-direct))
		e2e = direct
	}
	handler := tr.timed("http.handler", o.id, root, func() { err = r.st.serveLocal(o) })
	if err != nil {
		return err
	}
	s.add("http.loopback", us(e2e-handler))

	// The handler's children, called one by one on the same input.
	var inner time.Duration
	var sc *sched.Schedule
	if o.session < 0 {
		var req service.Request
		m0 := mallocs()
		dec := tr.timed("codec.decode", o.id, root, func() { req, err = service.DecodeRequest(o.body) })
		if err != nil {
			return err
		}
		s.add("codec.decode_allocs", float64(mallocs()-m0))
		s.add("codec.decode", us(dec))
		var spec service.InstanceSpec
		if err := json.Unmarshal(o.body, &spec); err != nil {
			return err
		}
		s.add("codec.digest", us(tr.timed("codec.digest", o.id, root, func() { service.InstanceDigest(spec) })))
		var res service.Result
		do := tr.timed("service.do", o.id, root, func() { res = r.st.do.Do(r.ctx, req) })
		if res.Err != nil {
			return res.Err
		}
		if res.CacheHit {
			s.add("service.hit", us(do))
		} else {
			s.add("service.miss", us(do))
		}
		sc = res.Schedule
		inner = dec + do
	} else {
		var mr service.MutateRequest
		m0 := mallocs()
		dec := tr.timed("codec.decode", o.id, root, func() { err = json.Unmarshal(o.body, &mr) })
		if err != nil {
			return err
		}
		s.add("codec.decode_allocs", float64(mallocs()-m0))
		s.add("codec.decode", us(dec))
		// The service re-digests the session's spec after every mutation.
		s.add("codec.digest", us(tr.timed("codec.digest", o.id, root, func() { service.InstanceDigest(*o.spec) })))
		id := sessionID(o.session)
		mut := tr.timed("service.mutate", o.id, root, func() {
			_, _, err = r.st.do.MutateSessionAt(id, o.seq, mr.Mutations)
		})
		if err != nil {
			return err
		}
		dur := tr.timed("service.mutate_durable", o.id, root, func() {
			_, _, err = r.st.journal.MutateSessionAt(id, o.seq, mr.Mutations)
		})
		if err != nil {
			return err
		}
		s.add("service.mutate", us(mut))
		s.add("journal.append", us(dur-mut))
		var res service.Result
		sol := tr.timed("service.session_solve", o.id, root, func() { res = r.st.do.SolveSession(r.ctx, id) })
		if res.Err != nil {
			return res.Err
		}
		s.add("service.session_solve", us(sol))
		sc = res.Schedule
		inner = dec + dur + sol
	}
	enc := tr.timed("codec.encode", o.id, root, func() {
		spec := service.EncodeSchedule(sc)
		var buf bytes.Buffer
		e := json.NewEncoder(&buf)
		e.SetIndent("", "  ")
		err = e.Encode(service.ScheduleResponse{Schedule: &spec})
	})
	if err != nil {
		return err
	}
	s.add("codec.encode", us(enc))
	s.add("http.handler_self", us(handler-inner-enc))
	return r.probeInstance(o, root)
}

// probeInstance times the solver layers on the op's instance: model
// build, candidate pricing, the wire's greedy, matcher probes, and a
// warm session re-solve after one slide step.
func (r *replayer) probeInstance(o op, root int) error {
	tr, s := r.tr, r.s
	req, err := service.BuildRequest(*o.spec)
	if err != nil {
		return err
	}
	var m *sched.Model
	build := tr.timed("sched.model_build", o.id, root, func() { m, err = sched.NewModel(req.Instance) })
	if err != nil {
		return err
	}
	s.add("sched.model_build", us(build))
	var cands []sched.Interval
	cand := tr.timed("sched.candidates", o.id, root, func() { cands, err = m.Candidates(sched.EventPoints) })
	if err != nil {
		return err
	}
	s.add("sched.candidates", us(cand))
	s.add("sched.candidates_per_solve", float64(len(cands)))

	fresh, err := sched.NewModel(req.Instance)
	if err != nil {
		return err
	}
	var sc *sched.Schedule
	m0 := mallocs()
	solve := tr.timed("sched.solve", o.id, root, func() { sc, err = fresh.ScheduleAll(req.Opts) })
	if err != nil {
		return err
	}
	s.add("sched.solve_allocs", float64(mallocs()-m0))
	s.add("sched.solve", us(solve))
	s.add("sched.evals_per_solve", float64(sc.Evals))
	rounds := float64(len(sc.Intervals))
	s.add("budget.rounds_per_solve", rounds)
	s.add("budget.evals_per_round", float64(sc.Evals)/rounds)
	r.solves[o.key] = build + solve

	mt := bipartite.NewMatcher(m.G)
	probe := tr.timed("bipartite.probe", o.id, root, func() {
		for _, iv := range cands {
			mt.GainOfSet(m.IntervalItems(iv))
		}
	})
	s.add("bipartite.probe", float64(probe)/float64(len(cands)))

	// The warm re-solve: a session's current instance after one step. For
	// a session op that is the op's own slide; for a stateless op, the
	// instance minus its last job gains that job.
	ws, err := r.warmSession(o, req.Instance)
	if err != nil {
		return err
	}
	var warm *sched.Schedule
	d := tr.timed("sched.warm_solve", o.id, root, func() { warm, err = ws.Solve() })
	if err != nil {
		return err
	}
	if err := warm.SameAs(sc); err != nil {
		return fmt.Errorf("op %d: warm re-solve differs from the cold solve: %w", o.id, err)
	}
	s.add("sched.warm_solve", us(d))
	s.add("sched.warm_evals_per_solve", float64(ws.LastEvals()))
	s.add("sched.warm_eval_ratio", float64(ws.LastEvals())/float64(sc.Evals))
	return nil
}

// warmSession returns a solved session with one step applied since
// its last solve (the step itself runs outside any span). A session op's
// step is its own slide; a stateless op's is the arrival of its
// instance's last job.
func (r *replayer) warmSession(o op, ins *sched.Instance) (*sched.Session, error) {
	last := ins.Jobs[len(ins.Jobs)-1]
	ws := r.warm[o.session]
	if o.session < 0 || ws == nil {
		start := dropLast(ins)
		if o.session >= 0 {
			req, err := service.BuildRequest(r.in.sessions()[o.session])
			if err != nil {
				return nil, err
			}
			start = req.Instance
		}
		var err error
		if ws, err = sched.NewSession(start, r.wire); err != nil {
			return nil, err
		}
		if _, err := ws.Solve(); err != nil {
			return nil, err
		}
		if o.session >= 0 {
			r.warm[o.session] = ws
		}
	}
	if o.session >= 0 {
		if err := ws.RemoveJob(0); err != nil {
			return nil, err
		}
	}
	_, err := ws.AddJob(last)
	return ws, err
}

// dropLast copies ins without its last job.
func dropLast(ins *sched.Instance) *sched.Instance {
	out := *ins
	out.Jobs = append([]sched.Job(nil), ins.Jobs[:len(ins.Jobs)-1]...)
	return &out
}

// traceRun is the in-process half of a -trace 1 run: an untraced replay
// of the workload's first ops, the same ops traced, and a queue probe at
// the high rate. It adds the per-layer metrics to rep.
func traceRun(ctx context.Context, cfg config, rep *report) error {
	w := cfg.w
	in := w.newInputs(cfg.seed)
	budget := time.Duration(cfg.seconds / 2 * float64(time.Second))

	// Traced replay first: it fixes how many ops both replays cover.
	st, err := newStack(w, filepath.Join(cfg.work, "traced"), in)
	if err != nil {
		return err
	}
	wire, err := service.BuildRequest(*in.op(0).spec)
	if err != nil {
		st.close()
		return err
	}
	r := &replayer{st: st, tr: newTracer(), s: samples{}, in: in, warm: map[int]*sched.Session{},
		wire: wire.Opts, ctx: ctx, solves: map[int]time.Duration{}}
	tracedFor := budget * 6 / 10
	t0 := time.Now()
	n := 0
	for ; time.Since(t0) < tracedFor && ctx.Err() == nil; n++ {
		if err := r.traceOp(in.op(n)); err != nil {
			st.close()
			return fmt.Errorf("traced replay: %w", err)
		}
	}
	st.close()
	if err := r.tr.write(filepath.Join(cfg.work, "spans.jsonl")); err != nil {
		return err
	}

	// Untraced replay of the same n ops: end-to-end calls only.
	st, err = newStack(w, filepath.Join(cfg.work, "untraced"), in)
	if err != nil {
		return err
	}
	var plain []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := st.post(st.entry, in.op(i)); err != nil {
			st.close()
			return fmt.Errorf("untraced replay: %w", err)
		}
		plain = append(plain, us(time.Since(t)))
	}
	runtime.ReadMemStats(&m1)
	st.close()

	queue, err := queueProbe(ctx, w, in, r.solves, budget*3/10)
	if err != nil {
		return err
	}

	s := r.s
	self := r.tr.selfTimes()
	var opSelf []float64
	for _, sp := range r.tr.spans {
		if sp.Name == "op" {
			opSelf = append(opSelf, us(self[sp.ID]))
		}
	}
	note := fmt.Sprintf("p50 of %d ops", n)
	rep.add("codec.decode_us", s.p50("codec.decode"), "us", note)
	rep.add("codec.decode_allocs", s.p50("codec.decode_allocs"), "count", note)
	rep.add("codec.digest_us", s.p50("codec.digest"), "us", note)
	rep.add("codec.encode_us", s.p50("codec.encode"), "us", note)
	rep.add("http.handler_self_us", s.p50("http.handler_self"), "us", note)
	rep.add("http.loopback_us", s.p50("http.loopback"), "us", note)
	rep.add("service.hit_us", s.p50("service.hit"), "us", fmt.Sprintf("p50 of %d hits", len(s["service.hit"])))
	rep.add("service.queue_wait_us.high", queue.p50, "us", fmt.Sprintf("p50 of %d misses at %g ops/s", queue.n, w.ladder[w.high]))
	rep.add("sched.model_build_us", s.p50("sched.model_build"), "us", note)
	rep.add("sched.candidates_us", s.p50("sched.candidates"), "us", note)
	rep.add("sched.candidates_per_solve", s.p50("sched.candidates_per_solve"), "count", note)
	rep.add("sched.solve_ms", s.p50("sched.solve")/1000, "ms", note)
	rep.add("sched.evals_per_solve", s.p50("sched.evals_per_solve"), "count", note)
	rep.add("sched.solve_allocs", s.p50("sched.solve_allocs"), "count", note)
	rep.add("budget.rounds_per_solve", s.p50("budget.rounds_per_solve"), "count", note)
	rep.add("budget.evals_per_round", s.p50("budget.evals_per_round"), "count", note)
	rep.add("bipartite.probe_ns", s.p50("bipartite.probe"), "ns", note)
	rep.add("sched.warm_solve_ms", s.p50("sched.warm_solve")/1000, "ms", note)
	rep.add("sched.warm_evals_per_solve", s.p50("sched.warm_evals_per_solve"), "count", note)
	rep.add("sched.warm_eval_ratio", s.p50("sched.warm_eval_ratio"), "ratio", note)
	rep.add("service.session_solve_us", s.p50("service.session_solve"), "us", note)
	rep.add("service.mutate_us", s.p50("service.mutate"), "us", note)
	rep.add("journal.append_us", s.p50("journal.append"), "us", note)
	rep.add("cluster.hop_us", s.p50("cluster.hop"), "us", note)
	fn := float64(n)
	rep.add("runtime.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/fn, "count", "untraced replay")
	rep.add("runtime.bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/fn, "B", "untraced replay")
	rep.add("runtime.gc_per_1k_ops", 1000*float64(m1.NumGC-m0.NumGC)/fn, "count", "untraced replay")

	// The rungs of an op's end-to-end time, as medians.
	rungs := []string{"cluster.hop", "http.loopback", "http.handler_self", "codec.decode", "codec.encode"}
	if w.stateDir {
		rungs = append(rungs, "service.mutate", "journal.append", "service.session_solve")
	} else if len(s["service.hit"]) >= len(s["service.miss"]) {
		rungs = append(rungs, "service.hit")
	} else {
		rungs = append(rungs, "service.miss")
	}
	sum := 0.0
	var parts []string
	for _, name := range rungs {
		sum += s.p50(name)
		parts = append(parts, name+"="+strconv.FormatFloat(s.p50(name), 'f', 1, 64))
	}
	traced, untraced := s.p50("e2e"), median(plain)
	rep.add("trace.e2e_p50_us", traced, "us", note)
	rep.add("trace.overhead_pct", 100*(traced-untraced)/untraced, "%", fmt.Sprintf("untraced p50 %.1f us", untraced))
	rep.add("trace.unaccounted_pct", 100*(traced-sum)/traced, "%", fmt.Sprintf("rungs (us): %v", parts))
	rep.add("trace.op_self_us", median(opSelf), "us", "op span minus its children")
	return nil
}

// queueResult is the queue probe's outcome.
type queueResult struct {
	n   int
	p50 float64
}

// queueProbe offers the workload's ops to a fresh in-process service at
// the high rate, open-loop with nproc submitters, and takes each miss's
// queue wait as Service.Do minus the traced model build + solve of the
// same instance. Session workloads never queue (session solves run on
// the caller's goroutine): they report zero waits.
func queueProbe(ctx context.Context, w *workloadSpec, in inputs, solves map[int]time.Duration, dur time.Duration) (queueResult, error) {
	if w.stateDir {
		return queueResult{}, nil
	}
	svc, err := service.Open(serviceConfig(w, ""))
	if err != nil {
		return queueResult{}, err
	}
	defer svc.Close(context.Background()) //nolint:errcheck // teardown
	var mu sync.Mutex
	var waits []float64
	var failed error
	do := func(o op) ([]byte, error) {
		req, err := service.DecodeRequest(o.body)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		res := svc.Do(ctx, req)
		d := time.Since(t)
		mu.Lock()
		defer mu.Unlock()
		if res.Err != nil {
			failed = res.Err
		} else if base, ok := solves[o.key]; ok && !res.CacheHit {
			waits = append(waits, us(d-base))
		}
		return nil, res.Err
	}
	gen := &generator{in: in, do: do, inflight: runtime.NumCPU(), turns: newSessionTurns(), stride: churnSessions}
	gen.run(ctx, w.ladder[w.high], dur, 0)
	if failed != nil {
		return queueResult{}, failed
	}
	if len(waits) == 0 {
		return queueResult{}, nil
	}
	return queueResult{n: len(waits), p50: median(waits)}, nil
}
