package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"
)

// sample is one op's timeline, relative to its phase start. Latency is
// done-due: an op sent late because the generator or the in-flight cap
// stalled is charged the stall.
type sample struct {
	due, sent, done time.Duration
	body            []byte
	err             error
}

// phase is the outcome of offering ops [first, first+len(samples)) at a
// fixed rate.
type phase struct {
	rate      float64
	start     time.Time // when op 0 was due
	first     int
	samples   []sample
	abandoned bool // the backlog outgrew maxLag; later ops were never sent
	failed    int
}

// maxLag is the generator lag past which a step's backlog counts as
// growing without bound: the step stops offering load and fails.
const maxLag = 2 * time.Second

// sessionTurns keeps one op in flight per session, in step order.
type sessionTurns struct {
	mu   sync.Mutex
	cond *sync.Cond
	next map[int]int // session -> id of its next op
}

func newSessionTurns() *sessionTurns {
	t := &sessionTurns{next: map[int]int{}}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func (t *sessionTurns) wait(o op) {
	if o.session < 0 {
		return
	}
	t.mu.Lock()
	for {
		// A session's first op has nothing to wait for.
		if next, ok := t.next[o.session]; !ok || next >= o.id {
			break
		}
		t.cond.Wait()
	}
	t.mu.Unlock()
}

func (t *sessionTurns) done(o op, stride int) {
	if o.session < 0 {
		return
	}
	t.mu.Lock()
	t.next[o.session] = o.id + stride
	t.cond.Broadcast()
	t.mu.Unlock()
}

// generator offers a workload's ops open-loop from a fixed pool of
// workers, one per allowed in-flight op.
type generator struct {
	in       inputs
	do       func(op) ([]byte, error)
	inflight int
	turns    *sessionTurns
	stride   int // ops between consecutive steps of one session
	next     int // id of the next op to offer
}

// run offers ops at rate for dur: op k of the phase is due k/rate after
// the phase starts. A rate of +Inf offers n ops closed-loop (warm-up).
func (g *generator) run(ctx context.Context, rate float64, dur time.Duration, n int) *phase {
	if !math.IsInf(rate, 1) {
		n = int(rate * dur.Seconds())
	}
	ph := &phase{rate: rate, first: g.next, samples: make([]sample, n)}
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	ph.start = start
	for w := 0; w < g.inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				o := g.in.op(ph.first + k)
				g.turns.wait(o)
				s := &ph.samples[k]
				s.sent = time.Since(start)
				s.body, s.err = g.do(o)
				s.done = time.Since(start)
				g.turns.done(o, g.stride)
			}
		}()
	}
	sent := 0
	for k := 0; k < n && ctx.Err() == nil; k++ {
		if !math.IsInf(rate, 1) {
			due := time.Duration(float64(k) / rate * float64(time.Second))
			ph.samples[k].due = due
			if wait := due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			} else if -wait > maxLag {
				ph.abandoned = true
				break
			}
		}
		work <- k
		sent++
	}
	close(work)
	wg.Wait()
	ph.samples = ph.samples[:sent]
	g.next += sent
	return ph
}

// window is the op count of one tail window. A step's p99 is the median
// over consecutive windows of each window's p99, so one stall of the
// host (or a neighbour) moves one window, not the step's figure.
const window = 200

// stats are the latency figures of one phase, in milliseconds: p50 over
// every op, p99 and lag99 as medians of per-window p99s.
type stats struct {
	n, windows       int
	p50, p99, lag99  float64
	rawP99, rawLag99 float64 // p99 over the whole step, for the report
}

func (ph *phase) stats() stats {
	lat := make([]float64, 0, len(ph.samples))
	lag := make([]float64, 0, len(ph.samples))
	for _, s := range ph.samples {
		lat = append(lat, ms(s.done-s.due))
		lag = append(lag, ms(s.sent-s.due))
	}
	var p99s, lag99s []float64
	for lo := 0; lo < len(lat); lo += window {
		hi := min(lo+window, len(lat))
		if hi-lo < window && lo > 0 {
			break // a short tail window would weigh a few ops like a full one
		}
		p99s = append(p99s, quantile(append([]float64(nil), lat[lo:hi]...), 0.99))
		lag99s = append(lag99s, quantile(append([]float64(nil), lag[lo:hi]...), 0.99))
	}
	return stats{
		n: len(lat), windows: len(p99s),
		p99: median(p99s), lag99: median(lag99s),
		rawP99: quantile(lat, 0.99), rawLag99: quantile(lag, 0.99),
		p50: quantile(lat, 0.50),
	}
}

// pass reports whether the step meets the latency limit with no failed
// op and no growing backlog (a backlog that grows through the step
// pushes most windows past the limit, or abandons the step).
func (ph *phase) pass(limitMs float64) bool {
	st := ph.stats()
	return !ph.abandoned && ph.failed == 0 && st.n > 0 && st.p99 <= limitMs && st.lag99 <= limitMs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of xs (xs is sorted
// in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
