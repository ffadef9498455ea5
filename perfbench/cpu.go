package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// cpuMark is the serving processes' CPU time at one instant of a step.
type cpuMark struct {
	at  time.Time
	cpu time.Duration
}

// cpuWindow is the stretch of a step between two marks.
const cpuWindow = 500 * time.Millisecond

// runSampled runs one step while marking the serving processes' CPU
// time every cpuWindow and, with depth, sampling the backends' queue
// depth.
func runSampled(ctx context.Context, gen *generator, d *deployment, rate float64, dur time.Duration, depth bool) (*phase, []cpuMark, []float64) {
	mark := func(marks []cpuMark) []cpuMark {
		u, err := d.usage()
		if err != nil {
			return marks
		}
		return append(marks, cpuMark{at: time.Now(), cpu: u.cpu})
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	var (
		marks  = mark(nil)
		depths []float64
	)
	go func() {
		defer close(done)
		cpuTick := time.NewTicker(cpuWindow)
		defer cpuTick.Stop()
		var depthC <-chan time.Time
		if depth {
			depthTick := time.NewTicker(20 * time.Millisecond)
			defer depthTick.Stop()
			depthC = depthTick.C
		}
		for {
			select {
			case <-stop:
				return
			case <-cpuTick.C:
				marks = mark(marks)
			case <-depthC:
				if st, err := d.backendStats(); err == nil {
					depths = append(depths, float64(st.QueueDepth))
				}
			}
		}
	}()
	ph := gen.run(ctx, rate, dur, 0)
	close(stop)
	<-done
	return ph, mark(marks), depths
}

// cpuTally sums CPU windows: the serving processes' CPU time and the
// ops completed.
type cpuTally struct {
	cpu time.Duration
	ops int
}

// add tallies the windows between consecutive marks of phase ph. An op
// counts in the window it completed in; a window with no completed op
// is left out.
func (t *cpuTally) add(ph *phase, marks []cpuMark) {
	for k := 1; k < len(marks); k++ {
		lo, hi := marks[k-1].at.Sub(ph.start), marks[k].at.Sub(ph.start)
		n := 0
		for _, s := range ph.samples {
			if s.err == nil && s.done > lo && s.done <= hi {
				n++
			}
		}
		if n > 0 {
			t.cpu += marks[k].cpu - marks[k-1].cpu
			t.ops += n
		}
	}
}

// msPerOp is the serving processes' CPU milliseconds per op.
func (t cpuTally) msPerOp() float64 {
	if t.ops == 0 {
		return math.NaN()
	}
	return ms(t.cpu) / float64(t.ops)
}

// probeCPU warms deployment d up like the measured one, offers the high
// rate for dur and tallies its CPU windows. Address layout, map seeds and
// the ring's placement of the backends differ between deployments and
// move one deployment's CPU per op; the tally over several follows none
// of them.
func probeCPU(ctx context.Context, log io.Writer, d *deployment, gen *generator, c *checker, rate float64, warmOps int, dur time.Duration, t *cpuTally) error {
	c.check(gen.run(ctx, math.Inf(1), 0, warmOps))
	ph, marks, _ := runSampled(ctx, gen, d, rate, dur, false)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	c.check(ph)
	var own cpuTally
	own.add(ph, marks)
	if own.ops == 0 {
		return errors.New("no op of a CPU probe completed")
	}
	t.cpu, t.ops = t.cpu+own.cpu, t.ops+own.ops
	fmt.Fprintf(log, "  probe %7.1f ops/s: n=%d cpu=%.4fms/op failed=%d\n", rate, len(ph.samples), own.msPerOp(), ph.failed)
	return nil
}
