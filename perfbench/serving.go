package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// deployment is one set of running serving processes: the backends and,
// for routed workloads, the router the client talks to.
type deployment struct {
	procs    []*exec.Cmd
	backends []string // backend base URLs
	target   string   // base URL the load goes to
	client   *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// newClient caps connections (and so in-flight ops) at conns.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// start launches the workload's processes and returns once every
// /healthz answers, the router sees every backend alive, and the
// sessions exist and have been solved once. dir holds logs and state.
func start(ctx context.Context, w *workloadSpec, bin, dir string, in inputs, conns int, pin *pinning) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{client: newClient(conns)}
	launch := func(name string, args ...string) (string, error) {
		port, err := freePort()
		if err != nil {
			return "", err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		logf, err := os.Create(filepath.Join(dir, name+".log"))
		if err != nil {
			return "", err
		}
		defer logf.Close()
		cmd := exec.Command(bin, append(args, "-addr", addr)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// Should the driver die without stopping it, the kernel does.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := pin.start(cmd); err != nil {
			return "", fmt.Errorf("starting %s: %w", name, err)
		}
		d.procs = append(d.procs, cmd)
		return "http://" + addr, nil
	}
	for b := 0; b < w.backends; b++ {
		args := append([]string{"serve"}, w.serve...)
		if w.stateDir {
			state := filepath.Join(dir, fmt.Sprintf("state%d", b))
			if err := os.RemoveAll(state); err != nil {
				d.stop()
				return nil, err
			}
			args = append(args, "-state-dir", state)
		}
		url, err := launch(fmt.Sprintf("serve%d", b), args...)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.backends = append(d.backends, url)
	}
	d.target = d.backends[0]
	if w.router {
		url, err := launch("route", "route", "-backends", strings.Join(d.backends, ","))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.target = url
	}
	if err := d.ready(ctx, w.router); err != nil {
		d.stop()
		return nil, err
	}
	for s, spec := range in.sessions() {
		if err := d.createSession(s, spec); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// ready polls every process's /healthz, then the router's view of its
// backends, until all are up.
func (d *deployment) ready(ctx context.Context, router bool) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	urls := append([]string(nil), d.backends...)
	if router {
		urls = append(urls, d.target)
	}
	for _, u := range urls {
		for {
			if resp, err := d.client.Get(u + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
				return fmt.Errorf("%s never became healthy: %w", u, err)
			}
		}
	}
	for router {
		var st cluster.Stats
		if err := d.getJSON(d.target+"/stats", &st); err != nil {
			return err
		}
		alive := 0
		for _, b := range st.Backends {
			if b.Alive {
				alive++
			}
		}
		if alive == len(d.backends) {
			break
		}
		if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
			return fmt.Errorf("router sees %d of %d backends alive: %w", alive, len(d.backends), err)
		}
	}
	return nil
}

func sleepCtx(ctx context.Context, dt time.Duration) error {
	t := time.NewTimer(dt)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// createSession creates session s under its fixed id and solves it once.
func (d *deployment) createSession(s int, spec service.InstanceSpec) error {
	url := d.target + "/v1/session/" + sessionID(s)
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(mustJSON(spec)))
	if err != nil {
		return err
	}
	if _, err := d.send(req); err != nil {
		return fmt.Errorf("creating session %d: %w", s, err)
	}
	if _, err := d.post(url+"/solve", nil); err != nil {
		return fmt.Errorf("solving session %d: %w", s, err)
	}
	return nil
}

// post sends a JSON POST and returns the body of a 200 answer.
func (d *deployment) post(url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return d.send(req)
}

func (d *deployment) send(req *http.Request) ([]byte, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (d *deployment) getJSON(url string, v any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	b, err := d.send(req)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// do runs one op and returns the schedule answer's body. A session op
// is a conditional mutate followed by a solve; the mutate must land at
// exactly the sequence the step expects.
func (d *deployment) do(o op) ([]byte, error) {
	if o.session < 0 {
		return d.post(d.target+"/v1/schedule", o.body)
	}
	url := d.target + "/v1/session/" + sessionID(o.session)
	b, err := d.post(url+"/mutate", o.body)
	if err != nil {
		return nil, err
	}
	var mr service.SessionResponse
	if err := json.Unmarshal(b, &mr); err != nil {
		return nil, fmt.Errorf("decoding mutate answer: %w", err)
	}
	if want := uint64(o.seq) + 2; mr.Seq != want {
		return nil, fmt.Errorf("mutate landed at seq %d, want %d", mr.Seq, want)
	}
	return d.post(url+"/solve", nil)
}

// backendStats sums the backends' /stats counters.
func (d *deployment) backendStats() (service.Stats, error) {
	var sum service.Stats
	for _, b := range d.backends {
		var st service.Stats
		if err := d.getJSON(b+"/stats", &st); err != nil {
			return sum, err
		}
		sum.QueueDepth += st.QueueDepth
		sum.Submitted += st.Submitted
		sum.Completed += st.Completed
		sum.Errors += st.Errors
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.ModelReuses += st.ModelReuses
		sum.JournalRecords += st.JournalRecords
		sum.JournalFsyncs += st.JournalFsyncs
		sum.JournalCompactions += st.JournalCompactions
	}
	return sum, nil
}

func (d *deployment) routerStats() (cluster.Stats, error) {
	var st cluster.Stats
	if len(d.procs) == len(d.backends) {
		return st, nil // no router
	}
	err := d.getJSON(d.target+"/stats", &st)
	return st, err
}

// stop terminates every process and waits for each to exit.
func (d *deployment) stop() {
	for _, p := range d.procs {
		p.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already-exited processes are fine
	}
	for _, p := range d.procs {
		done := make(chan struct{})
		go func() {
			p.Wait() //nolint:errcheck // exit status of a terminated server is not a result
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			p.Process.Kill() //nolint:errcheck // best effort after the drain budget
			<-done
		}
	}
	d.procs = nil
	d.client.CloseIdleConnections()
}

// procUsage is the CPU time and peak resident memory of the serving
// processes, read from /proc.
type procUsage struct {
	cpu     time.Duration // time on a CPU, summed over every thread
	peakRSS int64         // VmHWM summed, bytes
}

func (d *deployment) usage() (procUsage, error) {
	var u procUsage
	for _, p := range d.procs {
		pid := strconv.Itoa(p.Process.Pid)
		// The first field of a thread's schedstat is its time on a CPU
		// in nanoseconds: utime + stime, without /proc/<pid>/stat's
		// 10 ms rounding, which is a few percent of a one-second window.
		tasks, err := os.ReadDir("/proc/" + pid + "/task")
		if err != nil {
			return u, err
		}
		for _, t := range tasks {
			b, err := os.ReadFile("/proc/" + pid + "/task/" + t.Name() + "/schedstat")
			if errors.Is(err, fs.ErrNotExist) {
				continue // the thread exited since the listing
			}
			if err != nil {
				return u, err
			}
			f := strings.Fields(string(b))
			if len(f) == 0 {
				return u, errors.New("empty schedstat line")
			}
			ns, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return u, err
			}
			u.cpu += time.Duration(ns)
		}
		status, err := os.ReadFile("/proc/" + pid + "/status")
		if err != nil {
			return u, err
		}
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
				if err != nil {
					return u, err
				}
				u.peakRSS += kb << 10
			}
		}
	}
	return u, nil
}
