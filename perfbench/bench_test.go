package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/service"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(b.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the driver has %d", len(b.Workload), len(workloads))
	}
	return endToEnd, perLayer
}

// TestShortRun runs every workload briefly, traced and untraced, against
// freshly built server binaries, and checks that every declared metric
// is printed by name with its declared unit and that no op failed.
func TestShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	endToEnd, perLayer := declared(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "powersched")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/powersched").CombinedOutput(); err != nil {
		t.Fatalf("building powersched: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			cfg := config{w: w, seed: 7, seconds: 2, trace: trace, bin: bin,
				work: filepath.Join(dir, w.name), setups: 2, warmOps: 32, log: &log}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", w.name, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%t: correct=%t failed=%d attempted=%d\n%s",
					w.name, trace, res.Correct, res.Failed, res.Attempted, log.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.name, trace, name, m, unit)
				}
				if !strings.Contains(log.String(), name) {
					t.Errorf("%s trace=%t: report does not print %s", w.name, trace, name)
				}
			}
		}
	}
}

// TestVerifierRejectsCorruptAnswers feeds the verifier a correct answer
// and two corrupted copies: a wrong cost, and two jobs sharing a slot.
func TestVerifierRejectsCorruptAnswers(t *testing.T) {
	in := newSolveCold(3)
	o := in.op(0)
	ref, err := reference(o)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(edit func(*service.ScheduleSpec)) []byte {
		spec := service.EncodeSchedule(ref)
		edit(&spec)
		return mustJSON(service.ScheduleResponse{Schedule: &spec})
	}
	v := newVerifier(3, 0)
	if err := v.check(o, answer(func(*service.ScheduleSpec) {})); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	corrupt := map[string]func(*service.ScheduleSpec){
		"wrong cost": func(s *service.ScheduleSpec) { s.Cost++ },
		"shared slot": func(s *service.ScheduleSpec) {
			s.Jobs[1].Proc, s.Jobs[1].Time = s.Jobs[0].Proc, s.Jobs[0].Time
		},
	}
	for name, edit := range corrupt {
		if err := v.check(o, answer(edit)); err == nil {
			t.Errorf("%s: corrupted answer accepted", name)
		}
	}

	// Inside a run, a rejected answer is a failed op: ops 0 and 1 of a
	// phase, answered with a corrupted and a correct schedule.
	ref1, err := reference(in.op(1))
	if err != nil {
		t.Fatal(err)
	}
	good1 := service.EncodeSchedule(ref1)
	c := newChecker(in, v)
	ph := &phase{samples: []sample{
		{body: answer(corrupt["shared slot"])},
		{body: mustJSON(service.ScheduleResponse{Schedule: &good1})},
	}}
	c.check(ph)
	if ph.failed != 1 || c.failed != 1 || c.attempted != 2 {
		t.Errorf("phase failed=%d, checker failed=%d of %d; want 1 of 2", ph.failed, c.failed, c.attempted)
	}
}
