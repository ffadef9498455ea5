package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/service"
)

func solve(t *testing.T, input string) service.ScheduleSpec {
	t.Helper()
	var buf bytes.Buffer
	if err := run(strings.NewReader(input), &buf); err != nil {
		t.Fatal(err)
	}
	var out service.ScheduleSpec
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output not valid JSON: %v\n%s", err, buf.String())
	}
	return out
}

func TestRunAffineAll(t *testing.T) {
	out := solve(t, `{
		"procs": 1, "horizon": 6,
		"cost": {"model": "affine", "alpha": 2, "rate": 1},
		"jobs": [
			{"allowed": [{"proc": 0, "time": 1}, {"proc": 0, "time": 2}]},
			{"allowed": [{"proc": 0, "time": 2}, {"proc": 0, "time": 3}]}
		]
	}`)
	if out.Scheduled != 2 {
		t.Fatalf("scheduled %d", out.Scheduled)
	}
	if out.Cost != 4 { // one interval [1,3): 2 + 2
		t.Fatalf("cost %v, want 4", out.Cost)
	}
	if len(out.Intervals) != 1 {
		t.Fatalf("intervals %v", out.Intervals)
	}
}

func TestRunDefaultsModelAndMode(t *testing.T) {
	// Omitted cost model defaults to affine; omitted mode to "all";
	// omitted job value to 1.
	out := solve(t, `{
		"procs": 1, "horizon": 3,
		"cost": {"alpha": 1, "rate": 1},
		"jobs": [{"allowed": [{"proc": 0, "time": 0}]}]
	}`)
	if out.Scheduled != 1 || out.Value != 1 {
		t.Fatalf("out = %+v", out)
	}
}

func TestRunTimeOfUsePrize(t *testing.T) {
	out := solve(t, `{
		"procs": 1, "horizon": 4,
		"cost": {"model": "timeofuse", "alphas": [1], "rates": [1], "price": [1, 9, 9, 1]},
		"jobs": [
			{"value": 5, "allowed": [{"proc": 0, "time": 0}]},
			{"value": 1, "allowed": [{"proc": 0, "time": 1}]}
		],
		"mode": "prize", "z": 5, "eps": 0.1
	}`)
	if out.Value < 4.5 {
		t.Fatalf("value %v", out.Value)
	}
	// The cheap job at peak price should be skipped.
	if out.Scheduled != 1 {
		t.Fatalf("scheduled %d, want 1", out.Scheduled)
	}
}

func TestRunPrizeExact(t *testing.T) {
	out := solve(t, `{
		"procs": 2, "horizon": 4,
		"cost": {"model": "perproc", "alphas": [1, 5], "rates": [1, 1]},
		"jobs": [
			{"value": 3, "allowed": [{"proc": 0, "time": 0}, {"proc": 1, "time": 0}]},
			{"value": 3, "allowed": [{"proc": 0, "time": 1}]}
		],
		"mode": "prize-exact", "z": 6
	}`)
	if out.Value < 6 {
		t.Fatalf("value %v < Z", out.Value)
	}
	for _, iv := range out.Intervals {
		if iv.Proc == 1 {
			t.Fatalf("used the expensive processor: %+v", out.Intervals)
		}
	}
}

func TestRunSuperlinear(t *testing.T) {
	out := solve(t, `{
		"procs": 1, "horizon": 4,
		"cost": {"model": "superlinear", "alpha": 1, "rate": 1, "fan": 0.5, "exp": 2},
		"jobs": [{"allowed": [{"proc": 0, "time": 0}]}]
	}`)
	if out.Cost != 1+1+0.5 {
		t.Fatalf("cost %v, want 2.5", out.Cost)
	}
}

func TestRunErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":      `{"procs": `,
		"unknown model": `{"procs":1,"horizon":2,"cost":{"model":"quantum"},"jobs":[]}`,
		"unknown mode":  `{"procs":1,"horizon":2,"cost":{},"jobs":[],"mode":"noop"}`,
		"unschedulable": `{"procs":1,"horizon":2,"cost":{},"jobs":[{"allowed":[{"proc":0,"time":0}]},{"allowed":[{"proc":0,"time":0}]}]}`,
		"z unreachable": `{"procs":1,"horizon":2,"cost":{},"jobs":[{"value":1,"allowed":[{"proc":0,"time":0}]}],"mode":"prize","z":99}`,
	}
	for name, input := range cases {
		var buf bytes.Buffer
		if err := run(strings.NewReader(input), &buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunUnavailableMask(t *testing.T) {
	// The CLI speaks the full codec, including the unavailable mask: with
	// slot 1 blocked, the job must land on slot 0.
	out := solve(t, `{
		"procs": 1, "horizon": 3,
		"cost": {"model": "unavailable",
		         "base": {"model": "affine", "alpha": 1, "rate": 1},
		         "blocked": [{"proc": 0, "time": 1}]},
		"jobs": [{"allowed": [{"proc": 0, "time": 0}, {"proc": 0, "time": 1}]}]
	}`)
	if out.Scheduled != 1 || out.Jobs[0].Time != 0 {
		t.Fatalf("out = %+v, want the job on slot 0", out)
	}
}

func TestRunImprovePass(t *testing.T) {
	out := solve(t, `{
		"procs": 1, "horizon": 6,
		"cost": {"model": "affine", "alpha": 2, "rate": 1},
		"jobs": [
			{"allowed": [{"proc": 0, "time": 1}, {"proc": 0, "time": 2}]},
			{"allowed": [{"proc": 0, "time": 2}, {"proc": 0, "time": 3}]}
		],
		"improve": true
	}`)
	if out.Scheduled != 2 || out.Cost > 4 {
		t.Fatalf("out = %+v", out)
	}
}

// TestSolveAndServeAgree drives the same instance through the CLI solve
// path and a served HTTP handler and requires identical schedules.
func TestSolveAndServeAgree(t *testing.T) {
	input := `{
		"procs": 2, "horizon": 8,
		"cost": {"model": "perproc", "alphas": [1, 5], "rates": [1, 1]},
		"jobs": [
			{"value": 3, "allowed": [{"proc": 0, "time": 0}, {"proc": 1, "time": 0}]},
			{"value": 2, "allowed": [{"proc": 0, "time": 1}]}
		]
	}`
	cli := solve(t, input)

	svc := service.New(service.Config{Workers: 2})
	defer svc.Close(context.Background())
	srv := httptest.NewServer(service.NewHTTPHandler(svc))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/schedule", "application/json", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("serve status %d", resp.StatusCode)
	}
	var served service.ScheduleResponse
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(cli)
	b, _ := json.Marshal(served.Schedule)
	if !bytes.Equal(a, b) {
		t.Fatalf("solve and serve disagree:\n cli:   %s\n serve: %s", a, b)
	}
}

func TestServeMainRejectsBadFlags(t *testing.T) {
	if err := serveMain([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("accepted unknown flag")
	}
}

// TestServeMainRejectsRemovedFlags: the service's limits are constants,
// so the former tuning flags are unknown. The unlistenable -addr makes a
// flag that parsed fail fast instead of serving.
func TestServeMainRejectsRemovedFlags(t *testing.T) {
	for _, tc := range [][2]string{
		{"-queue", "32"}, {"-cache", "512"}, {"-max-sessions", "8"},
		{"-fsync", "never"}, {"-compact-every", "16"},
		{"-solve-timeout", "5s"}, {"-retry-after", "2s"},
	} {
		err := serveMain([]string{"-addr", "127.0.0.1:-1", tc[0], tc[1]})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%s %s: want an unknown-flag error, got %v", tc[0], tc[1], err)
		}
	}
}

func TestSimulateDeterministicReport(t *testing.T) {
	runSim := func() simulateReport {
		t.Helper()
		var buf bytes.Buffer
		if err := simulateMain([]string{"-trace", "diurnal", "-jobs", "10", "-horizon", "32", "-seed", "7"}, &buf); err != nil {
			t.Fatal(err)
		}
		var rep simulateReport
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Fatalf("simulate output not valid JSON: %v\n%s", err, buf.String())
		}
		return rep
	}
	a, b := runSim(), runSim()
	if a.Jobs != 10 || a.Events == 0 || a.Solves != a.Events {
		t.Fatalf("report shape off: %+v", a)
	}
	if a.Served+a.Missed != a.Jobs {
		t.Fatalf("served %d + missed %d != %d", a.Served, a.Missed, a.Jobs)
	}
	if a.ClairvoyantCost <= 0 || a.CommittedCost <= 0 || len(a.Committed) == 0 {
		t.Fatalf("costs/intervals missing: %+v", a)
	}
	if a.CommittedCost != b.CommittedCost || a.Evals != b.Evals || len(a.Committed) != len(b.Committed) {
		t.Fatalf("simulate is not deterministic per seed: %+v vs %+v", a, b)
	}
}

func TestSimulateRejectsUnknownTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := simulateMain([]string{"-trace", "nope"}, &buf); err == nil {
		t.Fatal("unknown trace accepted")
	}
}

func TestRouteMainRejectsBadInput(t *testing.T) {
	if err := routeMain([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("accepted unknown flag")
	}
	if err := routeMain([]string{"-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("accepted an empty -backends list")
	}
	if err := routeMain([]string{"-addr", "127.0.0.1:0", "-backends", " , ,"}); err == nil {
		t.Fatal("accepted a whitespace -backends list")
	}
	// The router's timing is constant: the former tuning flags are unknown.
	for _, flag := range []string{"-breaker-threshold", "-probe-interval", "-max-attempts", "-retry-after"} {
		err := routeMain([]string{"-addr", "127.0.0.1:0", "-backends", "http://127.0.0.1:1", flag, "5"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%s 5: want an unknown-flag error, got %v", flag, err)
		}
	}
}

func TestSolveMainReadsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "instance.json")
	input := `{
		"procs": 1, "horizon": 6,
		"cost": {"model": "affine", "alpha": 2, "rate": 1},
		"jobs": [{"allowed": [{"proc": 0, "time": 1}, {"proc": 0, "time": 2}]}]
	}`
	if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	// solveMain writes the schedule to stdout; swap it for a pipe so the
	// test can assert on the JSON.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	solveErr := solveMain([]string{path})
	w.Close()
	os.Stdout = old
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	var out service.ScheduleSpec
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Scheduled != 1 {
		t.Fatalf("scheduled %d, want 1", out.Scheduled)
	}

	if err := solveMain([]string{filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Fatal("accepted a missing input file")
	}
	if err := solveMain([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("accepted unknown flag")
	}
}

func TestSimulateCostKinds(t *testing.T) {
	for _, kind := range []string{"affine", "speedscaled", "sleepstate", "composite"} {
		cost, err := simulateCost(kind, 2, 16, 4, 1, 7)
		if err != nil || cost == nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if c := cost.Cost(0, 0, 2); c <= 0 {
			t.Fatalf("%s prices [0,2) at %v", kind, c)
		}
	}
	if _, err := simulateCost("quantum", 2, 16, 4, 1, 7); err == nil {
		t.Fatal("unknown cost kind accepted")
	}
	if _, err := simulateCost("affine", 2, 16, -1, 1, 7); err == nil {
		t.Fatal("negative wake cost accepted")
	}
}
