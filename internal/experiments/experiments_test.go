package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

var quickCfg = Config{Seed: 42, Quick: true}

// runAndParse executes one experiment and returns its table.
func tableFor(t *testing.T, id string) [][]string {
	t.Helper()
	for _, e := range All() {
		if e.ID == id {
			tbl := e.Run(quickCfg)
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", id)
			}
			return tbl.Rows
		}
	}
	t.Fatalf("no experiment %s", id)
	return nil
}

func cell(t *testing.T, rows [][]string, r, c int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(rows[r][c], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", r, c, rows[r][c], err)
	}
	return v
}

func TestAllHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestRunAllSelected(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf, quickCfg, []string{"E5"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E5") {
		t.Fatalf("output missing E5 table:\n%s", buf.String())
	}
	if err := RunAll(&buf, quickCfg, []string{"nope"}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestE1Shape(t *testing.T) {
	rows := tableFor(t, "E1")
	for r := range rows {
		eps := cell(t, rows, r, 0)
		util := cell(t, rows, r, 2)
		cost := cell(t, rows, r, 3)
		envelope := cell(t, rows, r, 4)
		if util < 1-eps-1e-9 {
			t.Errorf("eps=%v: utility frac %v below 1-eps", eps, util)
		}
		if cost > envelope {
			t.Errorf("eps=%v: cost ratio %v above envelope %v", eps, cost, envelope)
		}
	}
}

func TestE2Shape(t *testing.T) {
	rows := tableFor(t, "E2")
	for r := range rows {
		logn := cell(t, rows, r, 1)
		greedy := cell(t, rows, r, 2)
		lazy := cell(t, rows, r, 3)
		ao := cell(t, rows, r, 4)
		if greedy <= 0 || greedy > 2*logn+2 {
			t.Errorf("row %d: greedy ratio %v outside O(log n) shape (log=%v)", r, greedy, logn)
		}
		if ao < greedy {
			t.Errorf("row %d: always-on %v beat greedy %v", r, ao, greedy)
		}
		if lazy <= 0 {
			t.Errorf("row %d: lazy ratio %v", r, lazy)
		}
	}
}

func TestE3Shape(t *testing.T) {
	rows := tableFor(t, "E3")
	for r := range rows {
		valFrac := cell(t, rows, r, 2)
		floor := cell(t, rows, r, 3)
		if valFrac < floor-1e-9 {
			t.Errorf("row %d: value frac %v below 1-eps %v", r, valFrac, floor)
		}
	}
}

func TestE4Shape(t *testing.T) {
	rows := tableFor(t, "E4")
	for r := range rows {
		if reached := cell(t, rows, r, 2); reached < 1 {
			t.Errorf("row %d: threshold missed in some trial (frac %v)", r, reached)
		}
	}
}

func TestE5Shape(t *testing.T) {
	rows := tableFor(t, "E5")
	for r := range rows {
		p := cell(t, rows, r, 1)
		if p < 0.25 || p > 0.5 {
			t.Errorf("row %d: P[best] = %v not near 1/e", r, p)
		}
	}
}

func TestE6Shape(t *testing.T) {
	rows := tableFor(t, "E6")
	for r := range rows {
		ratio := cell(t, rows, r, 2)
		bound := cell(t, rows, r, 3)
		if ratio < bound {
			t.Errorf("row %d: ratio %v below proven bound %v", r, ratio, bound)
		}
	}
}

func TestE7Shape(t *testing.T) {
	rows := tableFor(t, "E7")
	for r := range rows {
		ratio := cell(t, rows, r, 2)
		bound := cell(t, rows, r, 3)
		if ratio < bound {
			t.Errorf("row %d: ratio %v below 1/8e² %v", r, ratio, bound)
		}
	}
}

func TestE8Shape(t *testing.T) {
	rows := tableFor(t, "E8")
	for r := range rows {
		if indep := cell(t, rows, r, 4); indep < 1 {
			t.Errorf("row %d: dependent outputs (frac %v)", r, indep)
		}
		if ratio := cell(t, rows, r, 2); ratio <= 0 {
			t.Errorf("row %d: zero ratio", r)
		}
	}
}

func TestE9Shape(t *testing.T) {
	rows := tableFor(t, "E9")
	for r := range rows {
		if feas := cell(t, rows, r, 3); feas < 1 {
			t.Errorf("row %d: infeasible picks (frac %v)", r, feas)
		}
	}
}

func TestE10Shape(t *testing.T) {
	rows := tableFor(t, "E10")
	for r := range rows {
		scaled := cell(t, rows, r, 3)
		if scaled < 0.2 {
			t.Errorf("row %d: ratio·√n = %v collapsed below O(√n) shape", r, scaled)
		}
		if leaks := cell(t, rows, r, 4); leaks > 2 {
			t.Errorf("row %d: oracle leaked %v times", r, leaks)
		}
	}
}

func TestE11Shape(t *testing.T) {
	rows := tableFor(t, "E11")
	for r := range rows {
		p := cell(t, rows, r, 1)
		bound := cell(t, rows, r, 2)
		if p < bound {
			t.Errorf("row %d: P=%v below 1/e^2k=%v", r, p, bound)
		}
	}
}

func TestE12Shape(t *testing.T) {
	rows := tableFor(t, "E12")
	for r := range rows {
		lnN := cell(t, rows, r, 1)
		gr := cell(t, rows, r, 2)
		vs := cell(t, rows, r, 3)
		if valid := cell(t, rows, r, 4); valid < 1 {
			t.Errorf("row %d: invalid covers (frac %v)", r, valid)
		}
		if gr > lnN+1 || vs > 2*(lnN+1) {
			t.Errorf("row %d: ratios %v/%v outside ln n envelope %v", r, gr, vs, lnN)
		}
	}
}

func TestE13Shape(t *testing.T) {
	rows := tableFor(t, "E13")
	for r := range rows {
		if ok := cell(t, rows, r, 2); ok < 1 {
			t.Errorf("row %d: DP violated block budget (frac %v)", r, ok)
		}
	}
}

func TestA1Shape(t *testing.T) {
	rows := tableFor(t, "A1")
	for r := range rows {
		plain := cell(t, rows, r, 1)
		lazy := cell(t, rows, r, 2)
		inc := cell(t, rows, r, 3)
		same := cell(t, rows, r, 7)
		if lazy > plain {
			t.Errorf("row %d: lazy evals %v exceed plain %v", r, lazy, plain)
		}
		if inc > plain {
			t.Errorf("row %d: incremental probes %v exceed plain evals %v", r, inc, plain)
		}
		if same < 1 {
			t.Errorf("row %d: pick sequences diverged (frac %v)", r, same)
		}
	}
}

func TestA3Shape(t *testing.T) {
	rows := tableFor(t, "A3")
	for r := range rows {
		incEv := cell(t, rows, r, 4)
		hkEv := cell(t, rows, r, 5)
		if incEv > hkEv {
			t.Errorf("row %d: incremental probes %v exceed HK evals %v", r, incEv, hkEv)
		}
		if same := cell(t, rows, r, 6); same < 1 {
			t.Errorf("row %d: incremental and HK paths disagreed on cost", r)
		}
	}
}

func TestA4Shape(t *testing.T) {
	rows := tableFor(t, "A4")
	last := rows[len(rows)-1]
	if last[0] != "1/(n+1)" {
		t.Fatalf("last row should be the default eps, got %q", last[0])
	}
	if frac := cell(t, rows, len(rows)-1, 1); frac < 1 {
		t.Errorf("default eps left jobs unscheduled: %v", frac)
	}
}

func TestE16Shape(t *testing.T) {
	rows := tableFor(t, "E16")
	if len(rows) != 3 {
		t.Fatalf("E16 has %d rows, want one per trace family", len(rows))
	}
	for r, row := range rows {
		if cell(t, rows, r, 1) < 2 {
			t.Fatalf("%s: trace collapsed to %s events", row[0], row[1])
		}
		ratio := cell(t, rows, r, 2)
		if ratio < 0.5 || ratio > 3 {
			t.Fatalf("%s: committed/clairvoyant = %g outside sanity band", row[0], ratio)
		}
		if missed := cell(t, rows, r, 3); missed > 0.25 {
			t.Fatalf("%s: missed frac %g implausibly high", row[0], missed)
		}
	}
}

func TestE17Shape(t *testing.T) {
	rows := tableFor(t, "E17")
	if len(rows) != 8 {
		t.Fatalf("E17 has %d rows, want one per cost model plus the gapdp cross-check", len(rows))
	}
	sawHookCredit := false
	for r, row := range rows {
		n := cell(t, rows, r, 1)
		if n < 4 || n > 12 {
			t.Fatalf("%s: n = %g outside the exact-solver range [4,12]", row[0], n)
		}
		ratio := cell(t, rows, r, 2)
		envelope := cell(t, rows, r, 4)
		if ratio < 1-1e-9 {
			t.Fatalf("%s: greedy/opt = %g < 1 — the \"exact\" optimum is not optimal", row[0], ratio)
		}
		// The acceptance criterion: the O(log n) bound is never violated,
		// on any model — asserted via the per-trial fraction and the max.
		if ok := cell(t, rows, r, 5); ok != 1 {
			t.Fatalf("%s: bound-ok frac = %g, want 1 (O(log n) envelope violated)", row[0], ok)
		}
		if maxRatio := cell(t, rows, r, 3); maxRatio > envelope {
			t.Fatalf("%s: max greedy/opt %g exceeds envelope %g", row[0], maxRatio, envelope)
		}
		hw := cell(t, rows, r, 6)
		if hw > 1+1e-9 {
			t.Fatalf("%s: hw/add = %g > 1 — the schedule-aware hook overcharged", row[0], hw)
		}
		if row[0] == "sleepstate" && hw < 1 {
			sawHookCredit = true
		}
		if row[0] != "sleepstate" && hw < 1-1e-9 {
			t.Fatalf("%s: hw/add = %g < 1 on an additive model", row[0], hw)
		}
		if xc := cell(t, rows, r, 7); xc != 1 {
			t.Fatalf("%s: cross-check frac = %g, want 1", row[0], xc)
		}
	}
	if !sawHookCredit {
		t.Fatal("sleepstate row shows no hardware-cost credit — the hook is dead")
	}
}
