package sched

import (
	"math/rand"
	"testing"

	"repro/internal/power"
)

func TestImproveDropsRedundant(t *testing.T) {
	ins := tinyInstance()
	s, err := ScheduleAll(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Inject a redundant expensive interval.
	padded := *s
	padded.Intervals = append(append([]Interval(nil), s.Intervals...),
		Interval{Proc: 0, Start: 0, End: 10})
	padded.Cost += ins.Cost.Cost(0, 0, 10)
	if err := padded.Validate(ins); err != nil {
		t.Fatal(err)
	}
	improved := Improve(ins, &padded)
	if improved.Cost > s.Cost {
		t.Fatalf("Improve left cost %v > original %v", improved.Cost, s.Cost)
	}
	if err := improved.Validate(ins); err != nil {
		t.Fatal(err)
	}
}

func TestImproveMergesAdjacent(t *testing.T) {
	// Two unit intervals one slot apart under α=5: merging saves a wake.
	ins := &Instance{
		Procs: 1, Horizon: 6,
		Jobs: []Job{
			{Value: 1, Allowed: []SlotKey{{Proc: 0, Time: 1}}},
			{Value: 1, Allowed: []SlotKey{{Proc: 0, Time: 3}}},
		},
		Cost: power.Affine{Alpha: 5, Rate: 1},
	}
	s := &Schedule{
		Intervals: []Interval{
			{Proc: 0, Start: 1, End: 2},
			{Proc: 0, Start: 3, End: 4},
		},
		Assignment: []SlotKey{{Proc: 0, Time: 1}, {Proc: 0, Time: 3}},
		Cost:       12, Value: 2, Scheduled: 2,
	}
	if err := s.Validate(ins); err != nil {
		t.Fatal(err)
	}
	improved := Improve(ins, s)
	if len(improved.Intervals) != 1 {
		t.Fatalf("intervals = %v, want one merged span", improved.Intervals)
	}
	if improved.Cost != 5+3 {
		t.Fatalf("cost = %v, want 8", improved.Cost)
	}
	if err := improved.Validate(ins); err != nil {
		t.Fatal(err)
	}
	// Input untouched.
	if len(s.Intervals) != 2 || s.Cost != 12 {
		t.Fatal("Improve mutated its input")
	}
}

func TestImproveNoMergeUnderTimeOfUse(t *testing.T) {
	// A price spike between the intervals makes the span more expensive;
	// Improve must leave them split.
	ins := &Instance{
		Procs: 1, Horizon: 5,
		Jobs: []Job{
			{Value: 1, Allowed: []SlotKey{{Proc: 0, Time: 0}}},
			{Value: 1, Allowed: []SlotKey{{Proc: 0, Time: 4}}},
		},
		Cost: power.NewTimeOfUse([]float64{1}, []float64{1}, []float64{1, 50, 50, 50, 1}),
	}
	s := &Schedule{
		Intervals:  []Interval{{Proc: 0, Start: 0, End: 1}, {Proc: 0, Start: 4, End: 5}},
		Assignment: []SlotKey{{Proc: 0, Time: 0}, {Proc: 0, Time: 4}},
		Cost:       4, Value: 2, Scheduled: 2,
	}
	improved := Improve(ins, s)
	if len(improved.Intervals) != 2 {
		t.Fatalf("Improve merged across a price spike: %v", improved.Intervals)
	}
}

// TestImproveNeverWorseOnRandom: post-passing greedy schedules never
// raises cost and preserves validity.
func TestImproveNeverWorseOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 20; trial++ {
		ins := randomInstance(rng, 2, 12, 6)
		s, err := ScheduleAll(ins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		improved := Improve(ins, s)
		if improved.Cost > s.Cost+1e-9 {
			t.Fatalf("Improve raised cost %v -> %v", s.Cost, improved.Cost)
		}
		if err := improved.Validate(ins); err != nil {
			t.Fatal(err)
		}
	}
}

func TestImproveEmptySchedule(t *testing.T) {
	ins := &Instance{Procs: 1, Horizon: 3, Cost: power.Affine{Alpha: 1, Rate: 1}}
	s := &Schedule{Assignment: []SlotKey{}}
	improved := Improve(ins, s)
	if improved.Cost != 0 || len(improved.Intervals) != 0 {
		t.Fatalf("empty improve = %+v", improved)
	}
}
