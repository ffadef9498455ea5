package setcover

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/sched"
)

func TestGreedyKnown(t *testing.T) {
	// Classic: two sets cover everything at cost 2; one big set costs 10.
	ins := &Instance{
		N: 4,
		Sets: []*bitset.Set{
			bitset.FromSlice(4, []int{0, 1}),
			bitset.FromSlice(4, []int{2, 3}),
			bitset.FromSlice(4, []int{0, 1, 2, 3}),
		},
		Costs: []float64{1, 1, 10},
	}
	chosen, cost, err := Greedy(ins)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 2 || len(chosen) != 2 {
		t.Fatalf("greedy = %v cost %v, want the two unit sets", chosen, cost)
	}
	if !IsCover(ins, chosen) {
		t.Fatal("greedy output is not a cover")
	}
}

func TestGreedyUncoverable(t *testing.T) {
	ins := &Instance{
		N:     3,
		Sets:  []*bitset.Set{bitset.FromSlice(3, []int{0})},
		Costs: []float64{1},
	}
	if _, _, err := Greedy(ins); !errors.Is(err, ErrUncoverable) {
		t.Fatalf("err = %v", err)
	}
}

func TestGreedyValidation(t *testing.T) {
	ins := &Instance{N: 3, Sets: []*bitset.Set{bitset.New(2)}, Costs: []float64{1}}
	if _, _, err := Greedy(ins); err == nil {
		t.Fatal("universe mismatch accepted")
	}
	ins2 := &Instance{N: 2, Sets: []*bitset.Set{bitset.Full(2)}, Costs: []float64{-1}}
	if _, _, err := Greedy(ins2); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestPlantedGreedyWithinLog(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		ins, opt := Planted(rng, 40, 5, 20)
		chosen, cost, err := Greedy(ins)
		if err != nil {
			t.Fatal(err)
		}
		if !IsCover(ins, chosen) {
			t.Fatal("not a cover")
		}
		if cost > opt*(math.Log(40)+1) {
			t.Fatalf("greedy cost %v outside H_n envelope of planted %v", cost, opt)
		}
	}
}

// TestReductionRoundTrip: Theorem .1.2's reduction — scheduling the reduced
// instance yields a cover whose cost tracks the set-cover greedy.
func TestReductionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ins, planted := Planted(rng, 18, 3, 8)
	red := ToScheduling(ins)
	s, err := sched.ScheduleAll(red, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(red); err != nil {
		t.Fatal(err)
	}
	chosen, cost := CoverFromSchedule(ins, s)
	if !IsCover(ins, chosen) {
		t.Fatal("schedule does not induce a cover")
	}
	if cost > planted*(math.Log(18)+2) {
		t.Fatalf("reduced scheduling cover cost %v outside log envelope of %v", cost, planted)
	}
	// Cover cost never exceeds the schedule's own cost.
	if cost > s.Cost+1e-9 {
		t.Fatalf("cover cost %v exceeds schedule cost %v", cost, s.Cost)
	}
}

func TestReductionStructure(t *testing.T) {
	ins := &Instance{
		N: 3,
		Sets: []*bitset.Set{
			bitset.FromSlice(3, []int{0, 1}),
			bitset.FromSlice(3, []int{2}),
		},
		Costs: []float64{2, 3},
	}
	red := ToScheduling(ins)
	if red.Procs != 2 {
		t.Fatalf("procs = %d", red.Procs)
	}
	if red.Horizon != 2 {
		t.Fatalf("horizon = %d, want max set size 2", red.Horizon)
	}
	// Interval cost is flat per processor regardless of length.
	if red.Cost.Cost(0, 0, 1) != 2 || red.Cost.Cost(0, 0, 2) != 2 || red.Cost.Cost(1, 0, 1) != 3 {
		t.Fatal("interval costs must equal set costs")
	}
	// Element 2 can only run on processor 1.
	for _, slot := range red.Jobs[2].Allowed {
		if slot.Proc != 1 {
			t.Fatalf("element 2 allowed on proc %d", slot.Proc)
		}
	}
}

func BenchmarkGreedySetCover(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ins, _ := Planted(rng, 200, 10, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Greedy(ins); err != nil {
			b.Fatal(err)
		}
	}
}
