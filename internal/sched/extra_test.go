package sched

import (
	"testing"

	"repro/internal/power"
)

// withEventPoints returns the EventPoints family of ins's model followed
// by extra: how a caller adds given intervals to the default family.
func withEventPoints(t *testing.T, ins *Instance, extra ...Interval) Options {
	t.Helper()
	m, err := NewModel(ins)
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := m.Candidates(EventPoints)
	return Options{Candidates: append(ev, extra...)}
}

// TestExtraCandidatesUsed: a discounted caller-supplied block beats the
// EventPoints enumeration and should be chosen.
func TestExtraCandidatesUsed(t *testing.T) {
	// The oracle discounts exactly the interval [0,4): half price.
	base := power.Affine{Alpha: 4, Rate: 1}
	cost := power.Func(func(proc, start, end int) float64 {
		if start == 0 && end == 4 {
			return base.Cost(proc, start, end) / 4
		}
		return base.Cost(proc, start, end)
	})
	ins := &Instance{
		Procs: 1, Horizon: 8,
		Jobs: []Job{
			{Value: 1, Allowed: []SlotKey{{Proc: 0, Time: 1}}},
			{Value: 1, Allowed: []SlotKey{{Proc: 0, Time: 3}}},
		},
		Cost: cost,
	}
	// Without the extra candidate, event points only see [1,4)-style
	// intervals and miss the discounted block starting at 0.
	plain, err := ScheduleAll(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := ScheduleAll(ins, withEventPoints(t, ins, Interval{Proc: 0, Start: 0, End: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if extra.Cost >= plain.Cost {
		t.Fatalf("extra candidate ignored: %v vs %v", extra.Cost, plain.Cost)
	}
	if err := extra.Validate(ins); err != nil {
		t.Fatal(err)
	}
	if len(extra.Intervals) != 1 || extra.Intervals[0] != (Interval{Proc: 0, Start: 0, End: 4}) {
		t.Fatalf("intervals = %v, want the discounted block", extra.Intervals)
	}
}

func TestExtraCandidatesValidated(t *testing.T) {
	ins := tinyInstance()
	_, err := ScheduleAll(ins, withEventPoints(t, ins, Interval{Proc: 9, Start: 0, End: 2}))
	if err == nil {
		t.Fatal("out-of-range extra candidate accepted")
	}
	_, err = ScheduleAll(ins, withEventPoints(t, ins, Interval{Proc: 0, Start: 3, End: 3}))
	if err == nil {
		t.Fatal("empty extra candidate accepted")
	}
}

// TestExtraCandidatesPrize: extras flow through the prize-collecting path
// and its augmentation loop too.
func TestExtraCandidatesPrize(t *testing.T) {
	ins := tinyInstance()
	total := 0.0
	for _, j := range ins.Jobs {
		total += j.Value
	}
	s, err := PrizeCollectingExact(ins, total, withEventPoints(t, ins, Interval{Proc: 0, Start: 0, End: 9}))
	if err != nil {
		t.Fatal(err)
	}
	if s.Value < total {
		t.Fatalf("value %v < %v", s.Value, total)
	}
	if err := s.Validate(ins); err != nil {
		t.Fatal(err)
	}
}
