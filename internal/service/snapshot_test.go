package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/conformance"
	"repro/internal/sched"
)

// randomMutation draws one mutation against the current shape. Some
// draws are deliberately invalid (out-of-range removals, shrinking
// horizons) — the session rejects them and the codec must not care.
func randomMutation(rng *rand.Rand, procs, horizon, jobs int) MutationSpec {
	switch rng.Intn(5) {
	case 0, 1: // add_job, weighted up so instances grow
		var job JobSpec
		for k := 0; k < 2+rng.Intn(3); k++ {
			job.Allowed = append(job.Allowed, SlotSpec{Proc: rng.Intn(procs), Time: rng.Intn(horizon)})
		}
		if rng.Intn(3) == 0 {
			job.Value = 1 + rng.Float64()*4
		}
		return MutationSpec{Op: "add_job", Job: &job}
	case 2:
		return MutationSpec{Op: "remove_job", Index: rng.Intn(jobs + 2)} // sometimes out of range
	case 3:
		return MutationSpec{Op: "block", Slot: &SlotSpec{Proc: rng.Intn(procs), Time: rng.Intn(horizon)}}
	default:
		return MutationSpec{Op: "advance_horizon", Horizon: horizon - 2 + rng.Intn(6)} // sometimes shrinking
	}
}

// TestSnapshotRestoreDifferential is the snapshot codec's contract,
// checked over randomized mutation scripts: cut a live session's history
// at an arbitrary point, compact its journal to one snapshot record,
// copy the journal into a different service's StateDir and touch it
// there — and from the cut onward the restored session must answer
// every solve byte-identically to the original, and both must match a
// cold from-scratch solve of the equivalent instance.
func TestSnapshotRestoreDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	open := func() (*Service, string) {
		dir := t.TempDir()
		svc, err := Open(durableConfig(dir))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close(context.Background()) })
		return svc, dir
	}
	svcA, dirA := open()
	svcB, dirB := open()

	for script := 0; script < 8; script++ {
		id, _, err := svcA.CreateSession(sessionSpec())
		if err != nil {
			t.Fatal(err)
		}
		steps := 4 + rng.Intn(6)
		cut := rng.Intn(steps)
		var restoredID string
		for step := 0; step < steps; step++ {
			info, err := svcA.SessionInfo(id)
			if err != nil {
				t.Fatal(err)
			}
			m := randomMutation(rng, 2, info.Horizon, info.Jobs)
			digestA, errA := svcA.MutateSession(id, []MutationSpec{m})
			if restoredID != "" {
				digestB, errB := svcB.MutateSession(restoredID, []MutationSpec{m})
				if (errA == nil) != (errB == nil) {
					t.Fatalf("script %d step %d: original err %v, restored err %v", script, step, errA, errB)
				}
				if digestA != digestB {
					t.Fatalf("script %d step %d: digests diverge %s vs %s", script, step, digestA, digestB)
				}
			}
			if rng.Intn(3) == 0 {
				resA := solveUncached(svcA, id)
				if restoredID != "" {
					resB := solveUncached(svcB, restoredID)
					assertSameOutcome(t, resA, resB)
				}
			}
			if step == cut {
				h, err := svcA.lockSession(id)
				if err != nil {
					t.Fatal(err)
				}
				_, err = h.journal.compact(h.snapshotLocked(id))
				h.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
				// The journal is the wire object: its one snapshot record must
				// carry the session across processes losslessly.
				data, err := os.ReadFile(filepath.Join(dirA, "sessions", id+journalExt))
				if err != nil {
					t.Fatal(err)
				}
				rj, err := ReplayJournal(data)
				if err != nil {
					t.Fatal(err)
				}
				if rj.Records != 1 {
					t.Fatalf("script %d: compacted journal has %d records, want 1", script, rj.Records)
				}
				snap := rj.Snap
				if err := os.WriteFile(filepath.Join(dirB, "sessions", id+journalExt), data, 0o644); err != nil {
					t.Fatal(err)
				}
				restoredID = snap.ID
				infoB, err := svcB.SessionInfo(restoredID)
				if err != nil {
					t.Fatalf("script %d: restore: %v", script, err)
				}
				if infoB.Digest != snap.Digest {
					t.Fatalf("script %d: restored digest %s, snapshot %s", script, infoB.Digest, snap.Digest)
				}
				// Cold reference: the snapshot's spec solved from scratch.
				resA := solveUncached(svcA, id)
				resB := solveUncached(svcB, restoredID)
				assertSameOutcome(t, resA, resB)
				if resA.Err == nil {
					req, err := BuildRequest(snap.Spec)
					if err != nil {
						t.Fatal(err)
					}
					cold, err := sched.ScheduleAll(req.Instance, req.Opts)
					if err != nil {
						t.Fatalf("script %d: cold reference: %v", script, err)
					}
					if err := resA.Schedule.SameAs(cold); err != nil {
						t.Fatalf("script %d: session solve diverges from cold reference: %v", script, err)
					}
				}
			}
		}
		svcA.DropSession(id)
		if restoredID != "" {
			svcB.DropSession(restoredID)
		}
	}
}

// solveUncached solves a session with the service's result cache
// emptied first, so the answer is computed, not served from an entry an
// earlier script left.
func solveUncached(svc *Service, id string) Result {
	svc.cacheMu.Lock()
	clear(svc.cache)
	clear(svc.byBody)
	svc.lru.Init()
	svc.cacheMu.Unlock()
	return svc.SolveSession(context.Background(), id)
}

// assertSameOutcome compares two solve results: same error class, or
// byte-identical schedules.
func assertSameOutcome(t *testing.T, a, b Result) {
	t.Helper()
	if (a.Err == nil) != (b.Err == nil) {
		t.Fatalf("solve outcomes diverge: %v vs %v", a.Err, b.Err)
	}
	if a.Err != nil {
		if errors.Is(a.Err, sched.ErrUnschedulable) != errors.Is(b.Err, sched.ErrUnschedulable) {
			t.Fatalf("solve errors disagree on unschedulability: %v vs %v", a.Err, b.Err)
		}
		return
	}
	ea, err := json.Marshal(EncodeSchedule(a.Schedule))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := json.Marshal(EncodeSchedule(b.Schedule))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("schedules diverge:\n%s\n%s", ea, eb)
	}
}

// TestSnapshotConformanceScripts ties the service codec to the
// conformance machinery: the same randomized scripts the session-vs-cold
// harness validates are replayed through snapshot/restore.
func TestSnapshotConformanceScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for script := 0; script < 3; script++ {
		var muts []conformance.Mutation
		horizon := 12
		for step := 0; step < 5; step++ {
			m := randomMutation(rng, 2, horizon, 4+step)
			var cm conformance.Mutation
			switch m.Op {
			case "add_job":
				cm.Op = conformance.OpAddJob
				cm.Job = sched.Job{Value: m.Job.Value}
				if cm.Job.Value == 0 {
					cm.Job.Value = 1
				}
				for _, sl := range m.Job.Allowed {
					cm.Job.Allowed = append(cm.Job.Allowed, sched.SlotKey{Proc: sl.Proc, Time: sl.Time})
				}
			case "remove_job":
				cm.Op, cm.Index = conformance.OpRemoveJob, m.Index
			case "block":
				cm.Op, cm.Proc, cm.Time = conformance.OpBlock, m.Slot.Proc, m.Slot.Time
			case "advance_horizon":
				cm.Op, cm.Horizon = conformance.OpAdvance, m.Horizon
				if m.Horizon > horizon {
					horizon = m.Horizon
				}
			}
			muts = append(muts, cm)
		}
		req, err := BuildRequest(sessionSpec())
		if err != nil {
			t.Fatal(err)
		}
		if err := conformance.CheckSession(req.Instance, req.Opts, muts); err != nil {
			t.Fatalf("script %d: %v", script, err)
		}
	}
}
