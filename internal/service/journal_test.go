package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/sched"
)

// durableConfig is the base config for durability tests: one worker,
// aggressive compaction so short scripts exercise it, and a quiet log
// sink (tests that care about diagnostics install a recorder).
func durableConfig(dir string) Config {
	return withLimits(Config{Workers: 1, StateDir: dir, Logf: func(string, ...any) {}},
		func(l *limits) { l.compactEvery = 4 })
}

// withLimits returns cfg with its limits (production unless already
// overridden) changed by mut — the one way a test shortens them.
func withLimits(cfg Config, mut func(*limits)) Config {
	l := production
	if cfg.limits != nil {
		l = *cfg.limits
	}
	mut(&l)
	cfg.limits = &l
	return cfg
}

// neverCompact keeps every journal record.
func neverCompact(l *limits) { l.compactEvery = math.MaxInt }

// compactEveryTwo makes a short mutation script cross compactions.
func compactEveryTwo(l *limits) { l.compactEvery = 2 }

// touchJournals touches the session of every *.journal file under dir
// — the acked ids and any file the client never heard of alike — so
// that restore counters read afterwards cover everything on disk:
// sessions come back from disk only on first touch. It returns each
// id's SessionInfo error.
func touchJournals(t *testing.T, svc *Service, dir string) map[string]error {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "sessions"))
	if err != nil {
		t.Fatal(err)
	}
	errs := map[string]error{}
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), journalExt); ok {
			_, errs[id] = svc.SessionInfo(id)
		}
	}
	return errs
}

// solveBytes solves a session and returns the schedule's canonical JSON.
func solveBytes(t *testing.T, svc *Service, id string) []byte {
	t.Helper()
	res := svc.SolveSession(context.Background(), id)
	if res.Err != nil {
		t.Fatalf("solve %s: %v", id, res.Err)
	}
	spec := EncodeSchedule(res.Schedule)
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDurableKill9Differential is the tentpole acceptance test: create a
// session, mutate it, solve; abandon the service without Close (the
// in-process analog of kill -9 — the journal was fsynced record by
// record, nothing else survives); Open the same state dir and assert the
// restored session answers solve and info byte-identically.
func TestDurableKill9Differential(t *testing.T) {
	dir := t.TempDir()
	svc1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	id, digest0, err := svc1.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	muts := []MutationSpec{
		{Op: "add_job", Job: ptr(extraJob())},
		{Op: "block", Slot: &SlotSpec{Proc: 0, Time: 11}},
		{Op: "advance_horizon", Horizon: 14},
	}
	digest1, err := svc1.MutateSession(id, muts)
	if err != nil {
		t.Fatal(err)
	}
	if digest1 == digest0 {
		t.Fatal("mutations did not move the digest")
	}
	want := solveBytes(t, svc1, id)
	info1, err := svc1.SessionInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	// kill -9: no Close, no flush. svc1's workers leak for the test's
	// duration, which is exactly the point.

	svc2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())
	info2, err := svc2.SessionInfo(id)
	if err != nil {
		t.Fatalf("restored session missing: %v", err)
	}
	if got := svc2.Stats().SessionsRestored; got != 1 {
		t.Fatalf("sessions_restored = %d, want 1", got)
	}
	if info2.Digest != digest1 || info2.Jobs != info1.Jobs || info2.Horizon != info1.Horizon {
		t.Fatalf("restored info %+v, want digest=%s jobs=%d horizon=%d",
			info2, digest1, info1.Jobs, info1.Horizon)
	}
	got := solveBytes(t, svc2, id)
	if !bytes.Equal(got, want) {
		t.Fatalf("restored solve diverges:\n pre-crash %s\npost-crash %s", want, got)
	}

	// New ids must not collide with the restored one.
	id2, _, err := svc2.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("restored and fresh session share id %s", id)
	}

	// The restored session keeps journaling: mutate, crash again, restore.
	digest2, err := svc2.MutateSession(id, []MutationSpec{{Op: "remove_job", Index: 0}})
	if err != nil {
		t.Fatal(err)
	}
	want2 := solveBytes(t, svc2, id)
	svc3, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close(context.Background())
	info3, err := svc3.SessionInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if info3.Digest != digest2 {
		t.Fatalf("second restore digest %s, want %s", info3.Digest, digest2)
	}
	if got := solveBytes(t, svc3, id); !bytes.Equal(got, want2) {
		t.Fatal("second restore solve diverges")
	}
}

// solveSameAsCold solves a session and checks the answer against a cold
// ScheduleAll of the session's current instance: the same schedule and,
// since sessions run ScheduleAll's solve, the same evals.
func solveSameAsCold(t *testing.T, svc *Service, id string) {
	t.Helper()
	res := svc.SolveSession(context.Background(), id)
	if res.Err != nil {
		t.Fatalf("solve %s: %v", id, res.Err)
	}
	h, err := svc.lockSession(id)
	if err != nil {
		t.Fatal(err)
	}
	spec := cloneInstanceSpec(h.spec)
	h.mu.Unlock()
	req, err := BuildRequest(spec)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sched.ScheduleAll(req.Instance, req.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.SameAs(cold); err != nil {
		t.Fatalf("session %s: solve differs from a cold ScheduleAll: %v", id, err)
	}
	if res.Schedule.Evals != cold.Evals {
		t.Fatalf("session %s: solve spent %d evals, cold ScheduleAll %d", id, res.Schedule.Evals, cold.Evals)
	}
}

// TestDurableCloseFlushRestoresWarm: a graceful Close compacts every
// journal to one snapshot record, and after a restart the restored
// session's solve is the same as a cold ScheduleAll (and as the answer
// before the restart).
func TestDurableCloseFlushRestoresWarm(t *testing.T) {
	dir := t.TempDir()
	svc1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := svc1.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.MutateSession(id, []MutationSpec{{Op: "add_job", Job: ptr(extraJob())}}); err != nil {
		t.Fatal(err)
	}
	want := solveBytes(t, svc1, id)
	if err := svc1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, "sessions", id+journalExt))
	if err != nil {
		t.Fatal(err)
	}
	rj, err := ReplayJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if rj.Records != 1 || len(rj.Muts) != 0 {
		t.Fatalf("flushed journal has %d records, %d mutations; want a single snapshot", rj.Records, len(rj.Muts))
	}

	svc2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())
	solveSameAsCold(t, svc2, id)
	if got := solveBytes(t, svc2, id); !bytes.Equal(got, want) {
		t.Fatal("restored solve diverges from the solve before the restart")
	}
}

// TestLegacyHintJournalRestores: journals written while sessions still
// carried warm-start hints hold snapshot records with "hints", "churn"
// and "solved" fields. The committed FuzzJournalReplay seed
// seed_legacy_hints is such a journal (a compacted snapshot of a solved,
// mutated session plus one mutate record). It must replay and restore
// unchanged, and the restored session must answer like a cold
// ScheduleAll.
func TestLegacyHintJournalRestores(t *testing.T) {
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzJournalReplay", "seed_legacy_hints"))
	if err != nil {
		t.Fatal(err)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(string(seed), "go test fuzz v1\n[]byte("), ")")
	data, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("unquoting the seed: %v", err)
	}
	if !strings.Contains(data, `"hints":[`) || !strings.Contains(data, `"solved":true`) {
		t.Fatal("seed_legacy_hints carries no legacy hint fields")
	}
	rj, err := ReplayJournal([]byte(data))
	if err != nil {
		t.Fatalf("legacy journal does not replay: %v", err)
	}
	if rj.Truncated || len(rj.Muts) != 1 {
		t.Fatalf("legacy journal replayed to %+v, want a snapshot plus one mutation", rj)
	}

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "sessions"), 0o755); err != nil {
		t.Fatal(err)
	}
	id := rj.Snap.ID
	if err := os.WriteFile(filepath.Join(dir, "sessions", id+journalExt), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	info, err := svc.SessionInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().SessionsRestored; got != 1 {
		t.Fatalf("restored %d sessions from the legacy journal, want 1", got)
	}
	if info.Seq != rj.Snap.Seq+1 || info.Digest != rj.Digests[0] {
		t.Fatalf("restored info %+v, want seq %d and digest %s", info, rj.Snap.Seq+1, rj.Digests[0])
	}
	solveSameAsCold(t, svc, id)
}

// TestLegacyWorkersJournalRestores: journals written while the wire
// format still had the per-request "workers" and "solver" fields carry
// them inside their snapshot spec. The committed FuzzJournalReplay seeds
// seed_legacy_workers ("workers": 4) and seed_legacy_solver (a "solver"
// field naming the retired bounded-memory tier) are such journals, each
// a session creation plus one add_job mutation written by a build that
// still had the field. Each must replay and restore with its acked seq
// and digest, and the restored session must answer like a cold
// ScheduleAll.
func TestLegacyWorkersJournalRestores(t *testing.T) {
	for _, tc := range []struct{ seed, field string }{
		{"seed_legacy_workers", `"workers":4`},
		{"seed_legacy_solver", `"solver":`},
	} {
		t.Run(tc.seed, func(t *testing.T) {
			seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzJournalReplay", tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			quoted := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(string(seed), "go test fuzz v1\n[]byte(")), ")")
			data, err := strconv.Unquote(quoted)
			if err != nil {
				t.Fatalf("unquoting the seed: %v", err)
			}
			if !strings.Contains(data, tc.field) {
				t.Fatalf("%s carries no legacy %s field", tc.seed, tc.field)
			}
			rj, err := ReplayJournal([]byte(data))
			if err != nil {
				t.Fatalf("legacy journal does not replay: %v", err)
			}
			if rj.Truncated || len(rj.Muts) != 1 {
				t.Fatalf("legacy journal replayed to %+v, want a snapshot plus one mutation", rj)
			}

			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, "sessions"), 0o755); err != nil {
				t.Fatal(err)
			}
			id := rj.Snap.ID
			if err := os.WriteFile(filepath.Join(dir, "sessions", id+journalExt), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
			svc, err := Open(durableConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close(context.Background())
			info, err := svc.SessionInfo(id)
			if err != nil {
				t.Fatal(err)
			}
			if got := svc.Stats().SessionsRestored; got != 1 {
				t.Fatalf("restored %d sessions from the legacy journal, want 1", got)
			}
			if info.Seq != rj.Snap.Seq+1 || info.Digest != rj.Digests[0] {
				t.Fatalf("restored info %+v, want seq %d and digest %s", info, rj.Snap.Seq+1, rj.Digests[0])
			}
			solveSameAsCold(t, svc, id)
		})
	}
}

// TestDurableTruncationMatrix cuts a multi-record journal at record
// boundaries and at points inside every record, then recovers. The
// contract: a cut inside record k+1 restores exactly the first k
// records' acked state; a cut inside the creation record restores
// nothing (no state was acked); no cut may error out Open or restore a
// digest that was never acked.
func TestDurableTruncationMatrix(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg = withLimits(cfg, neverCompact) // keep every record; compaction is covered elsewhere
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, digest0, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	ackedDigests := []string{digest0} // digest after record i+1 (records[0] = create snapshot)
	muts := []MutationSpec{
		{Op: "add_job", Job: ptr(extraJob())},
		{Op: "block", Slot: &SlotSpec{Proc: 0, Time: 11}},
		{Op: "advance_horizon", Horizon: 14},
	}
	for _, m := range muts {
		d, err := svc.MutateSession(id, []MutationSpec{m})
		if err != nil {
			t.Fatal(err)
		}
		ackedDigests = append(ackedDigests, d)
	}
	data, err := os.ReadFile(filepath.Join(dir, "sessions", id+journalExt))
	if err != nil {
		t.Fatal(err)
	}
	svc.Close(context.Background()) // the flush re-compacts; we replay from the pre-flush bytes

	// Record boundaries: byte offsets just after each '\n'.
	bounds := []int{0}
	for i, b := range data {
		if b == '\n' {
			bounds = append(bounds, i+1)
		}
	}
	if len(bounds) != len(ackedDigests)+1 {
		t.Fatalf("journal has %d records, want %d", len(bounds)-1, len(ackedDigests))
	}

	// Cut points: every boundary, plus a few interior offsets per record.
	cuts := map[int]bool{}
	for r := 0; r < len(bounds)-1; r++ {
		lo, hi := bounds[r], bounds[r+1]
		cuts[lo], cuts[hi] = true, true
		for _, frac := range []int{1, 2, 3} {
			cuts[lo+(hi-lo)*frac/4] = true
		}
		cuts[hi-1] = true // keep the record, lose only its newline
	}
	for cut := range cuts {
		// Complete records before the cut; a cut at hi-1 of record r keeps
		// record r (the JSON is intact, only the newline is gone).
		complete := 0
		for complete+1 < len(bounds) && bounds[complete+1] <= cut {
			complete++
		}
		if complete+1 < len(bounds) && cut == bounds[complete+1]-1 {
			complete++
		}
		sub := t.TempDir()
		if err := os.MkdirAll(filepath.Join(sub, "sessions"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "sessions", id+journalExt), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(durableConfig(sub))
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		touchJournals(t, rec, sub)
		st := rec.Stats()
		if complete == 0 {
			// Torn or missing creation record: nothing was acked, nothing
			// restores, nothing counts as corruption.
			if st.Sessions != 0 || st.JournalsDropped != 0 {
				t.Fatalf("cut %d (no complete records): sessions=%d dropped=%d, want 0/0",
					cut, st.Sessions, st.JournalsDropped)
			}
		} else {
			if st.Sessions != 1 || st.JournalsDropped != 0 {
				t.Fatalf("cut %d (%d records): sessions=%d dropped=%d, want 1/0",
					cut, complete, st.Sessions, st.JournalsDropped)
			}
			info, err := rec.SessionInfo(id)
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			if want := ackedDigests[complete-1]; info.Digest != want {
				t.Fatalf("cut %d (%d records): restored digest %s, want acked %s",
					cut, complete, info.Digest, want)
			}
		}
		rec.Close(context.Background())
	}
}

// TestDurableCorruptQuarantine: a bad record anywhere before the tail is
// corruption, not a crash artifact, and so is a snapshot record that
// verifies as a record but not as a session. The journal must be
// quarantined when its session is first touched — counted, logged,
// renamed .corrupt, answered ErrNoSession — and the service must keep
// serving, with the session gone rather than half-restored.
func TestDurableCorruptQuarantine(t *testing.T) {
	flip := func(t *testing.T, corrupt func(lines [][]byte) [][]byte) (st Stats, logged []string, dir string, svc *Service) {
		t.Helper()
		dir = t.TempDir()
		svc1, err := Open(durableConfig(dir))
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := svc1.CreateSession(sessionSpec())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []MutationSpec{
			{Op: "add_job", Job: ptr(extraJob())},
			{Op: "block", Slot: &SlotSpec{Proc: 0, Time: 11}},
		} {
			if _, err := svc1.MutateSession(id, []MutationSpec{m}); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, "sessions", id+journalExt)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		if len(lines) < 3 {
			t.Fatalf("journal has %d lines, want >= 3", len(lines))
		}
		if err := os.WriteFile(path, bytes.Join(corrupt(lines), nil), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := durableConfig(dir)
		cfg.Logf = func(format string, args ...any) {
			logged = append(logged, fmt.Sprintf(format, args...))
		}
		svc, err = Open(cfg)
		if err != nil {
			t.Fatalf("corruption must not fail Open: %v", err)
		}
		for id, err := range touchJournals(t, svc, dir) {
			if !errors.Is(err, ErrNoSession) {
				t.Fatalf("touching corrupt session %s: want ErrNoSession, got %v", id, err)
			}
		}
		return svc.Stats(), logged, dir, svc
	}
	// resnap rewrites the creation record with edit applied to its
	// snapshot under a valid checksum: the record verifies, the session
	// it describes does not.
	resnap := func(edit func(snap *SessionSnapshot)) func(lines [][]byte) [][]byte {
		return func(lines [][]byte) [][]byte {
			var rec journalRecord
			if err := json.Unmarshal(bytes.TrimSpace(lines[0]), &rec); err != nil {
				panic(err)
			}
			edit(rec.Snap)
			line, err := encodeRecord(journalRecord{T: "snapshot", Snap: rec.Snap})
			if err != nil {
				panic(err)
			}
			lines[0] = line
			return lines
		}
	}

	cases := []struct {
		name    string
		corrupt func(lines [][]byte) [][]byte
	}{
		{"flipped byte mid-journal", func(lines [][]byte) [][]byte {
			line := append([]byte(nil), lines[1]...)
			line[len(line)/2] ^= 0x40
			lines[1] = line
			return lines
		}},
		{"deleted middle record", func(lines [][]byte) [][]byte {
			// The digest chain breaks: mutation 2 replays onto state 0 and
			// cannot land on its acked digest.
			return append(lines[:1], lines[2:]...)
		}},
		{"snapshot for a different id", resnap(func(snap *SessionSnapshot) { snap.ID = "s999999" })},
		{"snapshot with no id", resnap(func(snap *SessionSnapshot) { snap.ID = "" })},
		{"spec does not match digest", resnap(func(snap *SessionSnapshot) { snap.Spec.Horizon++ })},
		{"spec that cannot be built", resnap(func(snap *SessionSnapshot) {
			snap.Spec.Procs = -1
			snap.Digest = InstanceDigest(snap.Spec) // consistent digest, unbuildable spec
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, logged, dir, svc := flip(t, tc.corrupt)
			defer svc.Close(context.Background())
			if st.Sessions != 0 || st.SessionsRestored != 0 {
				t.Fatalf("corrupt journal half-restored: %d sessions", st.Sessions)
			}
			if st.JournalsDropped != 1 {
				t.Fatalf("journals_dropped_corrupt = %d, want 1", st.JournalsDropped)
			}
			if len(logged) == 0 || !strings.Contains(logged[0], "dropping session") {
				t.Fatalf("no drop diagnostic logged: %q", logged)
			}
			entries, err := os.ReadDir(filepath.Join(dir, "sessions"))
			if err != nil {
				t.Fatal(err)
			}
			var quarantined bool
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".corrupt") {
					quarantined = true
				} else if strings.HasSuffix(e.Name(), journalExt) {
					t.Fatalf("corrupt journal %s still live", e.Name())
				}
			}
			if !quarantined {
				t.Fatal("corrupt journal not quarantined")
			}
			// The service still works.
			if _, _, err := svc.CreateSession(sessionSpec()); err != nil {
				t.Fatalf("service unusable after quarantine: %v", err)
			}
		})
	}
}

// TestDurableCrashMatrix arms every faultfs failpoint in turn — each
// write (clean-failing and torn), each fsync, each rename, each open the
// scripted workload performs — and checks the durability contract from
// both ends: the live service either keeps a session consistent or
// reports ErrDurability and drops it; recovery on the surviving bytes
// restores exactly the sessions the client last saw acked, at exactly
// their acked digests, and quarantines nothing silently.
func TestDurableCrashMatrix(t *testing.T) {
	type ack struct {
		digest  string
		dropped bool // the live run told the client the session is gone
	}
	// workload drives the script and returns what the client observed.
	workload := func(t *testing.T, svc *Service) map[string]ack {
		t.Helper()
		acks := map[string]ack{}
		muts := []MutationSpec{
			{Op: "add_job", Job: ptr(extraJob())},
			{Op: "block", Slot: &SlotSpec{Proc: 0, Time: 11}},
			{Op: "advance_horizon", Horizon: 14},
		}
		for s := 0; s < 2; s++ {
			id, digest, err := svc.CreateSession(sessionSpec())
			if err != nil {
				if !errors.Is(err, ErrDurability) {
					t.Fatalf("create: unexpected error class: %v", err)
				}
				continue // never acked; must not exist anywhere
			}
			acks[id] = ack{digest: digest}
			for _, m := range muts {
				d, err := svc.MutateSession(id, []MutationSpec{m})
				if err == nil {
					acks[id] = ack{digest: d}
					continue
				}
				if !errors.Is(err, ErrDurability) {
					t.Fatalf("mutate: unexpected error class: %v", err)
				}
				if _, infoErr := svc.SessionInfo(id); !errors.Is(infoErr, ErrNoSession) {
					t.Fatalf("session survived a durability failure: info err = %v", infoErr)
				}
				acks[id] = ack{digest: acks[id].digest, dropped: true}
				break
			}
		}
		return acks
	}

	// Reference pass: count the operations the workload performs so the
	// sweep covers every one of them.
	refDir := t.TempDir()
	fault := faultfs.New(faultfs.OS{}, faultfs.Plan{})
	refCfg := durableConfig(refDir)
	refCfg = withLimits(refCfg, compactEveryTwo) // the 3-mutation script must cross a compaction
	refCfg.FS = fault
	refSvc, err := Open(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	refAcks := workload(t, refSvc)
	writes, syncs, renames, opens := fault.Counts()
	if len(refAcks) != 2 {
		t.Fatalf("reference run acked %d sessions, want 2", len(refAcks))
	}
	if writes == 0 || syncs == 0 || renames == 0 || opens == 0 {
		t.Fatalf("reference workload too narrow: w=%d s=%d r=%d o=%d", writes, syncs, renames, opens)
	}
	// refSolve pins byte-identity across rounds: every restore of a given
	// digest must solve to the same bytes.
	refSolve := map[string][]byte{}
	for id, a := range refAcks {
		refSolve[a.digest] = solveBytes(t, refSvc, id)
	}
	refSvc.Close(context.Background())

	type failpoint struct {
		name string
		plan faultfs.Plan
	}
	var points []failpoint
	for n := 1; n <= writes; n++ {
		points = append(points,
			failpoint{fmt.Sprintf("write%d", n), faultfs.Plan{FailWrite: n}},
			failpoint{fmt.Sprintf("write%d-torn", n), faultfs.Plan{FailWrite: n, Partial: 9}})
	}
	for n := 1; n <= syncs; n++ {
		points = append(points, failpoint{fmt.Sprintf("sync%d", n), faultfs.Plan{FailSync: n}})
	}
	for n := 1; n <= renames; n++ {
		points = append(points, failpoint{fmt.Sprintf("rename%d", n), faultfs.Plan{FailRename: n}})
	}
	for n := 1; n <= opens; n++ {
		points = append(points, failpoint{fmt.Sprintf("open%d", n), faultfs.Plan{FailOpen: n}})
	}

	for _, fp := range points {
		fp := fp
		t.Run(fp.name, func(t *testing.T) {
			dir := t.TempDir()
			f := faultfs.New(faultfs.OS{}, fp.plan)
			cfg := durableConfig(dir)
			cfg = withLimits(cfg, compactEveryTwo)
			cfg.FS = f
			svc, err := Open(cfg)
			if err != nil {
				// The failpoint hit startup (state-dir open); nothing was
				// created, nothing to recover. Fine.
				return
			}
			acks := workload(t, svc)
			// Crash: abandon svc without Close, disarm the fault, recover.
			rec, err := Open(durableConfig(dir))
			if err != nil {
				t.Fatalf("recovery Open: %v", err)
			}
			defer rec.Close(context.Background())
			// Touch every journal on disk, not only the acked ids, so the
			// counters below cover every file the live run left behind.
			touchJournals(t, rec, dir)
			st := rec.Stats()
			if st.JournalsDropped != 0 {
				// Every live-path failure is handled by dropping the session
				// and its file before acking the error; recovery must never
				// find a corrupt journal the client wasn't told about.
				t.Fatalf("recovery quarantined %d journals the live run left behind", st.JournalsDropped)
			}
			restored := 0
			for id, a := range acks {
				info, err := rec.SessionInfo(id)
				if a.dropped {
					if !errors.Is(err, ErrNoSession) {
						t.Fatalf("session %s resurrected after an acked drop: err=%v", id, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("session %s lost: last ack was success, recovery says %v", id, err)
				}
				restored++
				if info.Digest != a.digest {
					t.Fatalf("session %s restored at digest %s, client last acked %s", id, info.Digest, a.digest)
				}
				got := solveBytes(t, rec, id)
				if want, ok := refSolve[a.digest]; ok {
					if !bytes.Equal(got, want) {
						t.Fatalf("session %s solve diverges from reference at digest %s", id, a.digest)
					}
				} else {
					refSolve[a.digest] = got
				}
			}
			if int(st.SessionsRestored) != restored {
				t.Fatalf("sessions_restored = %d, but %d acked sessions recovered", st.SessionsRestored, restored)
			}
		})
	}
}

// TestDurableCompaction: the journal folds to one snapshot after
// compactEvery mutations, every record is fsynced, the digest chain
// survives it, and .tmp leftovers from an interrupted compaction are
// ignored at recovery.
func TestDurableCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg = withLimits(cfg, compactEveryTwo)
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	var digest string
	for i := 0; i < 5; i++ {
		job := extraJob()
		job.Allowed[0].Time = i
		digest, err = svc.MutateSession(id, []MutationSpec{{Op: "add_job", Job: &job}})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.JournalCompactions != 2 {
		t.Fatalf("journal_compactions = %d, want 2 after 5 mutations at compactEvery=2", st.JournalCompactions)
	}
	// One fsync policy: every record, compaction snapshots included.
	if st.JournalRecords != 8 || st.JournalFsyncs != st.JournalRecords {
		t.Fatalf("journal_records = %d, journal_fsyncs = %d; want 8 each", st.JournalRecords, st.JournalFsyncs)
	}
	path := filepath.Join(dir, "sessions", id+journalExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := ReplayJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if rj.Records != 2 || len(rj.Muts) != 1 { // snapshot at mutation 4 + mutation 5
		t.Fatalf("compacted journal: %d records, %d mutations; want 2/1", rj.Records, len(rj.Muts))
	}
	// A stale .tmp next to the journal (crash between tmp write and
	// rename) must not confuse recovery.
	if err := os.WriteFile(path+".tmp", []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close(context.Background())
	info, err := rec.SessionInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Digest != digest {
		t.Fatalf("post-compaction restore digest %s, want %s", info.Digest, digest)
	}
	if rec.Stats().JournalsDropped != 0 {
		t.Fatal(".tmp leftover counted as a corrupt journal")
	}
}

// TestRestartCreateKeepsUnloadedSession: a restarted service has no
// session in memory and mints ids from the start again. A create must
// step over the journal still on disk, never overwrite it: the untouched
// session keeps solving byte-identically and the new one gets a fresh
// id.
func TestRestartCreateKeepsUnloadedSession(t *testing.T) {
	dir := t.TempDir()
	svc1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := svc1.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	digest, err := svc1.MutateSession(id, []MutationSpec{{Op: "add_job", Job: ptr(extraJob())}})
	if err != nil {
		t.Fatal(err)
	}
	want := solveBytes(t, svc1, id)
	// kill -9: abandon svc1 without Close.

	svc2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())
	id2, _, err := svc2.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("create after restart reused the on-disk id %s", id)
	}
	info, err := svc2.SessionInfo(id)
	if err != nil {
		t.Fatalf("on-disk session lost to a create: %v", err)
	}
	if info.Digest != digest {
		t.Fatalf("on-disk session restored at digest %s, acked %s", info.Digest, digest)
	}
	if got := solveBytes(t, svc2, id); !bytes.Equal(got, want) {
		t.Fatalf("on-disk session solve differs after a create:\n%s\nwant:\n%s", got, want)
	}
}

// TestSharedStateDirCreatesDoNotCollide: two services on one StateDir
// (a cluster's backends) mint ids independently. Each create must get
// its own id and its own journal; neither may overwrite the other's.
func TestSharedStateDirCreatesDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close(context.Background())
	b, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(context.Background())
	idA, digestA, err := a.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	specB := sessionSpec()
	specB.Jobs = append(specB.Jobs, extraJob())
	idB, digestB, err := b.CreateSession(specB)
	if err != nil {
		t.Fatal(err)
	}
	if idA == idB {
		t.Fatalf("both services minted %s", idA)
	}
	for id, want := range map[string]string{idA: digestA, idB: digestB} {
		data, err := os.ReadFile(filepath.Join(dir, "sessions", id+journalExt))
		if err != nil {
			t.Fatal(err)
		}
		rj, err := ReplayJournal(data)
		if err != nil || rj.Snap == nil || rj.Snap.ID != id || rj.Snap.Digest != want {
			t.Fatalf("journal %s no longer holds its acked create (digest %s): %+v, %v", id, want, rj, err)
		}
	}
	for svc, id := range map[*Service]string{a: idA, b: idB} {
		solveSameAsCold(t, svc, id)
	}
}
