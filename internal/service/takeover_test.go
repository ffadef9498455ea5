package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
)

// Tests for the cluster handoff surface: mutation sequence numbers,
// conditional mutates, caller-chosen ids, first-touch restore
// (open-by-id), release, and stale-handle detection — the service half
// of journal-driven failover.

func TestSeqTracksAcceptedMutations(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	id, _, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.SessionInfo(id)
	if err != nil || info.Seq != 0 {
		t.Fatalf("fresh session seq = %d (err %v), want 0", info.Seq, err)
	}
	muts := []MutationSpec{
		{Op: "add_job", Job: ptr(extraJob())},
		{Op: "block", Slot: &SlotSpec{Proc: 0, Time: 11}},
		{Op: "advance_horizon", Horizon: 14},
	}
	_, seq, err := svc.MutateSessionAt(id, -1, muts)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("seq after 3 mutations = %d, want 3", seq)
	}
	// A rejected mutation advances seq only through the accepted prefix.
	_, seq, err = svc.MutateSessionAt(id, -1, []MutationSpec{
		{Op: "add_job", Job: ptr(extraJob())},
		{Op: "bogus"},
	})
	if err == nil {
		t.Fatal("bogus op must be rejected")
	}
	if seq != 4 {
		t.Fatalf("seq after accepted prefix = %d, want 4", seq)
	}
}

func TestConditionalMutateDetectsLandedFirstAttempt(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	id, _, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	muts := []MutationSpec{{Op: "add_job", Job: ptr(extraJob())}}
	digest1, seq, err := svc.MutateSessionAt(id, 0, muts)
	if err != nil || seq != 1 {
		t.Fatalf("conditional mutate at 0: seq %d err %v", seq, err)
	}
	// The router's retry after a lost reply: same expect, same mutations.
	// It must conflict — and the reported seq expect+len(muts) proves the
	// first attempt landed, so the router treats the mutate as applied.
	digest2, seq2, err := svc.MutateSessionAt(id, 0, muts)
	if !errors.Is(err, ErrSeqConflict) {
		t.Fatalf("replayed conditional mutate: want ErrSeqConflict, got %v", err)
	}
	if seq2 != 1 || digest2 != digest1 {
		t.Fatalf("conflict reports seq %d digest %s, want 1 and the acked digest %s", seq2, digest2, digest1)
	}
	info, err := svc.SessionInfo(id)
	if err != nil || info.Seq != 1 {
		t.Fatalf("session advanced under a conflicting retry: seq %d err %v", info.Seq, err)
	}
	// A conditional mutate at the correct next seq applies.
	if _, seq, err = svc.MutateSessionAt(id, 1, muts); err != nil || seq != 2 {
		t.Fatalf("conditional mutate at 1: seq %d err %v", seq, err)
	}
}

func TestSeqSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	svc1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := svc1.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc1.MutateSessionAt(id, -1, []MutationSpec{
		{Op: "add_job", Job: ptr(extraJob())},
		{Op: "advance_horizon", Horizon: 14},
	}); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close: the journal alone carries the state.
	svc2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())
	info, err := svc2.SessionInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 2 {
		t.Fatalf("restored seq = %d, want 2 (seq is lifetime-monotone)", info.Seq)
	}
	// The conditional-mutate handshake must keep working across the
	// restart boundary: a stale expect conflicts, the fresh one applies.
	if _, _, err := svc2.MutateSessionAt(id, 0, nil); !errors.Is(err, ErrSeqConflict) {
		t.Fatalf("stale expect after restart: want ErrSeqConflict, got %v", err)
	}
	if _, seq, err := svc2.MutateSessionAt(id, 2, []MutationSpec{{Op: "advance_horizon", Horizon: 15}}); err != nil || seq != 3 {
		t.Fatalf("fresh expect after restart: seq %d err %v", seq, err)
	}
}

func TestCreateSessionWithID(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	if _, err := svc.CreateSessionWithID("c000001", sessionSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateSessionWithID("c000001", sessionSpec()); err == nil {
		t.Fatal("duplicate id must be refused")
	}
	for _, bad := range []string{"", ".hidden", "a/b", "a b", "-lead", string(make([]byte, 200))} {
		if _, err := svc.CreateSessionWithID(bad, sessionSpec()); err == nil {
			t.Fatalf("id %q must be refused", bad)
		}
	}
	// Backend-minted ids must not collide with the router-style id.
	id, _, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if id == "c000001" {
		t.Fatal("CreateSession reused a caller-chosen id")
	}
}

func TestCreateWithIDRefusesUnloadedOnDiskSession(t *testing.T) {
	dir := t.TempDir()
	svc1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.CreateSessionWithID("c000007", sessionSpec()); err != nil {
		t.Fatal(err)
	}
	if err := svc1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())
	// Not in memory — but its journal is acked state on disk, and a
	// create must not truncate it.
	if _, err := svc2.CreateSessionWithID("c000007", sessionSpec()); err == nil {
		t.Fatal("create over an unloaded on-disk session must be refused")
	}
}

func TestRestoreOpensOnFirstTouch(t *testing.T) {
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
	svc2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())
	if st := svc2.Stats(); st.Sessions != 0 || st.SessionsRestored != 0 {
		t.Fatalf("Open restored eagerly: %d live, %d restored", st.Sessions, st.SessionsRestored)
	}
	if got := solveBytes(t, svc2, id); !bytes.Equal(got, want) {
		t.Fatalf("restored solve differs:\n%s\nwant:\n%s", got, want)
	}
	if st := svc2.Stats(); st.Sessions != 1 || st.SessionsRestored != 1 {
		t.Fatalf("first touch should restore exactly one session: %d live, %d restored", st.Sessions, st.SessionsRestored)
	}
	if _, err := svc2.SessionInfo("s999999"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("unknown id on a durable service: want ErrNoSession, got %v", err)
	}
}

func TestReleaseThenTouchMigratesSession(t *testing.T) {
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

	id, _, err := a.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, wantSeq, err := a.MutateSessionAt(id, -1, []MutationSpec{
		{Op: "add_job", Job: ptr(extraJob())},
		{Op: "advance_horizon", Horizon: 14},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := solveBytes(t, a, id)

	// Migration: donor releases (journal stays on disk), the new owner's
	// first touch — the router's verifying GET — restores it.
	if err := a.ReleaseSession(id); err != nil {
		t.Fatal(err)
	}
	info, err := b.SessionInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Digest != wantDigest || info.Seq != wantSeq {
		t.Fatalf("new owner recovered digest %s seq %d, donor acked %s seq %d",
			info.Digest, info.Seq, wantDigest, wantSeq)
	}
	if got := solveBytes(t, b, id); !bytes.Equal(got, want) {
		t.Fatalf("migrated solve differs:\n%s\nwant:\n%s", got, want)
	}
}

func TestReleaseKeepsJournalForReopen(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	id, _, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := solveBytes(t, svc, id)
	if err := svc.ReleaseSession(id); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Sessions != 0 {
		t.Fatalf("release left %d live sessions", st.Sessions)
	}
	// The next touch falls through to the journal the release kept.
	if got := solveBytes(t, svc, id); !bytes.Equal(got, want) {
		t.Fatalf("reopened solve differs:\n%s\nwant:\n%s", got, want)
	}
	if err := svc.ReleaseSession("s424242"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("release of unknown id: want ErrNoSession, got %v", err)
	}
}

func TestDropSessionRemovesUnloadedJournal(t *testing.T) {
	dir := t.TempDir()
	svc1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := svc1.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())
	// The session is only on disk; DELETE must still be final.
	if err := svc2.DropSession(id); err != nil {
		t.Fatalf("drop of unloaded session: %v", err)
	}
	if _, err := svc2.SessionInfo(id); !errors.Is(err, ErrNoSession) {
		t.Fatalf("dropped session resurrected: %v", err)
	}
}

// TestDropAfterCloseRefused: a closed service has flushed and closed
// every journal, so it cannot remove one. DropSession must refuse with
// ErrClosed rather than ack a drop that a restart would undo.
func TestDropAfterCloseRefused(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	id, digest, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.DropSession(id); !errors.Is(err, ErrClosed) {
		t.Fatalf("drop on a closed service: want ErrClosed, got %v", err)
	}
	// The refused drop left the session intact for the next process.
	rec := openShared(t, dir)
	info, err := rec.SessionInfo(id)
	if err != nil {
		t.Fatalf("session after a refused drop: %v", err)
	}
	if info.Digest != digest {
		t.Fatalf("restored digest %s, want %s", info.Digest, digest)
	}
}

// TestTransientRestoreErrorKeepsJournal: an I/O failure during a
// first-touch restore says nothing about the journal's bytes. The touch
// answers ErrDurability and leaves <id>.journal in place, unquarantined,
// and the next touch restores the acked digest and seq. FailOpen 1 fails
// the reopen for append; FailOpen 3 fails the reopen after the restore
// compaction's rename, when the new file is already complete.
func TestTransientRestoreErrorKeepsJournal(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("open%d", n), func(t *testing.T) {
			dir := t.TempDir()
			svc, err := Open(durableConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			id, _, err := svc.CreateSession(sessionSpec())
			if err != nil {
				t.Fatal(err)
			}
			digest, seq, err := svc.MutateSessionAt(id, -1, []MutationSpec{{Op: "add_job", Job: ptr(extraJob())}})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Close(context.Background()); err != nil {
				t.Fatal(err)
			}

			cfg := durableConfig(dir)
			cfg.FS = faultfs.New(faultfs.OS{}, faultfs.Plan{FailOpen: n})
			rec, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close(context.Background())
			if _, err := rec.SessionInfo(id); !errors.Is(err, ErrDurability) {
				t.Fatalf("touch with a failing open: want ErrDurability, got %v", err)
			}
			path := filepath.Join(dir, "sessions", id+journalExt)
			if _, err := os.Stat(path + ".corrupt"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("intact journal quarantined (stat .corrupt: %v)", err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("journal gone after a transient failure: %v", err)
			}
			if st := rec.Stats(); st.JournalsDropped != 0 || st.Sessions != 0 {
				t.Fatalf("journals_dropped_corrupt = %d, sessions = %d; want 0/0", st.JournalsDropped, st.Sessions)
			}
			info, err := rec.SessionInfo(id)
			if err != nil {
				t.Fatalf("second touch: %v", err)
			}
			if info.Digest != digest || info.Seq != seq {
				t.Fatalf("restored digest %s seq %d, want %s seq %d", info.Digest, info.Seq, digest, seq)
			}
		})
	}
}

// openShared opens a durable service on dir that the test closes.
func openShared(t *testing.T, dir string) *Service {
	t.Helper()
	svc, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close(context.Background()) })
	return svc
}

// failoverToPeer is the start the stale-handle tests share: x creates a
// session and acks seq 1; then the router routes around x, and y, on
// the same StateDir, restores the session from disk and acks seq 2.
// x still holds its seq-1 copy in memory.
func failoverToPeer(t *testing.T, x, y *Service) (id, digest string) {
	t.Helper()
	id, _, err := x.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, seq, err := x.MutateSessionAt(id, -1, []MutationSpec{{Op: "add_job", Job: ptr(extraJob())}}); err != nil || seq != 1 {
		t.Fatalf("mutate on x: seq %d err %v", seq, err)
	}
	digest, seq, err := y.MutateSessionAt(id, -1, []MutationSpec{{Op: "block", Slot: &SlotSpec{Proc: 0, Time: 11}}})
	if err != nil || seq != 2 {
		t.Fatalf("mutate on y: seq %d err %v", seq, err)
	}
	return id, digest
}

// TestStaleOwnerRereadsAfterPeerMutates: once y has acked seq 2, the
// router sending the session back to x must not get x's seq-1 copy,
// and x's next mutate must build on seq 2 — never a second history
// acked at the same sequence.
func TestStaleOwnerRereadsAfterPeerMutates(t *testing.T) {
	dir := t.TempDir()
	x, y := openShared(t, dir), openShared(t, dir)
	id, yDigest := failoverToPeer(t, x, y)

	info, err := x.SessionInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 2 || info.Digest != yDigest {
		t.Fatalf("x answers seq %d digest %s after y acked seq 2 digest %s", info.Seq, info.Digest, yDigest)
	}
	digest, seq, err := x.MutateSessionAt(id, -1, []MutationSpec{{Op: "advance_horizon", Horizon: 14}})
	if err != nil || seq != 3 {
		t.Fatalf("mutate on x after failback: seq %d err %v, want 3", seq, err)
	}
	fresh := openShared(t, dir)
	got, err := fresh.SessionInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != seq || got.Digest != digest {
		t.Fatalf("journal restores seq %d digest %s, x acked seq %d digest %s", got.Seq, got.Digest, seq, digest)
	}
	solveSameAsCold(t, fresh, id)
}

// TestDrainAfterFailoverDoesNotRollBack: x draining gracefully after y
// took its session over must not flush x's older copy over y's journal.
func TestDrainAfterFailoverDoesNotRollBack(t *testing.T) {
	dir := t.TempDir()
	x, y := openShared(t, dir), openShared(t, dir)
	id, yDigest := failoverToPeer(t, x, y)
	want := solveBytes(t, y, id)

	if err := x.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	fresh := openShared(t, dir)
	info, err := fresh.SessionInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 2 || info.Digest != yDigest {
		t.Fatalf("after x drained, the journal restores seq %d digest %s; y acked seq 2 digest %s", info.Seq, info.Digest, yDigest)
	}
	if got := solveBytes(t, fresh, id); !bytes.Equal(got, want) {
		t.Fatalf("restored solve differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestStaleOwnerSeesPeerDelete: a session deleted through y is gone for
// x too, even though x still holds it in memory.
func TestStaleOwnerSeesPeerDelete(t *testing.T) {
	dir := t.TempDir()
	x, y := openShared(t, dir), openShared(t, dir)
	id, _, err := x.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := y.DropSession(id); err != nil {
		t.Fatal(err)
	}
	if _, err := x.SessionInfo(id); !errors.Is(err, ErrNoSession) {
		t.Fatalf("x after y deleted the session: want ErrNoSession, got %v", err)
	}
	if n := x.Stats().Sessions; n != 0 {
		t.Fatalf("x still holds %d sessions", n)
	}
}

// TestReleaseRaceKeepsAckedMutation: a mutate that arrives while a
// release waits on the session lock must not be acked on a copy the
// release then overwrites. The service is abandoned, not closed, as a
// kill -9 would leave it: the journal alone must hold the ack. The
// sleeps only steer the release to the lock before the mutate; the
// assertions hold for every interleaving.
func TestReleaseRaceKeepsAckedMutation(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	svc.sessMu.Lock()
	h := svc.sessions[id]
	svc.sessMu.Unlock()
	h.mu.Lock() // an in-flight request holds the session

	released := make(chan error, 1)
	go func() { released <- svc.ReleaseSession(id) }()
	time.Sleep(20 * time.Millisecond) // let the release reach the lock
	type ack struct {
		digest string
		seq    uint64
		err    error
	}
	mutated := make(chan ack, 1)
	go func() {
		d, seq, err := svc.MutateSessionAt(id, -1, []MutationSpec{{Op: "add_job", Job: ptr(extraJob())}})
		mutated <- ack{d, seq, err}
	}()
	var got ack
	early := false
	select {
	case got = <-mutated: // the mutate did not wait for the release
		early = true
	case <-time.After(50 * time.Millisecond):
	}
	h.mu.Unlock()
	if err := <-released; err != nil {
		t.Fatal(err)
	}
	if !early {
		got = <-mutated
	}
	if got.err != nil || got.seq != 1 {
		t.Fatalf("mutate during release: seq %d err %v", got.seq, got.err)
	}

	fresh := openShared(t, dir)
	info, err := fresh.SessionInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != got.seq || info.Digest != got.digest {
		t.Fatalf("journal restores seq %d digest %s, the mutate acked seq %d digest %s", info.Seq, info.Digest, got.seq, got.digest)
	}
}

// statFailFS fails every Stat with err while err is set.
type statFailFS struct {
	faultfs.FS
	err error
}

func (f *statFailFS) Stat(name string) (fs.FileInfo, error) {
	if f.err != nil {
		return nil, f.err
	}
	return f.FS.Stat(name)
}

// TestJournalCheckErrorAnswersDurability: when the journal cannot be
// checked, a touch answers ErrDurability and keeps the session, rather
// than serving a copy it could not verify.
func TestJournalCheckErrorAnswersDurability(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	fsys := &statFailFS{FS: faultfs.OS{}}
	cfg.FS = fsys
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	id, _, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	fsys.err = syscall.EIO
	if _, err := svc.SessionInfo(id); !errors.Is(err, ErrDurability) {
		t.Fatalf("unverifiable journal: want ErrDurability, got %v", err)
	}
	fsys.err = nil
	if _, err := svc.SessionInfo(id); err != nil {
		t.Fatalf("session lost to a transient check failure: %v", err)
	}
}
