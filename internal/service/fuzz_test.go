package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzzSpecTooBig bounds the instances a fuzz iteration will actually
// build: the codec must survive any input, but building million-slot
// models per iteration would make the fuzzer useless.
func fuzzSpecTooBig(spec InstanceSpec) bool {
	if spec.Procs > 8 || spec.Horizon > 64 || len(spec.Jobs) > 32 {
		return true
	}
	slots := 0
	for _, j := range spec.Jobs {
		slots += len(j.Allowed)
	}
	return slots > 256
}

// FuzzWireCodec round-trips the service wire spec: any JSON the decoder
// accepts must build without panicking, and the canonical re-encoding
// must be a fixed point — decode(marshal(spec)) digests identically to
// spec, else the result cache and the per-worker model reuse would key
// the same instance two ways. Covers every cost-model variant including
// the scenario-matrix fields (wakes/speeds/exp, wake/idle, composite
// blocked masks). Run long with:
//
//	go test -run '^$' -fuzz FuzzWireCodec ./internal/service
func FuzzWireCodec(f *testing.F) {
	f.Add([]byte(`{"procs":1,"horizon":4,"cost":{"model":"affine","alpha":2,"rate":1},` +
		`"jobs":[{"allowed":[{"proc":0,"time":1},{"proc":0,"time":2}]}]}`))
	f.Add([]byte(`{"procs":2,"horizon":3,"cost":{"model":"speedscaled","wakes":[2,3],"speeds":[1,2],"exp":3},` +
		`"jobs":[{"value":2,"allowed":[{"proc":1,"time":0}]}],"mode":"prize","z":1.5}`))
	f.Add([]byte(`{"procs":1,"horizon":3,"cost":{"model":"sleepstate","wake":10,"rate":2,"idle":1},` +
		`"jobs":[{"allowed":[{"proc":0,"time":2}]}],"workers":4}`))
	f.Add([]byte(`{"procs":2,"horizon":4,"cost":{"model":"composite","wakes":[1,1],"speeds":[1,2],"exp":2,` +
		`"price":[1,2,3,4],"blocked":[{"proc":0,"time":2}]},"jobs":[{"allowed":[{"proc":1,"time":1}]}]}`))
	f.Add([]byte(`{"procs":1,"horizon":4,"cost":{"model":"unavailable","base":{"model":"timeofuse",` +
		`"alphas":[1],"rates":[1],"price":[1,1,1,1]},"blocked":[{"proc":0,"time":0}]},` +
		`"jobs":[{"allowed":[{"proc":0,"time":3}]}],"mode":"prize-exact","z":1}`))
	f.Add([]byte(`{"procs":-3,"horizon":-1,"cost":{"model":"superlinear","exp":-0.5},"jobs":[{}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		var spec InstanceSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return // not a spec; nothing to check
		}
		if fuzzSpecTooBig(spec) {
			return
		}
		req, err := BuildRequest(spec) // must not panic on anything decodable
		if err != nil {
			return // rejected inputs are fine; rejecting is the codec's job
		}
		digest := InstanceDigest(spec)
		if req.InstanceKey != digest {
			t.Fatalf("BuildRequest key %q != InstanceDigest %q", req.InstanceKey, digest)
		}
		canon, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-marshal of accepted spec failed: %v", err)
		}
		var spec2 InstanceSpec
		if err := json.Unmarshal(canon, &spec2); err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		if d2 := InstanceDigest(spec2); d2 != digest {
			t.Fatalf("digest not a fixed point: %q -> %q\ncanonical: %s", digest, d2, canon)
		}
		if _, err := BuildRequest(spec2); err != nil {
			t.Fatalf("canonical re-decode rejected: %v\ncanonical: %s", err, canon)
		}
	})
}

// FuzzJournalReplay feeds arbitrary bytes to the journal reader and,
// when they replay, drives the full recovery path. The pinned
// contracts: ReplayJournal never panics; a replayable journal's state
// re-encodes to a journal that replays back to the same state (the
// recovery re-compaction fixed point); and restoring the replayed
// snapshot either builds a working session or fails with a clean error
// — never a half-built one. Run long with:
//
//	go test -run '^$' -fuzz FuzzJournalReplay ./internal/service
func FuzzJournalReplay(f *testing.F) {
	// Inline seeds cover the shape classes; the committed corpus under
	// testdata/fuzz/FuzzJournalReplay holds real journal bytes
	// (regenerate with REGEN_JOURNAL_CORPUS=1 go test -run TestRegenJournalFuzzCorpus).
	f.Add([]byte(""))
	f.Add([]byte("not a journal\n"))
	f.Add([]byte(`{"v":1,"t":"snapshot","sum":"00"}` + "\n"))
	f.Add([]byte(`{"v":2,"t":"snapshot","snap":{"id":"s1"},"sum":"00"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16384 {
			return
		}
		rj, err := ReplayJournal(data) // must not panic on anything
		if err != nil {
			return // corrupt is a fine answer
		}
		if len(rj.Muts) != len(rj.Digests) {
			t.Fatalf("replay: %d mutations but %d digests", len(rj.Muts), len(rj.Digests))
		}
		if rj.Snap == nil {
			if len(rj.Muts) != 0 {
				t.Fatal("replay produced mutations without a snapshot")
			}
			return // torn-create journal: no state, no error
		}
		// Fixed point: re-encode the replayed state and replay it back.
		var buf bytes.Buffer
		line, err := encodeRecord(journalRecord{T: "snapshot", Snap: rj.Snap})
		if err != nil {
			t.Fatalf("re-encoding replayed snapshot: %v", err)
		}
		buf.Write(line)
		for i := range rj.Muts {
			line, err := encodeRecord(journalRecord{T: "mutate", Mut: &rj.Muts[i], Digest: rj.Digests[i]})
			if err != nil {
				t.Fatalf("re-encoding replayed mutation %d: %v", i, err)
			}
			buf.Write(line)
		}
		rj2, err := ReplayJournal(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded journal does not replay: %v", err)
		}
		if rj2.Truncated || rj2.Snap == nil || len(rj2.Muts) != len(rj.Muts) {
			t.Fatalf("re-encoded journal replays differently: %+v vs %+v", rj2, rj)
		}
		if InstanceDigest(rj2.Snap.Spec) != InstanceDigest(rj.Snap.Spec) {
			t.Fatal("re-encoded snapshot digests differently")
		}
		// Recovery path: restore the snapshot and apply the tail, exactly
		// as recoverOne does, on a workerless service shell. Bound the
		// work first — solving is superlinear in jobs × slots, and a fuzz
		// iteration must stay in the milliseconds.
		spec := rj.Snap.Spec
		slots := 0
		for _, j := range spec.Jobs {
			slots += len(j.Allowed)
		}
		if spec.Procs > 4 || spec.Horizon > 24 || len(spec.Jobs) > 12 || slots > 48 || len(rj.Muts) > 8 {
			return
		}
		for _, m := range rj.Muts {
			if m.Job != nil && len(m.Job.Allowed) > 8 {
				return
			}
			if m.Horizon > 24 {
				return
			}
		}
		s := &Service{cfg: Config{Logf: func(string, ...any) {}}.withDefaults()}
		h, err := s.restoreHandle(rj.Snap)
		if err != nil {
			return // clean refusal
		}
		for _, m := range rj.Muts {
			if err := h.apply(m); err != nil {
				return // replay divergence is recoverOne's clean-drop path
			}
			h.digest = InstanceDigest(h.spec)
		}
		// A fully replayed session must actually solve or fail cleanly.
		h.sess.Solve() //nolint:errcheck // both outcomes are fine; panics are not
	})
}

// TestRegenJournalFuzzCorpus rewrites the committed FuzzJournalReplay
// seed corpus from real journals: a live multi-record journal, a
// compacted one, a torn tail, and a checksum-corrupt record. Skipped
// unless REGEN_JOURNAL_CORPUS=1 — run it after changing the journal
// format and commit the result.
func TestRegenJournalFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_JOURNAL_CORPUS") == "" {
		t.Skip("set REGEN_JOURNAL_CORPUS=1 to rewrite testdata/fuzz/FuzzJournalReplay")
	}
	dir := t.TempDir()
	cfg := withLimits(Config{Workers: 1, StateDir: dir, Logf: func(string, ...any) {}}, neverCompact)
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := svc.CreateSession(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	muts := []MutationSpec{
		{Op: "add_job", Job: ptr(extraJob())},
		{Op: "block", Slot: &SlotSpec{Proc: 0, Time: 11}},
		{Op: "advance_horizon", Horizon: 14},
	}
	for _, m := range muts {
		if _, err := svc.MutateSession(id, []MutationSpec{m}); err != nil {
			t.Fatal(err)
		}
	}
	live, err := os.ReadFile(filepath.Join(dir, "sessions", id+journalExt))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(context.Background()); err != nil { // flush compacts
		t.Fatal(err)
	}
	compacted, err := os.ReadFile(filepath.Join(dir, "sessions", id+journalExt))
	if err != nil {
		t.Fatal(err)
	}
	torn := live[:len(live)-17]
	corrupt := append([]byte(nil), live...)
	corrupt[len(corrupt)/3] ^= 0x20

	out := filepath.Join("testdata", "fuzz", "FuzzJournalReplay")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"seed_live_journal": live,
		"seed_compacted":    compacted,
		"seed_torn_tail":    torn,
		"seed_corrupt":      corrupt,
	} {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")"
		if err := os.WriteFile(filepath.Join(out, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
