package service

// This file is the durability layer's write-ahead journal. With
// Config.StateDir set, every session owns an append-only JSONL file
// under <StateDir>/sessions/<id>.journal:
//
//	{"v":1,"t":"snapshot","snap":{...},"sum":"<sha256/16>"}
//	{"v":1,"t":"mutate","mut":{...},"digest":"<post-apply digest>","sum":"..."}
//
// The first record is always a snapshot (a create is a snapshot of the
// fresh session); mutate records append one per *accepted* mutation,
// carrying the digest the client was acked, so replay can verify it
// lands exactly where the live process did. Every record embeds a
// checksum over its own payload: a torn tail record (the on-disk state
// a crash mid-append leaves) is detected and dropped, restoring the
// acked prefix; a bad record anywhere earlier means corruption, and the
// whole journal is quarantined rather than served.
//
// Periodic compaction (every compactEvery accepted mutations) folds
// the journal back to a single snapshot record via write-temp, fsync,
// rename, so a crash during compaction leaves either the old journal or
// the new one, both complete. A session comes back from disk only on
// first touch (openByID in takeover.go), which re-compacts the one
// journal it loads and so also normalizes away any tolerated torn tail.
// A live handle checks before it acts that the file is still the one it
// last wrote (sessionJournal.current), so a handle made stale by a peer
// on a shared StateDir never answers or writes.
//
// All filesystem access goes through faultfs.FS, so the crash-matrix
// tests can fail any individual write, fsync, rename, or open and
// assert the restore-or-drop-cleanly contract.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/faultfs"
)

const (
	journalVersion = 1
	journalExt     = ".journal"
)

// ErrDurability marks journal I/O failures: on the live path (create,
// mutate, flush) and on a first-touch restore. It maps to 503 +
// Retry-After on the HTTP surface: the instance data is fine, the
// storage under it is not.
var ErrDurability = errors.New("service: durable storage failure")

// journalRecord is one JSONL line of a session journal.
type journalRecord struct {
	V    int              `json:"v"`
	T    string           `json:"t"` // "snapshot" | "mutate"
	Snap *SessionSnapshot `json:"snap,omitempty"`
	Mut  *MutationSpec    `json:"mut,omitempty"`
	// Digest on a mutate record is the instance digest acked to the
	// client after applying Mut; replay re-derives and must match.
	Digest string `json:"digest,omitempty"`
	Sum    string `json:"sum"`
}

// recordSum checksums a record's encoding with Sum blanked.
func recordSum(rec journalRecord) string {
	rec.Sum = ""
	data, err := json.Marshal(rec)
	if err != nil {
		return "" // unreachable for these plain structs; an empty sum never verifies
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:8])
}

// lineSum recomputes recordSum from a record line as written: Sum is the
// record's last field, so the line with its `"sum":"<hex>"}` tail blanked
// to `"sum":""}` is exactly the encoding the writer hashed. Checking the
// bytes rather than a re-encoding of the parsed record keeps records with
// fields this version no longer has verifiable: snapshots written while
// sessions carried warm-start hints still hold "hints", "churn" and
// "solved", which decoding drops.
func lineSum(line []byte, sum string) string {
	tail := `"sum":"` + sum + `"}`
	if !bytes.HasSuffix(line, []byte(tail)) {
		return ""
	}
	blanked := append(line[:len(line)-len(tail):len(line)-len(tail)], `"sum":""}`...)
	h := sha256.Sum256(blanked)
	return hex.EncodeToString(h[:8])
}

func encodeRecord(rec journalRecord) ([]byte, error) {
	rec.V = journalVersion
	rec.Sum = recordSum(rec)
	if rec.Sum == "" {
		return nil, fmt.Errorf("%w: journal record does not marshal", ErrDurability)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

func decodeRecordLine(line []byte) (journalRecord, error) {
	var rec journalRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, fmt.Errorf("%w: undecodable journal record: %v", ErrSnapshotCorrupt, err)
	}
	if rec.V != journalVersion {
		return rec, fmt.Errorf("%w: journal record version %d, want %d", ErrSnapshotCorrupt, rec.V, journalVersion)
	}
	if rec.Sum == "" || lineSum(line, rec.Sum) != rec.Sum {
		return rec, fmt.Errorf("%w: journal record checksum mismatch", ErrSnapshotCorrupt)
	}
	switch rec.T {
	case "snapshot":
		if rec.Snap == nil {
			return rec, fmt.Errorf("%w: snapshot record without snapshot", ErrSnapshotCorrupt)
		}
	case "mutate":
		if rec.Mut == nil {
			return rec, fmt.Errorf("%w: mutate record without mutation", ErrSnapshotCorrupt)
		}
	default:
		return rec, fmt.Errorf("%w: unknown journal record type %q", ErrSnapshotCorrupt, rec.T)
	}
	return rec, nil
}

// ReplayedJournal is the outcome of parsing one journal file: the base
// snapshot, the accepted mutation tail to replay on top (with the
// digest acked for each), and whether a torn tail record was dropped.
type ReplayedJournal struct {
	Snap      *SessionSnapshot
	Muts      []MutationSpec
	Digests   []string // per-mutation acked digest, aligned with Muts
	Truncated bool
	Records   int
}

// ReplayJournal parses raw journal bytes. It never panics on any input
// (FuzzJournalReplay pins this): the result is either a replayable
// state or an error describing the corruption. The final record may be
// torn — a crash mid-append — and is silently dropped (Truncated);
// any earlier undecodable or checksum-failing record is corruption. An
// empty or torn-create-only journal replays to no state and no error:
// it is the artifact of a crash before anything was acked (an empty
// file is the crash window between open and first write), so nothing
// the client saw succeed was lost.
func ReplayJournal(data []byte) (*ReplayedJournal, error) {
	lines := bytes.Split(data, []byte("\n"))
	// A well-formed journal ends with '\n', leaving one empty trailing
	// element; anything after the last newline is a torn tail.
	last := len(lines) - 1
	for last >= 0 && len(bytes.TrimSpace(lines[last])) == 0 {
		last--
	}
	out := &ReplayedJournal{}
	for i := 0; i <= last; i++ {
		line := bytes.TrimSpace(lines[i])
		if len(line) == 0 {
			continue
		}
		rec, err := decodeRecordLine(line)
		if err != nil {
			if i == last {
				out.Truncated = true
				break
			}
			// decodeRecordLine errors already carry ErrSnapshotCorrupt.
			return nil, fmt.Errorf("journal record %d: %w", i, err)
		}
		out.Records++
		switch rec.T {
		case "snapshot":
			// A snapshot resets state; compaction keeps it as record 0,
			// but replay tolerates one anywhere.
			out.Snap = rec.Snap
			out.Muts, out.Digests = nil, nil
		case "mutate":
			if out.Snap == nil {
				return nil, fmt.Errorf("%w: record %d: mutation before any snapshot", ErrSnapshotCorrupt, i)
			}
			out.Muts = append(out.Muts, *rec.Mut)
			out.Digests = append(out.Digests, rec.Digest)
		}
	}
	return out, nil
}

// sessionJournal is the live append handle for one session's journal.
// It is guarded by the owning sessionHandle's mutex.
type sessionJournal struct {
	s         *Service
	path      string
	file      faultfs.File
	mutsSince int // mutate records since the leading snapshot
	// ident is the file this handle last wrote and size its length after
	// that write. When path names another file, or this one at another
	// size, another handle has rewritten the journal (takeover.go).
	ident fs.FileInfo
	size  int64
}

// errJournalMoved is current's answer when the journal on disk is no
// longer the file the handle last wrote.
var errJournalMoved = errors.New("journal rewritten by another handle")

// track records the file j appends to and its size right now.
func (j *sessionJournal) track() error {
	fi, err := j.file.Stat()
	if err != nil {
		return err
	}
	j.ident, j.size = fi, fi.Size()
	return nil
}

// current checks, with one Stat, that path still names the file j last
// wrote at the size it left it. It answers errJournalMoved if not, and
// an error matching fs.ErrNotExist if the journal is gone.
func (j *sessionJournal) current() error {
	fi, err := j.s.cfg.FS.Stat(j.path)
	if err != nil {
		return err
	}
	if !os.SameFile(fi, j.ident) || fi.Size() != j.size {
		return errJournalMoved
	}
	return nil
}

func (s *Service) sessionsDir() string {
	return filepath.Join(s.cfg.StateDir, "sessions")
}

func (s *Service) journalPath(id string) string {
	return filepath.Join(s.sessionsDir(), id+journalExt)
}

// durable reports whether the service journals sessions.
func (s *Service) durable() bool { return s.cfg.StateDir != "" }

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// appendRecord writes one record and fsyncs it: an acked mutation
// survives a power cut, not only a process crash.
func (j *sessionJournal) appendRecord(rec journalRecord) error {
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	n, err := j.file.Write(line)
	j.size += int64(n)
	if err != nil {
		return err
	}
	j.s.journalRecords.Add(1)
	if err := j.file.Sync(); err != nil {
		return err
	}
	j.s.journalFsyncs.Add(1)
	return nil
}

// createJournal starts a fresh journal whose first record is snap. It is
// the only code that creates <id>.journal, and it never overwrites one:
// when the file exists (acked state this process has not loaded, or a
// peer's session on a shared StateDir) the open fails with an error
// matching fs.ErrExist. Creation fsyncs like every record: acking a
// session create that a power cut could erase would be lying.
func (s *Service) createJournal(snap *SessionSnapshot) (*sessionJournal, error) {
	path := s.journalPath(snap.ID)
	f, err := s.cfg.FS.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	j := &sessionJournal{s: s, path: path, file: f}
	line, err := encodeRecord(journalRecord{T: "snapshot", Snap: snap})
	if err == nil {
		_, err = f.Write(line)
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = j.track()
	}
	if err != nil {
		f.Close()
		s.cfg.FS.Remove(path) // best effort; a torn create replays to nothing
		return nil, err
	}
	s.journalRecords.Add(1)
	s.journalFsyncs.Add(1)
	return j, nil
}

// appendMutation journals one accepted mutation and the digest acked
// for it.
func (j *sessionJournal) appendMutation(mut MutationSpec, digest string) error {
	if err := j.appendRecord(journalRecord{T: "mutate", Mut: &mut, Digest: digest}); err != nil {
		return err
	}
	j.mutsSince++
	return nil
}

// compact rewrites the journal as the single snapshot record snap:
// write temp, fsync, rename over, reopen for append. A failure before
// the rename keeps the old journal byte-for-byte (compaction is an
// optimization and reports a soft error); a failure reopening after
// the rename is fatal for the journal — the caller must drop the
// session rather than mutate it unjournaled.
func (j *sessionJournal) compact(snap *SessionSnapshot) (fatal bool, err error) {
	s := j.s
	tmp := j.path + ".tmp"
	f, err := s.cfg.FS.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return false, err
	}
	line, err := encodeRecord(journalRecord{T: "snapshot", Snap: snap})
	if err == nil {
		_, err = f.Write(line)
	}
	if err == nil {
		err = f.Sync() // the rename must expose complete bytes
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.cfg.FS.Remove(tmp)
		return false, err
	}
	if err := s.cfg.FS.Rename(tmp, j.path); err != nil {
		s.cfg.FS.Remove(tmp)
		return false, err
	}
	// The old handle now points at an unlinked inode; swap to the new file.
	j.file.Close()
	nf, err := s.cfg.FS.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return true, err
	}
	j.file = nf
	if err := j.track(); err != nil {
		return true, err
	}
	j.mutsSince = 0
	s.journalRecords.Add(1)
	s.journalFsyncs.Add(1)
	s.journalCompactions.Add(1)
	return false, nil
}

// close fsyncs (the drain flush) and closes.
func (j *sessionJournal) close() error {
	err := j.file.Sync()
	if err == nil {
		j.s.journalFsyncs.Add(1)
	}
	if cerr := j.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// discard closes the handle and removes the file — used when a freshly
// created journal's session fails to register.
func (j *sessionJournal) discard() {
	j.file.Close()
	j.s.cfg.FS.Remove(j.path)
}

// recoverOne restores a single journal: replay, rebuild, verify each
// acked digest, then re-compact so the on-disk file is normalized (and
// any tolerated torn tail is erased). Returns (nil, nil) for a journal
// holding no acked state.
func (s *Service) recoverOne(id, path string) (*sessionHandle, error) {
	data, err := s.cfg.FS.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rj, err := ReplayJournal(data)
	if err != nil {
		return nil, err
	}
	if rj.Snap == nil {
		return nil, nil
	}
	if rj.Snap.ID != id {
		return nil, fmt.Errorf("%w: journal %s holds session %q", ErrSnapshotCorrupt, id, rj.Snap.ID)
	}
	h, err := s.restoreHandle(rj.Snap)
	if err != nil {
		return nil, err
	}
	for i, mut := range rj.Muts {
		if err := h.apply(mut); err != nil {
			return nil, fmt.Errorf("%w: replaying mutation %d (%s): %v", ErrSnapshotCorrupt, i, mut.Op, err)
		}
		h.digest = InstanceDigest(h.spec)
		h.seq++ // each replayed mutation was acked once, at this sequence
		if rj.Digests[i] != "" && rj.Digests[i] != h.digest {
			return nil, fmt.Errorf("%w: mutation %d replayed to digest %s, journal acked %s",
				ErrSnapshotCorrupt, i, h.digest, rj.Digests[i])
		}
	}
	// Normalize on disk: fold the replayed state into a fresh
	// single-record journal.
	j := &sessionJournal{s: s, path: path}
	if nf, ferr := s.cfg.FS.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644); ferr == nil {
		j.file = nf
	} else {
		return nil, ferr
	}
	j.mutsSince = len(rj.Muts)
	if fatal, cerr := j.compact(h.snapshotLocked(id)); cerr != nil {
		if fatal || rj.Truncated {
			// Appending after a torn tail would corrupt the next record;
			// without a rewritable journal the session cannot be served
			// durably. Drop cleanly.
			j.file.Close()
			return nil, fmt.Errorf("rewriting journal: %w", cerr)
		}
		// Old journal is intact and appendable; keep it and move on.
		if terr := j.track(); terr != nil {
			j.file.Close()
			return nil, fmt.Errorf("rewriting journal: %v; reading it back: %w", cerr, terr)
		}
		s.logf("powersched: session %s: restore compaction failed (%v); keeping journal", id, cerr)
	}
	h.journal = j
	return h, nil
}

// flushJournals folds every live session into a compacted snapshot —
// the next first touch then replays no mutation records — and closes
// the journals. Called on the drain path of Close. A handle whose
// journal another handle has rewritten is retired without writing:
// flushing its older state would roll the session back.
func (s *Service) flushJournals() {
	s.sessMu.Lock()
	handles := make(map[string]*sessionHandle, len(s.sessions))
	for id, h := range s.sessions {
		handles[id] = h
	}
	s.sessMu.Unlock()
	for id, h := range handles {
		h.mu.Lock()
		if h.journal != nil {
			if err := h.journal.current(); err != nil {
				s.logf("powersched: session %s: drain flush skipped: %v", id, err)
				s.retireLocked(id, h)
				h.mu.Unlock()
				continue
			}
			if _, err := h.journal.compact(h.snapshotLocked(id)); err != nil {
				s.logf("powersched: session %s: drain flush: %v", id, err)
			}
			if err := h.journal.close(); err != nil {
				s.logf("powersched: session %s: drain close: %v", id, err)
			}
			h.journal = nil
		}
		h.mu.Unlock()
	}
}
