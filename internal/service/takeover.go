package service

// This file is how a session comes back from disk, how a process gives
// one up, and how a handle notices that it has gone stale. Backends in
// a cluster share one StateDir; a session's journal is its portable
// identity.
//
//   - open-by-id: a session miss on a durable service falls through to
//     the StateDir before answering ErrNoSession. It is the only restore
//     path: a restarted process loads each session on its first touch,
//     and the backend the router sends a session to next serves it by
//     replaying the snapshot + journal tail the previous owner left.
//   - release: the donor half of a ring-resize migration — compact and
//     close the journal and retire the handle, leaving the file for the
//     new owner, whose first touch restores it.
//
// Router discipline alone cannot keep a stale copy from answering. The
// router sends each session id to one backend at a time, but a backend
// it routed around may still be alive with the session in memory, and
// the router may route back to it later; a draining backend flushes
// whatever it holds. So a handle does not trust its own copy: each live
// journal remembers the identity and size of the file it last wrote,
// and before a handle serves a touch or appends, compacts, releases or
// flushes, it checks <id>.journal with one Stat (lockLoaded). If another
// handle has rewritten the file since — a restore compacts it under a
// new inode, an append grows it — this handle is retired without
// writing and the request re-resolves the id from disk. A missing file
// answers ErrNoSession, any other Stat failure ErrDurability. A handle
// is marked retired under its own lock before it leaves the registry,
// so a request that was waiting on that lock re-resolves by id instead
// of acting on a handle no one else can reach.
//
// Out of scope: two processes appending to one journal at the same
// time, inside one routing transition. The check runs once per locked
// section, so a peer's write that lands between the Stat and our own
// write is not prevented. Replay's per-record digest check detects a
// mutation applied to a state it was not acked on, but that is
// detection after the fact, not exclusion.

import (
	"errors"
	"fmt"
	"io/fs"
)

// openByID restores one session from the StateDir on demand. The
// session is restored to its last acked state (torn tail records
// dropped), or, if the journal's content fails verification
// (ErrSnapshotCorrupt), the journal is dropped cleanly — quarantined as
// <id>.journal.corrupt with a logged error and counted in
// journals_dropped_corrupt — and the caller gets ErrNoSession. Any
// other failure is the storage's, not the bytes': the caller gets
// ErrDurability and the journal stays where it is for the next touch.
// A journal is never half-restored. openMu
// serializes concurrent opens of the same or different ids — restore
// re-compacts the journal, and two goroutines compacting one file would
// race.
func (s *Service) openByID(id string) (*sessionHandle, error) {
	if err := validSessionID(id); err != nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	s.openMu.Lock()
	defer s.openMu.Unlock()
	// Another request may have completed the open while we waited.
	s.sessMu.Lock()
	if h, ok := s.sessions[id]; ok {
		s.sessMu.Unlock()
		return h, nil
	}
	s.sessMu.Unlock()
	path := s.journalPath(id)
	h, err := s.recoverOne(id, path)
	switch {
	case err == nil:
	case errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
	case !errors.Is(err, ErrSnapshotCorrupt):
		// The storage failed, not the bytes: keep the journal for the
		// next touch.
		s.logf("powersched: session %s: restore: %v", id, err)
		return nil, fmt.Errorf("%w: restoring session %s: %v", ErrDurability, id, err)
	default:
		s.journalsDroppedCorrupt.Add(1)
		s.logf("powersched: dropping session %s: %v", id, err)
		if rerr := s.cfg.FS.Rename(path, path+".corrupt"); rerr != nil {
			s.cfg.FS.Remove(path)
		}
		return nil, fmt.Errorf("%w: %q (journal quarantined: %v)", ErrNoSession, id, err)
	}
	if h == nil {
		// Torn create record: no acked state ever existed.
		s.cfg.FS.Remove(path)
		return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	s.sessMu.Lock()
	s.sessions[id] = h
	s.sessMu.Unlock()
	s.sessionsRestored.Add(1)
	s.bumpSessSeq(id)
	return h, nil
}

// ReleaseSession compacts the session's journal, closes it and retires
// the in-memory handle, keeping the file on disk for the next owner —
// the donor half of a ring-resize migration. The compaction folds the
// session's mutations into one snapshot record, so the new owner
// restores without replaying them. On a non-durable service releasing
// is just dropping: there is no file to hand over.
func (s *Service) ReleaseSession(id string) error {
	if err := s.sessionsOpen(); err != nil {
		return err
	}
	h, err := s.lockLoaded(id)
	if err != nil {
		return err
	}
	if h == nil {
		return fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	defer h.mu.Unlock()
	if h.journal != nil {
		if _, cerr := h.journal.compact(h.snapshotLocked(id)); cerr != nil {
			s.logf("powersched: session %s: release compaction: %v", id, cerr)
		}
		if cerr := h.journal.close(); cerr != nil {
			s.logf("powersched: session %s: release close: %v", id, cerr)
		}
		h.journal = nil
	}
	s.retireLocked(id, h)
	return nil
}

// lockSession resolves id to its live handle and returns it locked and
// verified (lockLoaded). On a durable service a miss falls through to
// the StateDir (openByID): this is how every session comes back from
// disk, after a restart, after a stale handle was retired, or, in a
// cluster, from the journal another backend left behind.
func (s *Service) lockSession(id string) (*sessionHandle, error) {
	for reloads := 0; ; reloads++ {
		h, err := s.lockLoaded(id)
		if h != nil || err != nil {
			return h, err
		}
		if !s.durable() {
			return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
		}
		if reloads == 3 {
			// Each reload was made stale before it could be used.
			return nil, fmt.Errorf("%w: session %s: journal keeps changing under reloads", ErrDurability, id)
		}
		if _, err := s.openByID(id); err != nil {
			return nil, err
		}
	}
}

// lockLoaded returns id's registered handle locked, or nil when none is
// registered. On a durable service it first checks the handle's journal
// (sessionJournal.current); a stale handle is retired on the way and
// reported as not registered.
func (s *Service) lockLoaded(id string) (*sessionHandle, error) {
	for {
		s.sessMu.Lock()
		h := s.sessions[id]
		s.sessMu.Unlock()
		if h == nil {
			return nil, nil
		}
		h.mu.Lock()
		if h.retired {
			// Already out of the registry: look again.
			h.mu.Unlock()
			continue
		}
		if h.journal == nil {
			return h, nil
		}
		err := h.journal.current()
		if err == nil {
			return h, nil
		}
		if !errors.Is(err, errJournalMoved) && !errors.Is(err, fs.ErrNotExist) {
			h.mu.Unlock()
			return nil, fmt.Errorf("%w: session %s: checking journal: %v", ErrDurability, id, err)
		}
		s.logf("powersched: session %s: %v; retiring the in-memory copy", id, err)
		s.retireLocked(id, h)
		h.mu.Unlock()
	}
}

// retireLocked takes h out of service (h.mu held): it is marked retired,
// then leaves the registry, and its journal is closed without a write.
// A request still holding h sees the mark and re-resolves by id.
func (s *Service) retireLocked(id string, h *sessionHandle) {
	h.retired = true
	if h.journal != nil {
		h.journal.file.Close()
		h.journal = nil
	}
	s.sessMu.Lock()
	if s.sessions[id] == h {
		delete(s.sessions, id)
	}
	s.sessMu.Unlock()
}

// bumpSessSeq keeps the id sequence ahead of a live "s%06d" id so
// minting does not hand it out again.
func (s *Service) bumpSessSeq(id string) {
	var seq uint64
	if _, err := fmt.Sscanf(id, "s%d", &seq); err != nil {
		return
	}
	for {
		cur := s.sessSeq.Load()
		if cur >= seq || s.sessSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
}
