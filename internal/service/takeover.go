package service

// This file is how a session comes back from disk, and the
// cross-process handoff surface the cluster router drives. Backends in a
// cluster share one StateDir; a session's journal is its portable
// identity. Three operations move ownership:
//
//   - open-by-id: a session miss on a durable service falls through to
//     the StateDir before answering ErrNoSession. It is the only restore
//     path: a restarted process loads each session on its first touch,
//     and the rehashed owner of an ejected backend's session serves it
//     by replaying the snapshot + journal tail the dead process left
//     behind.
//   - takeover: an explicit "re-read from disk" that discards any
//     in-memory copy first — the router issues it when ownership moves
//     while both processes are alive (ring resize migration), so the
//     new owner never serves a stale in-memory image.
//   - release: the donor half of migration — drop the in-memory handle
//     and close the journal, leaving the file for the next owner.
//
// Ownership discipline is the router's job: it routes each session id
// to exactly one backend at a time (release before takeover on resize),
// so two processes never append to one journal concurrently. The
// journal checksums turn a violation of that discipline into a detected
// corruption, not a silently wrong answer.

import (
	"errors"
	"fmt"
	"io/fs"
)

// openByID restores one session from the StateDir on demand. Per
// journal the outcome is binary: the session is restored to its last
// acked state (torn tail records dropped), or the journal is dropped
// cleanly — quarantined as <id>.journal.corrupt with a logged error and
// counted in journals_dropped_corrupt — and the caller gets
// ErrNoSession. A dropped journal is never half-restored. openMu
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
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
		}
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

// TakeoverSession forces a session to be re-read from the shared
// StateDir, discarding any in-memory copy first (its journal handle is
// closed, the file kept). The restored state is the last acked one: the
// snapshot plus every journaled mutation the previous owner recorded.
// Returns the recovered digest and mutation sequence — the values the
// router verifies migration against.
func (s *Service) TakeoverSession(id string) (digest string, seq uint64, err error) {
	if err := s.sessionsEnabled(); err != nil {
		return "", 0, err
	}
	if !s.durable() {
		return "", 0, errors.New("service: takeover requires a durable service (StateDir)")
	}
	s.sessMu.Lock()
	h, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.sessMu.Unlock()
	if ok {
		h.mu.Lock()
		if h.journal != nil {
			if cerr := h.journal.close(); cerr != nil {
				s.logf("powersched: session %s: takeover close: %v", id, cerr)
			}
			h.journal = nil
		}
		h.mu.Unlock()
	}
	nh, err := s.openByID(id)
	if err != nil {
		return "", 0, err
	}
	nh.mu.Lock()
	digest, seq = nh.digest, nh.seq
	nh.mu.Unlock()
	return digest, seq, nil
}

// ReleaseSession drops the in-memory handle and closes the journal,
// keeping the file on disk for the next owner — the donor half of a
// ring-resize migration. The final compaction folds the session's
// mutations into one snapshot record, so the taker restores without
// replaying them. On a non-durable
// service releasing is just dropping: there is no file to hand over.
func (s *Service) ReleaseSession(id string) error {
	if err := s.sessionsOpen(); err != nil {
		return err
	}
	s.sessMu.Lock()
	h, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.sessMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	h.mu.Lock()
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
	return nil
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
