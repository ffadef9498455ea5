package service

// This file is the canonical session snapshot codec: a live session
// serializes to a SessionSnapshot — its current InstanceSpec (accepted
// mutations folded in) and the digest that keys its cached results — and
// restores to a session whose next Solve is byte-identical to the live
// one. The snapshot is the journal's record format (journal.go): the
// record a create writes and the one compaction folds a journal back
// to. Sessions move between processes as journals, never as bare
// snapshots.
//
// The codec leans on two proven fixed points: InstanceSpec re-encodes
// canonically (FuzzWireCodec pins decode∘marshal as digest-preserving),
// and a session's solve is byte-identical to a from-scratch ScheduleAll
// (conformance.CheckSession) — so a restore that rebuilds from the spec
// answers exactly as the live session would. Digest verification makes
// that checkable: a snapshot whose spec does not hash to its recorded
// digest is corrupt and must not be restored.
//
// Snapshots written before sessions dropped their warm-start hints also
// carry "hints", "churn" and "solved" fields. encoding/json ignores them,
// the digest covers only Spec, and journal records are checksummed over
// their bytes as written (lineSum), so those snapshots restore unchanged.

import (
	"errors"
	"fmt"
)

// SessionSnapshot is a session's durable state on the wire. Spec is the
// current instance spec with every accepted mutation folded in — the
// same canonical form the digest cache keys on — so restoring never
// depends on replaying history.
type SessionSnapshot struct {
	ID   string       `json:"id"`
	Spec InstanceSpec `json:"spec"`
	// Seq is the count of mutations accepted over the session's whole
	// lifetime, monotone across snapshot/restore and process handoff. A
	// mutate replayed on top of the snapshot advances it by one, so the
	// restored session reports the same sequence the original acked —
	// the number the cluster router's mutation-retry check compares.
	Seq uint64 `json:"seq,omitempty"`
	// Digest must equal InstanceDigest(Spec); restore verifies it so a
	// corrupted snapshot is detected instead of served.
	Digest string `json:"digest"`
}

// ErrSnapshotCorrupt marks snapshots (and journals) whose content fails
// verification; they are never restored.
var ErrSnapshotCorrupt = errors.New("service: snapshot corrupt")

// cloneInstanceSpec copies the mutable parts of a spec (the jobs list
// and the cost chain's blocked lists) so snapshots do not alias live
// session state.
func cloneInstanceSpec(spec InstanceSpec) InstanceSpec {
	spec.Jobs = append([]JobSpec(nil), spec.Jobs...)
	spec.Cost = cloneCostSpec(spec.Cost)
	return spec
}

// snapshotLocked captures the handle's current state; h.mu must be held.
func (h *sessionHandle) snapshotLocked(id string) *SessionSnapshot {
	return &SessionSnapshot{
		ID:     id,
		Spec:   cloneInstanceSpec(h.spec),
		Digest: h.digest,
		Seq:    h.seq,
	}
}

// restoreHandle rebuilds a session handle from a snapshot: digest
// verification and spec rebuild. A digest mismatch is corruption and
// fails.
func (s *Service) restoreHandle(snap *SessionSnapshot) (*sessionHandle, error) {
	if got := InstanceDigest(snap.Spec); snap.Digest != "" && got != snap.Digest {
		return nil, fmt.Errorf("%w: spec digests to %s, snapshot recorded %s", ErrSnapshotCorrupt, got, snap.Digest)
	}
	h, err := s.newHandle(snap.Spec)
	if err != nil {
		return nil, fmt.Errorf("%w: rebuilding instance: %v", ErrSnapshotCorrupt, err)
	}
	h.seq = snap.Seq
	return h, nil
}
