package cluster

// This file is the router's topology surface: session-ownership
// bookkeeping across ring resizes, and the explicit migration that
// moves a session between backends sharing one StateDir.
//
// A migration is release → read → verify: the donor releases the
// session (compacting and closing its journal, leaving the file as the
// portable identity on disk), a GET on the new owner restores it from
// snapshot plus journal tail, and the recovered digest and sequence
// must equal the ones the donor last acked. The new owner never serves
// a stale in-memory copy: every touch first checks that the journal on
// disk is still the file its handle last wrote, and reloads it if not.
// A dead donor skips the release — the journal on shared storage is
// already authoritative, which is exactly why failover needs no donor
// cooperation. The ring's structural theorem
// (ring.go: Rebalance moves at most ⌈K/N⌉ sessions) bounds how much of
// this work a resize can create.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/service"
)

// ringInfo snapshots the ring topology and session placement for
// GET /admin/ring.
func (r *Router) ringInfo() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	counts := make(map[string]int, len(r.backends))
	for _, owner := range r.sessions {
		counts[owner]++
	}
	return map[string]any{
		"backends":             r.ring.Backends(),
		"sessions":             len(r.sessions),
		"sessions_per_backend": counts,
	}
}

// resizeRequest is the POST /admin/ring body.
type resizeRequest struct {
	Backends []string `json:"backends"`
}

// resizeResponse summarizes a resize: how many sessions stayed put, how
// many migrated, and which migrations failed (those sessions keep their
// old owner recorded and fail over on next touch).
type resizeResponse struct {
	Backends []string `json:"backends"`
	Retained int      `json:"retained"`
	Migrated int      `json:"migrated"`
	Failed   []string `json:"failed,omitempty"`
}

// handleResize implements POST /admin/ring: replace the backend set,
// rebalance session ownership under the movement bound, and migrate
// each moved session with the release → read → verify protocol.
func (r *Router) handleResize(w http.ResponseWriter, ctx context.Context, body []byte,
	writeJSON func(http.ResponseWriter, int, any)) {
	var req resizeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "decoding request: " + err.Error()})
		return
	}
	newRing, err := NewRing(req.Backends)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}

	// One resize at a time: interleaved migrations of the same session
	// would race one release against another's read.
	r.resizeMu.Lock()
	defer r.resizeMu.Unlock()

	// Swap the ring first. From here on, new traffic routes against the
	// new topology; sessions still recorded on a removed backend fall
	// back to their ring sequence until their migration lands.
	r.mu.Lock()
	oldAssign := make(map[string]string, len(r.sessions))
	for id, owner := range r.sessions {
		oldAssign[id] = owner
	}
	ids := make([]string, 0, len(oldAssign))
	for id := range oldAssign {
		ids = append(ids, id)
	}
	newAssign := newRing.Rebalance(oldAssign, ids)
	r.ring = newRing
	for _, name := range newRing.Backends() {
		if _, ok := r.backends[name]; !ok {
			r.backends[name] = newBackendState(name)
		}
	}
	for name := range r.backends {
		if !newRing.Contains(name) {
			delete(r.backends, name)
		}
	}
	r.mu.Unlock()

	resp := resizeResponse{Backends: newRing.Backends()}
	moved := make([]string, 0, len(ids))
	for _, id := range ids {
		if newAssign[id] == oldAssign[id] {
			resp.Retained++
			continue
		}
		moved = append(moved, id)
	}
	sort.Strings(moved) // deterministic migration order for logs and tests
	for _, id := range moved {
		from, to := oldAssign[id], newAssign[id]
		if err := r.migrateSession(ctx, id, from, to); err != nil {
			r.cfg.Logf("powersched-route: migrating %s %s→%s: %v", id, from, to, err)
			resp.Failed = append(resp.Failed, fmt.Sprintf("%s: %v", id, err))
			// Keep the old owner recorded; the next request for this id
			// fails over along the new ring sequence, which lands on the
			// rehashed owner (the failover == resize equivalence).
			continue
		}
		r.recordOwner(id, to)
		r.migrations.Add(1)
		resp.Migrated++
		r.cfg.Logf("powersched-route: migrated %s %s→%s", id, from, to)
	}
	writeJSON(w, http.StatusOK, resp)
}

// sessionInfoAt reads one session's info from one specific backend.
func (r *Router) sessionInfoAt(ctx context.Context, backend, id string) (service.SessionInfo, error) {
	var info service.SessionInfo
	res, err := r.attempt(ctx, backend, http.MethodGet, "/v1/session/"+id, nil)
	if err != nil {
		return info, err
	}
	if res.status != http.StatusOK {
		return info, fmt.Errorf("%w: backend %s answered %d: %s", ErrBackendUnavailable, backend, res.status, res.body)
	}
	if err := json.Unmarshal(res.body, &info); err != nil {
		return info, fmt.Errorf("decoding session info from %s: %w", backend, err)
	}
	return info, nil
}

// migrateSession moves one session from one backend to another over the
// shared StateDir: capture the donor's acked digest and sequence,
// release, read the session on the new owner, and verify. A donor that
// cannot be reached is skipped — the journal is the session's identity,
// and the new owner restores from it regardless.
func (r *Router) migrateSession(ctx context.Context, id, from, to string) error {
	var ref service.SessionInfo
	haveRef := false
	if from != "" && from != to {
		if info, err := r.sessionInfoAt(ctx, from, id); err == nil {
			ref, haveRef = info, true
			res, rerr := r.attempt(ctx, from, http.MethodPost, "/v1/session/"+id+"/release", nil)
			if rerr != nil {
				r.cfg.Logf("powersched-route: release of %s on %s failed (%v); the new owner re-reads the journal", id, from, rerr)
			} else if res.status != http.StatusOK && res.status != http.StatusNotFound {
				return fmt.Errorf("%w: release on %s answered %d: %s", ErrBackendUnavailable, from, res.status, res.body)
			}
		} else {
			r.cfg.Logf("powersched-route: donor %s unreachable for %s (%v); migrating from the journal alone", from, id, err)
		}
	}
	var got service.SessionInfo
	var err error
	for tries := 0; tries < 2; tries++ {
		if tries > 0 {
			if berr := r.backoff(ctx, tries); berr != nil {
				return fmt.Errorf("%w: %v (last: %v)", ErrBackendUnavailable, berr, err)
			}
		}
		if got, err = r.sessionInfoAt(ctx, to, id); err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("%w: reading %s on %s: %v", ErrBackendUnavailable, id, to, err)
	}
	if haveRef && (got.Digest != ref.Digest || got.Seq != ref.Seq) {
		return fmt.Errorf("%w: donor %s acked %s@%d, new owner %s recovered %s@%d",
			ErrMigrationCorrupt, from, ref.Digest, ref.Seq, to, got.Digest, got.Seq)
	}
	return nil
}
