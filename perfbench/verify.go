package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"

	"repro/internal/sched"
	"repro/internal/service"
)

// verifier checks served answers: every answer must be a valid schedule
// of every job of the instance that was sent, and a seed-determined
// sample must equal the reference solve decision for decision.
type verifier struct {
	seed       int64
	sampleMod  uint64
	digestOps  int  // answers of ops below this id feed the digest
	digesting  bool // while set, checked answers feed the digest
	refs       map[int]*sched.Schedule
	digest     hash.Hash
	digested   int
	verified   int
	referenced int
}

func newVerifier(seed int64, digestOps int) *verifier {
	return &verifier{seed: seed, sampleMod: 16, digestOps: digestOps, digesting: true,
		refs: map[int]*sched.Schedule{}, digest: sha256.New()}
}

// sampled reports whether op key k is compared against a reference: a
// splitmix64 hash of (seed, k), so the sample moves with the seed.
func (v *verifier) sampled(k int) bool {
	z := uint64(v.seed)*0x9e3779b97f4a7c15 + uint64(k)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z^z>>31)%v.sampleMod == 0
}

// decodeAnswer turns a /v1/schedule or session-solve body into the
// schedule it describes.
func decodeAnswer(body []byte, jobs int) (*sched.Schedule, *service.ScheduleSpec, error) {
	var resp service.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, nil, fmt.Errorf("decoding answer: %w", err)
	}
	if resp.Error != "" || resp.Schedule == nil {
		return nil, nil, fmt.Errorf("answer carries no schedule (error %q)", resp.Error)
	}
	sp := resp.Schedule
	s := &sched.Schedule{Cost: sp.Cost, Value: sp.Value, Scheduled: sp.Scheduled}
	for _, iv := range sp.Intervals {
		s.Intervals = append(s.Intervals, sched.Interval{Proc: iv.Proc, Start: iv.Start, End: iv.End})
	}
	if len(sp.Jobs) != jobs {
		return nil, nil, fmt.Errorf("answer places %d jobs, instance has %d", len(sp.Jobs), jobs)
	}
	s.Assignment = make([]sched.SlotKey, jobs)
	for j, jr := range sp.Jobs {
		if jr.Job != j {
			return nil, nil, fmt.Errorf("answer entry %d is for job %d", j, jr.Job)
		}
		s.Assignment[j] = sched.Unassigned
		if jr.Scheduled {
			s.Assignment[j] = sched.SlotKey{Proc: jr.Proc, Time: jr.Time}
		}
	}
	return s, sp, nil
}

// reference solves o's instance the way the serving path must: through
// service.Solve for stateless ops, and a cold sched.ScheduleAll of the
// session's current instance for session ops.
func reference(o op) (*sched.Schedule, error) {
	req, err := service.BuildRequest(*o.spec)
	if err != nil {
		return nil, err
	}
	if o.session < 0 {
		return service.Solve(req)
	}
	return sched.ScheduleAll(req.Instance, req.Opts)
}

// check verifies one answer to o.
func (v *verifier) check(o op, body []byte) error {
	req, err := service.BuildRequest(*o.spec)
	if err != nil {
		return err
	}
	got, spec, err := decodeAnswer(body, len(req.Instance.Jobs))
	if err != nil {
		return err
	}
	if err := got.Validate(req.Instance); err != nil {
		return fmt.Errorf("op %d: %w", o.id, err)
	}
	if got.Scheduled != len(req.Instance.Jobs) {
		return fmt.Errorf("op %d: %d of %d jobs scheduled", o.id, got.Scheduled, len(req.Instance.Jobs))
	}
	if v.sampled(o.key) {
		ref, ok := v.refs[o.key]
		if !ok {
			if ref, err = reference(o); err != nil {
				return fmt.Errorf("op %d: reference solve: %w", o.id, err)
			}
			v.refs[o.key] = ref
		}
		if err := got.SameAs(ref); err != nil {
			return fmt.Errorf("op %d: differs from reference: %w", o.id, err)
		}
		v.referenced++
	}
	v.verified++
	if v.digesting && o.id < v.digestOps {
		var id [8]byte
		binary.LittleEndian.PutUint64(id[:], uint64(o.id))
		v.digest.Write(id[:])
		v.digest.Write(mustJSON(spec))
		v.digested++
	}
	return nil
}

// answersDigest is the hash over the digested answers in op order; it
// is only comparable between runs that digested the same ops.
func (v *verifier) answersDigest() (string, error) {
	if v.digested != v.digestOps {
		return "", errors.New("not every digest op was verified")
	}
	return hex.EncodeToString(v.digest.Sum(nil))[:16], nil
}
