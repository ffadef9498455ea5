package service

// Serving-layer rungs of the benchmark ladder (scripts/bench_snapshot.sh):
// the service's Do on a cache miss and on a hit, the HTTP handler on a
// stored-reply hit and on a digest hit, and one fsynced journal append.

import (
	"context"
	"net/http"
	"testing"
)

// BenchmarkServiceDo times Service.Do on one worker. miss cycles more
// distinct instances than the result cache holds, so every call misses,
// queues, builds its model, solves and puts; hit repeats one cached
// request.
func BenchmarkServiceDo(b *testing.B) {
	ctx := context.Background()
	b.Run("miss", func(b *testing.B) {
		svc := New(Config{Workers: 1})
		defer svc.Close(ctx)
		reqs := make([]Request, cacheEntries+64)
		for i := range reqs {
			req, err := BuildRequest(testSpec(2, 16, 10,
				CostSpec{Model: "affine", Alpha: float64(2 + i), Rate: 1}))
			if err != nil {
				b.Fatal(err)
			}
			reqs[i] = req
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := svc.Do(ctx, reqs[i%len(reqs)]); res.Err != nil || res.CacheHit {
				b.Fatalf("op %d: err=%v cache_hit=%v", i, res.Err, res.CacheHit)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		svc := New(Config{Workers: 1})
		defer svc.Close(ctx)
		req, err := BuildRequest(testSpecs()[0])
		if err != nil {
			b.Fatal(err)
		}
		if res := svc.Do(ctx, req); res.Err != nil {
			b.Fatal(res.Err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := svc.Do(ctx, req); res.Err != nil || !res.CacheHit {
				b.Fatalf("op %d: err=%v cache_hit=%v", i, res.Err, res.CacheHit)
			}
		}
	})
}

// BenchmarkHTTPHandler times one POST /v1/schedule result-cache hit
// through the handler in process (httptest.NewRecorder, no socket).
// hit repeats a byte-identical body, answered from the entry's stored
// reply: body read and hash, the lookup, one write. digest-hit
// alternates two re-indented bodies of one instance; each fill replaces
// the other's stored reply, so every call pays body decode, request
// build and digest, the cache hit and the response encode.
func BenchmarkHTTPHandler(b *testing.B) {
	run := func(b *testing.B, bodies ...string) {
		svc := New(Config{Workers: 1})
		defer svc.Close(context.Background())
		h := NewHTTPHandler(svc)
		for _, body := range append(bodies, bodies...) {
			if code := serveRecorded(h, body).Code; code != http.StatusOK {
				b.Fatalf("status %d", code)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := serveRecorded(h, bodies[i%len(bodies)]).Code; code != http.StatusOK {
				b.Fatalf("op %d: status %d", i, code)
			}
		}
	}
	b.Run("hit", func(b *testing.B) { run(b, scheduleBody) })
	b.Run("digest-hit", func(b *testing.B) {
		run(b, reindent(b, scheduleBody, ""), reindent(b, scheduleBody, "\t"))
	})
}

// BenchmarkJournalAppend times one session-journal mutate record:
// encode, write and fsync.
func BenchmarkJournalAppend(b *testing.B) {
	svc, err := Open(durableConfig(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close(context.Background())
	id, _, err := svc.CreateSession(sessionSpec())
	if err != nil {
		b.Fatal(err)
	}
	h, err := svc.lockSession(id)
	if err != nil {
		b.Fatal(err)
	}
	defer h.mu.Unlock()
	mut := MutationSpec{Op: "add_job", Job: ptr(extraJob())}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.journal.appendMutation(mut, h.digest); err != nil {
			b.Fatal(err)
		}
	}
}
