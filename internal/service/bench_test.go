package service

// Serving-layer rungs of the benchmark ladder (scripts/bench_snapshot.sh):
// the service's Do on a cache miss and on a hit, the HTTP handler, and one
// fsynced journal append.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
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

// BenchmarkHTTPHandler times one POST /v1/schedule through the handler
// in process (httptest.NewRecorder, no socket): body decode, request
// build and digest, a result-cache hit, and the response encode.
func BenchmarkHTTPHandler(b *testing.B) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	h := NewHTTPHandler(svc)
	serve := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(scheduleBody)))
		return rec.Code
	}
	if code := serve(); code != http.StatusOK {
		b.Fatalf("status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := serve(); code != http.StatusOK {
			b.Fatalf("op %d: status %d", i, code)
		}
	}
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
