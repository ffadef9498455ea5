package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkRouterHop times one stateless POST /v1/schedule through the
// router's handler (httptest.NewRecorder, no front socket) to a single
// real backend over loopback HTTP. The backend answers from its result
// cache after the first call, so the figure is the hop itself: ring
// lookup, proxying the body, and relaying the reply.
func BenchmarkRouterHop(b *testing.B) {
	c := newTestCluster(b, 1, nil)
	body, err := json.Marshal(clusterSpec())
	if err != nil {
		b.Fatal(err)
	}
	h := c.r.Handler()
	hop := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		return rec.Code
	}
	if code := hop(); code != http.StatusOK {
		b.Fatalf("status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := hop(); code != http.StatusOK {
			b.Fatalf("op %d: status %d", i, code)
		}
	}
}
