package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// TestNoGoroutineLeakAfterDrain serves a few jobs — plain, traced and
// faulted — and drains: afterwards the scheduler's workers have exited,
// and no simulated machine owns a goroutine once its run has returned,
// so the process is back to the goroutines it had before New.
func TestNoGoroutineLeakAfterDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := mustNew(t, Config{Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	for _, c := range []struct {
		body string
		want int
	}{
		{`{"n": 16, "p": 64}`, http.StatusOK},
		{`{"n": 16, "p": 16, "algorithm": "cannon", "trace": true}`, http.StatusOK},
		{`{"n": 16, "p": 16, "algorithm": "cannon", "fault": {"seed": 1, "down": [[-1, -1, 0, 1e300]], "max_retries": 1}}`, http.StatusBadGateway},
		{`{"n": 32, "p": 64, "ports": "multi", "verify": true}`, http.StatusOK},
	} {
		if resp, data := postMatmul(t, ts, c.body); resp.StatusCode != c.want {
			t.Fatalf("%s: status %d, want %d: %s", c.body, resp.StatusCode, c.want, data)
		}
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after Drain, want at most %d:\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
