package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hypermm"
	"hypermm/internal/obs"
)

// BenchmarkServe_HTTP_P64 measures steady-state serving throughput over
// the full HTTP path (JSON decode, plan, seeded operands, simulated run,
// JSON encode) at the paper's p=64 machine size with a small operand,
// so per-request emulator setup — building a 64-node machine and
// spawning its goroutines — not arithmetic, dominates. make bench
// persists it in BENCH_serving.json.
func BenchmarkServe_HTTP_P64(b *testing.B) {
	srv, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			b.Error(err)
		}
	}()

	client := ts.Client()
	post := func() {
		resp, err := client.Post(ts.URL+"/v1/matmul", "application/json",
			strings.NewReader(`{"n": 16, "p": 64}`))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post() // prime the plan cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// benchSched measures the same steady state below the HTTP layer:
// planner + scheduler + simulated run, so machine setup is not diluted
// by TCP round-trips. A non-nil tracer adds the sched.queue and
// sched.run spans plus ring recording to every job — the
// Traced/Untraced pair pins that overhead under 5%.
func benchSched(b *testing.B, tracer *obs.Tracer) {
	m := NewMetrics()
	s := NewScheduler(1, 4, m)
	s.tracer = tracer
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			b.Error(err)
		}
	}()

	pl := NewPlanner(8)
	plan, err := pl.Plan(PlanRequest{N: 16, P: 64, Ts: 150, Tw: 3, Tc: 0.5, Ports: hypermm.OnePort})
	if err != nil {
		b.Fatal(err)
	}
	job := Job{
		Plan: plan,
		Cfg:  hypermm.Config{P: 64, Ports: hypermm.OnePort, Ts: 150, Tw: 3, Tc: 0.5},
		A:    hypermm.RandomMatrix(16, 16, 1),
		B:    hypermm.RandomMatrix(16, 16, 2),
	}
	if _, err := s.Submit(context.Background(), job); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

func BenchmarkServe_Sched_P64(b *testing.B) { benchSched(b, nil) }

// The observability overhead pair: identical scheduling, with and
// without span recording. Every traced job opens two spans whose trace
// rotates through a 256-trace ring, the worst realistic case.
func BenchmarkServe_SchedTraced_P64(b *testing.B) {
	benchSched(b, obs.NewTracer("bench", 256))
}
func BenchmarkServe_SchedUntraced_P64(b *testing.B) { benchSched(b, nil) }
