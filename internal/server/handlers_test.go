package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hypermm"
)

// mustNew builds a Server or fails the test (New only errors on a bad
// calibration profile).
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func postMatmul(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/matmul", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestMatmulAutoMatchesBestAlgorithmAndReference(t *testing.T) {
	srv := mustNew(t, Config{Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, c := range []struct{ n, p int }{{16, 8}, {32, 8}, {64, 64}} {
		body := fmt.Sprintf(`{"n": %d, "p": %d, "algorithm": "auto", "seed": 7, "verify": true, "return_matrix": true}`, c.n, c.p)
		resp, data := postMatmul(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d p=%d: status %d: %s", c.n, c.p, resp.StatusCode, data)
		}
		var mr MatmulResponse
		if err := json.Unmarshal(data, &mr); err != nil {
			t.Fatal(err)
		}
		want, ok := hypermm.BestAlgorithm(float64(c.n), float64(c.p), 150, 3, hypermm.OnePort)
		if !ok {
			t.Fatalf("n=%d p=%d: no best algorithm", c.n, c.p)
		}
		if mr.Algorithm != want.Name() || !mr.Auto {
			t.Errorf("n=%d p=%d: served %s, BestAlgorithm says %s", c.n, c.p, mr.Algorithm, want.Name())
		}
		if mr.Verified == nil || !*mr.Verified {
			t.Errorf("n=%d p=%d: not verified", c.n, c.p)
		}
		// Differential check: the returned matrix must equal the local
		// reference product of the same seeded operands.
		A := hypermm.RandomMatrix(c.n, c.n, 7)
		B := hypermm.RandomMatrix(c.n, c.n, 8)
		ref := hypermm.MatMul(A, B)
		got := &hypermm.Matrix{Rows: c.n, Cols: c.n, Data: mr.C}
		if len(mr.C) != c.n*c.n {
			t.Fatalf("n=%d p=%d: returned matrix has %d values", c.n, c.p, len(mr.C))
		}
		if d := hypermm.MaxAbsDiff(got, ref); d > 1e-8*float64(c.n) {
			t.Errorf("n=%d p=%d: served product differs from reference by %g", c.n, c.p, d)
		}
		if mr.Ratio <= 0.5 || mr.Ratio >= 2 {
			t.Errorf("n=%d p=%d: sim/predicted ratio %g out of sane range", c.n, c.p, mr.Ratio)
		}
	}
}

// TestMatmulAutoRunsRunnableAlgorithm: where the continuous Table-2
// winner has no grid embedding at the request's integer shape, auto
// must serve the fastest-predicted candidate that does, and answer 422
// only when no candidate can run.
func TestMatmulAutoRunsRunnableAlgorithm(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, c := range []struct{ n, p int }{{40, 64}, {20, 4}} {
		best, ok := hypermm.BestAlgorithm(float64(c.n), float64(c.p), 150, 3, hypermm.OnePort)
		if !ok || hypermm.Runnable(best, c.n, c.p) {
			t.Fatalf("n=%d p=%d: Table-2 winner %v runnable (%v); the shape no longer exercises the fallback", c.n, c.p, best, ok)
		}
		body := fmt.Sprintf(`{"n": %d, "p": %d, "seed": 3, "verify": true, "return_matrix": true}`, c.n, c.p)
		resp, data := postMatmul(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d p=%d: status %d: %s", c.n, c.p, resp.StatusCode, data)
		}
		var mr MatmulResponse
		if err := json.Unmarshal(data, &mr); err != nil {
			t.Fatal(err)
		}
		alg, err := hypermm.ParseAlgorithm(mr.Algorithm)
		if err != nil || !mr.Auto || !hypermm.Runnable(alg, c.n, c.p) {
			t.Errorf("n=%d p=%d: served %q (auto=%v), want a runnable auto choice", c.n, c.p, mr.Algorithm, mr.Auto)
		}
		if mr.Verified == nil || !*mr.Verified {
			t.Errorf("n=%d p=%d: not verified", c.n, c.p)
		}
		ref := hypermm.MatMul(hypermm.RandomMatrix(c.n, c.n, 3), hypermm.RandomMatrix(c.n, c.n, 4))
		if len(mr.C) != c.n*c.n {
			t.Fatalf("n=%d p=%d: returned matrix has %d values", c.n, c.p, len(mr.C))
		}
		if d := hypermm.MaxAbsDiff(&hypermm.Matrix{Rows: c.n, Cols: c.n, Data: mr.C}, ref); d > 1e-8*float64(c.n) {
			t.Errorf("n=%d p=%d: served product differs from reference by %g", c.n, c.p, d)
		}
	}

	// n=10 at p=64: Table-2 applicable, but no candidate's grid divides n.
	resp, data := postMatmul(t, ts, `{"n": 10, "p": 64}`)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(data), "runnable") {
		t.Errorf("unrunnable shape: status %d: %s", resp.StatusCode, data)
	}
}

func TestMatmulExplicitAlgorithmAndTrace(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postMatmul(t, ts, `{"n": 16, "p": 16, "algorithm": "cannon", "verify": true, "trace": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var mr MatmulResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Algorithm != "cannon" || mr.Auto {
		t.Errorf("served %s auto=%v", mr.Algorithm, mr.Auto)
	}
	if !strings.Contains(mr.Gantt, "timeline") || mr.TraceSum == "" {
		t.Error("trace requested but gantt/summary missing")
	}
}

func TestMatmulValidationAndErrorMapping(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2, MaxN: 64, MaxP: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},                                                                    // broken JSON
		{`{"n": 0, "p": 8}`, http.StatusBadRequest},                                                     // n out of range
		{`{"n": 16, "p": 128}`, http.StatusBadRequest},                                                  // p over MaxP
		{`{"n": 16, "p": 8, "ports": "zero"}`, http.StatusBadRequest},                                   // bad port model
		{`{"n": 16, "p": 8, "algorithm": "nope"}`, http.StatusBadRequest},                               // bad algorithm
		{`{"n": 2, "p": 16, "algorithm": "auto"}`, 422},                                                 // nothing applicable (p > n^3)
		{`{"n": 8, "p": 64, "algorithm": "berntsen"}`, 422},                                             // p > n^1.5
		{`{"n": 16, "p": 8, "a": [1, 2], "b": [3]}`, http.StatusBadRequest},                             // short operands
		{`{"n": 16, "p": 8, "deadline": 10}`, http.StatusGatewayTimeout},                                // simulated deadline
		{`{"n": 16, "p": 8, "fault": {"seed": 1, "drop": 1, "max_retries": 2}}`, http.StatusBadGateway}, // link down
	}
	for _, c := range cases {
		resp, data := postMatmul(t, ts, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("body %s: status %d, want %d (%s)", c.body, resp.StatusCode, c.want, data)
		}
	}

	// GET on a POST-only route.
	resp, err := http.Get(ts.URL + "/v1/matmul")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/matmul: status %d", resp.StatusCode)
	}
}

// TestMatmulBodyCap: the body is bounded before decoding at what two
// inline MaxN x MaxN operands can need, so a body at n = MaxN written
// with the widest float64 text still runs, and a longer one gets 413.
func TestMatmulBodyCap(t *testing.T) {
	const maxN = 64
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2, MaxN: maxN})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	operand := strings.TrimSuffix(strings.Repeat("-1.2345678901234567e-30,", maxN*maxN), ",")
	full := fmt.Sprintf(`{"n": %d, "p": 4, "verify": true, "a": [%s], "b": [%s]}`, maxN, operand, operand)
	resp, data := postMatmul(t, ts, full)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d-byte body at n=MaxN: status %d: %.200s", len(full), resp.StatusCode, data)
	}

	limit := srv.cfg.maxBody()
	huge := fmt.Sprintf(`{"n": 8, "p": 4, "pad": "%s"}`, strings.Repeat(" ", int(limit)))
	resp, data = postMatmul(t, ts, huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body over the %d-byte cap: status %d: %s", len(huge), limit, resp.StatusCode, data)
	}
}

func TestMatmulFaultInjectionRecovers(t *testing.T) {
	// A light drop rate with the default retry budget: the protocol
	// recovers, the result still matches the reference.
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postMatmul(t, ts,
		`{"n": 16, "p": 8, "verify": true, "fault": {"seed": 42, "drop": 0.05}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var mr MatmulResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Simulated.Retries == 0 {
		t.Error("drop=0.05 run recorded no retries")
	}
	if mr.Verified == nil || !*mr.Verified {
		t.Error("faulted run not verified")
	}
}

func TestPlanEndpoint(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/plan?n=256&p=64")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var plan Plan
	if err := json.Unmarshal(data, &plan); err != nil {
		t.Fatal(err)
	}
	want, _ := hypermm.BestAlgorithm(256, 64, 150, 3, hypermm.OnePort)
	if plan.AlgorithmName != want.Name() {
		t.Errorf("plan chose %s, want %s", plan.AlgorithmName, want.Name())
	}
	if len(plan.Candidates) == 0 {
		t.Error("plan endpoint returned no diagnostics")
	}

	// Auto machine size: p omitted.
	resp, err = http.Get(ts.URL + "/v1/plan?n=256&tc=0.5")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto-p status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.P < 2 {
		t.Errorf("auto-p plan chose p=%g", plan.P)
	}

	// Bad input.
	resp, err = http.Get(ts.URL + "/v1/plan?n=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n: status %d", resp.StatusCode)
	}
}

func TestRegionMapEndpoint(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/regionmap?nsteps=21&psteps=11")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := string(data)
	// The one-port Figure 13 map always contains Cannon and 3D All
	// regions (letters from cost.Alg.Letter).
	if len(body) == 0 || !strings.Contains(body, "log") {
		t.Errorf("suspicious region map:\n%s", body)
	}

	resp, err = http.Get(ts.URL + "/v1/regionmap?nsteps=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("nsteps=1: status %d", resp.StatusCode)
	}
}

func TestMetricsEndpointAndAdmissionControl(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	entered := make(chan struct{}, 4)
	srv.sched.onExec = func() {
		entered <- struct{}{}
		<-hold
	}

	status := make(chan int, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/matmul", "application/json",
			strings.NewReader(`{"n": 16, "p": 8}`))
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}
	go post()
	<-entered // worker holds request 1
	go post()
	waitFor(t, func() bool { return srv.metrics.QueueDepth() == 1 }) // request 2 queued

	// Saturated: the third request must be rejected with 429.
	resp, data := postMatmul(t, ts, `{"n": 16, "p": 8}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429 (%s)", resp.StatusCode, data)
	}

	release()
	if s1, s2 := <-status, <-status; s1 != 200 || s2 != 200 {
		t.Fatalf("held requests finished with %d, %d", s1, s2)
	}

	// The scrape must expose queue depth, per-algorithm jobs, rejects
	// and the sim-vs-predicted ratio.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mresp.StatusCode)
	}
	out := string(mdata)
	for _, want := range []string{
		"hmmd_queue_depth 0",
		`hmmd_jobs_total{algorithm="3dall"} 2`,
		"hmmd_rejects_total 1",
		"hmmd_sim_predicted_ratio_count 2",
		"hmmd_job_latency_seconds_count 2",
		"hmmd_plan_cache_hits_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q\n%s", want, out)
		}
	}
}

func TestHealthzAndDrain(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if s := get("/healthz"); s != http.StatusOK {
		t.Fatalf("/healthz = %d", s)
	}

	// Hold one job in flight, then begin the drain: the in-flight job
	// must complete with 200 while new work is refused with 503.
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	entered := make(chan struct{}, 1)
	srv.sched.onExec = func() {
		entered <- struct{}{}
		<-hold
	}
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/matmul", "application/json",
			strings.NewReader(`{"n": 16, "p": 8, "verify": true}`))
		if err != nil {
			inflight <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-entered

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	waitFor(t, srv.sched.Draining)

	if s := get("/healthz"); s != http.StatusServiceUnavailable {
		t.Errorf("/healthz while draining = %d, want 503", s)
	}
	resp, data := postMatmul(t, ts, `{"n": 16, "p": 8}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("matmul while draining = %d, want 503 (%s)", resp.StatusCode, data)
	}

	release()
	if s := <-inflight; s != http.StatusOK {
		t.Errorf("in-flight job across drain finished with %d, want 200", s)
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestMatmulInlineOperands(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// 2x2 identity times a chosen B: C must equal B exactly.
	var buf bytes.Buffer
	req := MatmulRequest{
		N: 2, P: 4, Algorithm: "cannon",
		A: []float64{1, 0, 0, 1}, B: []float64{5, 6, 7, 8},
		ReturnC: true,
	}
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	resp, data := postMatmul(t, ts, buf.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var mr MatmulResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 6, 7, 8}
	for i, v := range mr.C {
		if v != want[i] {
			t.Fatalf("C = %v, want %v", mr.C, want)
		}
	}
}
