package server

import (
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

	"hypermm/internal/cluster"
	"hypermm/internal/obs"
)

// getBody GETs a path off the test server and returns status + body.
func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestMatmulCarriesTraceIDAndRecordsSpans pins the request-tracing
// contract on the scheduler-direct path: the response names its trace,
// and /v1/trace/{id}?format=spans resolves that name to the full stage
// decomposition with nested monotonic intervals.
func TestMatmulCarriesTraceIDAndRecordsSpans(t *testing.T) {
	srv := mustNew(t, Config{Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postMatmul(t, ts, `{"n": 16, "p": 16, "algorithm": "cannon"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	id := resp.Header.Get("X-Trace-Id")
	if !obs.ValidTraceID(id) {
		t.Fatalf("X-Trace-Id %q is not a valid trace ID", id)
	}

	code, body := getBody(t, ts, "/v1/trace/"+id+"?format=spans")
	if code != http.StatusOK {
		t.Fatalf("/v1/trace status %d: %s", code, body)
	}
	var td obs.TraceData
	if err := json.Unmarshal(body, &td); err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.SpanData{}
	for _, s := range td.Spans {
		if s.TraceID != id {
			t.Errorf("span %s carries trace %q, want %q", s.Name, s.TraceID, id)
		}
		byName[s.Name] = s
	}
	for _, name := range []string{"http.matmul", "plan", "sched.queue", "sched.run"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing span %q (got %+v)", name, td.Spans)
		}
	}
	root, run := byName["http.matmul"], byName["sched.run"]
	if run.Parent == "" || root.Parent != "" {
		t.Errorf("root/run parentage wrong: root parent %q, run parent %q", root.Parent, run.Parent)
	}
	if !(root.Start <= run.Start && run.Start <= run.End && run.End <= root.End) {
		t.Errorf("run [%d, %d] does not nest in handler [%d, %d]", run.Start, run.End, root.Start, root.End)
	}
	if got := root.Attrs["outcome"]; got != "ok" {
		t.Errorf("root outcome %v, want ok", got)
	}
}

// TestTracedRunMergesSimTimeline pins the merged Chrome export: a
// trace:true request yields a /v1/trace/{id} document holding both the
// server spans and the simulated per-node events, the latter inside
// the run's wall-clock window.
func TestTracedRunMergesSimTimeline(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postMatmul(t, ts, `{"n": 16, "p": 16, "algorithm": "cannon", "trace": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	id := resp.Header.Get("X-Trace-Id")
	code, body := getBody(t, ts, "/v1/trace/"+id)
	if code != http.StatusOK {
		t.Fatalf("/v1/trace status %d: %s", code, body)
	}
	chrome, err := obs.ParseChromeJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	if chrome.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", chrome.DisplayTimeUnit)
	}
	var runStart, runEnd float64
	sims := 0
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" && ev.Name == "sched.run" {
			runStart, runEnd = ev.Ts, ev.Ts+ev.Dur
		}
		if ev.Cat == "sim" {
			sims++
		}
	}
	if sims == 0 {
		t.Fatal("no simulated events merged into the trace")
	}
	for _, ev := range chrome.TraceEvents {
		if ev.Cat != "sim" {
			continue
		}
		const slack = 1e-3 // µs rounding
		if ev.Ts < runStart-slack || ev.Ts+ev.Dur > runEnd+slack {
			t.Fatalf("sim event [%g, %g] outside the run window [%g, %g]",
				ev.Ts, ev.Ts+ev.Dur, runStart, runEnd)
		}
	}
}

// TestStageHistogramRendered pins the hmmd_stage_seconds family: one
// served request populates the pipeline stages and /metrics renders
// them as labeled cumulative-bucket histograms.
func TestStageHistogramRendered(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, data := postMatmul(t, ts, `{"n": 16, "p": 8}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	for _, stage := range []string{"handler", "plan", "admission", "queue", "run", "pool_checkout"} {
		if n := srv.Metrics().StageCount(stage); n < 1 {
			t.Errorf("stage %q never observed", stage)
		}
	}
	_, body := getBody(t, ts, "/metrics")
	for _, want := range []string{
		"# TYPE hmmd_stage_seconds histogram",
		`hmmd_stage_seconds_bucket{stage="handler",le="+Inf"} 1`,
		`hmmd_stage_seconds_count{stage="run"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTraceEndpointErrors pins the endpoint's failure shapes: unknown
// IDs and disabled tracing are 404s, bad formats 400.
func TestTraceEndpointErrors(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, _ := getBody(t, ts, "/v1/trace/"+strings.Repeat("ab", 16)); code != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", code)
	}
	resp, data := postMatmul(t, ts, `{"n": 8, "p": 8}`)
	if id := resp.Header.Get("X-Trace-Id"); id != "" {
		if code, _ := getBody(t, ts, "/v1/trace/"+id+"?format=bogus"); code != http.StatusBadRequest {
			t.Errorf("bogus format: status %d, want 400", code)
		}
	} else {
		t.Fatalf("no trace id on %s", data)
	}

	off := mustNew(t, Config{Workers: 1, QueueDepth: 2, TraceRing: -1})
	ts2 := httptest.NewServer(off.Handler())
	defer ts2.Close()
	resp2, _ := postMatmul(t, ts2, `{"n": 8, "p": 8}`)
	if got := resp2.Header.Get("X-Trace-Id"); got != "" {
		t.Errorf("tracing disabled but X-Trace-Id %q set", got)
	}
	if code, _ := getBody(t, ts2, "/v1/trace/"+strings.Repeat("ab", 16)); code != http.StatusNotFound {
		t.Errorf("disabled tracing: status %d, want 404", code)
	}
}

// TestVersionEndpoint pins /v1/version: build identity straight from
// the binary, no stamping required.
func TestVersionEndpoint(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, body := getBody(t, ts, "/v1/version")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var v VersionInfo
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.GoVersion == "" || v.Version == "" {
		t.Errorf("version info incomplete: %+v", v)
	}
}

// TestPprofGating pins the opt-in: profiling endpoints exist only when
// Config.Pprof asks for them.
func TestPprofGating(t *testing.T) {
	off := httptest.NewServer(mustNew(t, Config{Workers: 1, QueueDepth: 2}).Handler())
	defer off.Close()
	if code, _ := getBody(t, off, "/debug/pprof/cmdline"); code != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", code)
	}
	on := httptest.NewServer(mustNew(t, Config{Workers: 1, QueueDepth: 2, Pprof: true}).Handler())
	defer on.Close()
	if code, _ := getBody(t, on, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", code)
	}
}

// TestConcurrentMetricsScrapeDuringFailover hammers /metrics while a
// cluster worker dies holding jobs — the exact moment coordinator
// state, stage histograms and failover counters all churn. Run under
// -race this pins the scrape path data-race-free; every scrape must
// answer 200 regardless.
func TestConcurrentMetricsScrapeDuringFailover(t *testing.T) {
	coord, err := cluster.NewCoordinator(cluster.Config{
		Addr:          "127.0.0.1:0",
		ProbeInterval: 20 * time.Millisecond,
		RetryBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	workers := make([]*cluster.Worker, 2)
	for i := range workers {
		w, err := cluster.Join(context.Background(), coord.Addr().String(), cluster.WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Exec: cluster.LocalExec,
		})
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve(context.Background())
		t.Cleanup(w.Abort)
		workers[i] = w
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkerCount() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv := mustNew(t, Config{Workers: 2, QueueDepth: 8, Cluster: coord})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/metrics status %d mid-failover", resp.StatusCode)
					return
				}
			}
		}()
	}

	var jobs sync.WaitGroup
	for i := 0; i < 16; i++ {
		jobs.Add(1)
		go func() {
			defer jobs.Done()
			resp, err := http.Post(ts.URL+"/v1/matmul", "application/json",
				strings.NewReader(`{"n": 24, "p": 16, "algorithm": "cannon"}`))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		if i == 4 {
			workers[0].Abort() // die while holding in-flight jobs
		}
	}
	jobs.Wait()
	close(stop)
	wg.Wait()
}
