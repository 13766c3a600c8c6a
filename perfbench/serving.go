package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"hypermm"
	"hypermm/internal/obs"
	"hypermm/internal/server"
)

// clientConns is the most connections or callers the benchmark uses:
// the number of cores of the machine it was tuned on.
const clientConns = 2

// served is one in-process hmmd behind a loopback listener.
type served struct {
	srv     *server.Server
	hs      *http.Server
	url     string
	serveCh chan error
	client  *http.Client
}

// daemonLogger reproduces the daemon's default logging cost (JSON at
// info level, one record per request) without printing it.
func daemonLogger() (*slog.Logger, error) { return obs.NewLogger(io.Discard, "info", "json") }

// startServed builds a server from cfg, as the daemon does, and serves
// it on a fresh loopback port.
func startServed(cfg server.Config) (*served, error) {
	if cfg.Log == nil {
		lg, err := daemonLogger()
		if err != nil {
			return nil, err
		}
		cfg.Log = lg
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &served{
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:     "http://" + ln.Addr().String(),
		serveCh: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true,
		}},
	}
	go func() { s.serveCh <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener, drains the server and waits for Serve to
// return.
func (s *served) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	_ = s.hs.Shutdown(ctx) // a timeout leaves nothing to recover
	<-s.serveCh
	_ = s.srv.Drain(ctx)
}

// post sends one matmul request and returns the complete response body
// and the server's trace ID.
func (s *served) post(body []byte) ([]byte, string, error) {
	resp, err := s.client.Post(s.url+"/v1/matmul", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, resp.Header.Get("X-Trace-Id"), nil
}

// decodeChecked decodes a matmul response and applies the serving gate.
func decodeChecked(data []byte, ref *hypermm.Result, wantAlg string) (*server.MatmulResponse, error) {
	var resp server.MatmulResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if resp.Algorithm != wantAlg {
		return nil, fmt.Errorf("served by %s, the planner chose %s", resp.Algorithm, wantAlg)
	}
	if err := checkServed(ref, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// scrapeOf reads a server's /metrics through its own handler.
func scrapeOf(srv *server.Server) (scrape, error) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, errors.New("metrics: status " + fmt.Sprint(rec.Code))
	}
	return parseMetrics(rec.Body.String())
}

// serverSpans fetches the server's own spans for one request via GET
// /v1/trace/{id} and re-parents them under the benchmark's client span.
func (s *served) serverSpans(traceID string, parent *span) ([]obs.SpanData, error) {
	resp, err := s.client.Get(s.url + "/v1/trace/" + traceID + "?format=spans")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: status %d", traceID, resp.StatusCode)
	}
	var td obs.TraceData
	if err := json.NewDecoder(resp.Body).Decode(&td); err != nil {
		return nil, err
	}
	for i := range td.Spans {
		td.Spans[i].TraceID = parent.trace()
		if td.Spans[i].Parent == "" {
			td.Spans[i].Parent = parent.id()
		}
	}
	return td.Spans, nil
}

// plannedAlg asks the server's planner which algorithm "auto" picks, so
// the reference run uses the same one.
func plannedAlg(k opKind) (hypermm.Algorithm, error) {
	cfg := k.config()
	plan, err := server.NewPlanner(4).Plan(server.PlanRequest{
		N: float64(k.N), P: float64(k.P), Ts: cfg.Ts, Tw: cfg.Tw, Tc: cfg.Tc, Ports: k.Ports,
	})
	if err != nil {
		return 0, fmt.Errorf("plan %v: %w", k, err)
	}
	return plan.Algorithm, nil
}

// portsName is the request spelling of a port model.
func portsName(pm hypermm.PortModel) string {
	if pm == hypermm.MultiPort {
		return "multi"
	}
	return "one"
}

// stageLayer computes the serving tier's per-layer metrics from the
// deltas of hmmd_stage_seconds and the counters between two scrapes of
// one server, with rttMs the mean client round trip over the same
// requests.
func stageLayer(before, after scrape, rttMs float64) map[string]float64 {
	handler, _ := stageMeanMs(before, after, "handler")
	plan, _ := stageMeanMs(before, after, "plan")
	queue, _ := stageMeanMs(before, after, "queue")
	runMs, _ := stageMeanMs(before, after, "run")
	dispatch, _ := stageMeanMs(before, after, "dispatch")
	checkout, _ := stageMeanMs(before, after, "pool_checkout")
	return map[string]float64{
		"server.handler_ms":  handler,
		"server.plan_ms":     plan,
		"server.queue_ms":    queue,
		"server.run_ms":      runMs,
		"server.dispatch_ms": dispatch,
		"pool.checkout_ms":   checkout,
		"server.unstaged_ms": handler - plan - queue - runMs - dispatch,
		"http.transport_ms":  rttMs - handler,
		"server.plan_cache_hit_ratio": ratio(
			delta(before, after, "hmmd_plan_cache_hits_total"),
			delta(before, after, "hmmd_plan_cache_misses_total")),
		"pool.hit_ratio": ratio(
			delta(before, after, "hmmd_machine_pool_hits_total"),
			delta(before, after, "hmmd_machine_pool_misses_total")),
		"server.rejects":    delta(before, after, "hmmd_rejects_total"),
		"server.job_errors": sumDelta(before, after, "hmmd_job_errors_total"),
	}
}

// ratio is hits/(hits+misses), 0 with no events.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
