// Command stress has two modes.
//
// Emulator mode (default): hammers one algorithm repeatedly on a large
// simulated machine with a stall watchdog, printing simnet deadlock
// diagnostics if a run wedges. A development tool for shaking out
// message-matching bugs.
//
// Load-generator mode (-url): drives a running hmmd daemon with
// concurrent POST /v1/matmul requests and reports status counts and
// latency quantiles; -smoke additionally scrapes /metrics and fails
// unless the scrape is non-empty. The serve-smoke make target uses it.
//
//	stress -url http://127.0.0.1:8080 -requests 64 -c 8 -n 64 -p 64
//
// Multi-tenant mode (-tenants on top of -url) fires one traffic stream
// per tenant — "paced:interactive:20,flood:best-effort:0" runs a paced
// interactive tenant at 20 req/s against an unpaced best-effort flood —
// with X-Tenant headers, and reports per-tenant status counts, success
// rate and latency quantiles; -assert-success paced:0.95 turns the
// report into a fairness gate. The qos-smoke make target uses it.
//
// Cluster mode (-cluster N on top of -url) drives a coordinator: it
// waits for N registered workers, pins one response byte-identical to a
// local run, and — with -kill-after K -kill-pid PID — SIGKILLs a worker
// process mid-batch, then requires every request to still return 200,
// at least one failover, and the worker gauge to drop to N-1. The
// cluster-smoke make target uses it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"hypermm"
	"hypermm/internal/algorithms"
	"hypermm/internal/matrix"
	"hypermm/internal/obs"
	"hypermm/internal/simnet"
)

func main() {
	var (
		p      = flag.Int("p", 1024, "processors (emulator mode) or machine size (load mode)")
		n      = flag.Int("n", 256, "matrix size")
		trials = flag.Int("trials", 20, "repetitions (emulator mode)")
		stall  = flag.Duration("stall", 20*time.Second, "watchdog timeout per trial (emulator mode)")

		url      = flag.String("url", "", "hmmd base URL; switches to load-generator mode")
		requests = flag.Int("requests", 16, "total requests to fire (load mode)")
		conc     = flag.Int("c", 4, "concurrent clients (load mode)")
		alg      = flag.String("alg", "auto", "algorithm to request (load mode)")
		verify   = flag.Bool("verify", true, "ask the server to verify results (load mode)")
		smoke    = flag.Bool("smoke", false, "smoke mode: wait for the server, fire requests, assert 200s and a non-empty /metrics")
		wait     = flag.Duration("wait", 10*time.Second, "how long to wait for the server to come up (load mode)")

		clusterN  = flag.Int("cluster", 0, "expect this many cluster workers before the batch (cluster mode)")
		killAfter = flag.Int("kill-after", 0, "SIGKILL -kill-pid after this many 200 responses (cluster mode)")
		killPid   = flag.Int("kill-pid", 0, "worker process to kill mid-batch (cluster mode)")

		traceOut   = flag.String("trace-out", "", "fire one traced request, fetch its merged Chrome trace from /v1/trace/{id} and write it to this file (load mode)")
		pprofCheck = flag.Bool("pprof-check", false, "assert GET /debug/pprof/cmdline answers 200 (load mode; server must run with -pprof)")

		tenants       = flag.String("tenants", "", "multi-tenant mode: comma-separated name:class:rps streams (rps 0 floods); sends X-Tenant headers, reports per-tenant success and latency")
		assertSuccess = flag.String("assert-success", "", "name:frac — exit 1 unless that tenant's success rate is at least frac (tenants mode)")
	)
	flag.Parse()

	if *url != "" {
		os.Exit(loadGenerate(loadOpts{
			base: *url, requests: *requests, conc: *conc, n: *n, p: *p,
			alg: *alg, verify: *verify, smoke: *smoke, wait: *wait,
			cluster: *clusterN, killAfter: *killAfter, killPid: *killPid,
			traceOut: *traceOut, pprofCheck: *pprofCheck,
			tenants: *tenants, assertSuccess: *assertSuccess,
		}))
	}

	A := matrix.Random(*n, *n, 1)
	B := matrix.Random(*n, *n, 2)
	for trial := 0; trial < *trials; trial++ {
		m := simnet.NewMachine(simnet.Config{P: *p, Ports: simnet.OnePort, Ts: 150, Tw: 3})
		done := make(chan struct{})
		go func() {
			select {
			case <-done:
			case <-time.After(*stall):
				fmt.Printf("trial %d STALLED; diagnostics:\n%s\n", trial, m.Diagnose())
				os.Exit(2)
			}
		}()
		C, _, err := algorithms.Cannon(m, A, B)
		close(done)
		if err != nil {
			fmt.Println("error:", err)
			os.Exit(1)
		}
		if matrix.MaxAbsDiff(C, matrix.Mul(A, B)) > 1e-8 {
			fmt.Println("WRONG RESULT at trial", trial)
			os.Exit(1)
		}
		fmt.Printf("trial %d ok\n", trial)
	}
}

// loadOpts parameterizes one load-generator run.
type loadOpts struct {
	base           string
	requests, conc int
	n, p           int
	alg            string
	verify, smoke  bool
	wait           time.Duration

	cluster   int // expected worker count; 0 disables cluster checks
	killAfter int // SIGKILL killPid after this many 200s (0: never)
	killPid   int

	traceOut   string // write one request's Chrome trace here ("": skip)
	pprofCheck bool   // assert the pprof endpoints are mounted

	tenants       string // name:class:rps streams; "" keeps single-tenant mode
	assertSuccess string // name:frac success-rate floor (tenants mode)
}

// loadGenerate drives hmmd and returns the process exit code.
func loadGenerate(o loadOpts) int {
	base := strings.TrimRight(o.base, "/")
	client := &http.Client{Timeout: 60 * time.Second}

	// Wait for the daemon to accept connections (smoke boots it fresh).
	deadline := time.Now().Add(o.wait)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "stress: server at %s never came up: %v\n", base, err)
			return 1
		}
		time.Sleep(100 * time.Millisecond)
	}

	if o.cluster > 0 {
		if code := clusterPreflight(client, base, o); code != 0 {
			return code
		}
	}

	// Multi-tenant mode replaces the single batch with one traffic
	// stream per tenant; fairness, not universal success, is the check.
	if o.tenants != "" {
		return tenantLoad(client, base, o)
	}

	body := fmt.Sprintf(`{"n": %d, "p": %d, "algorithm": %q, "verify": %v}`, o.n, o.p, o.alg, o.verify)
	var (
		mu        sync.Mutex
		latencies []time.Duration
		statuses  = map[int]int{}
		oks       int
		noTrace   int // responses missing the X-Trace-Id header
		killed    bool
	)
	start := time.Now()
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < o.conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/matmul", "application/json", strings.NewReader(body))
				lat := time.Since(t0)
				code := -1
				traced := false
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					code = resp.StatusCode
					traced = resp.Header.Get("X-Trace-Id") != ""
				}
				mu.Lock()
				latencies = append(latencies, lat)
				statuses[code]++
				if code != -1 && !traced {
					noTrace++
				}
				if code == 200 {
					oks++
					// Mid-batch worker kill: once enough requests have
					// succeeded the victim certainly holds in-flight
					// jobs from the remaining batch, so the coordinator
					// must fail them over, invisibly to the clients.
					if o.killAfter > 0 && o.killPid > 0 && !killed && oks >= o.killAfter {
						killed = true
						fmt.Printf("  killing worker pid %d after %d responses\n", o.killPid, oks)
						if err := syscall.Kill(o.killPid, syscall.SIGKILL); err != nil {
							fmt.Fprintln(os.Stderr, "stress: kill:", err)
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < o.requests; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	quant := func(q float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(q * float64(len(latencies)-1))
		return latencies[i]
	}
	fmt.Printf("%d requests to %s (n=%d p=%d alg=%s, %d clients)\n", o.requests, base, o.n, o.p, o.alg, o.conc)
	codes := make([]int, 0, len(statuses))
	for c := range statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Printf("  status %3d  x%d\n", c, statuses[c])
	}
	fmt.Printf("  latency p50 %v  p95 %v  p99 %v\n", quant(0.5), quant(0.95), quant(0.99))
	fmt.Printf("  steady-state %.1f req/s (%d requests in %v)\n",
		float64(o.requests)/elapsed.Seconds(), o.requests, elapsed.Round(time.Millisecond))
	if noTrace > 0 {
		fmt.Fprintf(os.Stderr, "stress: %d response(s) missing the X-Trace-Id header\n", noTrace)
		return 1
	}

	ok := statuses[200] == o.requests
	if o.smoke {
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			fmt.Fprintln(os.Stderr, "stress: /metrics:", err)
			return 1
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || len(data) == 0 || !strings.Contains(string(data), "hmmd_jobs_total") {
			fmt.Fprintf(os.Stderr, "stress: /metrics scrape bad (status %d, %d bytes)\n", resp.StatusCode, len(data))
			return 1
		}
		fmt.Printf("  /metrics ok (%d bytes)\n", len(data))
	}
	if o.cluster > 0 && killed {
		if code := clusterPostKill(client, base, o); code != 0 {
			return code
		}
	}
	if o.traceOut != "" {
		if code := traceFetch(client, base, o); code != 0 {
			return code
		}
	}
	if o.pprofCheck {
		resp, err := client.Get(base + "/debug/pprof/cmdline")
		if err != nil {
			fmt.Fprintln(os.Stderr, "stress: /debug/pprof/cmdline:", err)
			return 1
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			fmt.Fprintf(os.Stderr, "stress: /debug/pprof/cmdline status %d (is the server running with -pprof?)\n", resp.StatusCode)
			return 1
		}
		fmt.Println("  /debug/pprof ok")
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "stress: not every request returned 200")
		return 1
	}
	return 0
}

// traceFetch fires one traced request, follows its X-Trace-Id to
// GET /v1/trace/{id}, validates the Chrome trace-event shape (a
// traceEvents array holding at least the handler's complete event and
// the simulated timeline) and writes the JSON to o.traceOut.
func traceFetch(client *http.Client, base string, o loadOpts) int {
	body := fmt.Sprintf(`{"n": %d, "p": %d, "algorithm": %q, "trace": true}`, o.n, o.p, o.alg)
	resp, err := client.Post(base+"/v1/matmul", "application/json", strings.NewReader(body))
	if err != nil {
		fmt.Fprintln(os.Stderr, "stress: traced request:", err)
		return 1
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Trace-Id")
	if resp.StatusCode != 200 || id == "" {
		fmt.Fprintf(os.Stderr, "stress: traced request status %d, trace id %q\n", resp.StatusCode, id)
		return 1
	}
	tr, err := client.Get(base + "/v1/trace/" + id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stress: /v1/trace:", err)
		return 1
	}
	defer tr.Body.Close()
	raw, _ := io.ReadAll(tr.Body)
	if tr.StatusCode != 200 {
		fmt.Fprintf(os.Stderr, "stress: /v1/trace/%s status %d\n", id, tr.StatusCode)
		return 1
	}
	chrome, err := obs.ParseChromeJSON(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stress: trace is not Chrome trace-event JSON:", err)
		return 1
	}
	spans, sims := 0, 0
	root := false
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		spans++
		if ev.Name == "http.matmul" {
			root = true
		}
		if ev.Cat == "sim" {
			sims++
		}
	}
	if chrome.DisplayTimeUnit == "" || !root || spans < 2 {
		fmt.Fprintf(os.Stderr, "stress: trace %s malformed (unit %q, root=%v, %d complete events)\n",
			id, chrome.DisplayTimeUnit, root, spans)
		return 1
	}
	if err := os.WriteFile(o.traceOut, raw, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "stress: writing trace:", err)
		return 1
	}
	fmt.Printf("  trace %s ok (%d events, %d simulated; written to %s)\n", id, spans, sims, o.traceOut)
	return 0
}

// clusterPreflight waits for the expected worker count and pins one
// coordinator-routed response byte-identical to a local hypermm.Run of
// the same seeded job (the server builds operands from seed, seed+1).
func clusterPreflight(client *http.Client, base string, o loadOpts) int {
	deadline := time.Now().Add(o.wait)
	want := fmt.Sprintf("hmmd_cluster_workers %d", o.cluster)
	for {
		data, code := scrapeMetrics(client, base)
		if code != 0 {
			return code
		}
		if strings.Contains(data, want) {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "stress: never saw %q in /metrics\n", want)
			return 1
		}
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Printf("  cluster ready (%d workers)\n", o.cluster)

	const seed = 7
	body := fmt.Sprintf(`{"n": %d, "p": %d, "algorithm": "cannon", "seed": %d, "return_matrix": true}`, o.n, o.p, seed)
	resp, err := client.Post(base+"/v1/matmul", "application/json", strings.NewReader(body))
	if err != nil {
		fmt.Fprintln(os.Stderr, "stress: identity probe:", err)
		return 1
	}
	defer resp.Body.Close()
	var mr struct {
		Simulated struct {
			Elapsed float64 `json:"elapsed"`
		} `json:"simulated"`
		C []float64 `json:"c"`
	}
	if resp.StatusCode != 200 || json.NewDecoder(resp.Body).Decode(&mr) != nil {
		fmt.Fprintf(os.Stderr, "stress: identity probe status %d\n", resp.StatusCode)
		return 1
	}
	local, err := hypermm.Run(hypermm.Cannon,
		hypermm.Config{P: o.p, Ports: hypermm.OnePort, Ts: 150, Tw: 3, Tc: 0.5},
		hypermm.RandomMatrix(o.n, o.n, seed), hypermm.RandomMatrix(o.n, o.n, seed+1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "stress: identity probe local run:", err)
		return 1
	}
	if mr.Simulated.Elapsed != local.Elapsed {
		fmt.Fprintf(os.Stderr, "stress: cluster Elapsed %g != local %g\n", mr.Simulated.Elapsed, local.Elapsed)
		return 1
	}
	if len(mr.C) != len(local.C.Data) {
		fmt.Fprintf(os.Stderr, "stress: cluster product has %d words, want %d\n", len(mr.C), len(local.C.Data))
		return 1
	}
	for i := range local.C.Data {
		if mr.C[i] != local.C.Data[i] {
			fmt.Fprintf(os.Stderr, "stress: cluster product word %d differs from local run\n", i)
			return 1
		}
	}
	fmt.Println("  cluster result byte-identical to local run")
	return 0
}

// clusterPostKill verifies the coordinator noticed the killed worker:
// the worker gauge drops to cluster-1 (the probe takes a moment) and at
// least one failover was recorded.
func clusterPostKill(client *http.Client, base string, o loadOpts) int {
	want := fmt.Sprintf("hmmd_cluster_workers %d", o.cluster-1)
	deadline := time.Now().Add(o.wait)
	var data string
	for {
		var code int
		data, code = scrapeMetrics(client, base)
		if code != 0 {
			return code
		}
		if strings.Contains(data, want) {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "stress: never saw %q after the kill\n", want)
			return 1
		}
		time.Sleep(100 * time.Millisecond)
	}
	var failovers int
	for _, line := range strings.Split(data, "\n") {
		if strings.HasPrefix(line, "hmmd_cluster_failovers_total ") {
			fmt.Sscanf(line, "hmmd_cluster_failovers_total %d", &failovers)
		}
	}
	if failovers < 1 {
		fmt.Fprintln(os.Stderr, "stress: worker killed mid-batch but no failover recorded")
		return 1
	}
	fmt.Printf("  kill drill ok: %d worker(s) left, %d failover(s)\n", o.cluster-1, failovers)
	return 0
}

func scrapeMetrics(client *http.Client, base string) (string, int) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stress: /metrics:", err)
		return "", 1
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		fmt.Fprintf(os.Stderr, "stress: /metrics status %d\n", resp.StatusCode)
		return "", 1
	}
	return string(data), 0
}
