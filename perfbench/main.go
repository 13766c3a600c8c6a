// Command perfbench is the repository's benchmark. It drives one seeded
// workload against the system from a single process and prints, as the
// last line of standard output, one JSON object with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run).
//
//	go run . --workload serve_payload --seed 1 --seconds 45 --trace 0
//
// Workloads:
//
//   - serve_small: open-loop Poisson requests for small seeded products
//     (n in {16, 32, 48}, p = 64) to an in-process hmmd over loopback
//     HTTP, plus a capacity ladder. HTTP, plan cache, QoS queue, machine
//     pool and emulator machinery do the work; the kernel does almost
//     none.
//   - emulate_large_p: one closed-loop caller of the library's Run at
//     p = 512..4096, n = 256. The emulator's goroutine and channel
//     machinery and the collectives do nearly all the work; no serving
//     layer is involved.
//   - serve_payload: two closed-loop clients posting pre-encoded inline
//     operands (n in {128, 256}, p in {8, 64}) to an hmmd coordinator
//     front-end with one in-process worker joined over loopback TCP.
//     JSON codec, cluster frames and the GEMM kernel dominate. Both
//     tiers share one host, so its numbers are RPC overhead, not
//     scale-out.
//
// Every served product is checked bit for bit against a local run with
// the same algorithm and config; every library product against the
// serial product. Any mismatch makes the run fail.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"hypermm"
)

// endToEnd and perLayer list every metric the benchmark reports with
// its unit; untraced runs print the first set, traced runs the second.
// BENCHMARK.json names the same metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_ops", "ops/s"},
	{"capacity_rps", "req/s"},
	{"sim_msgs_per_host_s", "msg/s"},
	{"peak_rss_mb", "MB"},
	{"success_ratio", "ratio"},
}

var perLayer = []metricDef{
	{"server.handler_ms", "ms"},
	{"server.plan_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.dispatch_ms", "ms"},
	{"pool.checkout_ms", "ms"},
	{"server.unstaged_ms", "ms"},
	{"http.transport_ms", "ms"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"pool.hit_ratio", "ratio"},
	{"server.rejects", "count"},
	{"server.job_errors", "count"},
	{"cluster.exec_ms", "ms"},
	{"cluster.rpc_ms", "ms"},
	{"cluster.frame_kb", "KB"},
	{"cluster.failovers", "count"},
	{"cluster.busy_retries", "count"},
	{"run.host_ms", "ms"},
	{"simnet.floor_ms", "ms"},
	{"simnet.host_ns_per_msg", "ns"},
	{"simnet.allocs_per_run", "count"},
	{"simnet.alloc_mb_per_run", "MB"},
	{"collective.bcast_ms", "ms"},
	{"collective.allgather_ms", "ms"},
	{"collective.reducescatter_ms", "ms"},
	{"matrix.muladd_gflops", "GFLOP/s"},
	{"matrix.kernel_share_est", "ratio"},
	{"sim.msgs", "count"},
	{"sim.words", "count"},
	{"sim.startups", "count"},
	{"sim.word_hops", "count"},
	{"sim.flops", "count"},
	{"sim.elapsed", "simtime"},
	{"model.sim_over_predicted", "ratio"},
	{"model.words_over_bound", "ratio"},
	{"bench.trace_overhead", "ratio"},
}

type metricDef struct{ Name, Unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// harness is what a workload gets: its inputs and where to report.
type harness struct {
	seed   int64
	dur    time.Duration
	rec    *recorder // nil in the untraced run
	fails  failures
	ledger *ledger
	// detail collects what a reader needs to interpret the metrics
	// (percentiles chosen, sample counts, ladder probes, per-operation
	// model ratios); it is printed before the result line.
	detail map[string]any
	e2e    map[string]float64
	layer  map[string]float64
}

type workload struct {
	why string
	run func(h *harness) error
}

var workloads = map[string]workload{
	"serve_small":     {"open-loop small requests through every serving layer", serveSmall},
	"emulate_large_p": {"closed-loop library runs at large p, serving layers bypassed", emulateLargeP},
	"serve_payload":   {"closed-loop heavy inline payloads through a coordinator and one worker", servePayload},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: serve_small, emulate_large_p or serve_payload")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 45, "measured seconds")
		traced  = fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
		outDir  = fs.String("out", filepath.Join(".bench_build", "traces"), "directory for the traced run's Chrome trace")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	h := &harness{
		seed: *seed, dur: time.Duration(*seconds) * time.Second,
		ledger: newLedger(), detail: map[string]any{}, e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if *traced == 1 {
		h.rec = &recorder{}
	}
	if err := w.run(h); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	h.e2e["peak_rss_mb"] = peakRSSMB()
	h.e2e["success_ratio"] = 1
	if h.fails.attempted > 0 {
		h.e2e["success_ratio"] = float64(h.fails.attempted-h.fails.failed) / float64(h.fails.attempted)
	}

	defs, vals := endToEnd, h.e2e
	if h.rec != nil {
		defs, vals = perLayer, h.layer
		path := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := writeTrace(h.rec, path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		h.detail["chrome_trace"] = path
		h.detail["spans_dropped"] = h.rec.dropped
		h.detail["span_self_ms"] = selfTimes(h.rec.snapshot())
	}
	res := result{
		Correct:   h.fails.failed == 0 && len(h.ledger.drift) == 0,
		Attempted: h.fails.attempted, Failed: h.fails.failed,
		Metrics: map[string]metric{},
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.Name)
			return 1
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	h.detail["stamp"] = stamp(*seed)
	h.detail["workload"] = map[string]any{"name": *name, "why": w.why, "seconds": *seconds, "traced": *traced == 1}
	h.detail["errors"] = h.fails.first
	h.detail["counter_drift"] = h.ledger.drift
	h.detail["model_by_operation"] = modelRows(h.ledger)
	if err := printJSON(stdout, map[string]any{"perfbench_detail": h.detail}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed; first errors: %v; drift: %v\n",
			res.Failed, res.Attempted, h.fails.first, h.ledger.drift)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeTrace(rec *recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := rec.writeChrome(bw); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// peakRSSMB is the process's peak resident set. Each run drives one
// workload in its own process, so no workload inherits another's peak.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stamp records what absolute numbers depend on: they do not transfer
// across machines.
func stamp(seed int64) map[string]any {
	return map[string]any{
		"seed":               seed,
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"nproc":              runtime.NumCPU(),
		"go":                 runtime.Version(),
		"goos_goarch":        runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":          cpuModel(),
		"kernel_parallelism": hypermm.KernelParallelism(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
