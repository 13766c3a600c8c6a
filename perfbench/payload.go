package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hypermm"
	"hypermm/internal/cluster"
	"hypermm/internal/obs"
	"hypermm/internal/server"
)

// payloadCycle is the request mix each client walks through: two of
// every three requests are n = 128, so the median falls inside one size
// class instead of on the boundary between two.
var payloadCycle = []struct{ N, P int }{
	{128, 8}, {128, 64}, {256, 8}, {128, 8}, {128, 64}, {256, 64},
}

const (
	payloadVariants  = 2 // seeded operand sets per (n, p)
	payloadSetupReps = 9
)

type payloadReq struct {
	kind opKind
	body []byte
	ref  *hypermm.Result
}

// payloadSys is the system under test: a coordinator front-end serving
// HTTP and one worker server joined to it over loopback TCP.
type payloadSys struct {
	coord  *cluster.Coordinator
	worker *server.Server
	wk     *cluster.Worker
	wkDone chan error
	front  *served
}

// execTimes collects the wrapped worker exec durations.
type execTimes struct {
	mu  sync.Mutex
	all []float64
	rec *recorder
}

func (e *execTimes) observe(d time.Duration) {
	e.mu.Lock()
	e.all = append(e.all, ms(d))
	e.mu.Unlock()
}

func startPayload(times *execTimes) (*payloadSys, error) {
	lg, err := daemonLogger()
	if err != nil {
		return nil, err
	}
	coord, err := cluster.NewCoordinator(cluster.Config{Addr: "127.0.0.1:0", Log: lg})
	if err != nil {
		return nil, err
	}
	sys := &payloadSys{coord: coord, wkDone: make(chan error, 1)}
	sys.worker, err = server.New(server.Config{Log: lg})
	if err != nil {
		coord.Close()
		return nil, err
	}
	// The worker executes through its own scheduler, mapping local
	// refusals to a busy answer as the daemon's worker role does; the
	// benchmark times each call from outside.
	exec := func(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		sp := times.rec.start("bench/worker", "cluster.exec", times.rec.newTrace(), "")
		t0 := time.Now()
		res, err := sys.worker.Execute(ctx, alg, cfg, A, B)
		times.observe(time.Since(t0))
		sp.end(obs.Int("n", A.Rows), obs.Int("p", cfg.P))
		if errors.Is(err, server.ErrSaturated) || errors.Is(err, server.ErrDraining) {
			return nil, fmt.Errorf("%w: %v", cluster.ErrBusy, err)
		}
		return res, err
	}
	sys.wk, err = cluster.Join(context.Background(), coord.Addr().String(), cluster.WorkerConfig{
		Name: "w1", Exec: exec, MaxN: 1024, MaxP: 4096, Log: lg,
	})
	if err != nil {
		coord.Close()
		return nil, fmt.Errorf("join: %w", err)
	}
	go func() { sys.wkDone <- sys.wk.Serve(context.Background()) }()
	for deadline := time.Now().Add(10 * time.Second); coord.WorkerCount() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			sys.stop()
			return nil, errors.New("worker never registered")
		}
	}
	sys.front, err = startServed(server.Config{Cluster: coord, Log: lg})
	if err != nil {
		sys.stop()
		return nil, err
	}
	return sys, nil
}

// stop tears the system down front to back, as the daemon does, and
// waits for the worker's connection loop to return.
func (s *payloadSys) stop() {
	if s.front != nil {
		s.front.stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.wk.Stop(ctx) // a timeout leaves nothing to recover
	s.coord.Close()
	<-s.wkDone
	_ = s.worker.Drain(ctx)
}

func payloadPool(h *harness, rng *rand.Rand) ([][]payloadReq, []opKind, error) {
	byShape := map[[2]int][]payloadReq{}
	var kinds []opKind
	for _, sh := range payloadCycle {
		key := [2]int{sh.N, sh.P}
		if _, ok := byShape[key]; ok {
			continue
		}
		alg, err := plannedAlg(opKind{N: sh.N, P: sh.P})
		if err != nil {
			return nil, nil, err
		}
		k := opKind{Alg: alg, N: sh.N, P: sh.P}
		kinds = append(kinds, k)
		for v := 0; v < payloadVariants; v++ {
			op := newOperand(sh.N, rng.Int63n(1<<40)+1)
			body, err := json.Marshal(server.MatmulRequest{
				N: sh.N, P: sh.P, Ports: "one", Algorithm: "auto", A: op.A.Data, B: op.B.Data, ReturnC: true,
			})
			if err != nil {
				return nil, nil, err
			}
			ref, err := hypermm.Run(alg, k.config(), op.A, op.B)
			if err == nil {
				err = checkProduct(op.want, ref.C)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("reference %v: %w", k, err)
			}
			if err := h.ledger.observe(k, countsOf(ref)); err != nil {
				return nil, nil, err
			}
			byShape[key] = append(byShape[key], payloadReq{kind: k, body: body, ref: ref})
		}
	}
	cycle := make([][]payloadReq, len(payloadCycle))
	for i, sh := range payloadCycle {
		cycle[i] = byShape[[2]int{sh.N, sh.P}]
	}
	return cycle, kinds, nil
}

func servePayload(h *harness) error {
	rng := rand.New(rand.NewSource(h.seed))
	cycle, kinds, err := payloadPool(h, rng)
	if err != nil {
		return err
	}

	times := &execTimes{rec: h.rec}
	var sys *payloadSys
	var setups []float64
	for i := 0; i < payloadSetupReps; i++ {
		if sys != nil {
			sys.stop()
		}
		t0 := time.Now()
		sys, err = startPayload(times)
		if err != nil {
			return err
		}
		q := cycle[0][0]
		data, _, err := sys.front.post(q.body)
		if err == nil {
			_, err = decodeChecked(data, q.ref, q.kind.Alg.Name())
		}
		h.fails.record(err)
		if err != nil {
			sys.stop()
			return fmt.Errorf("set-up request: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.stop()
	h.e2e["setup_s"] = median(setups)

	frontBefore, err := scrapeOf(sys.front.srv)
	if err != nil {
		return err
	}
	workerBefore, err := scrapeOf(sys.worker)
	if err != nil {
		return err
	}
	clBefore := sys.coord.Stats()
	times.mu.Lock()
	times.all = nil
	times.mu.Unlock()

	// Closed loop: clientConns clients, each walking the cycle from its
	// own offset. In the traced run every other request is traced.
	type sample struct {
		ms      float64
		traced  bool
		msgs    int64
		frameKB float64
		ok      bool
	}
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; time.Since(start) < h.dur; j++ {
				slot := (j + c*len(payloadCycle)/clientConns) % len(payloadCycle)
				q := cycle[slot][(j/len(payloadCycle))%payloadVariants]
				traced := h.rec != nil && j%2 == 0
				var sp *span
				if traced {
					sp = h.rec.start(fmt.Sprintf("bench/client-%d", c), "client.request", h.rec.newTrace(), "")
				}
				t0 := time.Now()
				data, _, err := sys.front.post(q.body)
				el := time.Since(t0)
				sp.end(obs.String("op", q.kind.String()))
				var resp *server.MatmulResponse
				if err == nil {
					resp, err = decodeChecked(data, q.ref, q.kind.Alg.Name())
				}
				h.fails.record(err)
				s := sample{ms: ms(el), traced: traced, ok: err == nil,
					frameKB: float64(24*q.kind.N*q.kind.N) / 1024}
				if err == nil {
					s.msgs = resp.Simulated.Msgs
				}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	var lat, tracedLat, plainLat, frames []float64
	var msgs int64
	ok := 0
	for _, s := range samples {
		lat = append(lat, s.ms)
		if s.traced {
			tracedLat = append(tracedLat, s.ms)
		} else {
			plainLat = append(plainLat, s.ms)
		}
		frames = append(frames, s.frameKB)
		if s.ok {
			ok++
			msgs += s.msgs
		}
	}
	pick := pickTail(len(lat))
	h.e2e["latency_p50_ms"] = median(lat)
	h.e2e["latency_tail_ms"] = percentile(sortedCopy(lat), pick.Pct)
	h.e2e["throughput_ops"] = float64(ok) / wall.Seconds()
	h.e2e["capacity_rps"] = h.e2e["throughput_ops"] // closed loop: the completion rate it sustains
	h.e2e["sim_msgs_per_host_s"] = float64(msgs) / wall.Seconds()
	h.detail["closed_loop"] = map[string]any{
		"clients": clientConns, "seconds": wall.Seconds(), "samples": len(lat),
		"tail_percentile": pick.Pct, "tail_beyond": pick.Beyond,
		"note": "coordinator and worker share one host: RPC overhead, not scale-out",
	}

	if h.rec != nil {
		frontAfter, err := scrapeOf(sys.front.srv)
		if err != nil {
			return err
		}
		workerAfter, err := scrapeOf(sys.worker)
		if err != nil {
			return err
		}
		clAfter := sys.coord.Stats()
		// The front-end plans and dispatches, the worker runs: each
		// metric comes from the tier that has it; queueing and failures
		// add up over both.
		front := stageLayer(frontBefore, frontAfter, mean(lat))
		worker := stageLayer(workerBefore, workerAfter, 0)
		for k, v := range front {
			h.layer[k] = v
		}
		for _, k := range []string{"server.run_ms", "pool.checkout_ms", "pool.hit_ratio"} {
			h.layer[k] = worker[k]
		}
		for _, k := range []string{"server.queue_ms", "server.rejects", "server.job_errors"} {
			h.layer[k] += worker[k]
		}

		times.mu.Lock()
		execMs := mean(times.all)
		times.mu.Unlock()
		h.layer["cluster.exec_ms"] = execMs
		h.layer["cluster.rpc_ms"] = front["server.dispatch_ms"] - execMs
		h.layer["cluster.frame_kb"] = mean(frames)
		h.layer["cluster.failovers"] = float64(clAfter.Failovers - clBefore.Failovers)
		h.layer["cluster.busy_retries"] = float64(clAfter.BusyRetries - clBefore.BusyRetries)
		h.layer["bench.trace_overhead"] = median(tracedLat) / median(plainLat)
		h.detail["cluster_frame_kb"] = "computed: 2n^2 operand and n^2 product float64s per job, headers excluded"
		replayLayers(h, kinds, h.seed+11)
		modelLayer(h)
	}
	return nil
}
