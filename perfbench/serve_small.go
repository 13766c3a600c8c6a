package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"hypermm"
	"hypermm/internal/obs"
	"hypermm/internal/server"
)

const (
	smallP = 64
	// smallRate is the named open-loop load, requests per second: about
	// a third of this workload's capacity on a 2-core host. At 300 req/s
	// the host ran at 0.8-0.9 of capacity and latency swung with every
	// change in host speed.
	smallRate     = 100.0
	smallVariants = 4  // seeded operand sets per (n, ports)
	setupReps     = 25 // one set-up takes milliseconds
	windows       = 14 // tail windows of the fixed-rate phase

	// The capacity ladder: rates smallRate·ladderStep^k for k below
	// ladderRungs (100 to about 860 req/s). A probe passes when every
	// request succeeds, its tail (the percentile the tail rule picks for
	// its sample count) stays within capacityTailMs and no backlog is
	// left probeGrace after it ends.
	ladderStep     = 1.05
	ladderRungs    = 45
	ladderProbes   = 9 // the typical count: six rungs bisected, some probed twice
	capacityTailMs = 50.0
	probeGrace     = 250 * time.Millisecond
	minProbe       = time.Second
)

var smallNs = []int{16, 32, 48}

// smallReq is one pre-encoded request with its reference run.
type smallReq struct {
	kind opKind
	body []byte
	ref  *hypermm.Result
}

// smallPool builds the seeded requests: every (n, ports) pair with
// smallVariants operand seeds each, and their local reference runs.
func smallPool(h *harness, rng *rand.Rand) ([]smallReq, error) {
	var pool []smallReq
	for _, n := range smallNs {
		for _, ports := range []hypermm.PortModel{hypermm.OnePort, hypermm.MultiPort} {
			alg, err := plannedAlg(opKind{N: n, P: smallP, Ports: ports})
			if err != nil {
				return nil, err
			}
			k := opKind{Alg: alg, N: n, P: smallP, Ports: ports}
			for v := 0; v < smallVariants; v++ {
				seed := rng.Int63n(1<<40) + 1
				body, err := json.Marshal(server.MatmulRequest{
					N: n, P: smallP, Ports: portsName(ports), Algorithm: "auto", Seed: seed, ReturnC: true,
				})
				if err != nil {
					return nil, err
				}
				ref, err := hypermm.Run(alg, k.config(), hypermm.RandomMatrix(n, n, seed), hypermm.RandomMatrix(n, n, seed+1))
				if err != nil {
					return nil, fmt.Errorf("reference %v: %w", k, err)
				}
				if err := h.ledger.observe(k, countsOf(ref)); err != nil {
					return nil, err
				}
				pool = append(pool, smallReq{kind: k, body: body, ref: ref})
			}
		}
	}
	return pool, nil
}

func serveSmall(h *harness) error {
	rng := rand.New(rand.NewSource(h.seed))
	pool, err := smallPool(h, rng)
	if err != nil {
		return err
	}

	// Set-up: a daemon-default server, its listener and a client, up to
	// the first correct answer. Repeated; the last instance is measured.
	var sv *served
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if sv != nil {
			sv.stop()
		}
		t0 := time.Now()
		sv, err = startServed(server.Config{})
		if err != nil {
			return err
		}
		q := pool[0]
		data, _, err := sv.post(q.body)
		if err == nil {
			_, err = decodeChecked(data, q.ref, q.kind.Alg.Name())
		}
		h.fails.record(err)
		if err != nil {
			sv.stop()
			return fmt.Errorf("set-up request: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sv.stop()
	h.e2e["setup_s"] = median(setups)

	// send issues request q and applies the gate; it returns when the
	// response is complete, before decoding.
	var mu sync.Mutex
	var simMsgs int64
	var rtt []float64
	send := func(q smallReq, clk clock, conn int, traced, sample bool) (bool, time.Duration) {
		rec := h.rec
		if !traced {
			rec = nil
		}
		sp := rec.start(fmt.Sprintf("bench/client-%d", conn), "client.request", rec.newTrace(), "")
		t0 := clk.Now()
		data, tid, err := sv.post(q.body)
		done := clk.Now()
		sp.end(obs.String("op", q.kind.String()))
		var resp *server.MatmulResponse
		if err == nil {
			resp, err = decodeChecked(data, q.ref, q.kind.Alg.Name())
		}
		h.fails.record(err)
		if err != nil {
			return false, done
		}
		mu.Lock()
		simMsgs += resp.Simulated.Msgs
		rtt = append(rtt, ms(done-t0))
		mu.Unlock()
		if sp != nil && sample && tid != "" {
			if spans, err := sv.serverSpans(tid, sp); err == nil {
				h.rec.add(spans...)
			}
		}
		return true, done
	}

	// Fixed-rate phase: the named load, timed from due times. In the
	// traced run every other request is traced, so the run measures its
	// own tracing overhead.
	durA := h.dur * 3 / 5
	win := durA / windows
	due := poissonSchedule(rng, smallRate, durA)
	picks := make([]int, len(due))
	for i := range picks {
		picks[i] = rng.Intn(len(pool))
	}
	tracedAt := func(i int) bool { return h.rec != nil && i%2 == 0 }
	before, err := scrapeOf(sv.srv)
	if err != nil {
		return err
	}
	clk := newWallClock()
	recs, dropped := runOpenLoop(clk, due, clientConns, durA+2*time.Second, func(conn, i int) (bool, time.Duration) {
		return send(pool[picks[i]], clk, conn, tracedAt(i), i%50 == 0)
	})
	after, err := scrapeOf(sv.srv)
	if err != nil {
		return err
	}
	if dropped > 0 {
		return fmt.Errorf("fixed-rate phase left %d of %d requests unsent: the named load is beyond capacity", dropped, len(due))
	}
	var lat, tracedLat, plainLat, lag []float64
	ok := 0
	for _, r := range recs {
		l := ms(r.Latency())
		lat = append(lat, l)
		if tracedAt(r.Index) {
			tracedLat = append(tracedLat, l)
		} else {
			plainLat = append(plainLat, l)
		}
		if r.Idle {
			lag = append(lag, ms(r.Lag()))
		}
		if r.OK {
			ok++
		}
	}
	tail, pick, byWindow := windowedTail(windowsOf(recs, win, windows))
	h.e2e["latency_p50_ms"] = median(lat)
	h.e2e["latency_tail_ms"] = tail
	h.e2e["throughput_ops"] = float64(ok) / durA.Seconds()
	h.e2e["sim_msgs_per_host_s"] = float64(simMsgs) / durA.Seconds()
	h.detail["fixed_rate"] = map[string]any{
		"rate_rps": smallRate, "seconds": durA.Seconds(), "samples": len(recs),
		"tail_percentile": pick.Pct, "tail_window_samples": pick.N, "tail_beyond": pick.Beyond,
		"tail_windows": windows, "tail_ms_by_window": byWindow,
	}

	if h.rec != nil {
		for k, v := range stageLayer(before, after, mean(rtt)) {
			h.layer[k] = v
		}
		h.layer["bench.trace_overhead"] = median(tracedLat) / median(plainLat)
		h.detail["generator_lag_p99_ms"] = percentile(sortedCopy(lag), 99)
		notOnPath(h, "cluster.")
		h.detail["trace_overhead_base"] = map[string]int{"traced": len(tracedLat), "untraced": len(plainLat)}
	}

	// Capacity ladder: bisect the fixed rungs for the highest rate that
	// meets the limit. Ladder requests are checked and counted like any
	// other, but untraced.
	const probeRest = 100 * time.Millisecond
	probeDur := max((h.dur-durA)/ladderProbes-probeGrace-probeRest, minProbe)
	var probes []map[string]any
	passes := func(k int) bool {
		rate := smallRate * math.Pow(ladderStep, float64(k))
		pdue := poissonSchedule(rng, rate, probeDur)
		ppicks := make([]int, len(pdue))
		for i := range ppicks {
			ppicks[i] = rng.Intn(len(pool))
		}
		pclk := newWallClock()
		precs, pdropped := runOpenLoop(pclk, pdue, clientConns, probeDur+probeGrace, func(conn, i int) (bool, time.Duration) {
			return send(pool[ppicks[i]], pclk, conn, false, false)
		})
		var pl []float64
		allOK := true
		for _, r := range precs {
			pl = append(pl, ms(r.Latency()))
			allOK = allOK && r.OK
		}
		ppick := pickTail(len(pl))
		tail := percentile(sortedCopy(pl), ppick.Pct)
		pass := allOK && pdropped == 0 && ppick.Pct > 0 && tail <= capacityTailMs
		probes = append(probes, map[string]any{
			"rate_rps": rate, "sent": len(precs), "unsent": pdropped,
			"tail_percentile": ppick.Pct, "tail_ms": tail, "pass": pass,
		})
		time.Sleep(probeRest) // let any backlog's last responses land
		return pass
	}
	lo, hi := -1, ladderRungs
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		// A rung fails only when two probes in a row miss the limit, so
		// one host hiccup cannot sink the search.
		if passes(mid) || passes(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return fmt.Errorf("capacity ladder: even %.0f req/s misses the limit", smallRate)
	}
	h.e2e["capacity_rps"] = smallRate * math.Pow(ladderStep, float64(lo))
	h.detail["capacity_ladder"] = map[string]any{
		"limit":         fmt.Sprintf("tail <= %g ms, no failures, no backlog after %v", capacityTailMs, probeGrace),
		"probe_seconds": probeDur.Seconds(), "probes": probes,
	}

	if h.rec != nil {
		var kinds []opKind
		for i := 0; i < len(pool); i += smallVariants {
			kinds = append(kinds, pool[i].kind)
		}
		replayLayers(h, kinds, h.seed)
		modelLayer(h)
	}
	return nil
}
