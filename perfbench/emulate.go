package main

import (
	"fmt"
	"math/rand"
	"time"

	"hypermm"
	"hypermm/internal/obs"
)

// emulateKinds is the large-p rotation: the paper's 3-D All and 3-D
// Diagonal at p = 4096, Cannon at 1024 and Berntsen at 512, all n = 256.
var emulateKinds = []opKind{
	{Alg: hypermm.ThreeAll, N: 256, P: 4096},
	{Alg: hypermm.ThreeDiag, N: 256, P: 4096},
	{Alg: hypermm.Cannon, N: 256, P: 1024},
	{Alg: hypermm.Berntsen, N: 256, P: 512},
}

// emulateSetupReps is smaller than setupReps: one set-up here is a
// whole p = 4096 run.
const emulateSetupReps = 5

func emulateLargeP(h *harness) error {
	rng := rand.New(rand.NewSource(h.seed))
	ops := make([]operand, len(emulateKinds))
	for i, k := range emulateKinds {
		ops[i] = newOperand(k.N, rng.Int63n(1<<40)+1)
	}
	// runOne runs operation i and applies the library gate and the
	// determinism check.
	runOne := func(i int, sp *span) (time.Duration, int64, error) {
		k := emulateKinds[i]
		t0 := time.Now()
		res, err := hypermm.Run(k.Alg, k.config(), ops[i].A, ops[i].B)
		host := time.Since(t0)
		sp.end(obs.String("op", k.String()))
		if err != nil {
			return host, 0, fmt.Errorf("%v: %w", k, err)
		}
		if err := checkProduct(ops[i].want, res.C); err != nil {
			return host, 0, fmt.Errorf("%v: %w", k, err)
		}
		if err := h.ledger.observe(k, countsOf(res)); err != nil {
			return host, 0, err
		}
		return host, res.Comm.Msgs, nil
	}

	// Set-up: from nothing to the first correct product, which here
	// means building the first p = 4096 machine and running on it.
	var setups []float64
	for r := 0; r < emulateSetupReps; r++ {
		t0 := time.Now()
		_, _, err := runOne(0, nil)
		h.fails.record(err)
		if err != nil {
			return fmt.Errorf("set-up run: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	h.e2e["setup_s"] = median(setups)

	// Closed loop, one caller, rotating over the kinds. In the traced
	// run every other rotation is traced.
	var lat, tracedLat, plainLat []float64
	byKind := map[string][]float64{}
	var msgs int64
	ok := 0
	start := time.Now()
	for op := 0; time.Since(start) < h.dur || op%len(emulateKinds) != 0; op++ {
		i := op % len(emulateKinds)
		traced := h.rec != nil && (op/len(emulateKinds))%2 == 0
		var sp *span
		if traced {
			sp = h.rec.start("bench/caller", "hypermm.Run", h.rec.newTrace(), "")
		}
		host, m, err := runOne(i, sp)
		h.fails.record(err)
		l := ms(host)
		lat = append(lat, l)
		byKind[emulateKinds[i].String()] = append(byKind[emulateKinds[i].String()], l)
		if traced {
			tracedLat = append(tracedLat, l)
		} else {
			plainLat = append(plainLat, l)
		}
		if err == nil {
			ok++
			msgs += m
		}
	}
	wall := time.Since(start)
	pick := pickTail(len(lat))
	h.e2e["latency_p50_ms"] = median(lat)
	h.e2e["latency_tail_ms"] = percentile(sortedCopy(lat), pick.Pct)
	h.e2e["throughput_ops"] = float64(ok) / wall.Seconds()
	// A closed loop has no offered rate to step: its capacity is the
	// completion rate it sustains.
	h.e2e["capacity_rps"] = h.e2e["throughput_ops"]
	h.e2e["sim_msgs_per_host_s"] = float64(msgs) / wall.Seconds()
	h.detail["closed_loop"] = map[string]any{
		"callers": 1, "seconds": wall.Seconds(), "samples": len(lat),
		"tail_percentile": pick.Pct, "tail_beyond": pick.Beyond,
		"p50_ms_by_op": medians(byKind),
	}

	if h.rec != nil {
		notOnPath(h, "server.", "pool.", "http.", "cluster.")
		h.layer["bench.trace_overhead"] = median(tracedLat) / median(plainLat)
		replayLayers(h, emulateKinds, h.seed+7)
		modelLayer(h)
	}
	return nil
}
