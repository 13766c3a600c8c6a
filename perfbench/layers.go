package main

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"hypermm"
	"hypermm/internal/matrix"
	"hypermm/internal/obs"
	"hypermm/internal/simnet"
)

// modelRow is one operation's exact counters set against the paper's
// model: predicted total time from Table 2 and the memory-independent
// per-processor lower bound on words moved (arXiv:1202.3177).
type modelRow struct {
	Op             string    `json:"op"`
	Counts         simCounts `json:"counts"`
	Predicted      float64   `json:"predicted_time"`
	SimOverPred    float64   `json:"sim_over_predicted"`
	WordsPerProc   float64   `json:"words_per_proc"`
	Bound          float64   `json:"words_bound_n2_over_p23"`
	WordsOverBound float64   `json:"words_over_bound"`
}

func modelRows(l *ledger) []modelRow {
	l.mu.Lock()
	defer l.mu.Unlock()
	rows := make([]modelRow, 0, len(l.first))
	for k, c := range l.first {
		cfg := k.config()
		pred, _ := hypermm.TotalTime(k.Alg, float64(k.N), float64(k.P), cfg.Ts, cfg.Tw, cfg.Tc, k.Ports)
		wpp := float64(c.Words) / float64(k.P)
		bound := float64(k.N) * float64(k.N) / math.Pow(float64(k.P), 2.0/3)
		rows = append(rows, modelRow{
			Op: k.String(), Counts: c, Predicted: pred, SimOverPred: c.Elapsed / pred,
			WordsPerProc: wpp, Bound: bound, WordsOverBound: wpp / bound,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Op < rows[j].Op })
	return rows
}

// modelLayer reports the sim.* and model.* metrics: means over the
// workload's distinct operations, each weighted once, so they depend
// only on which operations the workload runs, never on the seed's mix.
func modelLayer(h *harness) {
	rows := modelRows(h.ledger)
	var m [8]float64
	for _, r := range rows {
		c := r.Counts
		for i, v := range []float64{float64(c.Msgs), float64(c.Words), float64(c.Startups), float64(c.WordHops),
			float64(c.Flops), c.Elapsed, r.SimOverPred, r.WordsOverBound} {
			m[i] += v / float64(len(rows))
		}
	}
	for i, name := range []string{"sim.msgs", "sim.words", "sim.startups", "sim.word_hops",
		"sim.flops", "sim.elapsed", "model.sim_over_predicted", "model.words_over_bound"} {
		h.layer[name] = m[i]
	}
}

// operand is a seeded operand pair with its serial product.
type operand struct {
	A, B, want *hypermm.Matrix
}

func newOperand(n int, seed int64) operand {
	A := hypermm.RandomMatrix(n, n, seed)
	B := hypermm.RandomMatrix(n, n, seed+1)
	return operand{A: A, B: B, want: hypermm.MatMul(A, B)}
}

// replayLayers measures the simulated-run layers in isolation, one
// caller at a time, at the workload's own operations: the run as a
// whole (host time, allocations), the machine floor (building a
// machine and running an empty program), three collectives and the
// local GEMM kernel.
func replayLayers(h *harness, kinds []opKind, seed int64) {
	const process = "bench/replay"
	var hostMs, nsPerMsg, allocs, allocMB, floorMs, gflops, share []float64
	floorByP := map[int]float64{}
	for i, k := range kinds {
		op := newOperand(k.N, seed+int64(i)*2)
		tr := h.rec.newTrace()
		root := h.rec.start(process, "replay.run", tr, "")
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		res, err := hypermm.Run(k.Alg, k.config(), op.A, op.B)
		host := time.Since(t0)
		runtime.ReadMemStats(&after)
		root.end(obs.String("op", k.String()))
		if err == nil {
			err = checkProduct(op.want, res.C)
		}
		if err == nil {
			err = h.ledger.observe(k, countsOf(res))
		}
		h.fails.record(err)
		if err != nil {
			continue
		}
		hostMs = append(hostMs, ms(host))
		nsPerMsg = append(nsPerMsg, float64(host.Nanoseconds())/float64(res.Comm.Msgs))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))

		if _, ok := floorByP[k.P]; !ok {
			floorByP[k.P] = replayFloor(h, k)
		}
		floorMs = append(floorMs, floorByP[k.P])

		b := localBlock(k)
		g := replayMulAdd(h, b)
		gflops = append(gflops, g)
		share = append(share, float64(res.Comm.Flops)/(g*1e9)/host.Seconds())
	}
	h.layer["run.host_ms"] = mean(hostMs)
	h.layer["simnet.host_ns_per_msg"] = mean(nsPerMsg)
	h.layer["simnet.allocs_per_run"] = mean(allocs)
	h.layer["simnet.alloc_mb_per_run"] = mean(allocMB)
	h.layer["simnet.floor_ms"] = mean(floorMs)
	h.layer["matrix.muladd_gflops"] = mean(gflops)
	h.layer["matrix.kernel_share_est"] = mean(share)
	widest := kinds[0]
	for _, k := range kinds {
		if k.P > widest.P {
			widest = k
		}
	}
	replayCollectives(h, widest)
}

// notOnPath reports as 0 the per-layer metrics, picked by name prefix,
// of layers a workload does not pass through.
func notOnPath(h *harness, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				h.layer[d.Name] = 0
			}
		}
	}
}

// replayFloor is the machinery cost no algorithm can avoid at p: build
// a machine and run an empty program on every node (median of 3).
func replayFloor(h *harness, k opKind) float64 {
	var xs []float64
	for i := 0; i < 3; i++ {
		sp := h.rec.start("bench/replay", "replay.floor", h.rec.newTrace(), "")
		t0 := time.Now()
		m := simnet.NewMachine(simnet.Config{P: k.P, Ts: 150, Tw: 3, Tc: 0.5})
		m.Run(func(*simnet.Node) {})
		xs = append(xs, ms(time.Since(t0)))
		sp.end(obs.Int("p", k.P))
	}
	return median(xs)
}

// localBlock estimates the edge of the square local blocks an algorithm
// multiplies: n/p^(1/3) on the 3-D grids, n/p^(1/2) on the 2-D ones.
func localBlock(k opKind) int {
	q := math.Sqrt(float64(k.P))
	switch k.Alg {
	case hypermm.DNS, hypermm.Berntsen, hypermm.ThreeDiag, hypermm.ThreeAll, hypermm.AllTrans:
		q = math.Cbrt(float64(k.P))
	}
	return max(1, int(math.Round(float64(k.N)/q)))
}

// replayMulAdd measures the local kernel on b×b blocks for about 30 ms
// and returns GFLOP/s.
func replayMulAdd(h *harness, b int) float64 {
	A := matrix.Random(b, b, 1)
	B := matrix.Random(b, b, 2)
	C := matrix.New(b, b)
	sp := h.rec.start("bench/replay", "replay.muladd", h.rec.newTrace(), "")
	reps := 0
	t0 := time.Now()
	for time.Since(t0) < 30*time.Millisecond {
		matrix.MulAdd(C, A, B)
		reps++
	}
	el := time.Since(t0)
	sp.end(obs.Int("b", b), obs.Int("reps", reps))
	return float64(matrix.MulFlops(b, b, b)) * float64(reps) / el.Seconds() / 1e9
}

// Collective replays run on at most 64 nodes with at most 256-word
// messages: an all-gather at p = 4096 would need gigabytes.
const (
	collMaxN = 64
	collMaxM = 256
)

// replayCollectives times the broadcast, all-gather and reduce-scatter
// patterns through MeasuredCollective, which runs each pattern twice,
// at the shape of operation k capped as above.
func replayCollectives(h *harness, k opKind) {
	N := min(k.P, collMaxN)
	b := localBlock(k)
	M := min(b*b, collMaxM)
	for _, c := range []struct {
		name string
		c    hypermm.Collective
	}{
		{"collective.bcast_ms", hypermm.OneToAllBcast},
		{"collective.allgather_ms", hypermm.AllToAllBcast},
		{"collective.reducescatter_ms", hypermm.AllToAllReduce},
	} {
		var xs []float64
		for i := 0; i < 3; i++ {
			sp := h.rec.start("bench/replay", "replay."+c.name, h.rec.newTrace(), "")
			t0 := time.Now()
			_, _, err := hypermm.MeasuredCollective(c.c, N, M, k.Ports)
			xs = append(xs, ms(time.Since(t0))/2)
			sp.end(obs.Int("N", N), obs.Int("M", M))
			h.fails.record(err)
		}
		h.layer[c.name] = median(xs)
	}
	h.detail["collective_replay"] = map[string]int{"N": N, "M": M}
}
