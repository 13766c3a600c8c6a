package main

import (
	"fmt"
	"math"
	"sync"

	"hypermm"
	"hypermm/internal/server"
)

// simCounts are the exact per-operation counters of one simulated run.
// They depend only on the algorithm and the shape, never on host speed,
// so any change between repeats of one operation is an error.
type simCounts struct {
	Elapsed  float64
	Msgs     int64
	Words    int64
	Startups int64
	WordHops int64
	Flops    int64
	Retries  int64
}

func countsOf(r *hypermm.Result) simCounts {
	return simCounts{
		Elapsed: r.Elapsed, Msgs: r.Comm.Msgs, Words: r.Comm.Words, Startups: r.Comm.Startups,
		WordHops: r.Comm.WordHops, Flops: r.Comm.Flops, Retries: r.Comm.Retries,
	}
}

// checkServed is the serving gate: the product a server returned must be
// bit-for-bit the product of a local hypermm.Run with the same algorithm
// and config, and its simulated time and counters must equal the local
// run's.
func checkServed(ref *hypermm.Result, resp *server.MatmulResponse) error {
	c := ref.C.Data
	if len(resp.C) != len(c) {
		return fmt.Errorf("product has %d entries, want %d", len(resp.C), len(c))
	}
	for i := range c {
		if math.Float64bits(resp.C[i]) != math.Float64bits(c[i]) {
			return fmt.Errorf("product entry %d is %v, local run gives %v", i, resp.C[i], c[i])
		}
	}
	got, want := resp.Simulated, ref
	if got.Elapsed != want.Elapsed || got.Msgs != want.Comm.Msgs || got.Words != want.Comm.Words ||
		got.Startups != want.Comm.Startups || got.Flops != want.Comm.Flops || got.Retries != want.Comm.Retries {
		return fmt.Errorf("simulated stats %+v differ from local run (elapsed %v, %+v)", got, want.Elapsed, want.Comm)
	}
	return nil
}

// productTol is the tolerance of the library gate against the serial
// product: the distributed sums reassociate, so bits may differ.
func productTol(n int) float64 { return 1e-9 * float64(n) }

// checkProduct is the library gate: C must match the serial product
// within productTol.
func checkProduct(want, got *hypermm.Matrix) error {
	if got == nil || got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("product shape differs from the serial product")
	}
	for i, v := range got.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("product entry %d is %v", i, v)
		}
	}
	if d := hypermm.MaxAbsDiff(want, got); !(d <= productTol(want.Rows)) {
		return fmt.Errorf("product differs from the serial product by %g (tol %g)", d, productTol(want.Rows))
	}
	return nil
}

// ledger checks that every repeat of one operation reproduces the
// counters of its first run, and keeps the first counters per operation
// for the report.
type ledger struct {
	mu    sync.Mutex
	first map[opKind]simCounts
	drift []string
}

func newLedger() *ledger { return &ledger{first: map[opKind]simCounts{}} }

// observe records the counters of one run of operation k and returns an
// error when they differ from its first run.
func (l *ledger) observe(k opKind, c simCounts) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.first[k]
	if !ok {
		l.first[k] = c
		return nil
	}
	if f != c {
		err := fmt.Errorf("counters of %s drifted: first %+v, now %+v", k, f, c)
		l.drift = append(l.drift, err.Error())
		return err
	}
	return nil
}

// opKind is an operation as far as its counters are concerned: the
// algorithm, the shape and the port model, under the paper's default
// (t_s, t_w, t_c) = (150, 3, 0.5).
type opKind struct {
	Alg   hypermm.Algorithm
	N, P  int
	Ports hypermm.PortModel
}

func (k opKind) String() string {
	ports := "one"
	if k.Ports == hypermm.MultiPort {
		ports = "multi"
	}
	return fmt.Sprintf("%s/n%d/p%d/%s", k.Alg.Name(), k.N, k.P, ports)
}

func (k opKind) config() hypermm.Config {
	cfg := hypermm.DefaultConfig(k.P)
	cfg.Ports = k.Ports
	return cfg
}

// failures counts operations by outcome and keeps the first few errors.
type failures struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	first     []string
}

func (f *failures) record(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempted++
	if err != nil {
		f.failed++
		if len(f.first) < 5 {
			f.first = append(f.first, err.Error())
		}
	}
}
