package collective

import (
	"runtime/debug"
	"testing"

	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// TestCollectiveAllocsFlat pins the flat slot-buffer design: what one
// node allocates for a collective (the op, its slot buffer, the result
// headers) is a constant, not a per-step cost. Messages come from the
// transport's pools and every receiver returns them, so a node on a
// q = 64 chain (six steps) allocates no more than on a q = 8 chain
// (three steps), and both stay under a small fixed bound, on either
// port model.
func TestCollectiveAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	const bound = 8 // allocations per node per collective
	ops := []struct {
		name string
		run  func(c Comm, blk *matrix.Dense, blocks []*matrix.Dense)
	}{
		{"AllGather", func(c Comm, blk *matrix.Dense, _ []*matrix.Dense) { c.AllGather(1, blk) }},
		{"AllToAll", func(c Comm, _ *matrix.Dense, blocks []*matrix.Dense) { c.AllToAll(1, blocks) }},
		{"ReduceScatter", func(c Comm, _ *matrix.Dense, blocks []*matrix.Dense) { c.ReduceScatter(1, blocks) }},
		{"Scatter", func(c Comm, blk *matrix.Dense, blocks []*matrix.Dense) { c.Scatter(1, 0, blk.Rows, blk.Cols, blocks) }},
		{"Gather", func(c Comm, blk *matrix.Dense, _ []*matrix.Dense) { c.Gather(1, 0, blk) }},
	}
	for _, pm := range portModels {
		for _, op := range ops {
			small, large := nodeAllocs(8, pm, op.run), nodeAllocs(64, pm, op.run)
			t.Logf("%s %v: %.2f allocs/node at q=8, %.2f at q=64", op.name, pm, small, large)
			if small > bound || large > bound || large > small+0.25 {
				t.Errorf("%s %v: %.2f allocs/node at q=8, %.2f at q=64; want both <= %d and no growth with the step count",
					op.name, pm, small, large, bound)
			}
		}
	}
}

// nodeAllocs returns the mean allocations per node of one run of op on
// a q-node chain, net of what an empty program costs on the same
// machine (the run's own goroutines and abort channels). The 4x6 blocks
// give every multi-port slice a word.
func nodeAllocs(q int, pm simnet.PortModel, op func(Comm, *matrix.Dense, []*matrix.Dense)) float64 {
	m := simnet.NewMachine(simnet.Config{P: q, Ports: pm, Ts: 1, Tw: 1})
	ch := chainOf(q)
	blk := posBlock(4, 6, 0, 1)
	blocks := make([]*matrix.Dense, q)
	for i := range blocks {
		blocks[i] = posBlock(4, 6, i, 2)
	}
	prog := func(n *simnet.Node) { op(On(n, ch), blk, blocks) }
	// A collection empties the transport's sync.Pools, and refilling
	// them is an allocation per pooled buffer that depends on the heap's
	// pace, not on the collective: measure with the collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	empty := testing.AllocsPerRun(20, func() { m.Run(func(*simnet.Node) {}) })
	return (testing.AllocsPerRun(20, func() { m.Run(prog) }) - empty) / float64(q)
}
