package collective

import (
	"testing"

	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// The fuzz targets drive the collectives over arbitrary payload shapes
// and chain lengths on both port models: whatever the block geometry,
// every node must end with exactly the blocks the pattern promises.
// Multi-port slicing is the interesting surface — blocks with fewer
// words than log q leave some slices empty (lo == hi) on every step, so
// each target carries a multi-port seed of that shape.

func fuzzPorts(b uint8) simnet.PortModel {
	if b%2 == 0 {
		return simnet.OnePort
	}
	return simnet.MultiPort
}

func FuzzAllGatherShapes(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(3), uint8(1), int64(7))
	f.Add(uint8(3), uint8(1), uint8(1), uint8(0), int64(1))
	f.Add(uint8(3), uint8(0), uint8(0), uint8(1), int64(1)) // 1x1 blocks, multi-port q=8: empty slices
	f.Fuzz(func(t *testing.T, dB, rB, cB, pmB uint8, seed int64) {
		q := 1 << (int(dB) % 4)
		rows, cols := 1+int(rB)%5, 1+int(cB)%7
		m := newMach(q, fuzzPorts(pmB), 1, 1)
		ch := chainOf(q)
		m.Run(func(n *simnet.Node) {
			c := On(n, ch)
			all := c.AllGather(1, matrix.Random(rows, cols, seed+int64(c.Pos())))
			if len(all) != q {
				t.Errorf("pos %d: got %d blocks, want %d", c.Pos(), len(all), q)
				return
			}
			for j := range all {
				if !matrix.Equal(all[j], matrix.Random(rows, cols, seed+int64(j))) {
					t.Errorf("pos %d: block %d corrupted", c.Pos(), j)
				}
			}
		})
	})
}

func FuzzAllToAllShapes(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(4), uint8(1), int64(11))
	f.Add(uint8(3), uint8(0), uint8(1), uint8(1), int64(4)) // 1x2 blocks, multi-port q=8: empty slices
	f.Fuzz(func(t *testing.T, dB, rB, cB, pmB uint8, seed int64) {
		q := 1 << (int(dB) % 4)
		rows, cols := 1+int(rB)%4, 1+int(cB)%6
		// blockFor(src, dst): the block src sends to dst, reconstructible
		// at the receiver for verification.
		blockFor := func(src, dst int) *matrix.Dense {
			return matrix.Random(rows, cols, seed+int64(src*64+dst))
		}
		m := newMach(q, fuzzPorts(pmB), 1, 1)
		ch := chainOf(q)
		m.Run(func(n *simnet.Node) {
			c := On(n, ch)
			out := make([]*matrix.Dense, q)
			for dst := range out {
				out[dst] = blockFor(c.Pos(), dst)
			}
			in := c.AllToAll(1, out)
			for src := range in {
				if !matrix.Equal(in[src], blockFor(src, c.Pos())) {
					t.Errorf("pos %d: block from %d corrupted", c.Pos(), src)
				}
			}
		})
	})
}

func FuzzReduceShapes(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(2), uint8(0), uint8(1), int64(5))
	f.Add(uint8(2), uint8(0), uint8(0), uint8(5), uint8(1), int64(2)) // 1x1 blocks, multi-port q=8: empty slices
	f.Fuzz(func(t *testing.T, dB, rB, cB, rootB, pmB uint8, seed int64) {
		q := 1 << (1 + int(dB)%3)
		rows, cols := 1+int(rB)%4, 1+int(cB)%5
		root := int(rootB) % q
		want := matrix.New(rows, cols)
		for j := 0; j < q; j++ {
			want.AddInto(matrix.Random(rows, cols, seed+int64(j)))
		}
		m := newMach(q, fuzzPorts(pmB), 1, 1)
		ch := chainOf(q)
		m.Run(func(n *simnet.Node) {
			c := On(n, ch)
			got := c.Reduce(1, root, matrix.Random(rows, cols, seed+int64(c.Pos())))
			if c.Pos() == root {
				if matrix.MaxAbsDiff(got, want) > 1e-9 {
					t.Errorf("root %d: reduced sum wrong", root)
				}
			} else if got != nil {
				t.Errorf("pos %d: non-root received a reduction result", c.Pos())
			}
		})
	})
}

func FuzzReduceScatterShapes(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(3), uint8(1), int64(9))
	f.Add(uint8(2), uint8(0), uint8(1), uint8(1), int64(6)) // 1x2 blocks, multi-port q=8: empty slices
	f.Fuzz(func(t *testing.T, dB, rB, cB, pmB uint8, seed int64) {
		q := 1 << (1 + int(dB)%3)
		rows, cols := 1+int(rB)%4, 1+int(cB)%5
		// contribFor(src, slot): src's contribution to slot's result.
		contribFor := func(src, slot int) *matrix.Dense {
			return matrix.Random(rows, cols, seed+int64(src*64+slot))
		}
		m := newMach(q, fuzzPorts(pmB), 1, 1)
		ch := chainOf(q)
		m.Run(func(n *simnet.Node) {
			c := On(n, ch)
			blocks := make([]*matrix.Dense, q)
			for slot := range blocks {
				blocks[slot] = contribFor(c.Pos(), slot)
			}
			got := c.ReduceScatter(1, blocks)
			want := matrix.New(rows, cols)
			for src := 0; src < q; src++ {
				want.AddInto(contribFor(src, c.Pos()))
			}
			if matrix.MaxAbsDiff(got, want) > 1e-9 {
				t.Errorf("pos %d: reduce-scatter slot wrong", c.Pos())
			}
		})
	})
}

func FuzzScatterGatherShapes(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(2), uint8(1), uint8(0), int64(3))
	f.Add(uint8(4), uint8(0), uint8(2), uint8(5), uint8(1), int64(7)) // 1x3 blocks, multi-port q=16: empty slices
	f.Fuzz(func(t *testing.T, dB, rB, cB, rootB, pmB uint8, seed int64) {
		q := 1 << (int(dB) % 5)
		rows, cols := 1+int(rB)%4, 1+int(cB)%5
		root := int(rootB) % q
		blockFor := func(pos int) *matrix.Dense { return matrix.Random(rows, cols, seed+int64(pos)) }
		m := newMach(q, fuzzPorts(pmB), 1, 1)
		ch := chainOf(q)
		m.Run(func(n *simnet.Node) {
			c := On(n, ch)
			var blocks []*matrix.Dense
			if c.Pos() == root {
				for pos := 0; pos < q; pos++ {
					blocks = append(blocks, blockFor(pos))
				}
			}
			mine := c.Scatter(1, root, rows, cols, blocks)
			if !matrix.Equal(mine, blockFor(c.Pos())) {
				t.Errorf("pos %d: scattered block corrupted", c.Pos())
			}
			back := c.Gather(2, root, mine)
			if c.Pos() != root {
				if back != nil {
					t.Errorf("pos %d: non-root received a gather result", c.Pos())
				}
				return
			}
			for pos := range back {
				if !matrix.Equal(back[pos], blockFor(pos)) {
					t.Errorf("root %d: gathered block %d corrupted", root, pos)
				}
			}
		})
	})
}
