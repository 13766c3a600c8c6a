package collective

import (
	"fmt"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
)

// ScatterOp is a one-to-all personalized broadcast: the root holds one
// block per chain position and each node ends with its own block.
//
// One-port: binomial halving, t_s log q + t_w (q-1)M (Table 1).
// Multi-port: d rotated slices, t_s log q + t_w (q-1)M / log q.
//
// Slice l keeps the piece for relative rank x in slot rev(x, l),
// counted from the node's own slot rev(rel, l): a node receives the
// aligned run of 1<<low(rev(rel, l)) slots starting at its own, then
// sends the upper half of what it holds at every later step.
type ScatterOp struct {
	slotOp
	rel int
	off []int // per slice: word offset of the node's own slot
}

// NewScatter prepares a scatter. Every participant passes the piece
// shape; only the root passes blocks (indexed by position, length q).
func (c Comm) NewScatter(phase uint64, rootPos, rows, cols int, blocks []*matrix.Dense) *ScatterOp {
	rootRank := hypercube.Gray(rootPos)
	op := &ScatterOp{rel: c.rank ^ rootRank}
	op.off = c.offsets(rows*cols, func(l int) int { return c.rev(op.rel, l) })
	op.slotOp = c.newSlotOp(phase, rows, cols, op.off[c.g])
	if op.rel == 0 {
		if len(blocks) != c.q {
			panic(fmt.Sprintf("collective: Scatter root has %d blocks want %d", len(blocks), c.q))
		}
		for pos, b := range blocks {
			if b.Rows != rows || b.Cols != cols {
				panic(fmt.Sprintf("collective: Scatter block %d is %dx%d want %dx%d", pos, b.Rows, b.Cols, rows, cols))
			}
			for l := 0; l < c.g; l++ {
				lo, hi := sliceBounds(op.w, c.g, l)
				copy(op.slots(op.off[l], hi-lo, c.rev(hypercube.Gray(pos)^rootRank, l), 1), b.Data[lo:hi])
			}
		}
	}
	return op
}

// offsets lays out a binomial scatter's or gather's slot buffer: slice
// l holds the 1<<low(own(l)) slots starting at its own slot own(l).
// It returns each slice's word offset, plus the total as a last entry.
func (c Comm) offsets(w int, own func(l int) int) []int {
	off := make([]int, c.g+1)
	for l := 0; l < c.g; l++ {
		lo, hi := sliceBounds(w, c.g, l)
		off[l+1] = off[l] + (hi-lo)<<c.low(own(l))
	}
	return off
}

// SendStep implements Op.
func (op *ScatterOp) SendStep(s int) {
	op.c.check()
	h := 1 << (op.c.d - 1 - s)
	for l := 0; l < op.c.g; l++ {
		// A holder (received before step s) sends its upper half.
		if lo, hi := sliceBounds(op.w, op.c.g, l); lo < hi && 1<<op.c.low(op.c.rev(op.rel, l)) > h {
			op.send(s, l, op.slots(op.off[l], hi-lo, h, h))
		}
	}
}

// RecvStep implements Op.
func (op *ScatterOp) RecvStep(s int) {
	h := 1 << (op.c.d - 1 - s)
	for l := 0; l < op.c.g; l++ {
		if lo, hi := sliceBounds(op.w, op.c.g, l); lo < hi && 1<<op.c.low(op.c.rev(op.rel, l)) == h {
			op.recv("Scatter", s, l, op.slots(op.off[l], hi-lo, 0, h), false)
		}
	}
}

// Result returns the node's own piece (valid after Run).
func (op *ScatterOp) Result() *matrix.Dense {
	return op.pieces(1, func(_, l, _, _ int) int { return op.off[l] })[0]
}

// Scatter runs a one-to-all personalized broadcast; blocks (root only)
// are indexed by chain position. Every node returns its own block.
func (c Comm) Scatter(phase uint64, rootPos, rows, cols int, blocks []*matrix.Dense) *matrix.Dense {
	if c.d == 0 {
		return blocks[0]
	}
	op := c.NewScatter(phase, rootPos, rows, cols, blocks)
	Run(op)
	return op.Result()
}

// GatherOp is the inverse of scatter: every node contributes one block
// and the root ends with all q blocks. Cost mirrors ScatterOp.
//
// Slice l keeps the piece of relative rank x in slot rot(x, l), counted
// from the node's own slot rot(rel, l): before step s a node holds the
// 2^s slots starting at its own and receives the next 2^s, until step
// low(rot(rel, l)), at which it sends all it holds.
type GatherOp struct {
	slotOp
	rel, rootRank int
	off           []int // per slice: word offset of the node's own slot
}

// NewGather prepares a gather of blk toward rootPos.
func (c Comm) NewGather(phase uint64, rootPos int, blk *matrix.Dense) *GatherOp {
	rootRank := hypercube.Gray(rootPos)
	op := &GatherOp{rel: c.rank ^ rootRank, rootRank: rootRank}
	op.off = c.offsets(blk.Rows*blk.Cols, func(l int) int { return c.rot(op.rel, l) })
	op.slotOp = c.newSlotOp(phase, blk.Rows, blk.Cols, op.off[c.g])
	for l := 0; l < c.g; l++ {
		lo, hi := sliceBounds(op.w, c.g, l)
		copy(op.buf[op.off[l]:], blk.Data[lo:hi])
	}
	return op
}

// SendStep implements Op.
func (op *GatherOp) SendStep(s int) {
	op.c.check()
	for l := 0; l < op.c.g; l++ {
		if lo, hi := sliceBounds(op.w, op.c.g, l); lo < hi && op.c.low(op.c.rot(op.rel, l)) == s {
			op.send(s, l, op.slots(op.off[l], hi-lo, 0, 1<<s))
		}
	}
}

// RecvStep implements Op.
func (op *GatherOp) RecvStep(s int) {
	for l := 0; l < op.c.g; l++ {
		if lo, hi := sliceBounds(op.w, op.c.g, l); lo < hi && op.c.low(op.c.rot(op.rel, l)) > s {
			op.recv("Gather", s, l, op.slots(op.off[l], hi-lo, 1<<s, 1<<s), false)
		}
	}
}

// Result returns the gathered blocks indexed by position on the root,
// nil elsewhere (valid after Run).
func (op *GatherOp) Result() []*matrix.Dense {
	if op.rel != 0 {
		return nil
	}
	return op.pieces(op.c.q, func(pos, l, _, sz int) int {
		return op.off[l] + op.c.rot(hypercube.Gray(pos)^op.rootRank, l)*sz
	})
}

// Gather collects every node's block at rootPos; the root returns the
// blocks indexed by position, all other nodes return nil.
func (c Comm) Gather(phase uint64, rootPos int, blk *matrix.Dense) []*matrix.Dense {
	if c.d == 0 {
		return []*matrix.Dense{blk}
	}
	op := c.NewGather(phase, rootPos, blk)
	Run(op)
	return op.Result()
}
