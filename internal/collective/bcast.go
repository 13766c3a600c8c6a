package collective

import (
	"fmt"
	"math/bits"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
)

// BcastOp is a one-to-all broadcast along a chain: the node at rootPos
// holds a block that every chain node ends up with.
//
// One-port: spanning binomial tree, log q steps of the full message:
// t_s log q + t_w M log q (Table 1). Multi-port: the message is cut
// into d slices, slice l following the binomial schedule over the
// dimension order rotated by l, so every step moves all slices on
// distinct ports: t_s log q + t_w M.
type BcastOp struct {
	slotOp     // one slot: the broadcast block
	rel    int // rank relative to the root
}

// NewBcast prepares a broadcast. Every participant must pass the block
// shape (rows, cols); only the root passes blk (others nil).
func (c Comm) NewBcast(phase uint64, rootPos, rows, cols int, blk *matrix.Dense) *BcastOp {
	op := &BcastOp{rel: c.rank ^ hypercube.Gray(rootPos)}
	if op.rel != 0 {
		op.slotOp = c.newSlotOp(phase, rows, cols, rows*cols)
		return op
	}
	if blk == nil || blk.Rows != rows || blk.Cols != cols {
		panic(fmt.Sprintf("collective: Bcast root block mismatch (want %dx%d)", rows, cols))
	}
	op.slotOp = c.newSlotOp(phase, rows, cols, 0)
	op.buf = blk.Data // the root sends straight from its block
	return op
}

// recvStep returns the step at which this node first holds slice l:
// the highest set bit of rot(rel, l) (-1 for the root).
func (op *BcastOp) recvStep(l int) int {
	return bits.Len(uint(op.c.rot(op.rel, l))) - 1
}

// SendStep implements Op.
func (op *BcastOp) SendStep(s int) {
	op.c.check()
	for l := 0; l < op.c.g; l++ {
		if lo, hi := sliceBounds(op.w, op.c.g, l); lo < hi && op.recvStep(l) < s {
			op.send(s, l, op.buf[lo:hi])
		}
	}
}

// RecvStep implements Op.
func (op *BcastOp) RecvStep(s int) {
	for l := 0; l < op.c.g; l++ {
		if lo, hi := sliceBounds(op.w, op.c.g, l); lo < hi && op.recvStep(l) == s {
			op.recv("Bcast", s, l, op.buf[lo:hi], false)
		}
	}
}

// Result returns the broadcast block (valid after Run).
func (op *BcastOp) Result() *matrix.Dense {
	return matrix.FromSlice(op.rows, op.cols, op.buf)
}

// Bcast runs a one-to-all broadcast and returns the block on every node.
func (c Comm) Bcast(phase uint64, rootPos, rows, cols int, blk *matrix.Dense) *matrix.Dense {
	if c.d == 0 {
		return blk
	}
	op := c.NewBcast(phase, rootPos, rows, cols, blk)
	Run(op)
	return op.Result()
}
