package collective

import (
	"fmt"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
)

// ReduceOp is an all-to-one reduction by addition: the root ends with
// the element-wise sum of every node's block. It is the inverse of the
// one-to-all broadcast with respect to communication (Section 2), so it
// costs the same: one-port t_s log q + t_w M log q, multi-port
// t_s log q + t_w M.
type ReduceOp struct {
	slotOp     // one slot: the node's accumulating block
	rel    int // rank relative to the root
}

// NewReduce prepares a reduction of blk toward rootPos.
func (c Comm) NewReduce(phase uint64, rootPos int, blk *matrix.Dense) *ReduceOp {
	op := &ReduceOp{c.newSlotOp(phase, blk.Rows, blk.Cols, blk.Rows*blk.Cols), c.rank ^ hypercube.Gray(rootPos)}
	copy(op.buf, blk.Data)
	return op
}

// SendStep implements Op: slice l leaves at step low(rot(rel, l)).
func (op *ReduceOp) SendStep(s int) {
	op.c.check()
	for l := 0; l < op.c.g; l++ {
		if lo, hi := sliceBounds(op.w, op.c.g, l); lo < hi && op.c.low(op.c.rot(op.rel, l)) == s {
			op.send(s, l, op.buf[lo:hi])
		}
	}
}

// RecvStep implements Op.
func (op *ReduceOp) RecvStep(s int) {
	for l := 0; l < op.c.g; l++ {
		if lo, hi := sliceBounds(op.w, op.c.g, l); lo < hi && op.c.low(op.c.rot(op.rel, l)) > s {
			op.recv("Reduce", s, l, op.buf[lo:hi], true)
			op.c.N.Compute(int64(hi - lo))
		}
	}
}

// Result returns the summed block on the root, nil elsewhere.
func (op *ReduceOp) Result() *matrix.Dense {
	if op.rel != 0 {
		return nil
	}
	return matrix.FromSlice(op.rows, op.cols, op.buf)
}

// Reduce sums every node's block at rootPos; the root returns the sum,
// other nodes return nil.
func (c Comm) Reduce(phase uint64, rootPos int, blk *matrix.Dense) *matrix.Dense {
	if c.d == 0 {
		return blk
	}
	op := c.NewReduce(phase, rootPos, blk)
	Run(op)
	return op.Result()
}

// ReduceScatterOp is an all-to-all reduction: every node contributes a
// block per chain position; node at position j ends with the sum over
// contributors of the blocks destined for position j. It is the inverse
// of the all-to-all broadcast: one-port t_s log q + t_w (q-1)M,
// multi-port t_s log q + t_w (q-1)M / log q (Table 1).
//
// Slice l keeps the accumulating piece for rank x in slot rev(x, l):
// before step s the node holds the aligned run of 2^(d-s) slots around
// its own, sends the half not containing its own slot and folds the
// partner's copy of the other half into it.
type ReduceScatterOp struct{ slotOp }

// NewReduceScatter prepares an all-to-all reduction; blocks are indexed
// by destination position and must be uniform.
func (c Comm) NewReduceScatter(phase uint64, blocks []*matrix.Dense) *ReduceScatterOp {
	if len(blocks) != c.q {
		panic(fmt.Sprintf("collective: ReduceScatter has %d blocks want %d", len(blocks), c.q))
	}
	rows, cols := checkUniform("ReduceScatter", blocks)
	op := &ReduceScatterOp{c.newSlotOp(phase, rows, cols, c.q*rows*cols)}
	for l := 0; l < c.g; l++ {
		lo, hi := sliceBounds(op.w, c.g, l)
		for pos, b := range blocks {
			copy(op.slots(c.q*lo, hi-lo, c.rev(hypercube.Gray(pos), l), 1), b.Data[lo:hi])
		}
	}
	return op
}

// half returns slice l's half-run of 2^(d-1-s) slots the node keeps at
// step s, or with partner set the half it hands over.
func (op *ReduceScatterOp) half(s, l, lo, hi int, partner bool) []float64 {
	h := 1 << (op.c.d - 1 - s)
	k := op.c.rev(op.c.rank, l) &^ (h - 1)
	if partner {
		k ^= h
	}
	return op.slots(op.c.q*lo, hi-lo, k, h)
}

// SendStep implements Op.
func (op *ReduceScatterOp) SendStep(s int) {
	op.c.check()
	for l := 0; l < op.c.g; l++ {
		if lo, hi := sliceBounds(op.w, op.c.g, l); lo < hi {
			op.send(s, l, op.half(s, l, lo, hi, true))
		}
	}
}

// RecvStep implements Op.
func (op *ReduceScatterOp) RecvStep(s int) {
	for l := 0; l < op.c.g; l++ {
		if lo, hi := sliceBounds(op.w, op.c.g, l); lo < hi {
			kept := op.half(s, l, lo, hi, false)
			op.recv("ReduceScatter", s, l, kept, true)
			op.c.N.Compute(int64(len(kept)))
		}
	}
}

// Result returns the node's own summed block (valid after Run).
func (op *ReduceScatterOp) Result() *matrix.Dense {
	return op.pieces(1, func(_, l, lo, sz int) int {
		return op.c.q*lo + op.c.rev(op.c.rank, l)*sz
	})[0]
}

// ReduceScatter runs an all-to-all reduction: blocks are indexed by
// destination position; every node returns the sum of the blocks
// destined for its own position.
func (c Comm) ReduceScatter(phase uint64, blocks []*matrix.Dense) *matrix.Dense {
	if c.d == 0 {
		return blocks[0]
	}
	op := c.NewReduceScatter(phase, blocks)
	Run(op)
	return op.Result()
}
