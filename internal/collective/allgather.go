package collective

import (
	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
)

// AllGatherOp is an all-to-all broadcast along a chain: every node
// contributes one block and every node ends with all q blocks.
//
// One-port: recursive doubling, t_s log q + t_w (q-1)M (Table 1).
// Multi-port: d rotated slices, t_s log q + t_w (q-1)M / log q.
//
// Slice l keeps rank r's piece in slot rot(r, l): before step s the
// node holds the aligned run of 2^s slots around its own, sends it
// whole and receives the partner's run next to it.
type AllGatherOp struct{ slotOp }

// NewAllGather prepares an all-gather of blk.
func (c Comm) NewAllGather(phase uint64, blk *matrix.Dense) *AllGatherOp {
	op := &AllGatherOp{c.newSlotOp(phase, blk.Rows, blk.Cols, c.q*blk.Rows*blk.Cols)}
	for l := 0; l < c.g; l++ {
		lo, hi := sliceBounds(op.w, c.g, l)
		copy(op.slots(c.q*lo, hi-lo, c.rot(c.rank, l), 1), blk.Data[lo:hi])
	}
	return op
}

// run returns slice l's run of 2^s slots held before step s, or with
// partner set the run the partner holds.
func (op *AllGatherOp) run(s, l, lo, hi int, partner bool) []float64 {
	k := op.c.rot(op.c.rank, l) &^ (1<<s - 1)
	if partner {
		k ^= 1 << s
	}
	return op.slots(op.c.q*lo, hi-lo, k, 1<<s)
}

// SendStep implements Op.
func (op *AllGatherOp) SendStep(s int) {
	op.c.check()
	for l := 0; l < op.c.g; l++ {
		if lo, hi := sliceBounds(op.w, op.c.g, l); lo < hi {
			op.send(s, l, op.run(s, l, lo, hi, false))
		}
	}
}

// RecvStep implements Op.
func (op *AllGatherOp) RecvStep(s int) {
	for l := 0; l < op.c.g; l++ {
		if lo, hi := sliceBounds(op.w, op.c.g, l); lo < hi {
			op.recv("AllGather", s, l, op.run(s, l, lo, hi, true), false)
		}
	}
}

// Result returns all q blocks indexed by chain position (valid after
// Run).
func (op *AllGatherOp) Result() []*matrix.Dense {
	return op.pieces(op.c.q, func(pos, l, lo, sz int) int {
		return op.c.q*lo + op.c.rot(hypercube.Gray(pos), l)*sz
	})
}

// AllGather runs an all-to-all broadcast and returns the q blocks
// indexed by chain position on every node.
func (c Comm) AllGather(phase uint64, blk *matrix.Dense) []*matrix.Dense {
	if c.d == 0 {
		return []*matrix.Dense{blk}
	}
	op := c.NewAllGather(phase, blk)
	Run(op)
	return op.Result()
}
