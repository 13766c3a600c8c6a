package collective

import (
	"fmt"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
)

// AllToAllOp is an all-to-all personalized communication along a chain:
// every node holds one block per destination position; node j ends with
// the q blocks addressed to it, indexed by origin position.
//
// The schedule is the classic pairwise hypercube exchange: at the step
// using chain bit b, a node forwards every held piece whose destination
// disagrees with it on bit b. Each step carries q/2 pieces, so the
// one-port cost is t_s log q + t_w q M log q / 2 (Table 1); the
// multi-port sliced variant divides the t_w term by log q.
//
// Slice l keeps q slots indexed in rot order. Before step s, slot bits
// below s are the piece's origin bits and bits at or above s its
// destination bits. Step s swaps, in place, the slots whose bit s
// differs from the node's own: the pieces leaving have destination
// bit s unlike ours, the ones arriving have origin bit s unlike ours.
type AllToAllOp struct {
	slotOp
	stage []float64 // one step's outgoing or incoming half, packed
}

// NewAllToAll prepares an all-to-all personalized exchange; blocks are
// indexed by destination position and must be uniform.
func (c Comm) NewAllToAll(phase uint64, blocks []*matrix.Dense) *AllToAllOp {
	if len(blocks) != c.q {
		panic(fmt.Sprintf("collective: AllToAll has %d blocks want %d", len(blocks), c.q))
	}
	rows, cols := checkUniform("AllToAll", blocks)
	// The staging half rides at the end of the slot buffer.
	w, half := rows*cols, c.q/2*((rows*cols+c.g-1)/c.g)
	op := &AllToAllOp{slotOp: c.newSlotOp(phase, rows, cols, c.q*w+half)}
	op.buf, op.stage = op.buf[:c.q*w], op.buf[c.q*w:]
	for l := 0; l < c.g; l++ {
		lo, hi := sliceBounds(w, c.g, l)
		for pos, b := range blocks {
			copy(op.slots(c.q*lo, hi-lo, c.rot(hypercube.Gray(pos), l), 1), b.Data[lo:hi])
		}
	}
	return op
}

// swap packs slice l's slots whose bit s differs from the node's own
// into the staging buffer (out) or unpacks the staging buffer back into
// them (!out), in slot order, and returns the packed words.
func (op *AllToAllOp) swap(s, l, lo, hi int, out bool) []float64 {
	sz, m, n := hi-lo, 1<<s, 0
	for k := op.c.rot(op.c.rank, l)&m ^ m; k < op.c.q; k += 2 * m {
		run := op.slots(op.c.q*lo, sz, k, m)
		if out {
			copy(op.stage[n:], run)
		} else {
			copy(run, op.stage[n:])
		}
		n += len(run)
	}
	return op.stage[:n]
}

// SendStep implements Op.
func (op *AllToAllOp) SendStep(s int) {
	op.c.check()
	for l := 0; l < op.c.g; l++ {
		if lo, hi := sliceBounds(op.w, op.c.g, l); lo < hi {
			op.send(s, l, op.swap(s, l, lo, hi, true))
		}
	}
}

// RecvStep implements Op.
func (op *AllToAllOp) RecvStep(s int) {
	for l := 0; l < op.c.g; l++ {
		if lo, hi := sliceBounds(op.w, op.c.g, l); lo < hi {
			op.recv("AllToAll", s, l, op.stage[:op.c.q/2*(hi-lo)], false)
			op.swap(s, l, lo, hi, false)
		}
	}
}

// Result returns the blocks addressed to this node, indexed by origin
// position (valid after Run).
func (op *AllToAllOp) Result() []*matrix.Dense {
	return op.pieces(op.c.q, func(pos, l, lo, sz int) int {
		return op.c.q*lo + op.c.rot(hypercube.Gray(pos), l)*sz
	})
}

// AllToAll runs an all-to-all personalized exchange: blocks indexed by
// destination position in, blocks indexed by origin position out.
func (c Comm) AllToAll(phase uint64, blocks []*matrix.Dense) []*matrix.Dense {
	if c.d == 0 {
		return []*matrix.Dense{blocks[0]}
	}
	op := c.NewAllToAll(phase, blocks)
	Run(op)
	return op.Result()
}
