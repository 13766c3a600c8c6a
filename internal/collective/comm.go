// Package collective implements the hypercube collective communication
// operations of the paper's Table 1 on subcube chains: one-to-all
// broadcast, one-to-all personalized broadcast (scatter) and its inverse
// (gather), all-to-all broadcast (all-gather), all-to-one reduction,
// all-to-all reduction (reduce-scatter), and all-to-all personalized
// communication.
//
// Every operation has two executions selected by the machine's port
// model:
//
//   - One-port: the classical spanning-binomial-tree / recursive
//     doubling algorithms, matching Table 1's one-port column.
//   - Multi-port: the message is split into d = log q slices and slice
//     l runs the same schedule over the chain's dimension order rotated
//     by l, so at every step all d ports carry a distinct slice. This
//     reproduces the t_w terms of Table 1's multi-port column (the
//     "log N trees concurrently" technique of Ho and Johnsson) whenever
//     the message has at least log q words.
//
// Operations are built as step machines (Op) so that two collectives on
// disjoint grid dimensions can be fused with Run(op1, op2): their steps
// interleave and, on a multi-port machine, overlap — the paper's "the
// two broadcasts can occur in parallel".
//
// Blocks are indexed by grid *position* (Gray-embedded); internally all
// schedules run in subcube rank space. Each op keeps the pieces it holds
// in one flat, node-owned slot buffer (slotOp), indexed so that every
// step sends and receives aligned runs of slots; receivers copy or fold
// each payload into it and hand the message back to the transport.
package collective

import (
	"fmt"
	"math/bits"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// Comm is one node's view of a chain: the node, the chain, and the
// node's rank/position on it.
type Comm struct {
	N  *simnet.Node
	Ch hypercube.Chain

	rank, pos int
	d, q      int
	g         int // slice count: 1 for one-port, max(d,1) for multi-port
}

// On binds a node to a chain it lies on.
func On(n *simnet.Node, ch hypercube.Chain) Comm {
	rank := ch.RankOf(n.ID)
	c := Comm{
		N: n, Ch: ch,
		rank: rank, pos: hypercube.GrayRank(rank),
		d: ch.Dim(), q: ch.Q(),
	}
	c.g = 1
	if n.Ports() == simnet.MultiPort && c.d > 1 {
		c.g = c.d
	}
	return c
}

// Pos returns the node's grid position on the chain.
func (c Comm) Pos() int { return c.pos }

// Rank returns the node's subcube rank on the chain.
func (c Comm) Rank() int { return c.rank }

// Q returns the chain length.
func (c Comm) Q() int { return c.q }

// check enforces the machine's simulated-time deadline at collective
// step granularity: every op calls it on entering a send step, so a
// collective whose node has run out of simulated-time budget fails with
// a typed ErrDeadline fault between steps even when the overrun came
// from compute (Send and Recv check again internally for the
// communication-bound case).
func (c Comm) check() { c.N.CheckDeadline() }

// bit returns the chain-local bit index used by slice l at step s:
// the rotated dimension order that lets all slices use distinct
// physical ports at every step.
func (c Comm) bit(l, s int) int { return (l + s) % c.d }

// partner returns the physical node across chain bit b.
func (c Comm) partner(b int) int {
	return c.Ch.NodeAtRank(c.rank ^ (1 << b))
}

// tag composes a message tag from the caller's phase id plus the
// collective-internal step and slice numbers. Algorithms must use
// distinct phase ids for collectives that could be in flight between
// the same pair of nodes at the same time.
func tag(phase uint64, step, slice int) uint64 {
	return phase<<16 | uint64(step)<<8 | uint64(slice)
}

// sliceBounds returns the [lo, hi) word range of slice l when a block
// of w words is cut into g nearly equal slices.
func sliceBounds(w, g, l int) (lo, hi int) {
	return l * w / g, (l + 1) * w / g
}

// rot rotates x's d chain bits right by l, so slice l's step-t bit
// c.bit(l, t) lands on bit t. AllGather, Gather and AllToAll keep the
// piece of chain rank r in slice l's slot rot(r, l): at step s an
// all-gather or gather moves one aligned run of 2^s slots.
func (c Comm) rot(x, l int) int {
	return (x>>l | x<<(c.d-l)) & (c.q - 1)
}

// rev is rot with the d bits reversed, so slice l's step-t bit lands on
// bit d-1-t. Scatter and ReduceScatter, which halve what they hold at
// every step, keep the piece for rank r in slice l's slot rev(r, l):
// at step s they move one aligned run of 2^(d-1-s) slots.
func (c Comm) rev(x, l int) int {
	return int(bits.Reverse(uint(c.rot(x, l))) >> (bits.UintSize - c.d))
}

// low returns the position of the lowest set bit of a slot index (d
// for 0). A binomial gather or reduction sends slice l at step
// low(rot(rel, l)); a scatter receives it at step
// d-1-low(rev(rel, l)). Either way the node only ever holds the
// 1<<low slots starting at its own.
func (c Comm) low(x int) int {
	if x == 0 {
		return c.d
	}
	return bits.TrailingZeros(uint(x))
}

// slotOp is the state every collective keeps: one flat, node-owned
// buffer of pieces. Slice l keeps its pieces of hi-lo words in
// consecutive slots; in the full layout slot k of slice l starts at
// word q*lo + k*(hi-lo).
type slotOp struct {
	c          Comm
	phase      uint64
	rows, cols int
	w          int
	buf        []float64
}

func (c Comm) newSlotOp(phase uint64, rows, cols, words int) slotOp {
	return slotOp{c: c, phase: phase, rows: rows, cols: cols, w: rows * cols, buf: make([]float64, words)}
}

// Steps implements Op.
func (op *slotOp) Steps() int { return op.c.d }

// send ships a copy of data to the partner across slice l's step-s
// bit as the step-s message of slice l.
func (op *slotOp) send(s, l int, data []float64) {
	op.c.N.Send(op.c.partner(op.c.bit(l, s)), tag(op.phase, s, l), data)
}

// recv receives slice l's step-s message from the partner across its
// step-s bit, checks that it carries len(dst) words, copies it into dst
// (or, with add, folds it into dst element by element) and returns the
// payload to the transport's pool.
func (op *slotOp) recv(name string, s, l int, dst []float64, add bool) {
	msg := op.c.N.Recv(op.c.partner(op.c.bit(l, s)), tag(op.phase, s, l))
	if len(msg.Data) != len(dst) {
		panic(fmt.Sprintf("collective: %s slice %d got %d words want %d", name, l, len(msg.Data), len(dst)))
	}
	if add {
		for i, v := range msg.Data {
			dst[i] += v
		}
	} else {
		copy(dst, msg.Data)
	}
	msg.Release()
}

// slots returns n slots of sz words starting at slot k of the slice
// whose slot 0 is at word off.
func (op *slotOp) slots(off, sz, k, n int) []float64 {
	return op.buf[off+k*sz : off+(k+n)*sz]
}

// pieces returns n result blocks; block i's slice l starts at word
// at(i, l, lo, hi-lo). Unsliced (one-port) blocks are views into the
// node-owned buffer; sliced ones are assembled into one fresh batch.
func (op *slotOp) pieces(n int, at func(i, l, lo, sz int) int) []*matrix.Dense {
	if op.c.g == 1 {
		ds := make([]matrix.Dense, n)
		out := make([]*matrix.Dense, n)
		for i := range out {
			k := at(i, 0, 0, op.w)
			ds[i] = matrix.Dense{Rows: op.rows, Cols: op.cols, Data: op.buf[k : k+op.w : k+op.w]}
			out[i] = &ds[i]
		}
		return out
	}
	out := matrix.NewBatch(n, op.rows, op.cols)
	for i, blk := range out {
		for l := 0; l < op.c.g; l++ {
			lo, hi := sliceBounds(op.w, op.c.g, l)
			copy(blk.Data[lo:hi], op.buf[at(i, l, lo, hi-lo):])
		}
	}
	return out
}

// Op is a collective compiled to a lockstep step machine. At each step
// an Op first issues all its sends, then completes all its receives
// (plus any local combining). Run drives one or more Ops together.
type Op interface {
	Steps() int
	SendStep(s int)
	RecvStep(s int)
}

// Run drives one or more collective step machines in lockstep. Fusing
// two collectives that live on disjoint grid dimensions makes their
// transfers overlap on a multi-port machine; on a one-port machine they
// serialize through the node's ports exactly as the paper charges.
func Run(ops ...Op) {
	steps := 0
	for _, op := range ops {
		if s := op.Steps(); s > steps {
			steps = s
		}
	}
	for s := 0; s < steps; s++ {
		for _, op := range ops {
			if s < op.Steps() {
				op.SendStep(s)
			}
		}
		for _, op := range ops {
			if s < op.Steps() {
				op.RecvStep(s)
			}
		}
	}
}

// checkUniform validates that all non-nil blocks share one shape and
// returns it.
func checkUniform(op string, blocks []*matrix.Dense) (rows, cols int) {
	rows, cols = -1, -1
	for _, b := range blocks {
		if b == nil {
			continue
		}
		if rows == -1 {
			rows, cols = b.Rows, b.Cols
		} else if b.Rows != rows || b.Cols != cols {
			panic(fmt.Sprintf("collective: %s blocks not uniform: %dx%d vs %dx%d", op, b.Rows, b.Cols, rows, cols))
		}
	}
	if rows == -1 {
		panic(fmt.Sprintf("collective: %s received no blocks", op))
	}
	return rows, cols
}
