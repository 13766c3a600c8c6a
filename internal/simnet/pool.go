package simnet

import (
	"sync"
	"sync/atomic"
)

// In-flight pool accounting: payload boxes checked out by sends minus
// boxes returned by Release, and Msg headers likewise. Receivers that
// legally retain a payload never Release it, so the global counters only
// balance for programs that consume (or abort out of) everything they
// send — which is exactly what the leak regression tests construct.
var (
	payloadsInFlight atomic.Int64
	msgsInFlight     atomic.Int64
)

// PoolInFlight reports the current number of pooled payload boxes and
// Msg headers checked out and not yet released. Test instrumentation:
// a program whose receivers release every consumed payload must leave
// both deltas at zero across a run, faulted or not.
func PoolInFlight() (payloads, msgs int64) {
	return payloadsInFlight.Load(), msgsInFlight.Load()
}

// Payload buffer pooling.
//
// Every copying Send allocates its payload from a size-class pool
// instead of the garbage collector. The box travels with the Msg; a
// receiver that has fully consumed a payload calls Msg.Release to
// recycle the buffer for a later send of a similar size. Receivers that
// retain the payload (or sub-slices of it) simply never call Release
// and the buffer falls back to ordinary garbage collection — Release is
// an optimization hook, never an obligation.
//
// Owned sends (SendMOwned) carry no box: their payload is the
// caller's slice, which must never be recycled into the pool, so
// Release on such a message is a no-op. This is what makes Release safe
// to call unconditionally on any fully-consumed message.

// payloadBox owns one pooled payload buffer. class indexes the
// power-of-two size-class pool the buffer returns to; class < 0 marks
// an oversized buffer that is never pooled.
type payloadBox struct {
	d     []float64
	class int
}

// maxPayloadClass bounds pooled buffers at 2^24 words (128 MiB);
// anything larger is allocated directly and left to the GC.
const maxPayloadClass = 24

var payloadPools [maxPayloadClass + 1]sync.Pool

// payloadClass returns the smallest c with 1<<c >= n.
func payloadClass(n int) int {
	c := 0
	for 1<<c < n {
		c++
	}
	return c
}

// getPayload returns a box whose buffer has length n (capacity rounded
// up to the size class). Returns nil for n == 0: empty payloads carry
// no buffer at all.
func getPayload(n int) *payloadBox {
	if n == 0 {
		return nil
	}
	payloadsInFlight.Add(1)
	c := payloadClass(n)
	if c > maxPayloadClass {
		return &payloadBox{d: make([]float64, n), class: -1}
	}
	if b, _ := payloadPools[c].Get().(*payloadBox); b != nil {
		b.d = b.d[:n]
		return b
	}
	return &payloadBox{d: make([]float64, n, 1<<c), class: c}
}

// putPayload recycles a box into its size-class pool.
func putPayload(b *payloadBox) {
	if b.class < 0 {
		return
	}
	payloadPools[b.class].Put(b)
}

// msgPool recycles Msg headers: sendCore draws from it and Release
// returns to it, so the lockstep fold-and-discard receive paths run
// with no per-message header garbage.
var msgPool = sync.Pool{New: func() any { return new(Msg) }}

// Release recycles the message — its transport-allocated payload
// buffer, if any, and its header. Call it at most once, and only after
// the payload is fully consumed: the buffer, including every sub-slice
// of Data, and the Msg itself are reused by later sends. Messages whose
// payload the receiver retains must never be released. Owned-send
// payloads are left to the garbage collector (the pool must not capture
// a caller's slice); their header is still recycled.
func (m *Msg) Release() {
	if m.box != nil {
		payloadsInFlight.Add(-1)
		putPayload(m.box)
	}
	*m = Msg{}
	msgsInFlight.Add(-1)
	msgPool.Put(m)
}
