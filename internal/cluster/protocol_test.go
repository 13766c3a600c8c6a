package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"hypermm"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	spec := jobSpec{ID: 7, Algorithm: "cannon", N: 4, P: 16, Ts: 150, Tw: 3, Tc: 0.5}
	tail := []byte{1, 2, 3, 4, 5}
	if err := writeFrame(&buf, msgJob, spec, tail); err != nil {
		t.Fatal(err)
	}
	mt, hdr, gotTail, err := readFrame(bufio.NewReader(&buf), DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if mt != msgJob {
		t.Fatalf("type = %d, want %d", mt, msgJob)
	}
	var got jobSpec
	if err := json.Unmarshal(hdr, &got); err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Fatalf("header round trip: got %+v, want %+v", got, spec)
	}
	if !bytes.Equal(gotTail, tail) {
		t.Fatalf("tail round trip: got %v, want %v", gotTail, tail)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgJob, jobSpec{}, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := readFrame(bufio.NewReader(&buf), 128); err == nil {
		t.Fatal("oversized frame accepted")
	} else if !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestFrameShortAndOverrun(t *testing.T) {
	// A frame whose declared JSON header length overruns the body must
	// be rejected, not sliced out of bounds.
	raw := []byte{0, 0, 0, 6, msgJob, 0, 0, 0, 99, 'x'}
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(raw)), DefaultMaxFrame); err == nil {
		t.Fatal("header overrun accepted")
	}
	short := []byte{0, 0, 0, 2, msgJob, 0}
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(short)), DefaultMaxFrame); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestMatrixCodecRoundTrip(t *testing.T) {
	A := hypermm.RandomMatrix(5, 5, 42)
	B := hypermm.RandomMatrix(5, 5, 43)
	tail := appendMatrix(nil, A)
	tail = appendMatrix(tail, B)
	gotA, rest, err := takeMatrix(tail, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotB, rest, err := takeMatrix(rest, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	for i := range A.Data {
		if gotA.Data[i] != A.Data[i] || gotB.Data[i] != B.Data[i] {
			t.Fatalf("word %d not bit-identical", i)
		}
	}
	if _, _, err := takeMatrix(tail[:7], 1, 1); err == nil {
		t.Fatal("truncated matrix accepted")
	}
}

// TestTakeMatrixHostileShape: a 2^31 x 2^31 shape makes rows*cols*8
// wrap to 0 on 64-bit ints, so a size check computed that way passes
// and makeslice panics — inside the coordinator's read loop, which one
// malformed result frame would take down. Every such shape must be
// refused with an error.
func TestTakeMatrixHostileShape(t *testing.T) {
	tail := make([]byte, 16)
	for _, s := range [][2]int{
		{1 << 31, 1 << 31},
		{1 << 61, 1},
		{1, 1 << 61},
		{math.MaxInt, math.MaxInt},
		{3, 1},
		{-2, -1},
	} {
		if m, _, err := takeMatrix(tail, s[0], s[1]); err == nil {
			t.Errorf("%dx%d accepted from a 16-byte tail (%d words)", s[0], s[1], len(m.Data))
		}
	}
	if m, rest, err := takeMatrix(tail, 2, 1); err != nil || len(m.Data) != 2 || len(rest) != 0 {
		t.Errorf("2x1 from 16 bytes: %v", err)
	}
}

func TestWireFaultRoundTrip(t *testing.T) {
	fp := &hypermm.FaultPlan{
		Seed: 9, Drop: 0.1, Dup: 0.05, DelayProb: 0.2, DelayTime: 3,
		MaxRetries: 40, AckTimeout: 10, Backoff: 2,
		Down: []hypermm.Window{
			{Src: 1, Dst: 2, From: 5, To: 50},
			{Src: -1, Dst: -1, From: 0, To: hypermm.Forever},
		},
	}
	got := toWireFault(fp).plan()
	if got.Seed != fp.Seed || got.Drop != fp.Drop || got.MaxRetries != fp.MaxRetries {
		t.Fatalf("scalar fields: got %+v, want %+v", got, fp)
	}
	if got.Down[0] != fp.Down[0] {
		t.Fatalf("finite window: got %+v, want %+v", got.Down[0], fp.Down[0])
	}
	// Forever (+Inf) is not JSON-encodable; the wire substitutes a far
	// future no bounded simulated clock reaches.
	if math.IsInf(got.Down[1].To, 1) || got.Down[1].To != farFuture {
		t.Fatalf("Forever window mapped to %g, want %g", got.Down[1].To, farFuture)
	}
	if _, err := json.Marshal(toWireFault(fp)); err != nil {
		t.Fatalf("wire fault not JSON-encodable: %v", err)
	}
	if toWireFault(nil) != nil || (*wireFault)(nil).plan() != nil {
		t.Fatal("nil plan must stay nil across the wire")
	}
}
