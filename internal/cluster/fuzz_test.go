package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"hypermm"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader at the
// production size limit. It must never panic, and an accepted frame
// must survive re-encoding: when its header is JSON, writeFrame turns it
// back into exactly the bytes that were read if the header was already
// in writeFrame's compact form, and into a fixed point of read-then-write
// otherwise. (A non-JSON header cannot be re-encoded; every receiver
// refuses it at json.Unmarshal.)
func FuzzReadFrame(f *testing.F) {
	frame := func(mt byte, header any, tail []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, mt, header, tail); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	A := hypermm.RandomMatrix(2, 2, 1)
	f.Add(frame(msgHello, hello{Version: ProtocolVersion, Name: "w", Capabilities: []string{CapMatmul}}, nil))
	f.Add(frame(msgJob, jobSpec{ID: 3, Algorithm: "cannon", N: 2, P: 4}, appendMatrix(appendMatrix(nil, A), A)))
	f.Add(frame(msgResult, jobReply{ID: 3, Rows: 2, Cols: 2}, appendMatrix(nil, A)))
	f.Add(frame(msgPong, pong{Seq: 9, Inflight: 1}, nil))
	f.Add([]byte{0, 0, 0, 6, msgJob, 0, 0, 0, 99, 'x'})                 // header overruns the frame
	f.Add([]byte{0, 0, 0, 10, msgJob, 0, 0, 0, 3, '{', ' ', '}', 0, 1}) // non-compact header
	f.Add([]byte{0x10, 0, 0, 0, msgJob})                                // over the size limit
	f.Fuzz(func(t *testing.T, data []byte) {
		mt, hdr, tail, err := readFrame(bufio.NewReader(bytes.NewReader(data)), DefaultMaxFrame)
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := writeFrame(&enc, mt, json.RawMessage(hdr), tail); err != nil {
			if json.Valid(hdr) {
				t.Fatalf("valid JSON header %q failed to re-encode: %v", hdr, err)
			}
			return
		}
		read := data[:4+binary.BigEndian.Uint32(data)]
		wrote := enc.Bytes()
		if bytes.Equal(wrote[9:9+binary.BigEndian.Uint32(wrote[5:])], hdr) && !bytes.Equal(wrote, read) {
			t.Fatalf("frame re-encoded with the same header to different bytes:\nread  %x\nwrote %x", read, wrote)
		}
		mt2, hdr2, tail2, err := readFrame(bufio.NewReader(bytes.NewReader(enc.Bytes())), DefaultMaxFrame)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if mt2 != mt || !bytes.Equal(tail2, tail) {
			t.Fatalf("re-encoded frame changed type %d -> %d or its %d-byte tail", mt, mt2, len(tail))
		}
		var again bytes.Buffer
		if err := writeFrame(&again, mt2, json.RawMessage(hdr2), tail2); err != nil || !bytes.Equal(again.Bytes(), enc.Bytes()) {
			t.Fatalf("second re-encode is not a fixed point (err %v):\nfirst  %x\nsecond %x", err, enc.Bytes(), again.Bytes())
		}
	})
}

// FuzzTakeMatrix decodes a matrix of an arbitrary claimed shape from an
// arbitrary tail. It must never panic, and an accepted matrix must have
// the claimed shape, fit inside the tail, decode its words bit-exactly
// and hand back exactly the bytes after them.
func FuzzTakeMatrix(f *testing.F) {
	f.Add(appendMatrix(nil, hypermm.RandomMatrix(2, 3, 1)), 2, 3)
	f.Add(make([]byte, 16), 1<<31, 1<<31)
	f.Add(make([]byte, 16), math.MaxInt, 2)
	f.Add(make([]byte, 7), 1, 1)
	f.Add([]byte{}, 0, 0)
	f.Add(make([]byte, 24), -1, -3)
	f.Fuzz(func(t *testing.T, tail []byte, rows, cols int) {
		m, rest, err := takeMatrix(tail, rows, cols)
		if err != nil {
			return
		}
		words := len(m.Data)
		if m.Rows != rows || m.Cols != cols || words != rows*cols {
			t.Fatalf("accepted %dx%d as a %dx%d matrix of %d words", rows, cols, m.Rows, m.Cols, words)
		}
		if words*8 > len(tail) || len(rest) != len(tail)-words*8 {
			t.Fatalf("%d words from a %d-byte tail left %d bytes", words, len(tail), len(rest))
		}
		for i, v := range m.Data {
			if math.Float64bits(v) != binary.LittleEndian.Uint64(tail[8*i:]) {
				t.Fatalf("word %d not bit-exact", i)
			}
		}
		if len(rest) > 0 && &rest[0] != &tail[words*8] {
			t.Fatal("remainder is not the tail after the matrix")
		}
	})
}
