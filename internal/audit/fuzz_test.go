package audit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// corpusFrames builds the seed corpus the way real runs produce log
// bytes: hot-stock-shaped inserts (4 KB bodies), the commit/abort records
// the monitor writes, and a control point — alone and concatenated.
func corpusFrames() [][]byte {
	body := bytes.Repeat([]byte{0xAB}, 4096)
	recs := []Record{
		{Type: RecInsert, Txn: 0x1000001, File: "TRADES", Partition: 3, Key: 1<<40 | 17, Body: body},
		{Type: RecInsert, Txn: 2, File: "T", Key: 1, Body: []byte{}},
		{Type: RecCommit, Txn: 0x1000001},
		{Type: RecAbort, Txn: 9},
		{Type: RecControlPoint, Txn: 0},
		{Type: RecType(200), Txn: ^TxnID(0), File: "x", Partition: 0xFFFF, Key: ^uint64(0), Body: []byte("tail")},
	}
	var out [][]byte
	var all []byte
	for i := range recs {
		frame := AppendRecord(nil, &recs[i])
		out = append(out, frame)
		all = append(all, frame...)
	}
	out = append(out, all)
	return out
}

// seedCorpus adds the shared seed inputs: the real frames, then
// truncations and corruptions of one.
func seedCorpus(f *testing.F) {
	for _, frame := range corpusFrames() {
		f.Add(frame)
	}
	// Truncations and corruptions of a real frame.
	base := corpusFrames()[0]
	f.Add(base[:len(base)-1])
	f.Add(base[:frameHeader+5])
	flip := append([]byte(nil), base...)
	flip[frameHeader+10] ^= 0xFF
	f.Add(flip)
	// Regression pin: a frame-length prefix with the top bit set. int32 of
	// it is negative; the pre-fix bounds check passed it on 32-bit
	// platforms and the payload slice expression panicked.
	f.Add([]byte{0x00, 0x00, 0x00, 0x80, 0x01, 0x02, 0x03})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	// Zero-filled media: clean end of log.
	f.Add(make([]byte, 64))
}

// FuzzDecodeRecord asserts DecodeRecord is total over arbitrary bytes: it
// never panics, never over-consumes, and any frame it accepts re-encodes
// to the exact bytes it consumed (the encoding is canonical, so decode
// must be its inverse).
func FuzzDecodeRecord(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		if err != nil {
			if rec != nil || n != 0 {
				t.Fatalf("error return leaked state: rec=%v n=%d", rec, n)
			}
			if !errors.Is(err, ErrEndOfLog) && !errors.Is(err, ErrTornRecord) {
				t.Fatalf("unexpected error kind: %v", err)
			}
			return
		}
		if n <= frameHeader || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if reenc := AppendRecord(nil, rec); !bytes.Equal(reenc, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", reenc, data[:n])
		}
	})
}

// FuzzScanner asserts a scan over arbitrary bytes terminates with the
// offset in bounds and strictly increasing per record.
func FuzzScanner(f *testing.F) {
	for _, frame := range corpusFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewScanner(data)
		prev := 0
		for s.Next() {
			if s.Record() == nil {
				t.Fatal("Next true with nil record")
			}
			if int(s.LSN()) != prev {
				t.Fatalf("LSN %d != previous offset %d", s.LSN(), prev)
			}
			if s.Offset() <= prev || s.Offset() > len(data) {
				t.Fatalf("offset %d out of bounds (prev %d, len %d)", s.Offset(), prev, len(data))
			}
			prev = s.Offset()
		}
		if err := s.Err(); err != nil && !errors.Is(err, ErrTornRecord) {
			t.Fatalf("scan stopped with unexpected error: %v", err)
		}
	})
}

// TestDecodeRecordHugeLengthPrefix pins the 32-bit overflow fix outside
// the fuzz harness so it runs on every plain `go test`.
func TestDecodeRecordHugeLengthPrefix(t *testing.T) {
	for _, inner := range []uint32{1 << 31, ^uint32(0), 1<<31 + 29} {
		data := make([]byte, 64)
		binary.LittleEndian.PutUint32(data, inner)
		rec, n, err := DecodeRecord(data)
		if !errors.Is(err, ErrTornRecord) || rec != nil || n != 0 {
			t.Fatalf("inner=%#x: got rec=%v n=%d err=%v, want ErrTornRecord", inner, rec, n, err)
		}
	}
}
