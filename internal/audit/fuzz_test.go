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

// chunks serves a byte image as a replica, recording where each read starts
// and ends.
type chunks struct {
	media []byte
	reads [][2]int64
}

func (c *chunks) ReadChunk(off int64, buf []byte) error {
	c.reads = append(c.reads, [2]int64{off, off + int64(len(buf))})
	copy(buf, c.media[off:])
	return nil
}

// FuzzCursorMatchesWholeScan reads a log image through a Cursor, chunk bytes
// at a time (1 B to 64 KiB) into a buffer that arrives dirty, and holds the
// settled valid prefix to one whole-image Scanner pass: the chunked scan may
// stop reading early, never stop short of or run past the prefix. The reads
// must tile the image from offset 0, in order, and stay inside it.
func FuzzCursorMatchesWholeScan(f *testing.F) {
	// The small frames only: with the 4 KiB-body frame in the seeds, a 20 s
	// run stalled after a few hundred execs (the fuzzer minimizes each new
	// input it finds, and a 4 KiB input read a byte a chunk is slow).
	var log []byte
	for _, frame := range corpusFrames()[1:6] {
		log = append(log, frame...)
	}
	last := len(log) - len(corpusFrames()[5])
	flip := append([]byte(nil), log...)
	flip[len(flip)-3] ^= 0x10
	zeros := append(append([]byte(nil), log...), make([]byte, 300)...)
	torn := append(append([]byte(nil), log[:last+7]...), make([]byte, 200)...)
	for _, tail := range [][]byte{log, flip, zeros, torn, log[:last+7], log[:len(log)-1], nil} {
		for _, chunk := range []uint16{0, 3, 63, 4095, 65535} {
			f.Add(tail, chunk)
		}
	}
	f.Fuzz(func(t *testing.T, media []byte, chunk uint16) {
		step := int64(chunk) + 1
		size := int64(len(media))
		whole := NewScanner(media)
		for whole.Next() {
		}
		src := &chunks{media: media}
		buf := bytes.Repeat([]byte{0xFF}, len(media))
		var c Cursor
		for settled := false; !settled; {
			if len(src.reads) > len(media)+1 {
				t.Fatalf("%d reads of a %d-byte image", len(src.reads), len(media))
			}
			var err error
			if settled, err = c.Step(buf[:min(c.Off+step, size)], size, src); err != nil {
				t.Fatal(err)
			}
		}
		if c.Valid != whole.Offset() {
			t.Fatalf("chunk %d: cursor settled at %d valid bytes, a whole scan at %d", step, c.Valid, whole.Offset())
		}
		var at int64
		for _, r := range src.reads {
			if r[0] != at || r[1] > size || r[1]-r[0] > step {
				t.Fatalf("chunk %d: reads %v do not tile the %d-byte image from 0", step, src.reads, size)
			}
			at = r[1]
		}
		if at != c.Off || int64(c.Valid) > c.Off {
			t.Fatalf("chunk %d: read %d bytes, cursor says %d with %d valid", step, at, c.Off, c.Valid)
		}
	})
}

// TestPreferAndAFailedStep pins the replica rule — the furthest valid prefix,
// the lower replica on a tie, any readable replica over none — and a failed
// read, which reports the error and leaves the cursor where it was.
func TestPreferAndAFailedStep(t *testing.T) {
	for _, tc := range []struct {
		valid, replica, bestValid, bestReplica int
		want                                   bool
	}{
		{0, 1, -1, 0, true},
		{10, 1, 5, 0, true},
		{5, 1, 5, 0, false},
		{5, 0, 5, 1, true},
		{4, 0, 5, 1, false},
	} {
		if got := Prefer(tc.valid, tc.replica, tc.bestValid, tc.bestReplica); got != tc.want {
			t.Errorf("Prefer(%d, %d, %d, %d) = %v, want %v", tc.valid, tc.replica, tc.bestValid, tc.bestReplica, got, tc.want)
		}
	}
	c := Cursor{Off: 64, Valid: 40}
	down := ChunkFunc(func(int64, []byte) error { return errors.New("device down") })
	if settled, err := c.Step(make([]byte, 128), 256, down); err == nil || settled || c.Off != 64 || c.Valid != 40 {
		t.Errorf("a failed read: settled %v, err %v, cursor at %d with %d valid; want an error and the cursor at 64 with 40", settled, err, c.Off, c.Valid)
	}
}
