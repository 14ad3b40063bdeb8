package audit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

// The scanner decodes in place: Record() is the scanner's own record, its
// Body a view into the scanned bytes. These tests pin what that changes for
// a caller — what a failed Next leaves visible, what aliases what, and that
// a scan over one file's trail allocates nothing per record.

// frameWithPayload wraps an arbitrary payload in a length prefix and a
// correct CRC, so only the structure check can reject it.
func frameWithPayload(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)+4))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

func TestScannerFailedNextKeepsLastGoodRecord(t *testing.T) {
	good := &Record{Type: RecInsert, Txn: 7, File: "TRADES", Partition: 3, Key: 41, Body: []byte("first")}
	next := &Record{Type: RecUpdate, Txn: 8, File: "ORDERS", Partition: 1, Key: 42, Body: bytes.Repeat([]byte{0xCD}, 64)}
	whole := AppendRecord(nil, next)

	// A payload whose CRC is right but whose file-name length runs past the
	// frame: every field before the structure check looks decodable.
	badStruct := append([]byte(nil), whole[frameHeader:len(whole)-4]...)
	binary.LittleEndian.PutUint16(badStruct[9:], 0xFFF0)
	// And one whose body length disagrees with the frame length.
	badBody := append([]byte(nil), whole[frameHeader:len(whole)-4]...)
	binary.LittleEndian.PutUint32(badBody[11+len(next.File)+10:], uint32(len(next.Body)+1))

	flipped := append([]byte(nil), whole...)
	flipped[frameHeader+20] ^= 0xFF

	tails := map[string]struct {
		tail []byte
		err  error
	}{
		"crc mismatch":            {flipped, ErrTornRecord},
		"short frame":             {whole[:len(whole)-5], ErrTornRecord},
		"header only":             {whole[:frameHeader], ErrTornRecord},
		"length below minimum":    {[]byte{28, 0, 0, 0, 1, 2, 3, 4}, ErrTornRecord},
		"file name overruns":      {frameWithPayload(badStruct), ErrTornRecord},
		"body length disagrees":   {frameWithPayload(badBody), ErrTornRecord},
		"zero tail":               {make([]byte, 32), nil},
		"fewer bytes than header": {[]byte{9, 0}, nil},
		"nothing":                 {nil, nil},
	}
	for name, tc := range tails {
		t.Run(name, func(t *testing.T) {
			first := AppendRecord(nil, good)
			s := NewScanner(append(first, tc.tail...))
			if !s.Next() {
				t.Fatalf("first record: %v", s.Err())
			}
			if s.Next() {
				t.Fatal("Next accepted the bad tail")
			}
			if !errors.Is(s.Err(), tc.err) {
				t.Fatalf("Err = %v, want %v", s.Err(), tc.err)
			}
			if got := s.Record(); !reflect.DeepEqual(got, good) {
				t.Errorf("Record after failed Next = %+v, want the last good record %+v", got, good)
			}
			if s.LSN() != 0 || s.Offset() != len(first) {
				t.Errorf("LSN, Offset = %d, %d, want 0, %d", s.LSN(), s.Offset(), len(first))
			}
			// The failure is sticky and stays harmless.
			if s.Next() || !reflect.DeepEqual(s.Record(), good) {
				t.Error("a second failed Next changed the record")
			}
		})
	}

	// With no good record before it, a failed Next shows the zero record.
	s := NewScanner(flipped)
	if s.Next() || !errors.Is(s.Err(), ErrTornRecord) {
		t.Fatalf("Next over a torn first frame: err %v", s.Err())
	}
	if got := s.Record(); !reflect.DeepEqual(got, &Record{}) || s.Offset() != 0 {
		t.Errorf("Record = %+v, Offset = %d, want the zero record at 0", got, s.Offset())
	}
}

func TestScannerRecordAliasesStreamAndDecodeRecordCopies(t *testing.T) {
	var buf []byte
	buf = AppendRecord(buf, &Record{Type: RecInsert, Txn: 1, File: "F", Key: 1, Body: []byte("aaaa")})
	buf = AppendRecord(buf, &Record{Type: RecInsert, Txn: 1, File: "F", Key: 2, Body: []byte("bbbb")})

	owned, _, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScanner(buf)
	s.Next()
	view := s.Record()
	if cap(view.Body) != len(view.Body) {
		t.Errorf("Body capacity %d exceeds its length %d: an append would overwrite the CRC", cap(view.Body), len(view.Body))
	}
	kept := *view // a caller that keeps a record copies it ...
	s.Next()
	if view.Key != 2 || string(view.Body) != "bbbb" {
		t.Errorf("Record() pointer not advanced in place: %+v", view)
	}
	if kept.Key != 1 || string(kept.Body) != "aaaa" {
		t.Errorf("value copy changed by Next: %+v", kept)
	}
	// ... and owns its Body only once it has cloned it.
	for i := range buf {
		buf[i] = 0xEE
	}
	if string(kept.Body) == "aaaa" {
		t.Error("scanner Body does not alias the stream")
	}
	if string(owned.Body) != "aaaa" || owned.File != "F" {
		t.Errorf("DecodeRecord result changed with the stream: %+v", owned)
	}
}

func TestScannerZeroAllocsPerRecord(t *testing.T) {
	// One file's trail as a DP2 writes it: inserts under one file name with
	// nameless commits between them.
	var buf []byte
	body := bytes.Repeat([]byte{0xAB}, 4096)
	const records = 64
	for i := 0; i < records; i += 2 {
		buf = AppendRecord(buf, &Record{Type: RecInsert, Txn: TxnID(i), File: "TRADES", Partition: 1, Key: uint64(i), Body: body})
		buf = AppendRecord(buf, &Record{Type: RecCommit, Txn: TxnID(i)})
	}
	var s Scanner
	warm := NewScanner(buf)
	warm.Next() // the one allocation a scan makes: the first sight of the name
	var sum uint64
	allocs := testing.AllocsPerRun(20, func() {
		s = Scanner{data: buf, name: warm.name}
		n := 0
		for s.Next() {
			rec := s.Record()
			sum += rec.Key + uint64(len(rec.Body)) + uint64(len(rec.File))
			n++
		}
		if n != records || s.Err() != nil {
			t.Fatalf("scanned %d of %d records, err %v", n, records, s.Err())
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per %d-record scan, want 0", allocs, records)
	}
	// And a whole scan from cold pays for the name once, not per record.
	if cold := testing.AllocsPerRun(20, func() {
		s = Scanner{data: buf}
		for s.Next() {
		}
	}); cold > 1 {
		t.Errorf("%v allocs per cold scan, want at most 1 (the file name)", cold)
	}
	// A scanner Reset onto a piece of the trail starts over, at the zero
	// record, and keeps its name: every piece after the first allocates
	// nothing.
	s = Scanner{data: buf}
	for s.Next() {
	}
	if resets := testing.AllocsPerRun(20, func() {
		for off := 0; off < len(buf); {
			s.Reset(buf[off:])
			if s.Record().Type != 0 || s.Offset() != 0 || !s.Next() {
				t.Fatalf("Reset at %d: record %+v, offset %d", off, s.Record(), s.Offset())
			}
			off += s.Offset()
		}
	}); resets != 0 {
		t.Errorf("%v allocs per scan a record a Reset, want 0", resets)
	}
	_ = sum
}

// FuzzScannerMatchesDecodeRecord is the differential check on the two
// faces of the one decoder: over arbitrary bytes the in-place scanner and a
// loop of copying DecodeRecord calls see the same records at the same
// offsets and stop at the same place for the same reason.
func FuzzScannerMatchesDecodeRecord(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := append([]byte(nil), data...)
		s := NewScanner(data)
		off := 0
		for {
			want, n, err := DecodeRecord(data[off:])
			if err != nil {
				if s.Next() {
					t.Fatalf("offset %d: scanner accepted a frame DecodeRecord rejects (%v)", off, err)
				}
				var wantErr error
				if !errors.Is(err, ErrEndOfLog) {
					wantErr = err
				}
				if s.Err() != wantErr {
					t.Fatalf("offset %d: scanner Err = %v, DecodeRecord says %v", off, s.Err(), err)
				}
				break
			}
			if !s.Next() {
				t.Fatalf("offset %d: scanner stopped (%v) on a frame DecodeRecord accepts", off, s.Err())
			}
			got := s.Record()
			if got.Type != want.Type || got.Txn != want.Txn || got.File != want.File ||
				got.Partition != want.Partition || got.Key != want.Key || !bytes.Equal(got.Body, want.Body) {
				t.Fatalf("offset %d: scanner %+v, DecodeRecord %+v", off, got, want)
			}
			if (got.Body == nil) != (want.Body == nil) {
				t.Fatalf("offset %d: empty body is nil in one decoder only", off)
			}
			if int(s.LSN()) != off || s.Offset() != off+n {
				t.Fatalf("offset %d: LSN %d Offset %d, want %d %d", off, s.LSN(), s.Offset(), off, off+n)
			}
			off += n
		}
		if s.Offset() != off {
			t.Fatalf("final Offset %d, want %d", s.Offset(), off)
		}
		if !bytes.Equal(data, orig) {
			t.Fatal("decoding wrote to the stream")
		}
	})
}
