// Package audit defines the database audit trail (§1.2): the durable,
// LSN-ordered record of every change made by every transaction, from
// which transactions can be redone or undone, and which implicitly
// records the commit order.
//
// Records are length-prefixed, CRC-protected binary frames so that a
// recovery scan over a byte stream (read back from an audit disk volume
// or a PM region) can detect the torn tail of the log.
package audit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// LSN is a log sequence number: the byte offset of a record's frame in
// its log stream. LSNs are per-log (each ADP owns one stream).
type LSN uint64

// TxnID identifies a transaction system-wide.
type TxnID uint64

// RecType enumerates audit record kinds.
type RecType uint8

// Audit record types.
const (
	// RecBegin marks a transaction's first activity.
	RecBegin RecType = iota + 1
	// RecInsert carries the after-image of an inserted row.
	RecInsert
	// RecUpdate carries the after-image of an updated row.
	RecUpdate
	// RecDelete marks a row removal.
	RecDelete
	// RecCommit marks a committed transaction (its commit point if this
	// log is the transaction's master log).
	RecCommit
	// RecAbort marks an aborted transaction.
	RecAbort
	// RecControlPoint is a periodic marker allowing log truncation: all
	// data records before the previous control point are destaged.
	RecControlPoint
	// RecPrepare marks a participant shard's vote in a cross-shard
	// two-phase commit: all of the transaction's data records on this
	// stream precede it and are durable with it. A prepared transaction
	// with no outcome record anywhere is presumed aborted at recovery.
	RecPrepare
	// RecOutcome is the coordinator's durable outcome record for a
	// cross-shard transaction: its body encodes the decided state and the
	// full participant list (see tmf.EncodeOutcome). It is the commit
	// point for two-phase transactions, subsuming RecCommit's role.
	RecOutcome
)

var typeNames = map[RecType]string{
	RecBegin: "BEGIN", RecInsert: "INSERT", RecUpdate: "UPDATE",
	RecDelete: "DELETE", RecCommit: "COMMIT", RecAbort: "ABORT",
	RecControlPoint: "CTRLPT", RecPrepare: "PREPARE", RecOutcome: "OUTCOME",
}

// String names the record type.
func (t RecType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("RecType(%d)", uint8(t))
}

// Record is one audit record.
type Record struct {
	Type RecType
	Txn  TxnID
	// File and Partition locate the touched row for data records.
	File      string
	Partition uint16
	Key       uint64
	// Body is the after-image for data records.
	Body []byte
}

// Decode errors.
var (
	// ErrTornRecord means a frame failed its CRC or structure check —
	// the unflushed tail of a log after a crash.
	ErrTornRecord = errors.New("audit: torn or corrupt record")
	// ErrEndOfLog means a clean end of the record stream.
	ErrEndOfLog = errors.New("audit: end of log")
)

const frameHeader = 4 // u32 frame length (excluding itself)

// EncodedSize returns the frame size of r including length prefix and CRC.
func EncodedSize(r *Record) int {
	return frameHeader + 1 + 8 + 2 + len(r.File) + 2 + 8 + 4 + len(r.Body) + 4
}

// AppendRecord encodes r as one frame onto buf and returns the extended
// slice. A buffer with room for the frame is written in place. One without
// grows once, before anything is written, to the larger of what the frame
// needs and twice its capacity: a buffer that takes records one by one is
// copied O(log n) times, where append's ~1.25× steps for a large slice
// copied it several times a doubling.
func AppendRecord(buf []byte, r *Record) []byte {
	if len(r.File) > 0xFFFF {
		panic("audit: file name too long")
	}
	start := len(buf)
	size := EncodedSize(r)
	if need := start + size; need > cap(buf) {
		nb := make([]byte, start, max(need, 2*cap(buf)))
		copy(nb, buf)
		buf = nb
	}
	inner := size - frameHeader
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], uint32(inner))
	buf = append(buf, scratch[:4]...)

	payloadStart := len(buf)
	buf = append(buf, byte(r.Type))
	binary.LittleEndian.PutUint64(scratch[:8], uint64(r.Txn))
	buf = append(buf, scratch[:8]...)
	binary.LittleEndian.PutUint16(scratch[:2], uint16(len(r.File)))
	buf = append(buf, scratch[:2]...)
	buf = append(buf, r.File...)
	binary.LittleEndian.PutUint16(scratch[:2], r.Partition)
	buf = append(buf, scratch[:2]...)
	binary.LittleEndian.PutUint64(scratch[:8], r.Key)
	buf = append(buf, scratch[:8]...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(r.Body)))
	buf = append(buf, scratch[:4]...)
	buf = append(buf, r.Body...)

	crc := crc32.ChecksumIEEE(buf[payloadStart:])
	binary.LittleEndian.PutUint32(scratch[:4], crc)
	buf = append(buf, scratch[:4]...)

	if len(buf)-start != size {
		panic("audit: EncodedSize mismatch")
	}
	return buf
}

// decodeInto validates the frame at the front of data — length prefix,
// structure and CRC, the whole of what a scan checks — and only when every
// check has passed fills r in place, returning the number of bytes
// consumed. On error r and *name are untouched.
//
// r.Body aliases data (nil for an empty body, capacity clipped so an append
// cannot reach the next frame). r.File is taken from *name when the frame
// carries that name again: *name is the caller's one-entry cache of the last
// non-empty file name, which survives the nameless commit and abort records
// between a file's data records, so a scan over one file's trail allocates
// nothing per record.
//
// A zero length prefix (or insufficient bytes) is a clean ErrEndOfLog, since
// logs are scanned out of zero-initialized media; anything structurally
// wrong is ErrTornRecord.
//
//simlint:hotpath
func decodeInto(r *Record, name *string, data []byte) (int, error) {
	if len(data) < frameHeader {
		return 0, ErrEndOfLog
	}
	inner := binary.LittleEndian.Uint32(data)
	if inner == 0 {
		return 0, ErrEndOfLog
	}
	// Smallest legal frame interior: fixed fields plus CRC, 29 bytes. The
	// length comparison is done in uint64: int(inner) would go negative on
	// 32-bit platforms for inner >= 2^31, slip past this check, and panic
	// in the slice expression below.
	if inner < 29 || uint64(inner) > uint64(len(data)-frameHeader) {
		return 0, ErrTornRecord
	}
	payload := data[frameHeader : frameHeader+int(inner)-4]
	crc := binary.LittleEndian.Uint32(data[frameHeader+int(inner)-4:])
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, ErrTornRecord
	}

	// Fixed head: type, txn, file-name length.
	fl := int(binary.LittleEndian.Uint16(payload[9:]))
	pos := 11
	if pos+fl > len(payload) {
		return 0, ErrTornRecord
	}
	file := payload[pos : pos+fl]
	pos += fl
	if pos+14 > len(payload) {
		return 0, ErrTornRecord
	}
	bl := int(binary.LittleEndian.Uint32(payload[pos+10:]))
	if pos+14+bl != len(payload) {
		return 0, ErrTornRecord
	}

	r.Type = RecType(payload[0])
	r.Txn = TxnID(binary.LittleEndian.Uint64(payload[1:]))
	switch {
	case fl == 0:
		r.File = ""
	case *name == string(file): // the comparison does not allocate
		r.File = *name
	default:
		*name = string(file) //simlint:allow hotalloc -- only when the file name changes; a stream is one file's trail
		r.File = *name
	}
	r.Partition = binary.LittleEndian.Uint16(payload[pos:])
	r.Key = binary.LittleEndian.Uint64(payload[pos+2:])
	pos += 14
	r.Body = nil
	if bl > 0 {
		r.Body = payload[pos : pos+bl : pos+bl]
	}
	return frameHeader + int(inner), nil
}

// DecodeRecord parses one frame from the front of data, returning a record
// that owns its bytes and the number of bytes consumed. It is the copying
// form of the scanner's in-place decode: the same decoder, the same checks.
func DecodeRecord(data []byte) (*Record, int, error) {
	var rec Record
	var name string
	n, err := decodeInto(&rec, &name, data)
	if err != nil {
		return nil, 0, err
	}
	out := rec // allocated only once the frame is known good
	out.Body = append([]byte(nil), rec.Body...)
	return &out, n, nil
}

// Scanner iterates the records of a log byte stream, decoding each in
// place: Record returns a view into the stream, not a copy.
type Scanner struct {
	data []byte
	off  int
	err  error
	rec  Record
	name string // last non-empty file name decoded, shared by the records that repeat it
	lsn  LSN
}

// NewScanner scans the given log bytes from the beginning.
func NewScanner(data []byte) *Scanner { return &Scanner{data: data} }

// Reset scans data from its beginning, as a new scanner would, but keeps the
// scanner's file-name cache: one scanner moved over many pieces of a file's
// trail allocates the name once, not once a piece.
func (s *Scanner) Reset(data []byte) { *s = Scanner{data: data, name: s.name} }

// Next advances to the next record, returning false at end of log or on a
// torn record (check Err to distinguish). A failed advance leaves Record,
// LSN and Offset at the last good record.
//
//simlint:hotpath
func (s *Scanner) Next() bool {
	if s.err != nil {
		return false
	}
	n, err := decodeInto(&s.rec, &s.name, s.data[s.off:])
	if err != nil {
		if err != ErrEndOfLog {
			s.err = err
		}
		return false
	}
	s.lsn = LSN(s.off)
	s.off += n
	return true
}

// Record returns the current record: the scanner's own, overwritten by the
// next successful Next, with Body aliasing the scanned bytes. A caller that
// keeps a record past either must copy it and own its Body. Before the
// first successful Next it is the zero record.
func (s *Scanner) Record() *Record { return &s.rec }

// LSN returns the current record's log sequence number.
func (s *Scanner) LSN() LSN { return s.lsn }

// Err returns a non-nil error if the scan stopped on a torn record.
func (s *Scanner) Err() error { return s.err }

// Offset returns the byte position after the last good record — where a
// recovered log would resume appending.
func (s *Scanner) Offset() int { return s.off }

// ChunkReader fills buf from one replica of a log, from byte off on.
type ChunkReader interface {
	ReadChunk(off int64, buf []byte) error
}

// ChunkFunc is a ChunkReader that is a function.
type ChunkFunc func(off int64, buf []byte) error

// ReadChunk calls f.
func (f ChunkFunc) ReadChunk(off int64, buf []byte) error { return f(off, buf) }

// Cursor reads one replica of a log chunk by chunk from its start: Off bytes
// read, the first Valid of them the valid record prefix. A recovery and a
// PM-direct takeover read every replica through one and replay Prefer's pick.
type Cursor struct {
	Off   int64
	Valid int
}

// Step reads buf[c.Off:] from src — the caller sizes buf, to at most size,
// the log's length — and extends the valid prefix over it from the last
// record boundary. It reports whether the scan is settled: it stopped on a
// zero length prefix (a clean end), on a frame wholly inside what was read
// (a torn one), on a frame that runs past size, or at size. A scan that
// reached the read's edge — fewer than frameHeader bytes left, or a frame
// that runs past them — reads on. Only bytes read here are scanned, so buf
// may arrive dirty; a failed read leaves the cursor as it was.
func (c *Cursor) Step(buf []byte, size int64, src ChunkReader) (settled bool, err error) {
	if err := src.ReadChunk(c.Off, buf[c.Off:]); err != nil {
		return false, err
	}
	s := Scanner{data: buf[c.Valid:]}
	for s.Next() {
	}
	c.Off, c.Valid = int64(len(buf)), c.Valid+s.Offset()
	if c.Off >= size || len(buf)-c.Valid < frameHeader {
		return c.Off >= size, nil
	}
	length := int64(binary.LittleEndian.Uint32(buf[c.Valid:]))
	frameEnd := int64(c.Valid) + frameHeader + length
	return length == 0 || frameEnd <= c.Off || frameEnd > size, nil
}

// Prefer reports whether a replica of a mirrored log, valid bytes of valid
// prefix, replaces the best so far as the copy to replay: the furthest valid
// prefix wins (a write succeeds once one mirror took it, so a device that was
// away holds a hole its partner does not), and of equal ones the lower replica.
func Prefer(valid, replica, bestValid, bestReplica int) bool {
	return valid > bestValid || valid == bestValid && replica < bestReplica
}
