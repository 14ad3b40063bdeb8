package tmf

import (
	"encoding/binary"
	"hash/crc32"

	"persistmem/internal/audit"
)

// tcbMagic marks a live control-block entry.
const tcbMagic = 0x54434231 // "TCB1"

// AppendTCB appends one fine-grained transaction control block entry to dst:
// magic (4) | txn (8) | state (1) | pad (7) | crc (4) = 24 bytes. A writer
// that keeps a buffer encodes without allocating; the entry is built in
// place because a local array handed to the checksum escapes to the heap.
func AppendTCB(dst []byte, txn audit.TxnID, state uint8) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, TCBEntrySize)...)
	e := dst[n:]
	binary.LittleEndian.PutUint32(e[0:], tcbMagic)
	binary.LittleEndian.PutUint64(e[4:], uint64(txn))
	e[12] = state
	binary.LittleEndian.PutUint32(e[20:], crc32.ChecksumIEEE(e[:20]))
	return dst
}

// DecodeTCB parses one entry; ok is false for empty or corrupt slots.
func DecodeTCB(e []byte) (txn audit.TxnID, state uint8, ok bool) {
	if len(e) < TCBEntrySize {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint32(e[0:]) != tcbMagic {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint32(e[20:]) != crc32.ChecksumIEEE(e[:20]) {
		return 0, 0, false
	}
	return audit.TxnID(binary.LittleEndian.Uint64(e[4:])), e[12], true
}

// ScanTCBs decodes every live entry in a control-block region image, in slot
// order, handing each to fn: the outcomes recovery uses in place of a log
// scan.
func ScanTCBs(img []byte, fn func(txn audit.TxnID, state uint8)) {
	for off := 0; off+TCBEntrySize <= len(img); off += TCBEntrySize {
		if txn, state, ok := DecodeTCB(img[off : off+TCBEntrySize]); ok {
			fn(txn, state)
		}
	}
}
