package audit

import (
	"bytes"
	"testing"
)

// kibRecord is a data record with a 1 KiB body, the size the DP2 audit
// buffer takes one after another.
var kibRecord = Record{Type: RecInsert, Txn: 9, File: "TRADES", Partition: 1, Key: 42, Body: bytes.Repeat([]byte{0x5A}, 1<<10)}

// TestAppendRecordGrowsOnce holds AppendRecord's growth rule: a record that
// fits is written in place, one that does not grows the buffer once, and a
// buffer that takes records one by one doubles, so 24 one-KiB records from
// nil cost six allocations. Grown by append's own steps they would cost
// one allocation per internal append that overflowed, each step past 256
// bytes only ~1.25×: 14.
func TestAppendRecordGrowsOnce(t *testing.T) {
	size := EncodedSize(&kibRecord)
	roomy := make([]byte, 0, 4*size)
	if got := testing.AllocsPerRun(100, func() { AppendRecord(roomy, &kibRecord) }); got != 0 {
		t.Errorf("a record that fits costs %.1f allocations, want 0", got)
	}
	small := make([]byte, 10, 64)
	if got := testing.AllocsPerRun(100, func() { AppendRecord(small, &kibRecord) }); got != 1 {
		t.Errorf("a record into a buffer too small for it costs %.1f allocations, want 1", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		var buf []byte
		for range 24 {
			buf = AppendRecord(buf, &kibRecord)
		}
	}); got > 6 {
		t.Errorf("24 one-KiB records appended from nil allocate %.1f times, want at most 6", got)
	}

	// The grown buffer keeps what it held, and its capacity is the larger
	// of the need and twice the old capacity.
	for _, tc := range []struct{ len, cap, want int }{
		{10, 64, 10 + size},                      // the need wins
		{1, size, 2 * size},                      // doubling wins by a byte
		{size, 3 * size / 2, 2 * (3 * size / 2)}, // doubling wins, from a part-filled buffer
	} {
		old := make([]byte, tc.len, tc.cap)
		for i := range old {
			old[i] = byte(i)
		}
		got := AppendRecord(old, &kibRecord)
		if !bytes.Equal(got[:tc.len], old) {
			t.Errorf("len %d cap %d: the grown buffer lost what it held", tc.len, tc.cap)
		}
		if cap(got) != tc.want {
			t.Errorf("len %d cap %d: grown to capacity %d, want %d", tc.len, tc.cap, cap(got), tc.want)
		}
		if r, n, err := DecodeRecord(got[tc.len:]); err != nil || n != size || r.Key != kibRecord.Key {
			t.Errorf("len %d cap %d: the appended frame decodes to key %d, %d bytes, %v", tc.len, tc.cap, r.Key, n, err)
		}
	}
}
