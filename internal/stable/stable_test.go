package stable

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	s := New(1 << 20)
	data := []byte("hello persistent world")
	if err := s.WriteAt(100, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := s.ReadAt(100, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Errorf("got %q", buf)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	s := New(1 << 20)
	buf := []byte{1, 2, 3, 4}
	if err := s.ReadAt(5000, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0, 0}) {
		t.Errorf("unwritten read = %v, want zeros", buf)
	}
}

func TestCrossPageBoundary(t *testing.T) {
	s := New(1 << 20)
	// Straddle the first page boundary.
	off := int64(pageSize - 10)
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i + 1)
	}
	if err := s.WriteAt(off, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	if err := s.ReadAt(off, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Error("cross-page round trip corrupted data")
	}
	if s.PagesAllocated() != 2 {
		t.Errorf("PagesAllocated = %d, want 2", s.PagesAllocated())
	}
}

func TestOutOfRange(t *testing.T) {
	s := New(1000)
	if err := s.WriteAt(990, make([]byte, 20)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("write past end: %v", err)
	}
	if err := s.ReadAt(-1, make([]byte, 1)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative read: %v", err)
	}
	if err := s.WriteAt(0, make([]byte, 1000)); err != nil {
		t.Errorf("full-capacity write: %v", err)
	}
}

func TestDiscard(t *testing.T) {
	s := NewDiscard(1 << 20)
	if err := s.WriteAt(0, []byte("vanishes")); err != nil {
		t.Fatal(err)
	}
	if s.BytesWritten != 8 {
		t.Errorf("BytesWritten = %d, want 8", s.BytesWritten)
	}
	buf := make([]byte, 8)
	s.ReadAt(0, buf)
	if !bytes.Equal(buf, make([]byte, 8)) {
		t.Error("discard store retained data")
	}
	if s.PagesAllocated() != 0 {
		t.Error("discard store allocated pages")
	}
	if !s.Discarding() || New(1).Discarding() {
		t.Error("Discarding does not tell a discard store from a retaining one")
	}
	if s.Len() != 1<<20 {
		t.Errorf("Len = %d, want the capacity %d", s.Len(), 1<<20)
	}
}

func TestZero(t *testing.T) {
	s := New(1 << 20)
	s.WriteAt(0, []byte{1, 2, 3})
	s.Zero()
	buf := make([]byte, 3)
	s.ReadAt(0, buf)
	if !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Error("Zero did not erase contents")
	}
}

func TestCloneAndEqual(t *testing.T) {
	s := New(1 << 20)
	s.WriteAt(12345, []byte("mirror me"))
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not Equal to original")
	}
	c.WriteAt(12345, []byte("diverged!"))
	if s.Equal(c) {
		t.Fatal("diverged clone still Equal")
	}
	// Divergence by extra page.
	d := s.Clone()
	d.WriteAt(900000, []byte{1})
	if s.Equal(d) {
		t.Fatal("store with extra page still Equal")
	}
}

func TestEqualDifferentCapacity(t *testing.T) {
	if New(100).Equal(New(200)) {
		t.Error("stores of different capacity compared Equal")
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

// Property: arbitrary sequences of writes read back the same as a flat
// reference buffer.
func TestStoreMatchesFlatBufferProperty(t *testing.T) {
	const capacity = 1 << 18
	type op struct {
		Off  uint32
		Data []byte
	}
	prop := func(ops []op) bool {
		s := New(capacity)
		ref := make([]byte, capacity)
		for _, o := range ops {
			if len(o.Data) == 0 {
				continue
			}
			data := o.Data
			if len(data) > 8192 {
				data = data[:8192]
			}
			off := int64(o.Off) % (capacity - int64(len(data)))
			if err := s.WriteAt(off, data); err != nil {
				return false
			}
			copy(ref[off:], data)
		}
		got := make([]byte, capacity)
		if err := s.ReadAt(0, got); err != nil {
			return false
		}
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: ReadAt overwrites every byte of its destination, whatever it
// held — written spans, never-written spans and reads mixing both across
// page boundaries come back exactly as a flat reference buffer holds them.
// Recovery reads chunk after chunk into one reused scratch and relies on
// never-written space arriving as zeros, not as the previous chunk.
func TestReadAtIntoDirtyBufferProperty(t *testing.T) {
	const capacity = 8 * pageSize
	type span struct {
		Off, Len uint32
	}
	type op struct {
		Off  uint32
		Data []byte
	}
	prop := func(writes []op, reads []span, dirt byte) bool {
		s := New(capacity)
		ref := make([]byte, capacity)
		for _, w := range writes {
			data := w.Data
			if len(data) == 0 {
				continue
			}
			off := int64(w.Off) % (capacity - int64(len(data)))
			if err := s.WriteAt(off, data); err != nil {
				return false
			}
			copy(ref[off:], data)
		}
		// Generated spans up to three pages long at any alignment, then
		// the whole store (every page, written or not).
		for i := range reads {
			reads[i].Len %= 3 * pageSize
		}
		reads = append(reads, span{0, capacity})
		for _, r := range reads {
			n := int64(r.Len)
			off := int64(r.Off) % (capacity - n + 1)
			got := bytes.Repeat([]byte{dirt | 1}, int(n))
			if err := s.ReadAt(off, got); err != nil || !bytes.Equal(got, ref[off:off+n]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Equal is about logical contents: a page materialised by a write of zeros
// equals a page never written, on either side.
func TestEqualIgnoresMaterialisedZeroPages(t *testing.T) {
	a, b := New(1<<20), New(1<<20)
	a.WriteAt(3*pageSize+5, []byte("same"))
	b.WriteAt(3*pageSize+5, []byte("same"))
	a.WriteAt(7*pageSize, make([]byte, 100))
	if a.PagesAllocated() == b.PagesAllocated() {
		t.Fatal("the zero write materialised no page; the test would be vacuous")
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("a store with an all-zero page differs from one without it")
	}
	b.WriteAt(9*pageSize, []byte{1})
	if a.Equal(b) || b.Equal(a) {
		t.Error("a page only one side holds, with data in it, compared Equal")
	}
}

// BenchmarkReadAtSparse is a sparse read: 1 MiB of a log region holding one
// 512-byte write. The cost should be that of clearing 1 MiB, not of visiting
// it a byte at a time.
func BenchmarkReadAtSparse(b *testing.B) {
	s := New(32 << 20)
	s.WriteAt(0, make([]byte, 512))
	buf := make([]byte, 1<<20)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ReadAt(0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteAtSmall is the log writers' access pattern: 64-byte
// sequential appends. pages/op is what each append materialises; the
// region is erased every 4 MiB so the benchmark holds no more than that.
func BenchmarkWriteAtSmall(b *testing.B) {
	const region = 4 << 20
	s := New(region)
	rec := make([]byte, 64)
	var off int64
	pages := 0
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if off == region {
			pages += s.PagesAllocated()
			s.Zero()
			off = 0
		}
		if err := s.WriteAt(off, rec); err != nil {
			b.Fatal(err)
		}
		off += int64(len(rec))
	}
	b.ReportMetric(float64(pages+s.PagesAllocated())/float64(b.N), "pages/op")
}

// drainSpares empties the pool and returns what it held.
func drainSpares() [][]byte {
	var bufs [][]byte
	for b := TakeScratch(); b != nil; b = TakeScratch() {
		bufs = append(bufs, b)
	}
	return bufs
}

// A spare is handed out once: what is handed on is what a taker gets, at its
// full length and whatever it holds; a buffer too large to be worth keeping,
// or none at all, leaves the pool as it was.
func TestSpareIsHandedOnOnce(t *testing.T) {
	drainSpares() // whatever an earlier test left
	if got := TakeScratch(); got != nil {
		t.Fatalf("an empty pool gave a %d-byte buffer", len(got))
	}
	buf := bytes.Repeat([]byte{0xAB}, 1<<20)
	HandOn(buf[:100])
	got := TakeScratch()
	if len(got) != 1<<20 || &got[0] != &buf[0] || got[1<<20-1] != 0xAB {
		t.Errorf("took %d bytes, want the 1 MiB buffer handed on, as it was left", len(got))
	}
	if again := TakeScratch(); again != nil {
		t.Errorf("the spare was handed out twice")
	}

	HandOn(buf)
	HandOn(nil)                      // a reader that never needed a buffer
	HandOn(make([]byte, maxSpare+1)) // and one whose trail was very long
	if got := TakeScratch(); len(got) != 1<<20 || &got[0] != &buf[0] {
		t.Errorf("a nil or oversized hand-on displaced the spare: took %d bytes", len(got))
	}
	HandOn(make([]byte, maxSpare))
	if got := TakeScratch(); len(got) != maxSpare {
		t.Errorf("a %d-byte buffer was not kept: took %d bytes", maxSpare, len(got))
	}
}

// Eight goroutines take, fill, check and hand on, as bench's workers'
// recoveries do: a buffer is in one pair of hands at a time (under -race, an
// unsynchronised hand-over is a reported race; without it, a foreign byte).
func TestSpareUnderConcurrentReaders(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				buf := TakeScratch()
				if buf == nil {
					buf = make([]byte, 4096)
				}
				for i := range buf {
					buf[i] = id
				}
				runtime.Gosched()
				for i, b := range buf {
					if b != id {
						t.Errorf("reader %d found byte %d = %#x in the buffer it holds", id, i, b)
						return
					}
				}
				HandOn(buf)
			}
		}(byte(g + 1))
	}
	wg.Wait()
}

// The pool is bounded: however many readers hand on at once, it keeps at
// most spareSlots buffers, none over maxSpare, and never one buffer twice.
// Eight goroutines hand on buffers of their own and one shared oversized one
// while taking and handing back what they find (under -race, a slot written
// and read without synchronisation is a reported race).
func TestSparePoolIsBounded(t *testing.T) {
	drainSpares()
	for range 2 * spareSlots {
		HandOn(make([]byte, 4096))
	}
	if n := len(drainSpares()); n != spareSlots {
		t.Fatalf("%d buffers handed on to an empty pool, %d kept: want its %d slots", 2*spareSlots, n, spareSlots)
	}

	big := make([]byte, maxSpare+1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				HandOn(make([]byte, 4096))
				HandOn(big)
				if b := TakeScratch(); b != nil {
					if cap(b) > maxSpare {
						t.Errorf("took a %d-byte buffer, over maxSpare", cap(b))
						return
					}
					runtime.Gosched()
					HandOn(b)
				}
			}
		}()
	}
	wg.Wait()
	kept := drainSpares()
	if len(kept) > spareSlots {
		t.Errorf("the pool kept %d buffers, it has %d slots", len(kept), spareSlots)
	}
	seen := make(map[*byte]bool)
	for _, b := range kept {
		if cap(b) > maxSpare {
			t.Errorf("the pool kept a %d-byte buffer, over maxSpare", cap(b))
		}
		if seen[&b[0]] {
			t.Errorf("the pool held one buffer in two slots")
		}
		seen[&b[0]] = true
	}
}
