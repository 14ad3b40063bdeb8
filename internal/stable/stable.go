// Package stable provides a sparse byte store used as the durable backing
// for simulated devices: disk platters and NPMU non-volatile memory.
//
// A Store survives simulated power loss by construction — the simulation
// models power failure by destroying processes and volatile state while
// keeping Store contents; Zero exists for explicitly-volatile devices.
// Pages are allocated lazily so multi-hundred-megabyte device capacities
// cost only what is actually written.
package stable

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic" //simlint:allow goroutine -- the spare read buffers below: slots swapped whole between readers, their contents trusted by nobody
)

// ErrOutOfRange is returned when an access falls outside the store's
// configured capacity.
var ErrOutOfRange = errors.New("stable: access out of range")

// pageSize is the unit of materialisation. It is a constant sized to the
// traffic the devices see (DESIGN.md, device store): log appends and audit
// flushes of at most a few hundred bytes, scattered over regions that stay
// almost entirely unwritten, so a page much larger than a write is mostly
// allocation and zeroing nobody reads. 4 KiB is where halving stops paying:
// a smaller page saves under 2 MB a fault-recover rep and costs more pages
// under a dense log.
const pageSize = 4 << 10

// Store is a sparse, fixed-capacity byte store. The zero value is not
// usable; create one with New.
type Store struct {
	capacity int64
	pages    map[int64][]byte // page index -> page contents

	// discard, when set, makes writes update only size accounting — used
	// by timing-only benchmark runs that never read data back.
	discard bool

	// BytesWritten counts all bytes ever written (including discarded).
	BytesWritten int64
}

// New returns a store with the given capacity in bytes.
func New(capacity int64) *Store {
	if capacity <= 0 {
		panic("stable: capacity must be positive")
	}
	return &Store{
		capacity: capacity,
		pages:    make(map[int64][]byte),
	}
}

// NewDiscard returns a store that accepts writes of any content but
// retains none of it; reads return zeros. Timing-only simulations use it
// to avoid materializing gigabytes of log data.
func NewDiscard(capacity int64) *Store {
	s := New(capacity)
	s.discard = true
	return s
}

// Len returns the store capacity in bytes (it implements the Window
// contract of the servernet package).
func (s *Store) Len() int64 { return s.capacity }

// Discarding reports whether the store retains data.
func (s *Store) Discarding() bool { return s.discard }

func (s *Store) check(off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > s.capacity {
		return fmt.Errorf("%w: off=%d len=%d cap=%d", ErrOutOfRange, off, n, s.capacity)
	}
	return nil
}

// WriteAt stores data at byte offset off.
func (s *Store) WriteAt(off int64, data []byte) error {
	if err := s.check(off, len(data)); err != nil {
		return err
	}
	s.BytesWritten += int64(len(data))
	if s.discard {
		return nil
	}
	for len(data) > 0 {
		pi, po := off/pageSize, int(off%pageSize)
		page, ok := s.pages[pi]
		if !ok {
			page = make([]byte, pageSize)
			s.pages[pi] = page
		}
		n := copy(page[po:], data)
		data = data[n:]
		off += int64(n)
	}
	return nil
}

// ReadAt fills buf from byte offset off; unwritten ranges read as zeros.
// Every byte of buf is overwritten, whatever it held: a never-written page
// costs one clear of its span, so a read of empty space is priced by its
// length in memclr, not in loop iterations.
func (s *Store) ReadAt(off int64, buf []byte) error {
	if err := s.check(off, len(buf)); err != nil {
		return err
	}
	for len(buf) > 0 {
		pi, po := off/pageSize, int(off%pageSize)
		n := min(pageSize-po, len(buf))
		if page, ok := s.pages[pi]; ok {
			copy(buf[:n], page[po:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// maxSpare is the largest read buffer worth keeping for the next reader:
// four times the 1 MiB floor recovery grows its scratch from. A longer
// trail's buffer goes to the collector.
const maxSpare = 4 << 20

// spareSlots is how many idle read buffers the process keeps: one for each
// worker of a recovery of the widest store built (eight trails) — the
// recovering process hands its own on before any worker takes one.
const spareSlots = 8

// spares are the process's idle read buffers: what the last device readers
// to finish handed on. Each slot is swapped whole — readers that find every
// slot empty, on this engine or on another goroutine's (bench's worker
// pool), allocate as they always did, and which of them found one full shows
// in allocation counts only, because whoever takes a buffer reads into it
// before looking at it and ReadAt overwrites every byte of its destination.
var spares [spareSlots]atomic.Pointer[[]byte]

// TakeScratch returns a spare read buffer at its full length, contents
// arbitrary, or nil when there is none.
func TakeScratch() []byte {
	for i := range spares {
		if b := spares[i].Swap(nil); b != nil {
			return (*b)[:cap(*b)]
		}
	}
	return nil
}

// HandOn leaves buf for a later TakeScratch, in the first empty slot; with
// every slot full it goes to the collector. The caller is done with it: no
// read into it is in flight and nothing the caller keeps points into it.
func HandOn(buf []byte) {
	if cap(buf) == 0 || cap(buf) > maxSpare {
		return
	}
	for i := range spares {
		if spares[i].CompareAndSwap(nil, &buf) {
			return
		}
	}
}

// Zero erases all contents, as when a volatile device loses power.
func (s *Store) Zero() {
	s.pages = make(map[int64][]byte)
}

// Clone returns a deep copy — useful for mirror-divergence checks in tests.
func (s *Store) Clone() *Store {
	c := New(s.capacity)
	c.discard = s.discard
	c.BytesWritten = s.BytesWritten
	//simlint:ordered -- map-to-map copy; insertion order is invisible
	for pi, page := range s.pages {
		cp := make([]byte, len(page))
		copy(cp, page)
		c.pages[pi] = cp
	}
	return c
}

// Equal reports whether two stores have identical logical contents: a
// page one store never materialised equals an all-zero page of the other.
func (s *Store) Equal(o *Store) bool {
	if s.capacity != o.capacity {
		return false
	}
	zero := make([]byte, pageSize)
	return s.matches(o, zero) && o.matches(s, zero)
}

// matches reports whether every page s holds reads the same in o.
func (s *Store) matches(o *Store, zero []byte) bool {
	//simlint:ordered -- equality result is independent of comparison order
	for pi, page := range s.pages {
		other, ok := o.pages[pi]
		if !ok {
			other = zero
		}
		if !bytes.Equal(page, other) {
			return false
		}
	}
	return true
}

// PagesAllocated reports how many pages the store has materialized.
func (s *Store) PagesAllocated() int { return len(s.pages) }
