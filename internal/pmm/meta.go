// Package pmm implements the Persistent Memory Manager of §4.1: a process
// pair that owns a PM volume — a mirrored pair of NPMUs presented as one
// logical device — and manages its regions (the PM analog of files),
// metadata, and NIC address-translation programming.
//
// The PMM's metadata "must be kept consistent at all times in order to
// facilitate recovery should the system fail" (§4.1). It is stored in a
// reserved area at the front of both NPMUs using a two-slot alternating
// scheme: each update writes the next generation into the older slot, so
// a crash mid-write always leaves one intact, CRC-valid slot.
package pmm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
)

// Metadata geometry.
const (
	// MetaSlotBytes is the size of one metadata slot.
	MetaSlotBytes = 128 << 10
	// MetaBytes is the total reserved metadata area (two slots) at the
	// front of each device; region space starts after it.
	MetaBytes = 2 * MetaSlotBytes

	metaMagic = "PMVOLMET"
	// metaHeaderBytes is a slot's header: magic, generation, payload
	// length and CRC.
	metaHeaderBytes = 24
)

// Metadata decode errors.
var (
	// ErrNoMetadata means a slot holds no valid metadata (bad magic).
	ErrNoMetadata = errors.New("pmm: no metadata in slot")
	// ErrCorruptMetadata means a slot's CRC or structure check failed.
	ErrCorruptMetadata = errors.New("pmm: corrupt metadata")
)

// RegionMeta is the durable description of one region.
type RegionMeta struct {
	Name   string
	Owner  string
	Offset int64 // physical byte offset within each NPMU
	Size   int64
}

// VolumeState is the PMM's metadata: the region table plus a generation
// counter. It is both the durable on-device format's source and the
// checkpoint payload between the PMM primary and backup.
type VolumeState struct {
	Volume string
	Gen    uint64

	// regions is the region table by value, in offset order: the encode
	// order and the order Allocate scans.
	regions []region
}

// region is one row of the region table: its durable description and the
// CPUs holding it open, bit i for CPU i. Open handles are runtime state:
// they are checkpointed to the backup (takeover keeps clients' handles
// valid) but not written to durable media (after a power loss all clients
// are gone anyway).
type region struct {
	RegionMeta
	open uint64
}

// maxOpenCPUs bounds the CPU indexes that may hold a region open: one bit
// of region.open each.
const maxOpenCPUs = 64

// NewVolumeState returns an empty state for the named volume.
func NewVolumeState(volume string) *VolumeState {
	return &VolumeState{Volume: volume}
}

// Clone copies the state (checkpoints must not alias the live table). The
// table is values all the way down, so a clone is two objects however many
// regions and opens the volume has.
func (s *VolumeState) Clone() *VolumeState {
	c := *s
	c.regions = slices.Clone(s.regions)
	return &c
}

// lookup returns the index of the region named name, or -1.
func (s *VolumeState) lookup(name string) int {
	for i := range s.regions {
		if s.regions[i].Name == name {
			return i
		}
	}
	return -1
}

// insert adds r to the table at its place in offset order, after any
// region at the same offset, and returns its index.
func (s *VolumeState) insert(r RegionMeta) int {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].Offset > r.Offset })
	s.regions = slices.Insert(s.regions, i, region{RegionMeta: r})
	return i
}

// Allocate finds a free extent of the given size in a device of capacity
// total, honoring the reserved metadata area. It returns the chosen offset
// without mutating state.
func (s *VolumeState) Allocate(size, total int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("pmm: region size %d must be positive", size)
	}
	cursor := int64(MetaBytes)
	for _, r := range s.regions {
		if r.Offset-cursor >= size {
			return cursor, nil
		}
		if end := r.Offset + r.Size; end > cursor {
			cursor = end
		}
	}
	if total-cursor >= size {
		return cursor, nil
	}
	return 0, fmt.Errorf("pmm: volume full: need %d bytes, largest tail gap %d", size, total-cursor)
}

// EncodeMeta serializes the durable portion of the state into one metadata
// slot image (magic, generation, CRC-protected region table).
func EncodeMeta(s *VolumeState) ([]byte, error) {
	payload := make([]byte, 0, 256)
	var scratch [8]byte

	putU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		payload = append(payload, scratch[:4]...)
	}
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		payload = append(payload, scratch[:8]...)
	}
	putStr := func(str string) {
		putU32(uint32(len(str)))
		payload = append(payload, str...)
	}

	putStr(s.Volume)
	putU32(uint32(len(s.regions)))
	for _, r := range s.regions {
		putStr(r.Name)
		putStr(r.Owner)
		putU64(uint64(r.Offset))
		putU64(uint64(r.Size))
	}

	header := make([]byte, 24)
	copy(header, metaMagic)
	binary.LittleEndian.PutUint64(header[8:], s.Gen)
	binary.LittleEndian.PutUint32(header[16:], uint32(len(payload)))
	// The CRC covers generation and length too: a torn write anywhere in
	// the slot must be detectable.
	crc := crc32.ChecksumIEEE(header[8:20])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(header[20:], crc)
	img := append(header, payload...)
	if len(img) > MetaSlotBytes {
		return nil, fmt.Errorf("pmm: metadata (%d bytes) exceeds slot size %d", len(img), MetaSlotBytes)
	}
	return img, nil
}

// DecodeMeta parses one slot image, returning the durable state and its
// generation.
func DecodeMeta(img []byte) (*VolumeState, error) {
	if len(img) < 24 || string(img[:8]) != metaMagic {
		return nil, ErrNoMetadata
	}
	gen := binary.LittleEndian.Uint64(img[8:])
	plen := binary.LittleEndian.Uint32(img[16:])
	crc := binary.LittleEndian.Uint32(img[20:])
	if int(plen) > len(img)-24 {
		return nil, fmt.Errorf("%w: payload length %d exceeds slot", ErrCorruptMetadata, plen)
	}
	payload := img[24 : 24+plen]
	want := crc32.ChecksumIEEE(img[8:20])
	want = crc32.Update(want, crc32.IEEETable, payload)
	if want != crc {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorruptMetadata)
	}

	pos := 0
	fail := func() (*VolumeState, error) {
		return nil, fmt.Errorf("%w: truncated payload", ErrCorruptMetadata)
	}
	getU32 := func() (uint32, bool) {
		if pos+4 > len(payload) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(payload[pos:])
		pos += 4
		return v, true
	}
	getU64 := func() (uint64, bool) {
		if pos+8 > len(payload) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(payload[pos:])
		pos += 8
		return v, true
	}
	getStr := func() (string, bool) {
		n, ok := getU32()
		if !ok || pos+int(n) > len(payload) {
			return "", false
		}
		v := string(payload[pos : pos+int(n)])
		pos += int(n)
		return v, true
	}

	vol, ok := getStr()
	if !ok {
		return fail()
	}
	st := NewVolumeState(vol)
	st.Gen = gen
	count, ok := getU32()
	if !ok {
		return fail()
	}
	for i := uint32(0); i < count; i++ {
		name, ok1 := getStr()
		owner, ok2 := getStr()
		off, ok3 := getU64()
		size, ok4 := getU64()
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return fail()
		}
		st.insert(RegionMeta{Name: name, Owner: owner, Offset: int64(off), Size: int64(size)})
	}
	return st, nil
}

// metaPayloadLen returns the payload length a slot header declares, and
// false when the header has no magic or declares more than the slot holds.
func metaPayloadLen(hdr []byte) (int, bool) {
	if string(hdr[:8]) != metaMagic {
		return 0, false
	}
	plen := int(binary.LittleEndian.Uint32(hdr[16:]))
	return plen, plen <= MetaSlotBytes-metaHeaderBytes
}

// slotOffset returns the device offset of metadata slot i (0 or 1).
func slotOffset(i uint64) int64 { return int64(i%2) * MetaSlotBytes }
