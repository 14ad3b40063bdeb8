package pmm

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleState() *VolumeState {
	st := NewVolumeState("$PM1")
	st.Gen = 7
	st.insert(RegionMeta{Name: "tcb", Owner: "$TMF", Offset: MetaBytes + 1<<20, Size: 4096})
	st.insert(RegionMeta{Name: "adp-log-0", Owner: "$ADP0", Offset: MetaBytes, Size: 1 << 20})
	return st
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := sampleState()
	img, err := EncodeMeta(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMeta(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Volume != st.Volume || got.Gen != st.Gen {
		t.Errorf("volume/gen = %q/%d, want %q/%d", got.Volume, got.Gen, st.Volume, st.Gen)
	}
	if !reflect.DeepEqual(got.regions, st.regions) {
		t.Errorf("regions = %+v, want %+v", got.regions, st.regions)
	}
	if st.regions[0].Name != "adp-log-0" {
		t.Errorf("the table starts with %q, want the region at the lowest offset", st.regions[0].Name)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	img := make([]byte, 100)
	if _, err := DecodeMeta(img); !errors.Is(err, ErrNoMetadata) {
		t.Errorf("err = %v, want ErrNoMetadata", err)
	}
}

func TestDecodeRejectsCorruptPayload(t *testing.T) {
	img, _ := EncodeMeta(sampleState())
	img[30] ^= 0xFF // flip a payload bit; CRC must catch it
	if _, err := DecodeMeta(img); !errors.Is(err, ErrCorruptMetadata) {
		t.Errorf("err = %v, want ErrCorruptMetadata", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	img, _ := EncodeMeta(sampleState())
	// Claim a payload longer than the slot.
	img[16] = 0xFF
	img[17] = 0xFF
	if _, err := DecodeMeta(img); !errors.Is(err, ErrCorruptMetadata) {
		t.Errorf("err = %v, want ErrCorruptMetadata", err)
	}
}

func TestAllocateFirstFit(t *testing.T) {
	const total = MetaBytes + 10<<20
	st := NewVolumeState("v")
	off1, err := st.Allocate(1<<20, total)
	if err != nil {
		t.Fatal(err)
	}
	if off1 != MetaBytes {
		t.Errorf("first allocation at %d, want %d (after metadata)", off1, MetaBytes)
	}
	st.insert(RegionMeta{Name: "a", Offset: off1, Size: 1 << 20})
	off2, _ := st.Allocate(1<<20, total)
	if off2 != off1+1<<20 {
		t.Errorf("second allocation at %d, want %d", off2, off1+1<<20)
	}
	st.insert(RegionMeta{Name: "b", Offset: off2, Size: 1 << 20})

	// Delete the first region: its gap is reused first-fit.
	st.regions = st.regions[1:]
	off3, _ := st.Allocate(512<<10, total)
	if off3 != off1 {
		t.Errorf("gap reuse at %d, want %d", off3, off1)
	}
}

func TestAllocateFull(t *testing.T) {
	const total = MetaBytes + 1<<20
	st := NewVolumeState("v")
	if _, err := st.Allocate(2<<20, total); err == nil {
		t.Error("oversized allocation succeeded")
	}
	if _, err := st.Allocate(0, total); err == nil {
		t.Error("zero-size allocation succeeded")
	}
}

func TestSlotAlternation(t *testing.T) {
	if slotOffset(1) == slotOffset(2) {
		t.Error("consecutive generations use the same slot")
	}
	if slotOffset(1) != slotOffset(3) {
		t.Error("slot assignment not alternating")
	}
}

func TestCloneIndependence(t *testing.T) {
	st := sampleState()
	tcb := st.lookup("tcb")
	st.regions[tcb].open = 1 << 2
	c := st.Clone()
	c.regions[tcb].Size = 1
	c.regions[tcb].open |= 1 << 3
	if st.regions[tcb].Size == 1 {
		t.Error("Clone aliases region metadata")
	}
	if st.regions[tcb].open != 1<<2 {
		t.Error("Clone aliases open sets")
	}
}

// TestCloneIsTwoObjects holds a checkpoint's copy of the table to the state
// and one slice, however many regions the volume has and however many CPUs
// hold them open: the PMM clones the table on every create, open, close and
// delete, and a copy per region and per open set was about one object per
// transaction of a crash scenario.
func TestCloneIsTwoObjects(t *testing.T) {
	for _, n := range []int{1, 4, 40} {
		st := NewVolumeState("$PM0")
		for i := 0; i < n; i++ {
			st.insert(RegionMeta{Name: fmt.Sprintf("log%d", i), Owner: "$ADP0", Offset: MetaBytes + int64(i)<<20, Size: 1 << 20})
			st.regions[i].open = 1<<1 | 1<<2 | 1<<3
		}
		var c *VolumeState
		if got := testing.AllocsPerRun(100, func() { c = st.Clone() }); got != 2 || len(c.regions) != n {
			t.Errorf("cloning a table of %d open regions allocates %v objects, want 2", n, got)
		}
	}
}

// Property: encode/decode round-trips arbitrary region tables.
func TestMetaRoundTripProperty(t *testing.T) {
	type spec struct {
		Name  string
		Owner string
		Off   uint32
		Size  uint32
	}
	prop := func(vol string, specs []spec, gen uint64) bool {
		if len(vol) > 200 {
			vol = vol[:200]
		}
		st := NewVolumeState(vol)
		st.Gen = gen
		for i, sp := range specs {
			if len(specs) > 64 && i >= 64 {
				break
			}
			name := sp.Name
			if len(name) > 100 {
				name = name[:100]
			}
			if name == "" || st.lookup(name) >= 0 {
				continue
			}
			st.insert(RegionMeta{Name: name, Owner: sp.Owner, Offset: int64(sp.Off), Size: int64(sp.Size)})
		}
		img, err := EncodeMeta(st)
		if err != nil {
			return true // oversized tables are allowed to fail encode
		}
		got, err := DecodeMeta(img)
		if err != nil {
			return false
		}
		return got.Volume == st.Volume && got.Gen == st.Gen &&
			reflect.DeepEqual(got.regions, st.regions)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
