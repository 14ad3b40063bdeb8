package pmm

import (
	"bytes"
	"errors"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/npmu"
	"persistmem/internal/sim"
)

// The PMM's failure paths: a mirror repair asked for while a device is
// still away, on a volume with no mirror, and in each direction, and a
// delete the manager must refuse.

// volume is a manager over a pair of 4 MiB NPMUs (the same device twice
// when unmirrored) and a client CPU to call it from.
type volume struct {
	cl         *cluster.Cluster
	prim, mirr *npmu.Device
	m          *Manager
}

func newVolume(t *testing.T, mirrored bool) *volume {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.CPUs = 3
	cl := cluster.New(sim.NewEngine(1), cfg)
	t.Cleanup(cl.Engine().Shutdown)
	v := &volume{cl: cl, prim: npmu.New(cl, "npmu-a", 4<<20)}
	v.mirr = v.prim
	if mirrored {
		v.mirr = npmu.New(cl, "npmu-b", 4<<20)
	}
	v.m = Start(cl, "$PM0", 0, 1, v.prim, v.mirr)
	return v
}

// call sends req to the manager from a client process and runs the engine
// until the reply is in.
func (v *volume) call(t *testing.T, req interface{}) interface{} {
	t.Helper()
	var reply interface{}
	v.cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		var err error
		if reply, err = p.Call("$PM0", 128, req); err != nil {
			t.Errorf("call %T: %v", req, err)
		}
	})
	v.cl.Engine().Run()
	return reply
}

// create makes a region and returns its device offset.
func (v *volume) create(t *testing.T, name string, size int64) int64 {
	t.Helper()
	r, _ := v.call(t, CreateReq{Name: name, Size: size, Owner: "test"}).(Resp)
	if r.Err != nil {
		t.Fatalf("create %s: %v", name, r.Err)
	}
	return int64(r.Info.Base)
}

func (v *volume) resilver(t *testing.T) ResilverResp {
	t.Helper()
	r, _ := v.call(t, ResilverReq{}).(ResilverResp)
	return r
}

// extent reads n bytes at off straight from a device's media.
func extent(t *testing.T, d *npmu.Device, off int64, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	if err := d.Store().ReadAt(off, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResilverRefusesWhileADeviceIsAway: with either device off the fabric
// or powered off, there is nothing whole to copy to or from. The repair
// says ErrVolumeDown and writes nothing, whichever device is away.
func TestResilverRefusesWhileADeviceIsAway(t *testing.T) {
	for _, tc := range []struct {
		name       string
		away, back func(v *volume)
	}{
		{"mirror off the fabric", func(v *volume) { v.mirr.Fail() }, func(v *volume) { v.mirr.Recover() }},
		{"mirror powered off", func(v *volume) { v.mirr.PowerFail() }, func(v *volume) { v.mirr.Restore() }},
		{"primary off the fabric", func(v *volume) { v.prim.Fail() }, func(v *volume) { v.prim.Recover() }},
		{"primary powered off", func(v *volume) { v.prim.PowerFail() }, func(v *volume) { v.prim.Restore() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := newVolume(t, true)
			off := v.create(t, "r", 64<<10)
			primBytes, mirrBytes := bytes.Repeat([]byte{0xA1}, 4096), bytes.Repeat([]byte{0xB2}, 4096)
			if err := v.prim.Store().WriteAt(off, primBytes); err != nil {
				t.Fatal(err)
			}
			if err := v.mirr.Store().WriteAt(off, mirrBytes); err != nil {
				t.Fatal(err)
			}
			tc.away(v)
			r := v.resilver(t)
			if !errors.Is(r.Err, ErrVolumeDown) || r.BytesCopied != 0 || v.m.Resilvers != 0 {
				t.Errorf("resilver: err %v, %d bytes copied, %d resilvers; want ErrVolumeDown, 0, 0", r.Err, r.BytesCopied, v.m.Resilvers)
			}
			tc.back(v)
			if got := extent(t, v.prim, off, 4096); !bytes.Equal(got, primBytes) {
				t.Error("the refused repair wrote the primary's extent")
			}
			if got := extent(t, v.mirr, off, 4096); !bytes.Equal(got, mirrBytes) {
				t.Error("the refused repair wrote the mirror's extent")
			}
		})
	}
}

// TestResilverOfAnUnmirroredVolumeIsANoOp: a volume built on one device
// (the mirroring ablation) has no mirror to rebuild.
func TestResilverOfAnUnmirroredVolumeIsANoOp(t *testing.T) {
	v := newVolume(t, false)
	v.create(t, "r", 64<<10)
	writes := v.m.MetaWrites
	r := v.resilver(t)
	if r.Err != nil || r.BytesCopied != 0 || v.m.Resilvers != 0 || v.m.MetaWrites != writes {
		t.Errorf("resilver: err %v, %d bytes copied, %d resilvers, %d metadata writes; want nil, 0, 0, %d",
			r.Err, r.BytesCopied, v.m.Resilvers, v.m.MetaWrites, writes)
	}
}

// TestResilverCopiesThePrimaryOverTheReturnedMirror: once the device that
// was away is back, every region's extent is copied from the primary and
// the metadata rewritten on both devices, so the mirror serves what the
// primary holds.
func TestResilverCopiesThePrimaryOverTheReturnedMirror(t *testing.T) {
	v := newVolume(t, true)
	offA := v.create(t, "a", 64<<10)
	offB := v.create(t, "b", 300<<10) // more than one 256 KiB copy chunk
	v.mirr.PowerFail()
	data := map[int64][]byte{offA: bytes.Repeat([]byte{0x5A}, 64<<10), offB: bytes.Repeat([]byte{0xC3}, 300<<10)}
	for off, b := range data {
		if err := v.prim.Store().WriteAt(off, b); err != nil {
			t.Fatal(err)
		}
	}
	v.mirr.Restore()
	writes := v.m.MetaWrites
	r := v.resilver(t)
	if r.Err != nil || r.BytesCopied != (64+300)<<10 || v.m.Resilvers != 1 {
		t.Fatalf("resilver: err %v, %d bytes copied, %d resilvers; want nil, %d, 1", r.Err, r.BytesCopied, v.m.Resilvers, (64+300)<<10)
	}
	if v.m.MetaWrites != writes+2 {
		t.Errorf("%d metadata writes during the repair, want one a device", v.m.MetaWrites-writes)
	}
	for off, b := range data {
		if got := extent(t, v.mirr, off, len(b)); !bytes.Equal(got, b) {
			t.Errorf("the mirror's extent at %d is not the primary's", off)
		}
	}
	// The mirror alone now brings the table back.
	v.prim.PowerFail()
	img := extent(t, v.mirr, 0, MetaBytes)
	var newest *VolumeState
	for slot := 0; slot+MetaSlotBytes <= len(img); slot += MetaSlotBytes {
		if st, err := DecodeMeta(img[slot : slot+MetaSlotBytes]); err == nil && (newest == nil || st.Gen > newest.Gen) {
			newest = st
		}
	}
	if newest == nil || len(newest.regions) != 2 || newest.lookup("b") < 0 || newest.regions[newest.lookup("b")].Offset != offB {
		t.Errorf("the mirror's newest metadata is %+v, want regions a and b", newest)
	}
}

// TestDeleteRefusals: a delete of a region that does not exist, of one
// still open on any CPU, or while neither device takes the metadata write
// leaves the table as it was.
func TestDeleteRefusals(t *testing.T) {
	v := newVolume(t, true)
	v.create(t, "r", 64<<10)
	del := func() error { r, _ := v.call(t, DeleteReq{Name: "r"}).(Resp); return r.Err }
	regions := func() int { r, _ := v.call(t, ListReq{}).(Resp); return len(r.Regions) }

	if r, _ := v.call(t, DeleteReq{Name: "nope"}).(Resp); !errors.Is(r.Err, ErrNotFound) {
		t.Errorf("delete of an unknown region: %v, want ErrNotFound", r.Err)
	}
	v.call(t, OpenReq{Name: "r", ClientCPU: 1})
	v.call(t, OpenReq{Name: "r", ClientCPU: 2})
	v.call(t, CloseReq{Name: "r", ClientCPU: 2})
	if err := del(); !errors.Is(err, ErrBusy) {
		t.Errorf("delete while open on one CPU of two: %v, want ErrBusy", err)
	}
	v.call(t, CloseReq{Name: "r", ClientCPU: 1})
	v.prim.Fail()
	v.mirr.Fail()
	if err := del(); !errors.Is(err, ErrVolumeDown) {
		t.Errorf("delete with both devices away: %v, want ErrVolumeDown", err)
	}
	v.prim.Recover()
	v.mirr.Recover()
	if n := regions(); n != 1 {
		t.Fatalf("%d regions after the refused deletes, want 1", n)
	}
	if err := del(); err != nil || regions() != 0 {
		t.Errorf("delete once closed: %v, %d regions left", err, regions())
	}
}
