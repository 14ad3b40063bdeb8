package pmm

import (
	"encoding/binary"
	"slices"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/npmu"
	"persistmem/internal/sim"
)

// A cold start reads each metadata slot's header and then only the payload
// that header declares. These tests count what the two devices serve as
// reads (their endpoints' BytesOut) between Start and the first answered
// ListReq, so a return to whole-slot reads — 512 KiB where a few hundred
// bytes do — fails them.

// coldStartBudget bounds the virtual time from Start to the first answer.
const coldStartBudget = 300 * sim.Microsecond

// coldRig is a pair of 16 MiB NPMUs on a three-CPU cluster.
type coldRig struct {
	cl         *cluster.Cluster
	prim, mirr *npmu.Device
}

func newColdRig(t *testing.T) *coldRig {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.CPUs = 3
	cl := cluster.New(sim.NewEngine(1), cfg)
	t.Cleanup(cl.Engine().Shutdown)
	return &coldRig{cl: cl, prim: npmu.New(cl, "npmu-a", 16<<20), mirr: npmu.New(cl, "npmu-b", 16<<20)}
}

// served is the bytes both devices have served as reads so far.
func (r *coldRig) served() int64 {
	return r.prim.Endpoint().BytesOut + r.mirr.Endpoint().BytesOut
}

// call sends req to $PM0 from CPU 2 and runs the engine until it is over.
func (r *coldRig) call(t *testing.T, req interface{}) Resp {
	t.Helper()
	var resp Resp
	r.cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		v, err := p.Call("$PM0", 128, req)
		if err != nil {
			t.Errorf("call %T: %v", req, err)
			return
		}
		resp = v.(Resp)
	})
	r.cl.Engine().Run()
	return resp
}

// written creates the named regions through a manager, stops it and power
// cycles both devices. It returns the region table after each create, so
// tests can size the slots that hold the last two generations.
func (r *coldRig) written(t *testing.T, names ...string) (tables [][]RegionMeta) {
	t.Helper()
	m := Start(r.cl, "$PM0", 0, 1, r.prim, r.mirr)
	for _, n := range names {
		if resp := r.call(t, CreateReq{Name: n, Size: 1 << 20, Owner: "owner-of-" + n}); resp.Err != nil {
			t.Fatalf("create %s: %v", n, resp.Err)
		}
		tables = append(tables, r.call(t, ListReq{}).Regions)
	}
	m.Stop()
	r.cl.Engine().Run()
	for _, d := range []*npmu.Device{r.prim, r.mirr} {
		d.PowerFail()
		d.Restore()
	}
	return tables
}

// coldStart starts a manager and lists its regions at once. It returns
// the table, the bytes the devices served as reads until the answer, and
// how long after Start the answer came.
func (r *coldRig) coldStart(t *testing.T) (*Manager, []RegionMeta, int64, sim.Time) {
	t.Helper()
	before, t0 := r.served(), r.cl.Engine().Now()
	m := Start(r.cl, "$PM0", 0, 1, r.prim, r.mirr)
	var (
		regions []RegionMeta
		read    int64
		took    sim.Time
	)
	r.cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		v, err := p.Call("$PM0", 128, ListReq{})
		if err != nil {
			t.Errorf("list: %v", err)
			return
		}
		regions, read, took = v.(Resp).Regions, r.served()-before, p.Now()-t0
	})
	r.cl.Engine().Run()
	return m, regions, read, took
}

// payloadLen is the payload EncodeMeta writes for a volume with regions.
func payloadLen(t *testing.T, regions []RegionMeta) int64 {
	t.Helper()
	st := NewVolumeState("$PM0")
	for _, r := range regions {
		st.insert(r)
	}
	img, err := EncodeMeta(st)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(img) - metaHeaderBytes)
}

// newestSlot is the device offset of the slot holding the newest of n
// generations written since the format (generation 1).
func newestSlot(n int) int64 { return slotOffset(uint64(n + 1)) }

func TestColdStartReadsOnlyHeadersAndDeclaredPayloads(t *testing.T) {
	t.Run("blank devices", func(t *testing.T) {
		r := newColdRig(t)
		m, regions, read, took := r.coldStart(t)
		if len(regions) != 0 || m.Recoveries != 0 {
			t.Errorf("a blank volume came up with regions %v after %d recoveries", regions, m.Recoveries)
		}
		if want := int64(4 * metaHeaderBytes); read != want {
			t.Errorf("the cold start read %d B from the devices, want the four headers' %d B", read, want)
		}
		if took > coldStartBudget {
			t.Errorf("first answer %v after Start, budget %v", took, coldStartBudget)
		}
	})
	t.Run("written volume after a power cycle", func(t *testing.T) {
		r := newColdRig(t)
		tables := r.written(t, "log0", "log1", "log2", "log3", "log4")
		m, regions, read, took := r.coldStart(t)
		newest, older := tables[len(tables)-1], tables[len(tables)-2]
		if !slices.Equal(regions, newest) || m.Recoveries != 1 {
			t.Errorf("the restarted manager found %v after %d recoveries, want %v after 1", regions, m.Recoveries, newest)
		}
		want := 4*metaHeaderBytes + 2*(payloadLen(t, newest)+payloadLen(t, older))
		if read != want {
			t.Errorf("the cold start read %d B from the devices, want headers plus declared payloads, %d B", read, want)
		}
		if took > coldStartBudget {
			t.Errorf("first answer %v after Start, budget %v", took, coldStartBudget)
		}
	})
}

// A slot whose header declares more payload than the slot holds is skipped
// without a payload read, and so is one whose payload fails its CRC: the
// older generation, or the other device's copy of the newest, wins.
func TestColdStartSkipsBadSlots(t *testing.T) {
	overlong := func(t *testing.T, d *npmu.Device, slot int64) {
		var plen [4]byte
		binary.LittleEndian.PutUint32(plen[:], MetaSlotBytes)
		if err := d.Store().WriteAt(slot+16, plen[:]); err != nil {
			t.Fatal(err)
		}
	}
	torn := func(t *testing.T, d *npmu.Device, slot int64) {
		b := make([]byte, 1)
		if err := d.Store().ReadAt(slot+metaHeaderBytes+4, b); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xFF
		if err := d.Store().WriteAt(slot+metaHeaderBytes+4, b); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		damage  func(*testing.T, *npmu.Device, int64)
		reads   bool // whether the damaged slot's payload is still read
		bothDev bool // whether both devices' newest slots are damaged
	}{
		{"overlong header on both devices", overlong, false, true},
		{"overlong header on the primary", overlong, false, false},
		{"torn payload on both devices", torn, true, true},
		{"torn payload on the primary", torn, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newColdRig(t)
			tables := r.written(t, "log0", "log1", "log2")
			newest, older := tables[len(tables)-1], tables[len(tables)-2]
			slot := newestSlot(len(tables))
			damaged := []*npmu.Device{r.prim}
			if tc.bothDev {
				damaged = append(damaged, r.mirr)
			}
			for _, d := range damaged {
				tc.damage(t, d, slot)
			}
			m, regions, read, _ := r.coldStart(t)
			want := newest
			if tc.bothDev {
				want = older
			}
			if !slices.Equal(regions, want) || m.Recoveries != 1 {
				t.Errorf("the manager came up with %v after %d recoveries, want %v after 1", regions, m.Recoveries, want)
			}
			wantRead := 4*metaHeaderBytes + 2*payloadLen(t, older) + 2*payloadLen(t, newest)
			if !tc.reads {
				wantRead -= int64(len(damaged)) * payloadLen(t, newest)
			}
			if read != wantRead {
				t.Errorf("the cold start read %d B from the devices, want %d B", read, wantRead)
			}
		})
	}
}

// A payload read that fails skips its slot, as a failed header read does:
// the primary drops off the fabric just after serving its first header, so
// the cold start reads nothing more from it and comes up on the mirror.
func TestColdStartSkipsAFailedPayloadRead(t *testing.T) {
	r := newColdRig(t)
	tables := r.written(t, "log0", "log1")
	before := r.prim.Endpoint().BytesOut
	r.cl.Engine().Spawn("link-fault", func(p *sim.Proc) {
		for r.prim.Endpoint().BytesOut < before+metaHeaderBytes {
			p.Wait(sim.Microsecond)
		}
		r.prim.Fail()
	})
	m, regions, _, _ := r.coldStart(t)
	if want := tables[len(tables)-1]; !slices.Equal(regions, want) || m.Recoveries != 1 {
		t.Errorf("the manager came up with %v after %d recoveries, want %v after 1", regions, m.Recoveries, want)
	}
	if got := r.prim.Endpoint().BytesOut - before; got != metaHeaderBytes {
		t.Errorf("the primary served %d B, want one header's %d B", got, metaHeaderBytes)
	}
}
