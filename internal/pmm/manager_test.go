package pmm

import (
	"bytes"
	"errors"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/npmu"
	"persistmem/internal/sim"
	"persistmem/internal/stable"
)

// TestManagerLifecycle drives the management protocol end to end against
// a mirrored volume: create, double-create, open, list, the busy-delete
// refusal, close, delete, and the accessors fault-injection code leans on.
func TestManagerLifecycle(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.DefaultConfig()
	cfg.CPUs = 3
	cl := cluster.New(eng, cfg)
	prim := npmu.New(cl, "npmu-a", 16<<20)
	mirr := npmu.New(cl, "npmu-b", 16<<20)
	m := Start(cl, "$PM0", 0, 1, prim, mirr)
	if m.Name() != "$PM0" || m.Pair() == nil {
		t.Fatalf("accessors: name=%q pair=%v", m.Name(), m.Pair())
	}
	if p, mr := m.Devices(); p != prim || mr != mirr {
		t.Fatal("Devices did not return the mirrored pair")
	}
	cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		call := func(req interface{}) Resp {
			v, err := p.Call("$PM0", 128, req)
			if err != nil {
				t.Errorf("call %T: %v", req, err)
				return Resp{Err: err}
			}
			return v.(Resp)
		}
		r := call(CreateReq{Name: "log0", Size: 1 << 20, Owner: "test"})
		if r.Err != nil || r.Info.Size != 1<<20 || r.Info.Primary == r.Info.Mirror {
			t.Errorf("create: err=%v info=%+v", r.Err, r.Info)
		}
		if r = call(CreateReq{Name: "log0", Size: 1 << 20}); !errors.Is(r.Err, ErrExists) {
			t.Errorf("double create: %v, want ErrExists", r.Err)
		}
		if r = call(OpenReq{Name: "log0", ClientCPU: 2}); r.Err != nil || r.Info.Name != "log0" {
			t.Errorf("open: err=%v info=%+v", r.Err, r.Info)
		}
		if r = call(ListReq{}); r.Err != nil || len(r.Regions) != 1 {
			t.Errorf("list: err=%v regions=%d, want 1", r.Err, len(r.Regions))
		}
		if r = call(DeleteReq{Name: "log0"}); !errors.Is(r.Err, ErrBusy) {
			t.Errorf("delete while open: %v, want ErrBusy", r.Err)
		}
		if r = call(CloseReq{Name: "log0", ClientCPU: 2}); r.Err != nil {
			t.Errorf("close: %v", r.Err)
		}
		if r = call(DeleteReq{Name: "log0"}); r.Err != nil {
			t.Errorf("delete: %v", r.Err)
		}
		if r = call(OpenReq{Name: "log0", ClientCPU: 2}); !errors.Is(r.Err, ErrNotFound) {
			t.Errorf("open after delete: %v, want ErrNotFound", r.Err)
		}
	})
	eng.Run()
	if m.RequestsSeen == 0 {
		t.Error("manager served no requests")
	}
	m.Stop()
	eng.Run()
}

// A cold start reads its four metadata slots into whatever buffer the last
// device reader in the process handed on. Here that buffer holds a valid
// slot image of a newer generation naming a region this volume never had:
// a manager over blank devices must still format an empty volume, one whose
// devices are off the fabric must decode nothing, and one over a written
// volume must find its own table — each hands the buffer on again. When
// the spare holds another volume's image with a longer payload, its bytes
// sit just past the payload each slot header declares: the cold start must
// decode only what it read.
func TestColdStartIgnoresWhatTheSpareHolds(t *testing.T) {
	staleImage := func(volume string, regions ...string) []byte {
		stale := NewVolumeState(volume)
		stale.Gen = 99
		for i, n := range regions {
			stale.insert(RegionMeta{Name: n, Owner: "nobody", Offset: MetaBytes + int64(i)<<20, Size: 1 << 20})
		}
		img, err := EncodeMeta(stale)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	img := staleImage("$PM0", "ghost")
	handOn := func(img []byte) {
		buf := make([]byte, 1<<20)
		for off := 0; off+len(img) <= len(buf); off += MetaSlotBytes {
			copy(buf[off:], img)
		}
		stable.TakeScratch()
		stable.HandOn(buf)
	}
	list := func(t *testing.T, cl *cluster.Cluster) (regions []RegionMeta) {
		cl.CPU(2).Spawn("client", func(p *cluster.Process) {
			v, err := p.Call("$PM0", 128, ListReq{})
			if err != nil {
				t.Errorf("list: %v", err)
				return
			}
			regions = v.(Resp).Regions
		})
		cl.Engine().Run()
		return regions
	}
	rig := func(t *testing.T) (*cluster.Cluster, *npmu.Device, *npmu.Device) {
		cfg := cluster.DefaultConfig()
		cfg.CPUs = 3
		cl := cluster.New(sim.NewEngine(1), cfg)
		t.Cleanup(cl.Engine().Shutdown)
		return cl, npmu.New(cl, "npmu-a", 16<<20), npmu.New(cl, "npmu-b", 16<<20)
	}

	t.Run("blank devices", func(t *testing.T) {
		cl, prim, mirr := rig(t)
		handOn(img)
		m := Start(cl, "$PM0", 0, 1, prim, mirr)
		if got := list(t, cl); len(got) != 0 || m.Recoveries != 0 {
			t.Errorf("a blank volume came up with regions %v after %d recoveries", got, m.Recoveries)
		}
		if len(stable.TakeScratch()) != 1<<20 {
			t.Error("the cold start did not hand the buffer on")
		}
	})
	t.Run("devices off the fabric", func(t *testing.T) {
		cl, prim, mirr := rig(t)
		prim.Fail()
		mirr.Fail()
		handOn(img)
		m := Start(cl, "$PM0", 0, 1, prim, mirr)
		if got := list(t, cl); len(got) != 0 || m.Recoveries != 0 {
			t.Errorf("an unreadable volume came up with regions %v after %d recoveries", got, m.Recoveries)
		}
	})
	written := func(t *testing.T) (*cluster.Cluster, *npmu.Device, *npmu.Device) {
		cl, prim, mirr := rig(t)
		first := Start(cl, "$PM0", 0, 1, prim, mirr)
		cl.CPU(2).Spawn("client", func(p *cluster.Process) {
			if v, err := p.Call("$PM0", 128, CreateReq{Name: "log0", Size: 1 << 20, Owner: "test"}); err != nil || v.(Resp).Err != nil {
				t.Errorf("create: %v %v", err, v)
			}
		})
		cl.Engine().Run()
		first.Stop()
		cl.Engine().Run()
		return cl, prim, mirr
	}
	t.Run("written volume", func(t *testing.T) {
		cl, prim, mirr := written(t)
		handOn(img)
		m := Start(cl, "$PM0", 0, 1, prim, mirr)
		got := list(t, cl)
		if len(got) != 1 || got[0].Name != "log0" || m.Recoveries != 1 {
			t.Errorf("the restarted manager found regions %v after %d recoveries, want log0 after 1", got, m.Recoveries)
		}
	})
	t.Run("written volume, longer image of another volume", func(t *testing.T) {
		cl, prim, mirr := written(t)
		other := staleImage("$PM9-elsewhere", "ghost0", "ghost1", "ghost2")
		handOn(other)
		m := Start(cl, "$PM0", 0, 1, prim, mirr)
		got := list(t, cl)
		if len(got) != 1 || got[0].Name != "log0" || m.Recoveries != 1 {
			t.Errorf("the restarted manager found regions %v after %d recoveries, want log0 after 1", got, m.Recoveries)
		}
		own, err := EncodeMeta(&VolumeState{Volume: "$PM0", regions: []region{{RegionMeta: RegionMeta{Name: "log0", Owner: "test", Offset: MetaBytes, Size: 1 << 20}}}})
		if err != nil {
			t.Fatal(err)
		}
		if buf := stable.TakeScratch(); len(own) >= len(other) || !bytes.Equal(buf[len(own):len(other)], other[len(own):]) {
			t.Error("no stale bytes sat just past the payload the slot headers declare")
		}
	})
}

// TestTakeoverKeepsOpenHandles holds the checkpointed open sets to what
// they are for: the backup that takes over knows which CPUs hold which
// region open, so a region still open refuses deletion and the windows it
// reprograms, in region-name order, grant exactly those CPUs. The regions
// are created so that name order is not offset order. A CPU outside the
// 64 an open set holds is refused.
func TestTakeoverKeepsOpenHandles(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.DefaultConfig()
	cl := cluster.New(eng, cfg)
	prim := npmu.New(cl, "npmu-a", 16<<20)
	mirr := npmu.New(cl, "npmu-b", 16<<20)
	m := Start(cl, "$PM0", 0, 1, prim, mirr)
	done := false
	cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		call := func(req interface{}) Resp {
			for {
				v, err := p.Call("$PM0", 128, req)
				if err == nil {
					return v.(Resp)
				}
				p.Wait(100 * sim.Millisecond) // the backup is taking over
			}
		}
		info := map[string]RegionInfo{}
		for _, name := range []string{"z-log", "a-log"} {
			if r := call(CreateReq{Name: name, Size: 1 << 20, Owner: "test"}); r.Err != nil {
				t.Errorf("create %s: %v", name, r.Err)
				return
			}
			for _, cpu := range []int{2, 3} {
				r := call(OpenReq{Name: name, ClientCPU: cpu})
				if r.Err != nil {
					t.Errorf("open %s on CPU %d: %v", name, cpu, r.Err)
					return
				}
				info[name] = r.Info
			}
		}
		for _, cpu := range []int{-1, maxOpenCPUs} {
			if r := call(OpenReq{Name: "a-log", ClientCPU: cpu}); r.Err == nil {
				t.Errorf("CPU %d opened a region", cpu)
			}
		}
		if r := call(CloseReq{Name: "a-log", ClientCPU: 3}); r.Err != nil {
			t.Errorf("close: %v", r.Err)
			return
		}

		cl.CPU(m.Pair().PrimaryCPU()).Fail()
		if r := call(DeleteReq{Name: "z-log"}); !errors.Is(r.Err, ErrBusy) {
			t.Errorf("delete of a region open before the takeover: %v, want ErrBusy", r.Err)
		}
		if m.Pair().Takeovers != 1 {
			t.Errorf("takeovers = %d, want 1", m.Pair().Takeovers)
			return
		}
		write := func(cpu int, name string) error {
			return cl.Fabric().RDMAWrite(p.Sim(), cl.CPU(cpu).Endpoint().ID(), info[name].Primary, info[name].Base, []byte("x"))
		}
		for _, c := range []struct {
			cpu     int
			name    string
			allowed bool
		}{{2, "a-log", true}, {3, "a-log", false}, {2, "z-log", true}, {3, "z-log", true}} {
			if err := write(c.cpu, c.name); (err == nil) != c.allowed {
				t.Errorf("CPU %d writing %s after the takeover: %v, want allowed %v", c.cpu, c.name, err, c.allowed)
			}
		}
		for _, cpu := range []int{2, 3} {
			call(CloseReq{Name: "z-log", ClientCPU: cpu})
		}
		if r := call(DeleteReq{Name: "z-log"}); r.Err != nil {
			t.Errorf("delete once closed everywhere: %v", r.Err)
		}
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("the client did not finish")
	}
	m.Stop()
	eng.Run()
}
