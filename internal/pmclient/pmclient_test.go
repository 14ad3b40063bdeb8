package pmclient

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"persistmem/internal/cluster"
	"persistmem/internal/metrics"
	"persistmem/internal/npmu"
	"persistmem/internal/pmm"
	"persistmem/internal/servernet"
	"persistmem/internal/sim"
)

// harness assembles the paper's deployment: a cluster, a mirrored NPMU
// pair, and a PMM process pair (primary CPU 0, backup CPU 1).
type harness struct {
	eng  *sim.Engine
	cl   *cluster.Cluster
	prim *npmu.Device
	mirr *npmu.Device
	mgr  *pmm.Manager
	vol  *Volume
}

func newHarness(t *testing.T, seed int64) *harness {
	t.Helper()
	eng := sim.NewEngine(seed)
	cfg := cluster.DefaultConfig()
	cfg.CPUs = 5
	cl := cluster.New(eng, cfg)
	prim := npmu.New(cl, "npmu-a", 16<<20)
	mirr := npmu.New(cl, "npmu-b", 16<<20)
	mgr := pmm.Start(cl, "$PM1", 0, 1, prim, mirr)
	return &harness{eng: eng, cl: cl, prim: prim, mirr: mirr, mgr: mgr, vol: Attach(cl, "$PM1")}
}

// runClient executes body as a client process on the given CPU and drives
// the simulation to completion.
func (h *harness) runClient(t *testing.T, cpu int, body func(p *cluster.Process)) {
	t.Helper()
	h.cl.CPU(cpu).Spawn("client", body)
	h.eng.Run()
}

func TestCreateOpenWriteRead(t *testing.T) {
	h := newHarness(t, 1)
	data := []byte("synchronously persistent")
	h.runClient(t, 2, func(p *cluster.Process) {
		if err := h.vol.Create(p, "log0", 1<<20); err != nil {
			t.Fatalf("Create: %v", err)
		}
		r, err := h.vol.Open(p, "log0")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := r.Write(p, 512, data); err != nil {
			t.Fatalf("Write: %v", err)
		}
		buf := make([]byte, len(data))
		if err := r.Read(p, 512, buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(buf, data) {
			t.Errorf("read back %q", buf)
		}
	})
	h.eng.Shutdown()
}

func TestWriteGoesToBothMirrors(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "r", 1<<20)
		r, _ := h.vol.Open(p, "r")
		if err := r.Write(p, 0, []byte("mirrored")); err != nil {
			t.Fatal(err)
		}
	})
	// The data region starts at MetaBytes on both devices.
	a := make([]byte, 8)
	b := make([]byte, 8)
	h.prim.Store().ReadAt(pmm.MetaBytes, a)
	h.mirr.Store().ReadAt(pmm.MetaBytes, b)
	if string(a) != "mirrored" || string(b) != "mirrored" {
		t.Errorf("primary=%q mirror=%q, want both mirrored", a, b)
	}
	h.eng.Shutdown()
}

func TestWriteLatencyTensOfMicroseconds(t *testing.T) {
	// §3.3: host-initiated memory-semantic access "incurs only 10s of
	// microseconds of latency" — even with both mirrors written.
	h := newHarness(t, 1)
	var took sim.Time
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "r", 1<<20)
		r, _ := h.vol.Open(p, "r")
		start := p.Now()
		if err := r.Write(p, 0, make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
		took = p.Now() - start
	})
	if took < 10*sim.Microsecond || took >= 100*sim.Microsecond {
		t.Errorf("mirrored 128B PM write took %v, want tens of microseconds", took)
	}
	h.eng.Shutdown()
}

func TestAccessControlPerCPU(t *testing.T) {
	h := newHarness(t, 1)
	var region *Region
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "r", 1<<20)
		var err error
		region, err = h.vol.Open(p, "r")
		if err != nil {
			t.Fatal(err)
		}
	})
	// A process on CPU 3 steals the handle opened by CPU 2: the NIC ATT
	// only admits CPU 2, so the write must be denied.
	h.runClient(t, 3, func(p *cluster.Process) {
		err := region.Write(p, 0, []byte{1})
		if !errors.Is(err, ErrBothMirrorsFailed) {
			t.Errorf("stolen handle write: %v, want ErrBothMirrorsFailed", err)
		}
	})
	h.eng.Shutdown()
}

func TestCloseRevokesAccess(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "r", 1<<20)
		r, _ := h.vol.Open(p, "r")
		if err := r.Close(p); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := r.Write(p, 0, []byte{1}); !errors.Is(err, ErrClosed) {
			t.Errorf("write after close: %v, want ErrClosed", err)
		}
		// Reopening works.
		r2, err := h.vol.Open(p, "r")
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if err := r2.Write(p, 0, []byte{1}); err != nil {
			t.Errorf("write after reopen: %v", err)
		}
	})
	h.eng.Shutdown()
}

func TestTwoCPUsShareRegion(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "shared", 1<<20)
		r, _ := h.vol.Open(p, "shared")
		r.Write(p, 0, []byte("from-cpu2"))
	})
	h.runClient(t, 3, func(p *cluster.Process) {
		r, err := h.vol.Open(p, "shared")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 9)
		if err := r.Read(p, 0, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "from-cpu2" {
			t.Errorf("cross-CPU read = %q", buf)
		}
	})
	h.eng.Shutdown()
}

func TestDuplicateCreate(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "r", 4096)
		if err := h.vol.Create(p, "r", 4096); !errors.Is(err, pmm.ErrExists) {
			t.Errorf("duplicate create: %v, want ErrExists", err)
		}
	})
	h.eng.Shutdown()
}

func TestDeleteSemantics(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "r", 4096)
		r, _ := h.vol.Open(p, "r")
		if err := h.vol.Delete(p, "r"); !errors.Is(err, pmm.ErrBusy) {
			t.Errorf("delete open region: %v, want ErrBusy", err)
		}
		r.Close(p)
		if err := h.vol.Delete(p, "r"); err != nil {
			t.Errorf("delete closed region: %v", err)
		}
		if err := h.vol.Delete(p, "r"); !errors.Is(err, pmm.ErrNotFound) {
			t.Errorf("delete again: %v, want ErrNotFound", err)
		}
		if _, err := h.vol.Open(p, "r"); !errors.Is(err, pmm.ErrNotFound) {
			t.Errorf("open deleted: %v, want ErrNotFound", err)
		}
	})
	h.eng.Shutdown()
}

func TestList(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "a", 4096)
		h.vol.Create(p, "b", 8192)
		regions, err := h.vol.List(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(regions) != 2 {
			t.Fatalf("List returned %d regions", len(regions))
		}
		if regions[0].Name != "a" || regions[1].Name != "b" {
			t.Errorf("regions = %v", regions)
		}
		if regions[0].Owner != "client" {
			t.Errorf("owner = %q, want client", regions[0].Owner)
		}
	})
	h.eng.Shutdown()
}

func TestVolumeFull(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		if err := h.vol.Create(p, "big", 64<<20); err == nil {
			t.Error("oversized create succeeded")
		}
	})
	h.eng.Shutdown()
}

func TestOutOfRangeAccess(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "r", 4096)
		r, _ := h.vol.Open(p, "r")
		if err := r.Write(p, 4000, make([]byte, 200)); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("overflow write: %v, want ErrOutOfRange", err)
		}
		if err := r.Read(p, -1, make([]byte, 1)); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("negative read: %v, want ErrOutOfRange", err)
		}
	})
	h.eng.Shutdown()
}

func TestMirrorFailureDegradedWrite(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "r", 1<<20)
		r, _ := h.vol.Open(p, "r")
		h.mirr.Fail()
		if err := r.Write(p, 0, []byte("survives")); err != nil {
			t.Fatalf("degraded write: %v", err)
		}
		if r.DegradedWrites != 1 {
			t.Errorf("DegradedWrites = %d, want 1", r.DegradedWrites)
		}
		buf := make([]byte, 8)
		if err := r.Read(p, 0, buf); err != nil || string(buf) != "survives" {
			t.Errorf("read after mirror loss: %q, %v", buf, err)
		}
	})
	h.eng.Shutdown()
}

func TestPrimaryFailureReadFallsOver(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "r", 1<<20)
		r, _ := h.vol.Open(p, "r")
		r.Write(p, 0, []byte("mirrored"))
		h.prim.Fail()
		buf := make([]byte, 8)
		if err := r.Read(p, 0, buf); err != nil {
			t.Fatalf("read with primary down: %v", err)
		}
		if string(buf) != "mirrored" {
			t.Errorf("mirror read = %q", buf)
		}
		if r.PrimaryReadFailures != 1 {
			t.Errorf("PrimaryReadFailures = %d, want 1", r.PrimaryReadFailures)
		}
	})
	h.eng.Shutdown()
}

func TestBothMirrorsFailed(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "r", 1<<20)
		r, _ := h.vol.Open(p, "r")
		h.prim.Fail()
		h.mirr.Fail()
		if err := r.Write(p, 0, []byte{1}); !errors.Is(err, ErrBothMirrorsFailed) {
			t.Errorf("write with both down: %v, want ErrBothMirrorsFailed", err)
		}
	})
	h.eng.Shutdown()
}

func TestClientIOContinuesDuringPMMTakeover(t *testing.T) {
	// §4.1's separation property: the data path is one-sided RDMA to the
	// devices, so killing the PMM's CPU must not disturb in-progress
	// region I/O — only management operations wait for the takeover.
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "r", 1<<20)
		r, _ := h.vol.Open(p, "r")
		h.cl.CPU(0).Fail() // PMM primary dies
		// Immediate I/O, long before the takeover completes:
		if err := r.Write(p, 0, []byte("still here")); err != nil {
			t.Fatalf("write during PMM outage: %v", err)
		}
		buf := make([]byte, 10)
		if err := r.Read(p, 0, buf); err != nil || string(buf) != "still here" {
			t.Fatalf("read during PMM outage: %q, %v", buf, err)
		}
		// Management resumes after takeover (retry until the backup has
		// re-registered the service name).
		deadline := p.Now() + 5*sim.Second
		for {
			if err := h.vol.Create(p, "post-takeover", 4096); err == nil {
				break
			}
			if p.Now() > deadline {
				t.Fatal("management never resumed after takeover")
			}
			p.Wait(100 * sim.Millisecond)
		}
	})
	if h.mgr.Pair().Takeovers != 1 {
		t.Errorf("Takeovers = %d, want 1", h.mgr.Pair().Takeovers)
	}
	h.eng.Shutdown()
}

func TestPowerLossRecovery(t *testing.T) {
	// Full power cycle: region table must be rebuilt from durable NPMU
	// metadata and hardware NPMU data must be readable afterwards.
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "persistent-r", 1<<20)
		r, _ := h.vol.Open(p, "persistent-r")
		r.Write(p, 100, []byte("over the cliff"))
	})

	// Lights out.
	h.cl.PowerFail()
	h.prim.PowerFail()
	h.mirr.PowerFail()
	h.eng.Run() // drain the chaos

	// Reboot: power up devices and CPUs, start a fresh PMM pair.
	h.prim.Restore()
	h.mirr.Restore()
	h.cl.RestorePower()
	mgr2 := pmm.Start(h.cl, "$PM1", 0, 1, h.prim, h.mirr)
	vol2 := Attach(h.cl, "$PM1")

	h.runClient(t, 2, func(p *cluster.Process) {
		regions, err := vol2.List(p)
		if err != nil {
			t.Fatalf("List after reboot: %v", err)
		}
		if len(regions) != 1 || regions[0].Name != "persistent-r" {
			t.Fatalf("recovered regions = %v", regions)
		}
		r, err := vol2.Open(p, "persistent-r")
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		buf := make([]byte, 14)
		if err := r.Read(p, 100, buf); err != nil {
			t.Fatalf("read recovered data: %v", err)
		}
		if string(buf) != "over the cliff" {
			t.Errorf("recovered data = %q", buf)
		}
	})
	if mgr2.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", mgr2.Recoveries)
	}
	h.eng.Shutdown()
}

func TestPMPLosesDataAcrossPowerLoss(t *testing.T) {
	// The same reboot flow with PMP prototype devices: the volume formats
	// fresh because the paper's prototype was volatile.
	eng := sim.NewEngine(1)
	cfg := cluster.DefaultConfig()
	cfg.CPUs = 5
	cl := cluster.New(eng, cfg)
	prim := npmu.NewPMP(cl, "pmp-a", 16<<20)
	mirr := npmu.NewPMP(cl, "pmp-b", 16<<20)
	pmm.Start(cl, "$PM1", 0, 1, prim, mirr)
	vol := Attach(cl, "$PM1")
	cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		vol.Create(p, "r", 1<<20)
		r, _ := vol.Open(p, "r")
		r.Write(p, 0, []byte("gone"))
	})
	eng.Run()

	cl.PowerFail()
	prim.PowerFail()
	mirr.PowerFail()
	eng.Run()
	prim.Restore()
	mirr.Restore()
	cl.RestorePower()
	pmm.Start(cl, "$PM1", 0, 1, prim, mirr)
	vol2 := Attach(cl, "$PM1")
	cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		regions, err := vol2.List(p)
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		if len(regions) != 0 {
			t.Errorf("PMP volume recovered %d regions, want 0 (volatile)", len(regions))
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestTornMetadataWriteRecoversOlderSlot(t *testing.T) {
	// Corrupt the newest metadata slot (as a crash mid-write would) on
	// both devices; recovery must fall back to the older generation.
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "a", 4096) // gen 2 (gen 1 = format)
		h.vol.Create(p, "b", 4096) // gen 3
	})
	// Gen 3 lives in slot 1. Tear it on both devices.
	for _, dev := range []*npmu.Device{h.prim, h.mirr} {
		dev.Store().WriteAt(pmm.MetaSlotBytes+10, []byte{0xDE, 0xAD})
	}
	h.cl.PowerFail()
	h.prim.PowerFail()
	h.mirr.PowerFail()
	h.eng.Run()
	h.prim.Restore()
	h.mirr.Restore()
	h.cl.RestorePower()
	pmm.Start(h.cl, "$PM1", 0, 1, h.prim, h.mirr)
	vol2 := Attach(h.cl, "$PM1")
	h.runClient(t, 2, func(p *cluster.Process) {
		regions, err := vol2.List(p)
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		// Gen 2 state: only region "a".
		if len(regions) != 1 || regions[0].Name != "a" {
			t.Errorf("recovered regions = %v, want just [a]", regions)
		}
	})
	h.eng.Shutdown()
}

func TestCRCRetry(t *testing.T) {
	// With a moderate injected CRC error rate, the client's retry makes
	// writes succeed anyway.
	eng := sim.NewEngine(99)
	cfg := cluster.DefaultConfig()
	cfg.CPUs = 5
	cfg.Net.CRCErrorRate = 0.2
	cl := cluster.New(eng, cfg)
	prim := npmu.New(cl, "a", 16<<20)
	mirr := npmu.New(cl, "b", 16<<20)
	pmm.Start(cl, "$PM1", 0, 1, prim, mirr)
	vol := Attach(cl, "$PM1")
	cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		// Management ops can also fail on CRC; retry them.
		for vol.Create(p, "r", 1<<20) != nil {
			p.Wait(sim.Millisecond)
		}
		var r *Region
		for {
			var err error
			if r, err = vol.Open(p, "r"); err == nil {
				break
			}
			p.Wait(sim.Millisecond)
		}
		okWrites := 0
		for i := 0; i < 50; i++ {
			if err := r.Write(p, int64(i)*64, make([]byte, 64)); err == nil {
				okWrites++
			}
		}
		if okWrites < 45 {
			t.Errorf("only %d/50 writes succeeded despite CRC retry", okWrites)
		}
		if r.RetriedTransfers == 0 {
			t.Error("no transfers were retried at 20%% CRC error rate")
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestResilverRestoresRedundancy(t *testing.T) {
	// Lose the mirror, keep writing (degraded), replace the device, ask
	// the PMM to resilver, then lose the PRIMARY: reads must now be
	// served correctly from the repaired mirror.
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "r", 1<<20)
		r, _ := h.vol.Open(p, "r")
		r.Write(p, 0, []byte("before-failure"))

		h.mirr.PowerFail() // mirror dies (loses nothing; NVM) and its ATT
		if err := r.Write(p, 100, []byte("degraded-write")); err != nil {
			t.Fatalf("degraded write: %v", err)
		}

		h.mirr.Restore() // device replaced/returned, contents stale
		copied, err := h.vol.Resilver(p)
		if err != nil {
			t.Fatalf("resilver: %v", err)
		}
		if copied == 0 {
			t.Fatal("resilver copied nothing")
		}

		// Now the primary dies; the repaired mirror must carry everything,
		// including the write made while degraded.
		h.prim.Fail()
		buf := make([]byte, 14)
		if err := r.Read(p, 0, buf); err != nil || string(buf) != "before-failure" {
			t.Errorf("mirror read 1 = %q, %v", buf, err)
		}
		if err := r.Read(p, 100, buf); err != nil || string(buf) != "degraded-write" {
			t.Errorf("mirror read 2 = %q, %v", buf, err)
		}
	})
	if h.mgr.Resilvers != 1 {
		t.Errorf("Resilvers = %d, want 1", h.mgr.Resilvers)
	}
	h.eng.Shutdown()
}

func TestResilverWithBothDevicesUpIsHarmless(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "r", 64<<10)
		r, _ := h.vol.Open(p, "r")
		r.Write(p, 0, []byte("steady"))
		if _, err := h.vol.Resilver(p); err != nil {
			t.Fatalf("resilver on healthy volume: %v", err)
		}
		buf := make([]byte, 6)
		if err := r.Read(p, 0, buf); err != nil || string(buf) != "steady" {
			t.Errorf("read after no-op resilver: %q, %v", buf, err)
		}
	})
	h.eng.Shutdown()
}

// Property: under random create/delete sequences, the PMM's region table
// never contains overlapping extents and all extents respect the metadata
// reservation.
func TestRegionAllocationNoOverlapProperty(t *testing.T) {
	type op struct {
		Name uint8
		Size uint16
		Del  bool
	}
	prop := func(ops []op) bool {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		h := newHarness(t, 3)
		ok := true
		h.runClient(t, 2, func(p *cluster.Process) {
			for _, o := range ops {
				name := fmt.Sprintf("r%d", o.Name%8)
				if o.Del {
					h.vol.Delete(p, name)
					continue
				}
				size := int64(o.Size)%(1<<20) + 512
				h.vol.Create(p, name, size)
			}
			regions, err := h.vol.List(p)
			if err != nil {
				ok = false
				return
			}
			for i, r := range regions {
				if r.Offset < pmm.MetaBytes {
					ok = false
					return
				}
				if i > 0 {
					prev := regions[i-1]
					if prev.Offset+prev.Size > r.Offset {
						ok = false
						return
					}
				}
			}
		})
		h.eng.Shutdown()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestManyRegionsLifecycle(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		// Fill with many small regions, write a signature into each,
		// verify all, then delete every other one and recreate larger.
		const n = 40
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("seg%02d", i)
			if err := h.vol.Create(p, name, 64<<10); err != nil {
				t.Fatalf("create %s: %v", name, err)
			}
			r, err := h.vol.Open(p, name)
			if err != nil {
				t.Fatalf("open %s: %v", name, err)
			}
			if err := r.Write(p, 0, []byte{byte(i + 1)}); err != nil {
				t.Fatalf("write %s: %v", name, err)
			}
			r.Close(p)
		}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("seg%02d", i)
			r, err := h.vol.Open(p, name)
			if err != nil {
				t.Fatalf("reopen %s: %v", name, err)
			}
			var b [1]byte
			r.Read(p, 0, b[:])
			if b[0] != byte(i+1) {
				t.Errorf("%s signature = %d, want %d", name, b[0], i+1)
			}
			r.Close(p)
		}
		for i := 0; i < n; i += 2 {
			if err := h.vol.Delete(p, fmt.Sprintf("seg%02d", i)); err != nil {
				t.Fatalf("delete: %v", err)
			}
		}
		// Survivors intact after the churn.
		for i := 1; i < n; i += 2 {
			name := fmt.Sprintf("seg%02d", i)
			r, err := h.vol.Open(p, name)
			if err != nil {
				t.Fatalf("post-churn open %s: %v", name, err)
			}
			var b [1]byte
			r.Read(p, 0, b[:])
			if b[0] != byte(i+1) {
				t.Errorf("%s corrupted by neighbor churn", name)
			}
			r.Close(p)
		}
	})
	h.eng.Shutdown()
}

func TestServernetPermZeroValueDenies(t *testing.T) {
	// Guard: the zero Perm must deny everything (defense in depth for
	// PMM programming bugs).
	eng := sim.NewEngine(1)
	fab := servernet.New(eng, servernet.DefaultConfig())
	fab.Attach(1, "a")
	ep := fab.Attach(2, "b")
	ep.MapWindow(0, 4096, servernet.ByteWindow(make([]byte, 4096)), 0, servernet.Perm{})
	eng.Spawn("c", func(p *sim.Proc) {
		if err := fab.RDMAWrite(p, 1, 2, 0, []byte{1}); !errors.Is(err, servernet.ErrAccessDenied) {
			t.Errorf("zero-perm write: %v", err)
		}
		if err := fab.RDMARead(p, 1, 2, 0, []byte{0}); !errors.Is(err, servernet.ErrAccessDenied) {
			t.Errorf("zero-perm read: %v", err)
		}
	})
	eng.Run()
	eng.Shutdown()
}

// ReadReplica reads exactly one device, with no failover: it refuses a
// replica the volume does not have, an access outside the region and a
// closed handle, and with one device detached its replica fails while its
// partner's still returns the written bytes.
func TestReadReplicaFailurePaths(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "r", 4096)
		r, _ := h.vol.Open(p, "r")
		if r.Name() != "r" || r.Size() != 4096 || r.Info().Name != "r" || r.Replicas() != 2 {
			t.Fatalf("handle %q size %d info %+v replicas %d", r.Name(), r.Size(), r.Info(), r.Replicas())
		}
		if err := r.Write(p, 0, []byte("replica")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 7)
		for _, replica := range []int{-1, 2} {
			if err := r.ReadReplica(p, replica, 0, buf); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("replica %d: %v, want ErrOutOfRange", replica, err)
			}
		}
		if err := r.ReadReplica(p, 0, 4090, buf); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("read past the region end: %v, want ErrOutOfRange", err)
		}
		h.prim.Fail()
		if err := r.ReadReplica(p, 0, 0, buf); err == nil {
			t.Error("read of the detached primary's replica succeeded")
		}
		if err := r.ReadReplica(p, 1, 0, buf); err != nil || string(buf) != "replica" {
			t.Errorf("mirror replica with the primary detached: %q, %v", buf, err)
		}
		if r.PrimaryReadFailures != 0 {
			t.Errorf("ReadReplica fell over: PrimaryReadFailures = %d", r.PrimaryReadFailures)
		}
		h.prim.Recover()
		r.Close(p)
		if err := r.ReadReplica(p, 1, 0, buf); !errors.Is(err, ErrClosed) {
			t.Errorf("read on a closed handle: %v, want ErrClosed", err)
		}
	})
	h.eng.Shutdown()
}

// An unmirrored volume (the same device passed twice) has one replica.
func TestUnmirroredRegionHasOneReplica(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.DefaultConfig()
	cfg.CPUs = 5
	cl := cluster.New(eng, cfg)
	dev := npmu.New(cl, "npmu-a", 16<<20)
	pmm.Start(cl, "$PM1", 0, 1, dev, dev)
	vol := Attach(cl, "$PM1")
	cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		vol.Create(p, "r", 4096)
		r, _ := vol.Open(p, "r")
		if r.Replicas() != 1 {
			t.Errorf("unmirrored replicas = %d, want 1", r.Replicas())
		}
		r.Write(p, 0, []byte("single"))
		buf := make([]byte, 6)
		if err := r.ReadReplica(p, 1, 0, buf); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("replica 1 of an unmirrored volume: %v, want ErrOutOfRange", err)
		}
		if err := r.ReadReplica(p, 0, 0, buf); err != nil || string(buf) != "single" {
			t.Errorf("replica 0: %q, %v", buf, err)
		}
	})
	eng.Run()
	eng.Shutdown()
}

// SetMetrics attaches the write spans to a handle and SetMetrics(nil)
// detaches them: later writes record nothing.
func TestSetMetricsNilDetaches(t *testing.T) {
	h := newHarness(t, 1)
	pm := metrics.NewRegistry().PM
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "r", 4096)
		r, _ := h.vol.Open(p, "r")
		r.SetMetrics(pm)
		r.Write(p, 0, make([]byte, 64))
		r.SetMetrics(nil)
		r.Write(p, 64, make([]byte, 64))
		if r.Writes != 2 {
			t.Errorf("handle counted %d writes, want 2", r.Writes)
		}
	})
	if pm.Writes.Value() != 1 || pm.Bytes.Value() != 64 || pm.Write.Count() != 1 {
		t.Errorf("spans recorded %d writes, %d bytes, %d samples; want 1, 64, 1",
			pm.Writes.Value(), pm.Bytes.Value(), pm.Write.Count())
	}
	h.eng.Shutdown()
}

// TestOpenOrCreate: the first call creates the region, a later one opens
// the same region without creating it again, and both handles carry the
// write spans they were given.
func TestOpenOrCreate(t *testing.T) {
	h := newHarness(t, 1)
	pm := metrics.NewRegistry().PM
	h.runClient(t, 2, func(p *cluster.Process) {
		r, err := h.vol.OpenOrCreate(p, "log", 4096, pm)
		if err != nil {
			t.Fatalf("first OpenOrCreate: %v", err)
		}
		if r.Size() != 4096 || r.Name() != "log" {
			t.Errorf("created %q of %d bytes, want \"log\" of 4096", r.Name(), r.Size())
		}
		if err := r.Write(p, 0, []byte("kept")); err != nil {
			t.Fatal(err)
		}
		again, err := h.vol.OpenOrCreate(p, "log", 8192, pm)
		if err != nil {
			t.Fatalf("second OpenOrCreate: %v", err)
		}
		if again.Size() != 4096 {
			t.Errorf("reopened region is %d bytes, want the created 4096", again.Size())
		}
		buf := make([]byte, 4)
		if err := again.Read(p, 0, buf); err != nil || string(buf) != "kept" {
			t.Errorf("reopened region reads %q, %v; want \"kept\"", buf, err)
		}
		again.Write(p, 4, []byte("more"))
		if regions, _ := h.vol.List(p); len(regions) != 1 {
			t.Errorf("volume holds %d regions, want 1", len(regions))
		}
	})
	if pm.Writes.Value() != 2 {
		t.Errorf("spans recorded %d writes, want 2", pm.Writes.Value())
	}
	h.eng.Shutdown()
}

// TestOpenOrCreateGivesUp: with no PM manager answering, OpenOrCreate makes
// three attempts, waits 10 ms after each failed create, and returns the
// open's error.
func TestOpenOrCreateGivesUp(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		start := p.Now()
		r, err := Attach(h.cl, "$NOPM").OpenOrCreate(p, "log", 4096, nil)
		if r != nil || !errors.Is(err, cluster.ErrNoProcess) {
			t.Errorf("OpenOrCreate = %v, %v; want nil and ErrNoProcess", r, err)
		}
		if took := p.Now() - start; took < 30*sim.Millisecond {
			t.Errorf("gave up after %v, want at least three 10 ms waits", took)
		}
	})
	h.eng.Shutdown()
}

// TestOpenOrCreateSaysTheVolumeIsFull: a region as large as its NPMUs
// cannot be created beside the metadata area, and the error says so — the
// create's cause, with the region and the volume named — not the open's
// "region not found". The three attempts and their waits are as before.
func TestOpenOrCreateSaysTheVolumeIsFull(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		start := p.Now()
		r, err := h.vol.OpenOrCreate(p, "log", 16<<20, nil)
		if r != nil || err == nil {
			t.Fatalf("OpenOrCreate of 16 MiB on 16 MiB NPMUs = %v, %v; want an error", r, err)
		}
		for _, want := range []string{"volume full", `"log"`, "$PM1"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("OpenOrCreate error %q does not say %q", err, want)
			}
		}
		if errors.Is(err, pmm.ErrNotFound) {
			t.Errorf("OpenOrCreate error %q is the open's, not the create's", err)
		}
		if took := p.Now() - start; took < 30*sim.Millisecond {
			t.Errorf("gave up after %v, want at least three 10 ms waits", took)
		}
	})
	h.eng.Shutdown()
}

// TestWriteRing: byte pos of the log lives at pos % Size, and a write that
// crosses the region's end is split there and goes on from offset 0.
func TestWriteRing(t *testing.T) {
	h := newHarness(t, 1)
	h.runClient(t, 2, func(p *cluster.Process) {
		h.vol.Create(p, "ring", 64)
		r, _ := h.vol.Open(p, "ring")
		if err := r.WriteRing(p, 3*64+10, []byte("abcd")); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteRing(p, 60, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		if err := r.Read(p, 0, buf); err != nil {
			t.Fatal(err)
		}
		if got := string(buf[10:14]); got != "abcd" {
			t.Errorf("ring reads %q at offset 10, want \"abcd\"", got)
		}
		if got := string(buf[60:]) + string(buf[:6]); got != "0123456789" {
			t.Errorf("ring reads %q from offset 60 on, want \"0123456789\"", got)
		}
		if r.Writes != 3 {
			t.Errorf("%d region writes, want 3 (one, then one split in two)", r.Writes)
		}
		r.Close(p)
		if err := r.WriteRing(p, 0, []byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("WriteRing on a closed region = %v, want ErrClosed", err)
		}
	})
	h.eng.Shutdown()
}
