package npmu

import (
	"bytes"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/servernet"
	"persistmem/internal/sim"
)

func newTestSetup(seed int64) (*sim.Engine, *cluster.Cluster) {
	eng := sim.NewEngine(seed)
	return eng, cluster.New(eng, cluster.DefaultConfig())
}

// mapAll exposes the whole device RW to everyone at NVA 0, as the PMM
// would for an open region.
func mapAll(d *Device) {
	d.Endpoint().MapWindow(0, uint32(d.Capacity()), d.Store(), 0,
		servernet.Perm{Read: true, Write: true})
}

func TestRDMAWriteToDevice(t *testing.T) {
	eng, cl := newTestSetup(1)
	dev := New(cl, "npmu0", 1<<20)
	mapAll(dev)
	data := []byte("committed log bytes")
	eng.Spawn("client", func(p *sim.Proc) {
		err := cl.Fabric().RDMAWrite(p, cl.CPU(0).Endpoint().ID(), dev.EndpointID(), 4096, data)
		if err != nil {
			t.Errorf("RDMAWrite: %v", err)
		}
	})
	eng.Run()
	buf := make([]byte, len(data))
	dev.Store().ReadAt(4096, buf)
	if !bytes.Equal(buf, data) {
		t.Errorf("device memory = %q, want %q", buf, data)
	}
	eng.Shutdown()
}

func TestHardwareNPMUSurvivesPowerLoss(t *testing.T) {
	eng, cl := newTestSetup(1)
	dev := New(cl, "npmu0", 1<<20)
	mapAll(dev)
	eng.Spawn("client", func(p *sim.Proc) {
		cl.Fabric().RDMAWrite(p, cl.CPU(0).Endpoint().ID(), dev.EndpointID(), 0, []byte("durable"))
	})
	eng.Run()
	dev.PowerFail()
	dev.Restore()
	buf := make([]byte, 7)
	dev.Store().ReadAt(0, buf)
	if string(buf) != "durable" {
		t.Errorf("hardware NPMU lost contents: %q", buf)
	}
	if dev.PowerCycles != 1 {
		t.Errorf("PowerCycles = %d", dev.PowerCycles)
	}
	eng.Shutdown()
}

func TestPMPLosesContentsOnPowerLoss(t *testing.T) {
	eng, cl := newTestSetup(1)
	dev := NewPMP(cl, "pmp0", 1<<20)
	mapAll(dev)
	eng.Spawn("client", func(p *sim.Proc) {
		cl.Fabric().RDMAWrite(p, cl.CPU(0).Endpoint().ID(), dev.EndpointID(), 0, []byte("volatile"))
	})
	eng.Run()
	dev.PowerFail()
	dev.Restore()
	buf := make([]byte, 8)
	dev.Store().ReadAt(0, buf)
	if !bytes.Equal(buf, make([]byte, 8)) {
		t.Errorf("PMP retained contents across power loss: %q", buf)
	}
	if !dev.Volatile() {
		t.Error("PMP not marked volatile")
	}
	eng.Shutdown()
}

func TestATTClearedByPowerLoss(t *testing.T) {
	eng, cl := newTestSetup(1)
	dev := New(cl, "npmu0", 1<<20)
	mapAll(dev)
	if dev.Endpoint().Translations() != 1 {
		t.Fatalf("Translations = %d, want 1", dev.Endpoint().Translations())
	}
	dev.PowerFail()
	dev.Restore()
	if dev.Endpoint().Translations() != 0 {
		t.Error("ATT survived power loss; NIC state is volatile")
	}
	// Access before the PMM reprograms the ATT must fault.
	eng.Spawn("client", func(p *sim.Proc) {
		err := cl.Fabric().RDMAWrite(p, cl.CPU(0).Endpoint().ID(), dev.EndpointID(), 0, []byte{1})
		if err != servernet.ErrNoTranslation {
			t.Errorf("pre-reprogram access: %v, want ErrNoTranslation", err)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestFabricFaultKeepsATT(t *testing.T) {
	eng, cl := newTestSetup(1)
	dev := New(cl, "npmu0", 1<<20)
	mapAll(dev)
	dev.Fail()
	dev.Recover()
	if dev.Endpoint().Translations() != 1 {
		t.Error("ATT lost across a non-power fabric fault")
	}
	eng.Shutdown()
}

func TestPMPSlowerThanHardware(t *testing.T) {
	// §4.2: "a true hardware PMU is actually slightly faster than the
	// PMPs used in the experiments."
	measure := func(mk func(cl *cluster.Cluster) *Device) sim.Time {
		eng, cl := newTestSetup(1)
		dev := mk(cl)
		mapAll(dev)
		var took sim.Time
		eng.Spawn("client", func(p *sim.Proc) {
			start := p.Now()
			cl.Fabric().RDMAWrite(p, cl.CPU(0).Endpoint().ID(), dev.EndpointID(), 0, make([]byte, 4096))
			took = p.Now() - start
		})
		eng.Run()
		eng.Shutdown()
		return took
	}
	hw := measure(func(cl *cluster.Cluster) *Device { return New(cl, "d", 1<<20) })
	pmp := measure(func(cl *cluster.Cluster) *Device { return NewPMP(cl, "d", 1<<20) })
	if pmp <= hw {
		t.Errorf("PMP (%v) should be slower than hardware NPMU (%v)", pmp, hw)
	}
	if pmp-hw != PMPServiceLatency {
		t.Errorf("PMP overhead = %v, want %v", pmp-hw, PMPServiceLatency)
	}
}

func TestDeviceSurvivesControllingCPUFailure(t *testing.T) {
	// §4: "devices can continue to function even if the controlling
	// processor fails."
	eng, cl := newTestSetup(1)
	dev := New(cl, "npmu0", 1<<20)
	mapAll(dev)
	cl.CPU(0).Fail() // suppose CPU 0 ran the PMM
	eng.Spawn("client-on-cpu1", func(p *sim.Proc) {
		err := cl.Fabric().RDMAWrite(p, cl.CPU(1).Endpoint().ID(), dev.EndpointID(), 0, []byte{1})
		if err != nil {
			t.Errorf("device access after CPU failure: %v", err)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestBadCapacityPanics(t *testing.T) {
	_, cl := newTestSetup(1)
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	New(cl, "bad", 0)
}

// A discard device times like a hardware NPMU but keeps nothing: a write
// succeeds and a read of it returns zeros.
func TestDiscardDeviceKeepsNothing(t *testing.T) {
	eng, cl := newTestSetup(1)
	dev := NewDiscard(cl, "npmu-discard", 1<<20)
	if dev.Name() != "npmu-discard" || dev.Capacity() != 1<<20 || dev.Volatile() || !dev.Store().Discarding() {
		t.Fatalf("discard device: name=%q capacity=%d volatile=%v discarding=%v",
			dev.Name(), dev.Capacity(), dev.Volatile(), dev.Store().Discarding())
	}
	mapAll(dev)
	eng.Spawn("client", func(p *sim.Proc) {
		from := cl.CPU(0).Endpoint().ID()
		if err := cl.Fabric().RDMAWrite(p, from, dev.EndpointID(), 64, []byte("dropped")); err != nil {
			t.Errorf("RDMAWrite: %v", err)
		}
		buf := []byte("garbage")
		if err := cl.Fabric().RDMARead(p, from, dev.EndpointID(), 64, buf); err != nil {
			t.Errorf("RDMARead: %v", err)
		}
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Errorf("discard device read back %q, want zeros", buf)
		}
	})
	eng.Run()
	eng.Shutdown()
}

// Powered follows PowerFail and Restore, and each is a no-op when the
// device is already in the state it asks for: a second power loss is not
// a second power cycle.
func TestPowerFailAndRestoreAreIdempotent(t *testing.T) {
	eng, cl := newTestSetup(1)
	dev := New(cl, "npmu0", 1<<20)
	if !dev.Powered() {
		t.Fatal("a new device is not powered")
	}
	dev.Restore()
	if !dev.Powered() || !dev.Endpoint().Up() {
		t.Error("Restore of a powered device took it down")
	}
	dev.PowerFail()
	dev.PowerFail()
	if dev.Powered() || dev.Endpoint().Up() || dev.PowerCycles != 1 {
		t.Errorf("after two power losses: powered=%v up=%v cycles=%d, want false false 1",
			dev.Powered(), dev.Endpoint().Up(), dev.PowerCycles)
	}
	dev.Restore()
	if !dev.Powered() || !dev.Endpoint().Up() {
		t.Error("Restore did not bring the device back")
	}
	eng.Shutdown()
}

// A volatile PMP comes back from a power loss powered and reachable but
// empty: once its window is programmed again, a read finds zeros where the
// data was, and a read while it was off timed out.
func TestPMPRestoreComesBackEmpty(t *testing.T) {
	eng, cl := newTestSetup(1)
	dev := NewPMP(cl, "pmp0", 1<<20)
	mapAll(dev)
	from := cl.CPU(0).Endpoint().ID()
	eng.Spawn("writer", func(p *sim.Proc) {
		if err := cl.Fabric().RDMAWrite(p, from, dev.EndpointID(), 512, []byte("volatile")); err != nil {
			t.Errorf("RDMAWrite: %v", err)
		}
	})
	eng.Run()
	dev.PowerFail()
	eng.Spawn("reader-while-off", func(p *sim.Proc) {
		if err := cl.Fabric().RDMARead(p, from, dev.EndpointID(), 512, make([]byte, 8)); err != servernet.ErrEndpointDown {
			t.Errorf("read of a powered-off PMP: %v, want ErrEndpointDown", err)
		}
	})
	eng.Run()
	dev.Restore()
	if !dev.Powered() || dev.Endpoint().Translations() != 0 {
		t.Fatalf("restored PMP: powered=%v translations=%d, want true 0", dev.Powered(), dev.Endpoint().Translations())
	}
	mapAll(dev)
	eng.Spawn("reader", func(p *sim.Proc) {
		buf := []byte("leftover")
		if err := cl.Fabric().RDMARead(p, from, dev.EndpointID(), 512, buf); err != nil {
			t.Errorf("RDMARead: %v", err)
		}
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Errorf("restored PMP read back %q, want zeros", buf)
		}
	})
	eng.Run()
	eng.Shutdown()
}
