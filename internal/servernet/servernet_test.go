package servernet

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"persistmem/internal/sim"
)

// testFabric builds a two-endpoint fabric with a 1 MB window mapped at the
// given base on endpoint 2.
func testFabric(t *testing.T, cfg Config, base uint32, perm Perm) (*sim.Engine, *Fabric, ByteWindow) {
	t.Helper()
	eng := sim.NewEngine(11)
	fab := New(eng, cfg)
	fab.Attach(1, "cpu0")
	ep2 := fab.Attach(2, "npmu0")
	win := make(ByteWindow, 1<<20)
	ep2.MapWindow(base, 1<<20, win, 0, perm)
	return eng, fab, win
}

func rwPerm() Perm { return Perm{Read: true, Write: true} }

func TestRDMAWriteReadRoundTrip(t *testing.T) {
	eng, fab, win := testFabric(t, DefaultConfig(), 0x1000, rwPerm())
	data := []byte("the packet arrived with a correct CRC")
	eng.Spawn("client", func(p *sim.Proc) {
		if err := fab.RDMAWrite(p, 1, 2, 0x1000+64, data); err != nil {
			t.Errorf("RDMAWrite: %v", err)
		}
		buf := make([]byte, len(data))
		if err := fab.RDMARead(p, 1, 2, 0x1000+64, buf); err != nil {
			t.Errorf("RDMARead: %v", err)
		}
		if !bytes.Equal(buf, data) {
			t.Errorf("read back %q, want %q", buf, data)
		}
	})
	eng.Run()
	if !bytes.Equal(win[64:64+len(data)], data) {
		t.Error("window bytes not written at translated offset")
	}
}

func TestRDMALatencyScale(t *testing.T) {
	// A small synchronous write should land in the "tens of microseconds"
	// regime the paper claims, far below a storage-stack I/O.
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, rwPerm())
	var took sim.Time
	eng.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		if err := fab.RDMAWrite(p, 1, 2, 0, make([]byte, 128)); err != nil {
			t.Fatalf("write: %v", err)
		}
		took = p.Now() - start
	})
	eng.Run()
	if took < 10*sim.Microsecond || took > 100*sim.Microsecond {
		t.Errorf("128B RDMA write took %v, want within [10us, 100us]", took)
	}
}

func TestRDMABandwidthDominatesLargeTransfers(t *testing.T) {
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, rwPerm())
	var small, large sim.Time
	eng.Spawn("client", func(p *sim.Proc) {
		s := p.Now()
		fab.RDMAWrite(p, 1, 2, 0, make([]byte, 512))
		small = p.Now() - s
		s = p.Now()
		fab.RDMAWrite(p, 1, 2, 0, make([]byte, 512<<10))
		large = p.Now() - s
	})
	eng.Run()
	if large < 10*small {
		t.Errorf("512KB (%v) should cost >>512B (%v)", large, small)
	}
	// 512 KB at 125 MB/s is ~4 ms of serialization.
	if large < 3*sim.Millisecond || large > 10*sim.Millisecond {
		t.Errorf("512KB transfer took %v, want ~4ms", large)
	}
}

func TestNoTranslation(t *testing.T) {
	eng, fab, _ := testFabric(t, DefaultConfig(), 0x1000, rwPerm())
	eng.Spawn("client", func(p *sim.Proc) {
		err := fab.RDMAWrite(p, 1, 2, 0x10, []byte{1})
		if !errors.Is(err, ErrNoTranslation) {
			t.Errorf("err = %v, want ErrNoTranslation", err)
		}
		// Crossing the end of the entry is also a fault.
		err = fab.RDMAWrite(p, 1, 2, 0x1000+(1<<20)-4, make([]byte, 8))
		if !errors.Is(err, ErrNoTranslation) {
			t.Errorf("boundary-crossing err = %v, want ErrNoTranslation", err)
		}
	})
	eng.Run()
}

func TestAccessControl(t *testing.T) {
	perm := Perm{Read: true, Write: true, Initiators: map[EndpointID]bool{1: true}}
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, perm)
	fab.Attach(3, "intruder")
	eng.Spawn("client", func(p *sim.Proc) {
		if err := fab.RDMAWrite(p, 1, 2, 0, []byte{1}); err != nil {
			t.Errorf("allowed initiator: %v", err)
		}
		err := fab.RDMAWrite(p, 3, 2, 0, []byte{1})
		if !errors.Is(err, ErrAccessDenied) {
			t.Errorf("intruder err = %v, want ErrAccessDenied", err)
		}
	})
	eng.Run()
}

func TestReadOnlyWindow(t *testing.T) {
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, Perm{Read: true})
	eng.Spawn("client", func(p *sim.Proc) {
		err := fab.RDMAWrite(p, 1, 2, 0, []byte{1})
		if !errors.Is(err, ErrAccessDenied) {
			t.Errorf("write to RO window: %v, want ErrAccessDenied", err)
		}
		if err := fab.RDMARead(p, 1, 2, 0, make([]byte, 1)); err != nil {
			t.Errorf("read from RO window: %v", err)
		}
	})
	eng.Run()
}

func TestEndpointDownTimesOut(t *testing.T) {
	cfg := DefaultConfig()
	eng, fab, _ := testFabric(t, cfg, 0, rwPerm())
	fab.Endpoint(2).Fail()
	eng.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		err := fab.RDMAWrite(p, 1, 2, 0, []byte{1})
		if !errors.Is(err, ErrEndpointDown) {
			t.Errorf("err = %v, want ErrEndpointDown", err)
		}
		if took := p.Now() - start; took < ackTimeout {
			t.Errorf("failure detected in %v, want >= timeout %v", took, ackTimeout)
		}
	})
	eng.Run()
}

func TestEndpointRestore(t *testing.T) {
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, rwPerm())
	fab.Endpoint(2).Fail()
	fab.Endpoint(2).Restore()
	eng.Spawn("client", func(p *sim.Proc) {
		if err := fab.RDMAWrite(p, 1, 2, 0, []byte{1}); err != nil {
			t.Errorf("after restore: %v", err)
		}
	})
	eng.Run()
}

func TestCRCInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CRCErrorRate = 1.0
	eng, fab, _ := testFabric(t, cfg, 0, rwPerm())
	eng.Spawn("client", func(p *sim.Proc) {
		err := fab.RDMAWrite(p, 1, 2, 0, []byte{1})
		if !errors.Is(err, ErrCRC) {
			t.Errorf("err = %v, want ErrCRC", err)
		}
	})
	eng.Run()
}

func TestZeroLength(t *testing.T) {
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, rwPerm())
	eng.Spawn("client", func(p *sim.Proc) {
		if err := fab.RDMAWrite(p, 1, 2, 0, nil); !errors.Is(err, ErrZeroLength) {
			t.Errorf("err = %v, want ErrZeroLength", err)
		}
	})
	eng.Run()
}

func TestMessaging(t *testing.T) {
	eng := sim.NewEngine(5)
	fab := New(eng, DefaultConfig())
	fab.Attach(1, "a")
	b := fab.Attach(2, "b")
	var got Message
	eng.Spawn("rx", func(p *sim.Proc) {
		m := b.Inbox.Recv(p).(*Message)
		got = *m
		fab.FreeMessage(m)
	})
	eng.Spawn("tx", func(p *sim.Proc) {
		if err := fab.Send(p, 1, 2, 256, "hello"); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	eng.Run()
	if got.From != 1 || got.Payload != "hello" {
		t.Errorf("got %+v", got)
	}
}

func TestMessagingToDownEndpoint(t *testing.T) {
	eng := sim.NewEngine(5)
	fab := New(eng, DefaultConfig())
	fab.Attach(1, "a")
	fab.Attach(2, "b").Fail()
	eng.Spawn("tx", func(p *sim.Proc) {
		if err := fab.Send(p, 1, 2, 64, "x"); !errors.Is(err, ErrEndpointDown) {
			t.Errorf("err = %v, want ErrEndpointDown", err)
		}
	})
	eng.Run()
}

func TestOppositeDirectionTransfersNoDeadlock(t *testing.T) {
	eng := sim.NewEngine(5)
	fab := New(eng, DefaultConfig())
	a := fab.Attach(1, "a")
	b := fab.Attach(2, "b")
	a.MapWindow(0, 1<<16, make(ByteWindow, 1<<16), 0, rwPerm())
	b.MapWindow(0, 1<<16, make(ByteWindow, 1<<16), 0, rwPerm())
	done := 0
	for i := 0; i < 8; i++ {
		from, to := EndpointID(1), EndpointID(2)
		if i%2 == 1 {
			from, to = to, from
		}
		eng.Spawn("xfer", func(p *sim.Proc) {
			if err := fab.RDMAWrite(p, from, to, 0, make([]byte, 32<<10)); err != nil {
				t.Errorf("write: %v", err)
			}
			done++
		})
	}
	eng.Run()
	if done != 8 {
		t.Fatalf("completed %d/8 opposite-direction transfers", done)
	}
	if n := eng.LiveProcs(); n != 0 {
		t.Fatalf("%d processes stuck (deadlock)", n)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	// Two initiators writing to the same target must share its port: the
	// second finishes later than it would alone.
	cfg := DefaultConfig()
	eng := sim.NewEngine(5)
	fab := New(eng, cfg)
	fab.Attach(1, "a")
	fab.Attach(3, "c")
	dst := fab.Attach(2, "b")
	dst.MapWindow(0, 1<<20, make(ByteWindow, 1<<20), 0, rwPerm())
	var t1, t2 sim.Time
	eng.Spawn("w1", func(p *sim.Proc) {
		fab.RDMAWrite(p, 1, 2, 0, make([]byte, 256<<10))
		t1 = p.Now()
	})
	eng.Spawn("w2", func(p *sim.Proc) {
		fab.RDMAWrite(p, 3, 2, 0, make([]byte, 256<<10))
		t2 = p.Now()
	})
	eng.Run()
	if t2 < t1+sim.Millisecond {
		t.Errorf("contended transfers finished at %v and %v; expected serialization", t1, t2)
	}
}

func TestMapWindowValidation(t *testing.T) {
	eng := sim.NewEngine(5)
	fab := New(eng, DefaultConfig())
	ep := fab.Attach(1, "a")
	win := make(ByteWindow, 4096)
	ep.MapWindow(0, 4096, win, 0, rwPerm())

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("overlap", func() { ep.MapWindow(100, 10, win, 0, rwPerm()) })
	mustPanic("zero size", func() { ep.MapWindow(8192, 0, win, 0, rwPerm()) })
	mustPanic("beyond window", func() { ep.MapWindow(8192, 8192, win, 0, rwPerm()) })
	mustPanic("duplicate endpoint", func() { fab.Attach(1, "dup") })
}

func TestUnmapWindow(t *testing.T) {
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, rwPerm())
	ep := fab.Endpoint(2)
	if !ep.UnmapWindow(0) {
		t.Fatal("UnmapWindow(0) = false, want true")
	}
	if ep.UnmapWindow(0) {
		t.Fatal("second UnmapWindow(0) = true, want false")
	}
	eng.Spawn("client", func(p *sim.Proc) {
		if err := fab.RDMAWrite(p, 1, 2, 0, []byte{1}); !errors.Is(err, ErrNoTranslation) {
			t.Errorf("after unmap: %v, want ErrNoTranslation", err)
		}
	})
	eng.Run()
}

func TestStatsAccounting(t *testing.T) {
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, rwPerm())
	eng.Spawn("client", func(p *sim.Proc) {
		fab.RDMAWrite(p, 1, 2, 0, make([]byte, 1000))
		fab.RDMARead(p, 1, 2, 0, make([]byte, 500))
	})
	eng.Run()
	dst := fab.Endpoint(2)
	if dst.BytesIn != 1000 || dst.BytesOut != 500 || dst.OpsServed != 2 {
		t.Errorf("dst stats in=%d out=%d ops=%d", dst.BytesIn, dst.BytesOut, dst.OpsServed)
	}
	src := fab.Endpoint(1)
	if src.BytesOut != 1000 || src.BytesIn != 500 {
		t.Errorf("src stats in=%d out=%d", src.BytesIn, src.BytesOut)
	}
}

func TestKillDuringTransferDoesNotWedgePorts(t *testing.T) {
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, rwPerm())
	victim := eng.Spawn("victim", func(p *sim.Proc) {
		fab.RDMAWrite(p, 1, 2, 0, make([]byte, 8<<20)) // ~60ms transfer
	})
	eng.Spawn("killer", func(p *sim.Proc) {
		p.Wait(5 * sim.Millisecond)
		victim.Kill()
	})
	done := false
	eng.Spawn("heir", func(p *sim.Proc) {
		p.Wait(10 * sim.Millisecond)
		if err := fab.RDMAWrite(p, 1, 2, 0, []byte{1}); err != nil {
			t.Errorf("heir write: %v", err)
			return
		}
		done = true
	})
	eng.RunUntil(5 * sim.Second)
	if !done {
		t.Fatal("fabric ports wedged after mid-transfer kill")
	}
	eng.Shutdown()
}

func TestDualPathTransparentFailover(t *testing.T) {
	// §4: "a redundant ServerNet network" — losing one fabric path is
	// invisible to transfers.
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, rwPerm())
	eng.Spawn("client", func(p *sim.Proc) {
		if err := fab.RDMAWrite(p, 1, 2, 0, []byte{1}); err != nil {
			t.Fatalf("baseline write: %v", err)
		}
		fab.FailPath(0) // X fabric dies
		if err := fab.RDMAWrite(p, 1, 2, 0, []byte{2}); err != nil {
			t.Errorf("write with X down: %v", err)
		}
		if fab.PathOps[1] == 0 {
			t.Error("no transfers routed via the Y fabric")
		}
		fab.RestorePath(0)
		fab.RDMAWrite(p, 1, 2, 0, []byte{3})
	})
	eng.Run()
	if !fab.PathUp(0) || !fab.PathUp(1) {
		t.Error("paths not both restored")
	}
	// X preferred when up: first and last writes used it.
	if fab.PathOps[0] < 2 {
		t.Errorf("PathOps[0] = %d, want >= 2", fab.PathOps[0])
	}
	eng.Shutdown()
}

func TestBothPathsDown(t *testing.T) {
	cfg := DefaultConfig()
	eng, fab, _ := testFabric(t, cfg, 0, rwPerm())
	fab.FailPath(0)
	fab.FailPath(1)
	eng.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		err := fab.RDMAWrite(p, 1, 2, 0, []byte{1})
		if !errors.Is(err, ErrNoPath) {
			t.Errorf("err = %v, want ErrNoPath", err)
		}
		if p.Now()-start < ackTimeout {
			t.Error("no-path failure did not wait for the timeout")
		}
		if err := fab.Send(p, 1, 2, 64, "x"); !errors.Is(err, ErrNoPath) {
			t.Errorf("Send err = %v, want ErrNoPath", err)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestPathIDValidationPanics(t *testing.T) {
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, rwPerm())
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("FailPath(2)", func() { fab.FailPath(2) })
	mustPanic("FailPath(-1)", func() { fab.FailPath(-1) })
	mustPanic("RestorePath(2)", func() { fab.RestorePath(2) })
	mustPanic("PathUp(7)", func() { fab.PathUp(7) })
	// Valid ids still work, and nothing above aliased onto them.
	if !fab.PathUp(0) || !fab.PathUp(1) {
		t.Error("valid paths disturbed by rejected ids")
	}
	eng.Shutdown()
}

func TestMidTransferPathFailureCompletesOnSurvivor(t *testing.T) {
	// A transfer in flight when the X fabric dies is masked by Y: the
	// hardware reroutes and the initiator sees a normal completion.
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, rwPerm())
	done := false
	eng.Spawn("client", func(p *sim.Proc) {
		if err := fab.RDMAWrite(p, 1, 2, 0, make([]byte, 1<<20)); err != nil { // ~8ms transfer
			t.Errorf("write across path failure: %v", err)
			return
		}
		done = true
	})
	eng.Spawn("fault", func(p *sim.Proc) {
		p.Wait(5 * sim.Millisecond) // transfer already started
		fab.FailPath(0)
	})
	eng.Run()
	if !done {
		t.Fatal("transfer did not complete on the survivor path")
	}
	if fab.PathUp(0) {
		t.Error("X path unexpectedly up")
	}
	eng.Shutdown()
}

func TestMidTransferBothPathsDownFails(t *testing.T) {
	// Losing both fabrics mid-transfer means the hardware ack never
	// arrives: the initiator times out with ErrNoPath instead of
	// pretending the write completed.
	cfg := DefaultConfig()
	eng, fab, _ := testFabric(t, cfg, 0, rwPerm())
	var err error
	var took sim.Time
	eng.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		err = fab.RDMAWrite(p, 1, 2, 0, make([]byte, 1<<20))
		took = p.Now() - start
	})
	eng.Spawn("fault", func(p *sim.Proc) {
		p.Wait(5 * sim.Millisecond)
		fab.FailPath(0)
		fab.FailPath(1)
	})
	eng.Run()
	if !errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
	if took < ackTimeout {
		t.Errorf("failed in %v, want >= ack timeout %v", took, ackTimeout)
	}
	eng.Shutdown()
}

// Property: any write at any legal offset/size is read back exactly
// through the translation.
func TestTranslationRoundTripProperty(t *testing.T) {
	const winSize = 1 << 16
	const base = 0x4000
	prop := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			data = []byte{0xAB}
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		o := uint32(off) % (winSize - uint32(len(data)))
		eng := sim.NewEngine(17)
		fab := New(eng, DefaultConfig())
		fab.Attach(1, "cpu")
		ep := fab.Attach(2, "dev")
		win := make(ByteWindow, winSize)
		ep.MapWindow(base, winSize, win, 0, rwPerm())
		ok := true
		eng.Spawn("c", func(p *sim.Proc) {
			if err := fab.RDMAWrite(p, 1, 2, base+o, data); err != nil {
				ok = false
				return
			}
			buf := make([]byte, len(data))
			if err := fab.RDMARead(p, 1, 2, base+o, buf); err != nil {
				ok = false
				return
			}
			ok = bytes.Equal(buf, data)
		})
		eng.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMinLatencyIsTheFabricFloor pins the fabric's hard latency floor to
// the paper's 10–20 µs range under the calibrated defaults.
func TestMinLatencyIsTheFabricFloor(t *testing.T) {
	cfg := DefaultConfig()
	min := cfg.MinLatency()
	if want := cfg.SoftwareLatency + wireLatency + perPacketOverhead; min != want {
		t.Fatalf("MinLatency = %v, want %v", min, want)
	}
	if min < 10*sim.Microsecond || min > 20*sim.Microsecond {
		t.Fatalf("MinLatency %v outside the paper's 10-20us fabric floor", min)
	}
}

// TestEndpointAccessors: endpoints and the fabric report what they were
// built with, a configured service latency is paid by every operation the
// endpoint serves, and ClearATT drops every translation.
func TestEndpointAccessors(t *testing.T) {
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, rwPerm())
	ep1, ep2 := fab.Endpoint(1), fab.Endpoint(2)
	if ep1.ID() != 1 || ep1.Name() != "cpu0" || !ep1.Up() {
		t.Errorf("accessors: id=%d name=%q up=%v", ep1.ID(), ep1.Name(), ep1.Up())
	}
	if fab.Engine() != eng {
		t.Error("Fabric.Engine did not return the build engine")
	}
	if fab.Config().SoftwareLatency != DefaultConfig().SoftwareLatency {
		t.Error("Fabric.Config did not return the build config")
	}
	if ep2.Translations() != 1 {
		t.Errorf("Translations = %d, want 1", ep2.Translations())
	}
	const service = 3 * sim.Microsecond
	var plain, slowed sim.Time
	eng.Spawn("client", func(p *sim.Proc) {
		write := func() sim.Time {
			start := p.Now()
			if err := fab.RDMAWrite(p, 1, 2, 0, make([]byte, 128)); err != nil {
				t.Errorf("write: %v", err)
			}
			return p.Now() - start
		}
		plain = write()
		ep2.SetServiceLatency(service)
		slowed = write()
		ep2.ClearATT()
		if err := fab.RDMAWrite(p, 1, 2, 0, make([]byte, 128)); !errors.Is(err, ErrNoTranslation) {
			t.Errorf("write after ClearATT: %v, want ErrNoTranslation", err)
		}
	})
	eng.Run()
	if slowed-plain != service {
		t.Errorf("service latency added %v to a write, want %v", slowed-plain, service)
	}
	if ep2.Translations() != 0 {
		t.Errorf("Translations after ClearATT = %d, want 0", ep2.Translations())
	}
}

// transferOps are the three public operations, all of which run the one
// transfer script. Each moves n bytes from endpoint 1 to endpoint 2.
var transferOps = []struct {
	name string
	do   func(f *Fabric, p *sim.Proc, n int) error
}{
	{"Send", func(f *Fabric, p *sim.Proc, n int) error { return f.Send(p, 1, 2, n, "payload") }},
	{"RDMAWrite", func(f *Fabric, p *sim.Proc, n int) error { return f.RDMAWrite(p, 1, 2, 0, make([]byte, n)) }},
	{"RDMARead", func(f *Fabric, p *sim.Proc, n int) error { return f.RDMARead(p, 1, 2, 0, make([]byte, n)) }},
}

// Every failure the script can end in surfaces with the same error after
// exactly the same virtual delay as when each leg was a park of its own: at
// once when the initiator can see the fault, after the ack timeout when it
// can only wait for an acknowledgement that never comes.
func TestFailureDelaysAreExact(t *testing.T) {
	const n = 64 << 10
	cfg := DefaultConfig()
	soft := cfg.SoftwareLatency
	for _, tc := range []struct {
		name  string
		setup func(cfg *Config)
		fault func(f *Fabric) // before the operation starts
		mid   func(f *Fabric) // while the ports are held
		want  error
		delay func(tt sim.Time) sim.Time
	}{
		{name: "source endpoint down", fault: func(f *Fabric) { f.Endpoint(1).Fail() },
			want: ErrEndpointDown, delay: func(sim.Time) sim.Time { return soft }},
		{name: "target down", fault: func(f *Fabric) { f.Endpoint(2).Fail() },
			want: ErrEndpointDown, delay: func(sim.Time) sim.Time { return soft + ackTimeout }},
		{name: "both paths down", fault: func(f *Fabric) { f.FailPath(0); f.FailPath(1) },
			want: ErrNoPath, delay: func(sim.Time) sim.Time { return soft + ackTimeout }},
		{name: "target fails mid-transfer", mid: func(f *Fabric) { f.Endpoint(2).Fail() },
			want: ErrEndpointDown, delay: func(tt sim.Time) sim.Time { return soft + tt + ackTimeout }},
		{name: "both paths fail mid-transfer", mid: func(f *Fabric) { f.FailPath(0); f.FailPath(1) },
			want: ErrNoPath, delay: func(tt sim.Time) sim.Time { return soft + tt + ackTimeout }},
		{name: "CRC error", setup: func(cfg *Config) { cfg.CRCErrorRate = 1 },
			want: ErrCRC, delay: func(tt sim.Time) sim.Time { return soft + tt }},
		{name: "no fault", delay: func(tt sim.Time) sim.Time { return soft + tt }},
	} {
		for _, op := range transferOps {
			t.Run(tc.name+"/"+op.name, func(t *testing.T) {
				cfg := cfg
				if tc.setup != nil {
					tc.setup(&cfg)
				}
				eng, fab, _ := testFabric(t, cfg, 0, rwPerm())
				if tc.fault != nil {
					tc.fault(fab)
				}
				if tc.mid != nil {
					eng.Schedule(soft+fab.transferTime(n)/2, func() { tc.mid(fab) })
				}
				var err error
				var took sim.Time
				eng.Spawn("client", func(p *sim.Proc) {
					err = op.do(fab, p, n)
					took = p.Now()
				})
				eng.Run()
				if !errors.Is(err, tc.want) {
					t.Errorf("err = %v, want %v", err, tc.want)
				}
				if want := tc.delay(fab.transferTime(n)); took != want {
					t.Errorf("returned after %v, want exactly %v", took, want)
				}
				for id := EndpointID(1); id <= 2; id++ {
					if ep := fab.Endpoint(id); ep.link.InUse() != 0 || ep.link.QueueLen() != 0 {
						t.Errorf("endpoint %d port left inUse=%d queue=%d", id, ep.link.InUse(), ep.link.QueueLen())
					}
				}
				if len(fab.xferfree) != 1 {
					t.Errorf("%d transfers on the free list after one operation, want the one it used", len(fab.xferfree))
				}
				eng.Shutdown()
			})
		}
	}
}

// A kill reaches the initiator at every leg of the script. Whatever leg it
// lands on, each port is given back exactly once (a second Release of a
// free port panics; a missing one wedges the heir), and traffic queued
// behind the victim proceeds.
func TestKillAtEveryTransferLeg(t *testing.T) {
	// Endpoints 1, 2, 3; the victim moves 64 KB from 1 to 2, so its ports
	// in canonical order are 1 then 2. A blocker transfer between 3 and one
	// of them holds that port from about 15 µs to about 8.6 ms.
	const n = 64 << 10
	cfg := DefaultConfig()
	for _, tc := range []struct {
		leg     string
		blocker EndpointID // the victim's port a 3<->blocker transfer occupies; 0: none
		service sim.Time   // target service latency (RDMA legs only)
		down    bool       // target down: the victim waits out the ack timeout
		killAt  sim.Time
	}{
		{leg: "software latency", killAt: 5 * sim.Microsecond},
		{leg: "queued on the first port", blocker: 1, killAt: 100 * sim.Microsecond},
		{leg: "holding the first port, queued on the second", blocker: 2, killAt: 100 * sim.Microsecond},
		{leg: "holding both ports", killAt: 200 * sim.Microsecond},
		{leg: "target service latency", service: sim.Millisecond, killAt: 900 * sim.Microsecond},
		{leg: "ack timeout", down: true, killAt: sim.Millisecond},
	} {
		for _, op := range transferOps {
			if tc.service > 0 && op.name == "Send" {
				continue // messages pay no device service latency
			}
			t.Run(tc.leg+"/"+op.name, func(t *testing.T) {
				eng, fab, _ := testFabric(t, cfg, 0, rwPerm())
				c := fab.Attach(3, "c")
				c.MapWindow(0, 1<<20, make(ByteWindow, 1<<20), 0, rwPerm())
				fab.Endpoint(1).MapWindow(0, 1<<20, make(ByteWindow, 1<<20), 0, rwPerm())
				fab.Endpoint(2).SetServiceLatency(tc.service)
				if tc.down {
					fab.Endpoint(2).Fail()
				}
				if tc.blocker != 0 {
					eng.Spawn("blocker", func(p *sim.Proc) {
						if err := fab.RDMAWrite(p, 3, tc.blocker, 0, make([]byte, 1<<20)); err != nil {
							t.Errorf("blocker: %v", err)
						}
					})
				}
				returned := false
				victim := eng.SpawnAt(sim.Nanosecond, "victim", func(p *sim.Proc) {
					op.do(fab, p, n)
					returned = true
				})
				eng.Schedule(tc.killAt, victim.Kill)
				// Queued behind the victim on port 1 from 50 µs on; alone on
				// the fabric it takes the same time as any 64 KB write.
				var heirTook sim.Time
				var heirErr error
				eng.SpawnAt(20*sim.Millisecond, "heir", func(p *sim.Proc) {
					fab.Endpoint(2).Restore()
					heirErr = fab.RDMAWrite(p, 1, 2, 0, make([]byte, n))
					heirTook = p.Now() - 20*sim.Millisecond
				})
				eng.Run()
				if returned || !victim.Done() {
					t.Fatalf("victim returned=%v done=%v, want killed inside the operation", returned, victim.Done())
				}
				if want := cfg.SoftwareLatency + fab.transferTime(n) + tc.service; heirErr != nil || heirTook != want {
					t.Errorf("heir: err %v after %v, want nil after %v: the kill leaked a port", heirErr, heirTook, want)
				}
				for id := EndpointID(1); id <= 3; id++ {
					if ep := fab.Endpoint(id); ep.link.InUse() != 0 || ep.link.QueueLen() != 0 {
						t.Errorf("endpoint %d port left inUse=%d queue=%d", id, ep.link.InUse(), ep.link.QueueLen())
					}
				}
				if eng.LiveProcs() != 0 {
					t.Errorf("stuck: %v", eng.BlockedProcs())
				}
				eng.Shutdown()
			})
		}
	}
}

// The kill lands in the very instant a port is granted: the blocker's
// release has handed its unit to the queued victim and queued the grant, and
// the kill arrives before that wake-up is dispatched. The victim unwinds out
// of the queued phase, whose guard knows only about ports the script already
// took delivery of; the granted one is given back by the kernel.
func TestKillInTheInstantOfAPortGrant(t *testing.T) {
	const n = 64 << 10
	cfg := DefaultConfig()
	for _, tc := range []struct {
		leg     string
		blocker EndpointID // the victim's port a 3->blocker transfer occupies
	}{
		{"queued on the first port", 1},
		{"holding the first port, queued on the second", 2},
	} {
		for _, op := range transferOps {
			t.Run(tc.leg+"/"+op.name, func(t *testing.T) {
				blocker := tc.blocker
				eng, fab, _ := testFabric(t, cfg, 0, rwPerm())
				c := fab.Attach(3, "c")
				c.MapWindow(0, 1<<20, make(ByteWindow, 1<<20), 0, rwPerm())
				fab.Endpoint(1).MapWindow(0, 1<<20, make(ByteWindow, 1<<20), 0, rwPerm())
				eng.Spawn("blocker", func(p *sim.Proc) {
					if err := fab.RDMAWrite(p, 3, blocker, 0, make([]byte, 1<<20)); err != nil {
						t.Errorf("blocker: %v", err)
					}
				})
				victim := eng.SpawnAt(sim.Nanosecond, "victim", func(p *sim.Proc) {
					op.do(fab, p, n)
					t.Error("victim returned")
				})
				// The blocker frees its ports when its wire time ends; a
				// zero-delay hop from that instant runs behind the release.
				eng.Schedule(cfg.SoftwareLatency+fab.transferTime(1<<20), func() {
					eng.After(0, func() {
						if link := fab.Endpoint(blocker).link; link.InUse() != 1 || link.QueueLen() != 0 || victim.Done() {
							t.Errorf("at the kill: port %d inUse=%d queue=%d, victim done=%v; want it handed to the parked victim",
								blocker, link.InUse(), link.QueueLen(), victim.Done())
						}
						victim.Kill()
					})
				})
				var heirTook sim.Time
				var heirErr error
				eng.SpawnAt(20*sim.Millisecond, "heir", func(p *sim.Proc) {
					heirErr = fab.RDMAWrite(p, 1, 2, 0, make([]byte, n))
					heirTook = p.Now() - 20*sim.Millisecond
				})
				eng.Run()
				if want := cfg.SoftwareLatency + fab.transferTime(n); heirErr != nil || heirTook != want {
					t.Errorf("heir: err %v after %v, want nil after %v: the kill leaked a port", heirErr, heirTook, want)
				}
				for id := EndpointID(1); id <= 3; id++ {
					if ep := fab.Endpoint(id); ep.link.InUse() != 0 || ep.link.QueueLen() != 0 {
						t.Errorf("endpoint %d port left inUse=%d queue=%d", id, ep.link.InUse(), ep.link.QueueLen())
					}
				}
				if eng.LiveProcs() != 0 {
					t.Errorf("stuck: %v", eng.BlockedProcs())
				}
				eng.Shutdown()
			})
		}
	}
}

// A transfer's script state comes off the fabric's free list and goes back
// when the operation returns, so steady traffic allocates none.
func TestTransfersAreRecycled(t *testing.T) {
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, rwPerm())
	eng.Spawn("client", func(p *sim.Proc) {
		var first *Transfer
		for i := 0; i < 10; i++ {
			if err := transferOps[i%3].do(fab, p, 4096); err != nil {
				t.Errorf("op %d: %v", i, err)
			}
			if len(fab.xferfree) != 1 {
				t.Fatalf("after op %d the free list holds %d transfers, want 1", i, len(fab.xferfree))
			}
			if i == 0 {
				first = fab.xferfree[0]
			} else if fab.xferfree[0] != first {
				t.Fatalf("op %d ran on a new Transfer", i)
			}
		}
		if first.payload != nil || first.data != nil || first.buf != nil || first.src != nil {
			t.Errorf("recycled transfer still references its operation: %+v", *first)
		}
	})
	eng.Run()
	eng.Shutdown()
}
