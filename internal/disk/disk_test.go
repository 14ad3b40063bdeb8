package disk

import (
	"bytes"
	"errors"
	"testing"

	"persistmem/internal/metrics"
	"persistmem/internal/sim"
)

func TestWriteReadRoundTrip(t *testing.T) {
	eng := sim.NewEngine(3)
	v := New(eng, "d0", DefaultConfig(), 1<<20)
	data := []byte("audit trail bytes")
	eng.Spawn("c", func(p *sim.Proc) {
		if err := v.Write(p, 4096, data); err != nil {
			t.Fatalf("Write: %v", err)
		}
		buf := make([]byte, len(data))
		if err := v.Read(p, 4096, buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(buf, data) {
			t.Errorf("got %q", buf)
		}
	})
	eng.Run()
}

func TestWriteLatencyMillisecondScale(t *testing.T) {
	// The storage gap: a small synchronous write costs milliseconds.
	eng := sim.NewEngine(3)
	v := New(eng, "d0", DefaultConfig(), 1<<20)
	var took sim.Time
	eng.Spawn("c", func(p *sim.Proc) {
		start := p.Now()
		v.Write(p, 0, make([]byte, 4096))
		took = p.Now() - start
	})
	eng.Run()
	if took < sim.Millisecond || took > 50*sim.Millisecond {
		t.Errorf("4K synchronous write took %v, want ms-scale", took)
	}
}

func TestSequentialWritesSkipSeek(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine(3)
	v := New(eng, "d0", cfg, 1<<24)
	var first, second sim.Time
	eng.Spawn("c", func(p *sim.Proc) {
		s := p.Now()
		v.Write(p, 0, make([]byte, 4096))
		first = p.Now() - s
		s = p.Now()
		v.Write(p, 4096, make([]byte, 4096))
		second = p.Now() - s
	})
	eng.Run()
	if second >= first {
		t.Errorf("sequential write (%v) not cheaper than first (%v)", second, first)
	}
	// But it still pays rotational latency (write-through).
	if second < cfg.RotationalLatency {
		t.Errorf("sequential write-through write took %v, should include rotational latency %v",
			second, cfg.RotationalLatency)
	}
	if v.Stats.SeqWrites != 1 {
		t.Errorf("SeqWrites = %d, want 1", v.Stats.SeqWrites)
	}
}

func TestSequentialReadStreams(t *testing.T) {
	eng := sim.NewEngine(3)
	cfg := DefaultConfig()
	v := New(eng, "d0", cfg, 1<<24)
	var second sim.Time
	eng.Spawn("c", func(p *sim.Proc) {
		v.Read(p, 0, make([]byte, 64<<10))
		s := p.Now()
		v.Read(p, 64<<10, make([]byte, 64<<10))
		second = p.Now() - s
	})
	eng.Run()
	// Sequential read: stack + transfer only, no positioning.
	want := cfg.StackOverhead + sim.Time(int64(64<<10)*int64(sim.Second)/cfg.BytesPerSecond)
	if second != want {
		t.Errorf("sequential read took %v, want %v", second, want)
	}
}

func TestWriteCacheFastPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteCache = true
	eng := sim.NewEngine(3)
	v := New(eng, "d0", cfg, 1<<20)
	var took sim.Time
	eng.Spawn("c", func(p *sim.Proc) {
		s := p.Now()
		v.Write(p, 0, make([]byte, 4096))
		took = p.Now() - s
	})
	eng.Run()
	want := cfg.StackOverhead + cfg.CacheLatency
	if took != want {
		t.Errorf("cached write took %v, want %v", took, want)
	}
	// Destage still consumed arm time.
	if v.Stats.BusyTime == 0 {
		t.Error("write cache destage did not account arm busy time")
	}
}

func TestQueueingSerializes(t *testing.T) {
	eng := sim.NewEngine(3)
	v := New(eng, "d0", DefaultConfig(), 1<<24)
	var done []sim.Time
	for i := 0; i < 3; i++ {
		off := int64(i) * (1 << 20) // far apart: all seek
		eng.Spawn("w", func(p *sim.Proc) {
			if err := v.Write(p, off, make([]byte, 4096)); err != nil {
				t.Errorf("Write: %v", err)
			}
			done = append(done, p.Now())
		})
	}
	eng.Run()
	if len(done) != 3 {
		t.Fatalf("completed %d writes", len(done))
	}
	for i := 1; i < len(done); i++ {
		if done[i] == done[i-1] {
			t.Errorf("writes %d and %d completed simultaneously; arm should serialize", i-1, i)
		}
	}
}

func TestVolumeFail(t *testing.T) {
	eng := sim.NewEngine(3)
	v := New(eng, "d0", DefaultConfig(), 1<<20)
	v.Fail()
	eng.Spawn("c", func(p *sim.Proc) {
		if err := v.Write(p, 0, []byte{1}); !errors.Is(err, ErrVolumeDown) {
			t.Errorf("write to failed volume: %v", err)
		}
		if err := v.Read(p, 0, []byte{0}); !errors.Is(err, ErrVolumeDown) {
			t.Errorf("read from failed volume: %v", err)
		}
	})
	eng.Run()
	v.Restore()
	eng.Spawn("c2", func(p *sim.Proc) {
		if err := v.Write(p, 0, []byte{1}); err != nil {
			t.Errorf("write after restore: %v", err)
		}
	})
	eng.Run()
}

func TestContentsSurviveFail(t *testing.T) {
	eng := sim.NewEngine(3)
	v := New(eng, "d0", DefaultConfig(), 1<<20)
	eng.Spawn("c", func(p *sim.Proc) {
		v.Write(p, 0, []byte("durable"))
	})
	eng.Run()
	v.Fail()
	v.Restore()
	buf := make([]byte, 7)
	v.Store().ReadAt(0, buf)
	if string(buf) != "durable" {
		t.Errorf("contents after fail/restore = %q", buf)
	}
}

func TestDiscardVolumeTimingEqualsRetaining(t *testing.T) {
	run := func(mk func(*sim.Engine) *Volume) sim.Time {
		eng := sim.NewEngine(3)
		v := mk(eng)
		eng.Spawn("c", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				v.Write(p, int64(i)*8192, make([]byte, 8192))
			}
		})
		return eng.Run()
	}
	a := run(func(e *sim.Engine) *Volume { return New(e, "d", DefaultConfig(), 1<<20) })
	b := run(func(e *sim.Engine) *Volume { return NewDiscard(e, "d", DefaultConfig(), 1<<20) })
	if a != b {
		t.Errorf("retaining (%v) and discard (%v) volumes diverge in timing", a, b)
	}
}

func TestOutOfRangeWrite(t *testing.T) {
	eng := sim.NewEngine(3)
	v := New(eng, "d0", DefaultConfig(), 1000)
	eng.Spawn("c", func(p *sim.Proc) {
		if err := v.Write(p, 990, make([]byte, 100)); err == nil {
			t.Error("out-of-range write succeeded")
		}
	})
	eng.Run()
}

func TestKillDuringServiceDoesNotWedgeArm(t *testing.T) {
	eng := sim.NewEngine(3)
	v := New(eng, "d0", DefaultConfig(), 1<<24)
	victim := eng.Spawn("victim", func(p *sim.Proc) {
		v.Write(p, 0, make([]byte, 16<<20)) // long transfer, killed mid-way
	})
	eng.Spawn("killer", func(p *sim.Proc) {
		p.Wait(5 * sim.Millisecond)
		victim.Kill()
	})
	done := false
	eng.Spawn("heir", func(p *sim.Proc) {
		p.Wait(10 * sim.Millisecond)
		if err := v.Write(p, 0, make([]byte, 4096)); err != nil {
			t.Errorf("heir write: %v", err)
			return
		}
		done = true
	})
	eng.RunUntil(5 * sim.Second)
	if !done {
		t.Fatal("disk arm wedged after mid-service kill")
	}
	eng.Shutdown()
}

func TestUtilization(t *testing.T) {
	eng := sim.NewEngine(3)
	v := New(eng, "d0", DefaultConfig(), 1<<24)
	eng.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			v.Write(p, int64(i)<<20, make([]byte, 4096))
		}
	})
	eng.Run()
	u := v.Utilization()
	if u <= 0 || u > 1 {
		t.Errorf("Utilization = %v, want in (0,1]", u)
	}
}

// TestUtilizationBeforeTimeMoves: at virtual time zero no time has elapsed
// to be busy in, so utilization is 0, not a division by zero.
func TestUtilizationBeforeTimeMoves(t *testing.T) {
	v := New(sim.NewEngine(3), "d0", DefaultConfig(), 1<<20)
	if u := v.Utilization(); u != 0 {
		t.Errorf("Utilization at time 0 = %v, want 0", u)
	}
}

// TestVolumeAccessors: a volume reports the name and capacity it was built
// with, retaining or discarding alike.
func TestVolumeAccessors(t *testing.T) {
	eng := sim.NewEngine(3)
	for _, v := range []*Volume{New(eng, "audit0", DefaultConfig(), 1<<20), NewDiscard(eng, "audit0", DefaultConfig(), 1<<20)} {
		if v.Name() != "audit0" || v.Capacity() != 1<<20 {
			t.Errorf("Name, Capacity = %q, %d, want \"audit0\", %d", v.Name(), v.Capacity(), 1<<20)
		}
	}
}

// TestSetMetrics: an attached instrument set sees every I/O's queue wait
// and service time and the arm's busy level; a write-through write and a
// cached write's destage each hold the arm once. Detaching with nil stops
// the recording.
func TestSetMetrics(t *testing.T) {
	for _, cached := range []bool{false, true} {
		eng := sim.NewEngine(3)
		cfg := DefaultConfig()
		cfg.WriteCache = cached
		v := New(eng, "d0", cfg, 1<<20)
		ds := metrics.NewRegistry().DataDisk
		v.SetMetrics(ds)
		eng.Spawn("c", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				if err := v.Write(p, int64(i)*4096, make([]byte, 4096)); err != nil {
					t.Errorf("Write: %v", err)
				}
			}
		})
		eng.Run()
		if ds.Queue.Count() != 3 || ds.Service.Count() != 3 {
			t.Errorf("cached=%v: %d queue waits and %d services recorded, want 3 each", cached, ds.Queue.Count(), ds.Service.Count())
		}
		if ds.Service.Sum() != v.Stats.BusyTime {
			t.Errorf("cached=%v: recorded service %v, arm busy %v; want them equal", cached, ds.Service.Sum(), v.Stats.BusyTime)
		}
		if busy := ds.Arm.Busy(eng.Now()); busy <= 0 || ds.Arm.Level() != 0 {
			t.Errorf("cached=%v: arm busy fraction %v at level %d, want above 0 and the arm released", cached, busy, ds.Arm.Level())
		}

		v.SetMetrics(nil)
		eng.Spawn("c2", func(p *sim.Proc) {
			buf := make([]byte, 4096)
			if err := v.Read(p, 0, buf); err != nil {
				t.Errorf("Read: %v", err)
			}
		})
		eng.Run()
		if ds.Queue.Count() != 3 || ds.Service.Count() != 3 {
			t.Errorf("cached=%v: a detached volume still recorded (%d queue waits, %d services)", cached, ds.Queue.Count(), ds.Service.Count())
		}
	}
}

// failAt fails v once virtual time reaches at.
func failAt(eng *sim.Engine, v *Volume, at sim.Time) {
	eng.Spawn("fail", func(p *sim.Proc) {
		p.Wait(at)
		v.Fail()
	})
}

// TestFailDuringStackOverhead: a volume that fails while an I/O is still
// in the host's storage stack fails that I/O before it reaches the arm.
func TestFailDuringStackOverhead(t *testing.T) {
	for _, op := range []string{"read", "write"} {
		eng := sim.NewEngine(3)
		cfg := DefaultConfig()
		v := New(eng, "d0", cfg, 1<<20)
		var err error
		eng.Spawn("c", func(p *sim.Proc) {
			if op == "read" {
				err = v.Read(p, 0, make([]byte, 512))
			} else {
				err = v.Write(p, 0, make([]byte, 512))
			}
		})
		failAt(eng, v, cfg.StackOverhead/2)
		eng.Run()
		if !errors.Is(err, ErrVolumeDown) {
			t.Errorf("%s failed mid-stack: %v, want ErrVolumeDown", op, err)
		}
		if v.Stats.BusyTime != 0 || v.Stats.Writes != 0 {
			t.Errorf("%s failed mid-stack reached the arm: busy %v, writes %d", op, v.Stats.BusyTime, v.Stats.Writes)
		}
	}
}

// TestReadFailDuringServiceFreesArm: a volume that fails while the arm
// serves a read fails the read and leaves the arm free for the next I/O
// once the volume is restored.
func TestReadFailDuringServiceFreesArm(t *testing.T) {
	eng := sim.NewEngine(3)
	cfg := DefaultConfig()
	v := New(eng, "d0", cfg, 1<<20)
	var err error
	eng.Spawn("c", func(p *sim.Proc) {
		err = v.Read(p, 0, make([]byte, 4096))
	})
	failAt(eng, v, cfg.StackOverhead+cfg.SeekTime/2)
	eng.Run()
	if !errors.Is(err, ErrVolumeDown) {
		t.Errorf("read failed mid-service: %v, want ErrVolumeDown", err)
	}
	if v.Up() {
		t.Error("volume up after Fail")
	}
	if v.Stats.BusyTime == 0 {
		t.Error("read failed mid-service never reached the arm")
	}
	if n := v.arm.InUse(); n != 0 {
		t.Fatalf("arm held by %d after the failed read", n)
	}
	v.Restore()
	eng.Spawn("c2", func(p *sim.Proc) {
		if err := v.Read(p, 0, make([]byte, 4096)); err != nil {
			t.Errorf("read after restore: %v", err)
		}
	})
	eng.Run()
}

// TestReadQueueObserved: a read that finds another I/O waiting for the
// arm records the queue it saw.
func TestReadQueueObserved(t *testing.T) {
	eng := sim.NewEngine(3)
	v := New(eng, "d0", DefaultConfig(), 1<<24)
	for i := 0; i < 3; i++ {
		off := int64(i) * (1 << 20) // far apart: all seek
		eng.Spawn("r", func(p *sim.Proc) {
			if err := v.Read(p, off, make([]byte, 4096)); err != nil {
				t.Errorf("Read: %v", err)
			}
		})
	}
	eng.Run()
	// The first read holds the arm, the second waits for it, and the
	// third sees the second in the queue.
	if v.Stats.MaxQueueObserve != 1 {
		t.Errorf("MaxQueueObserve = %d, want 1", v.Stats.MaxQueueObserve)
	}
}
