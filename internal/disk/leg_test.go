package disk

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"persistmem/internal/sim"
)

// legScript drives one WriteLeg through a run of writes from its own step
// function, as a process walking a longer script keeps one: it arms the next
// write when the last is over, parked the whole time.
type legScript struct {
	w    WriteLeg
	v    *Volume
	offs []int64
	size int

	done []sim.Time // each write's completion instant
	errs []error
}

// next arms writes until one has to wait, reporting true once all are over.
func (s *legScript) next(p *sim.Proc) bool {
	for len(s.done) < len(s.offs) {
		if !s.w.Write(s.v, p, s.offs[len(s.done)], make([]byte, s.size)) {
			return false
		}
		s.over(p)
	}
	return true
}

func (s *legScript) over(p *sim.Proc) {
	s.done = append(s.done, p.Now())
	s.errs = append(s.errs, s.w.Err())
}

func (s *legScript) Step(p *sim.Proc) bool {
	if !s.w.Step(p) {
		return false
	}
	s.over(p)
	return s.next(p)
}

// run spawns the script as a process that parks on it once, its leg's Abort
// deferred as the kill guard.
func (s *legScript) run(eng *sim.Engine, name string) *sim.Proc {
	return eng.Spawn(name, func(p *sim.Proc) {
		defer s.w.Abort()
		if !s.next(p) {
			p.ParkScript(s)
		}
	})
}

// writerOffsets are three writers' writes, each writer's sequential in a
// region of its own 64 KiB past the last's: served in turn at the arm, a
// write continues the one before it, and each round's first goes back and
// seeks.
func writerOffsets() [][]int64 {
	var offs [][]int64
	for i := int64(0); i < 3; i++ {
		offs = append(offs, []int64{i << 16, i<<16 + 4096, i<<16 + 8192, i<<16 + 12288})
	}
	return offs
}

// TestWriteLegMatchesBlockingWrite: three writers sharing an arm, each
// writing through a WriteLeg from its own step function, see every write
// complete at the instant the blocking Volume.Write returns, and leave the
// volume the same Stats — on a write-through volume, where the arm is
// contended, and on a write-cached one, whose destages contend instead.
func TestWriteLegMatchesBlockingWrite(t *testing.T) {
	for _, cached := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.WriteCache = cached
		offs := writerOffsets()

		eng := sim.NewEngine(3)
		blocking := New(eng, "d0", cfg, 1<<24)
		want := make([][]sim.Time, len(offs))
		for i, o := range offs {
			eng.Spawn("w", func(p *sim.Proc) {
				for _, off := range o {
					if err := blocking.Write(p, off, make([]byte, 4096)); err != nil {
						t.Errorf("Write: %v", err)
					}
					want[i] = append(want[i], p.Now())
				}
			})
		}
		eng.Run()
		eng.Shutdown()

		eng = sim.NewEngine(3)
		stepped := New(eng, "d0", cfg, 1<<24)
		scripts := make([]*legScript, len(offs))
		for i, o := range offs {
			scripts[i] = &legScript{v: stepped, offs: o, size: 4096}
			scripts[i].run(eng, "w")
		}
		eng.Run()
		eng.Shutdown()

		for i, s := range scripts {
			if !reflect.DeepEqual(s.done, want[i]) {
				t.Errorf("cached=%v: writer %d's writes complete at %v stepped, at %v blocking", cached, i, s.done, want[i])
			}
			for j, err := range s.errs {
				if err != nil {
					t.Errorf("cached=%v: writer %d's write %d: %v", cached, i, j, err)
				}
			}
		}
		if stepped.Stats != blocking.Stats {
			t.Errorf("cached=%v: Stats %+v stepped, %+v blocking", cached, stepped.Stats, blocking.Stats)
		}
		st := blocking.Stats
		if st.Writes != 12 || st.SeqWrites == 0 || st.BusyTime == 0 || st.StackTime != 12*cfg.StackOverhead {
			t.Errorf("cached=%v: Writes %d, SeqWrites %d, BusyTime %v, StackTime %v; want 12 writes, some sequential, the arm busy, 12 stack overheads",
				cached, st.Writes, st.SeqWrites, st.BusyTime, st.StackTime)
		}
		if contended := st.MaxQueueObserve > 0; contended == cached {
			t.Errorf("cached=%v: MaxQueueObserve %d: the writers should meet at the arm exactly when it is write-through", cached, st.MaxQueueObserve)
		}
		// The first write seeks: stack overhead, positioning and transfer, or
		// stack overhead and the cache copy.
		first := cfg.StackOverhead + cfg.SeekTime + cfg.RotationalLatency + blocking.transfer(4096)
		if cached {
			first = cfg.StackOverhead + cfg.CacheLatency
		}
		if want[0][0] != first {
			t.Errorf("cached=%v: the first write completes at %v, want %v", cached, want[0][0], first)
		}
	}
}

// TestWriteLegKillDuringServiceFreesTheArm: a process killed while its
// WriteLeg holds the arm in service gives the arm back through the leg's
// Abort, its kill guard, and the next write is served.
func TestWriteLegKillDuringServiceFreesTheArm(t *testing.T) {
	eng := sim.NewEngine(3)
	v := New(eng, "d0", DefaultConfig(), 1<<25)
	s := &legScript{v: v, offs: []int64{0}, size: 16 << 20} // a long transfer
	victim := s.run(eng, "victim")
	held := -1
	eng.Spawn("killer", func(p *sim.Proc) {
		p.Wait(5 * sim.Millisecond)
		if v.ArmInUse() != 1 {
			t.Errorf("the arm is not held 5 ms into a 16 MiB write")
		}
		victim.Kill()
		p.Wait(0)
		held = v.ArmInUse()
	})
	var heirErr error = errors.New("never ran")
	eng.Spawn("heir", func(p *sim.Proc) {
		p.Wait(10 * sim.Millisecond)
		heirErr = v.Write(p, 0, make([]byte, 4096))
	})
	eng.RunUntil(5 * sim.Second)
	if held != 0 {
		t.Errorf("the arm is held by %d after the kill, want 0", held)
	}
	if heirErr != nil {
		t.Errorf("the next write after the kill: %v", heirErr)
	}
	if len(s.done) != 0 {
		t.Errorf("the killed write completed at %v", s.done)
	}
	eng.Shutdown()
}

// TestWriteLegFailDuringStackOverhead: a volume that fails while a WriteLeg
// is still in the host's storage stack fails the write with ErrVolumeDown
// before it reaches the media or the arm; one down before the write begins
// fails it at once, with nothing armed.
func TestWriteLegFailDuringStackOverhead(t *testing.T) {
	eng := sim.NewEngine(3)
	cfg := DefaultConfig()
	v := New(eng, "d0", cfg, 1<<20)
	s := &legScript{v: v, offs: []int64{0, 4096}, size: 512}
	s.run(eng, "c")
	failAt(eng, v, cfg.StackOverhead/2)
	eng.Run()
	if len(s.errs) != 2 || !errors.Is(s.errs[0], ErrVolumeDown) || !errors.Is(s.errs[1], ErrVolumeDown) {
		t.Fatalf("writes with the volume failing mid-stack, then down: %v, want ErrVolumeDown twice", s.errs)
	}
	if s.done[0] != cfg.StackOverhead || s.done[1] != cfg.StackOverhead {
		t.Errorf("the writes failed at %v, want both at the stack overhead's end %v", s.done, cfg.StackOverhead)
	}
	if v.Stats.BusyTime != 0 || v.Stats.Writes != 0 || v.Stats.StackTime != cfg.StackOverhead {
		t.Errorf("busy %v, writes %d, stack time %v; want nothing past one stack overhead", v.Stats.BusyTime, v.Stats.Writes, v.Stats.StackTime)
	}
	eng.Shutdown()
}

// A wake-up for a leg with nothing armed is a programming error, and loud.
func TestWriteLegIdleStepPanics(t *testing.T) {
	v := New(sim.NewEngine(3), "d0", DefaultConfig(), 1<<20)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "with nothing armed") {
			t.Errorf("an idle leg's Step panicked with %q, want it to say nothing is armed", msg)
		}
	}()
	w := WriteLeg{v: v}
	w.Step(nil)
}
