package locks

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"persistmem/internal/audit"
	"persistmem/internal/metrics"
	"persistmem/internal/sim"
)

func TestSharedLocksCoexist(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewManager(eng, "dp0")
	eng.Spawn("a", func(p *sim.Proc) {
		if err := m.Acquire(p, 7, 1, Shared, -1); err != nil {
			t.Errorf("txn1: %v", err)
		}
	})
	eng.Spawn("b", func(p *sim.Proc) {
		if err := m.Acquire(p, 7, 2, Shared, -1); err != nil {
			t.Errorf("txn2: %v", err)
		}
	})
	eng.Run()
	if m.HolderCount(7) != 2 {
		t.Errorf("HolderCount = %d, want 2", m.HolderCount(7))
	}
	m.CheckInvariants()
}

func TestExclusiveBlocksAndFIFO(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewManager(eng, "dp0")
	var order []audit.TxnID
	use := func(txn audit.TxnID, start sim.Time) {
		eng.SpawnAt(start, fmt.Sprint("t", txn), func(p *sim.Proc) {
			if err := m.Acquire(p, 7, txn, Exclusive, -1); err != nil {
				t.Errorf("txn%d: %v", txn, err)
				return
			}
			order = append(order, txn)
			p.Wait(10 * sim.Millisecond)
			m.Release(7, txn)
		})
	}
	use(1, 0)
	use(2, sim.Millisecond)
	use(3, 2*sim.Millisecond)
	eng.Run()
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Errorf("grant order = %v, want FIFO", order)
	}
	m.CheckInvariants()
	if m.LockedKeys() != 0 {
		t.Errorf("LockedKeys = %d after all released", m.LockedKeys())
	}
}

func TestSharedThenExclusiveWaits(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewManager(eng, "dp0")
	var writerAt sim.Time
	eng.Spawn("reader", func(p *sim.Proc) {
		m.Acquire(p, 7, 1, Shared, -1)
		p.Wait(50 * sim.Millisecond)
		m.Release(7, 1)
	})
	eng.SpawnAt(sim.Millisecond, "writer", func(p *sim.Proc) {
		if err := m.Acquire(p, 7, 2, Exclusive, -1); err != nil {
			t.Errorf("writer: %v", err)
			return
		}
		writerAt = p.Now()
		m.Release(7, 2)
	})
	eng.Run()
	if writerAt != 50*sim.Millisecond {
		t.Errorf("writer granted at %v, want 50ms (after reader released)", writerAt)
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewManager(eng, "dp0")
	eng.Spawn("t", func(p *sim.Proc) {
		m.Acquire(p, 7, 1, Shared, -1)
		if err := m.Acquire(p, 7, 1, Exclusive, -1); err != nil {
			t.Errorf("upgrade: %v", err)
		}
		if mode, _ := m.Holds(7, 1); mode != Exclusive {
			t.Errorf("mode after upgrade = %v", mode)
		}
	})
	eng.Run()
	m.CheckInvariants()
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewManager(eng, "dp0")
	var upgradedAt sim.Time
	eng.Spawn("other-reader", func(p *sim.Proc) {
		m.Acquire(p, 7, 2, Shared, -1)
		p.Wait(30 * sim.Millisecond)
		m.Release(7, 2)
	})
	eng.SpawnAt(sim.Millisecond, "upgrader", func(p *sim.Proc) {
		m.Acquire(p, 7, 1, Shared, -1)
		if err := m.Acquire(p, 7, 1, Exclusive, -1); err != nil {
			t.Errorf("upgrade: %v", err)
			return
		}
		upgradedAt = p.Now()
	})
	eng.Run()
	if upgradedAt != 30*sim.Millisecond {
		t.Errorf("upgraded at %v, want 30ms", upgradedAt)
	}
	m.CheckInvariants()
}

func TestReacquireIsNoop(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewManager(eng, "dp0")
	eng.Spawn("t", func(p *sim.Proc) {
		m.Acquire(p, 7, 1, Exclusive, -1)
		if err := m.Acquire(p, 7, 1, Exclusive, -1); err != nil {
			t.Errorf("reacquire X: %v", err)
		}
		if err := m.Acquire(p, 7, 1, Shared, -1); err != nil {
			t.Errorf("S under X: %v", err)
		}
	})
	eng.Run()
	if m.HolderCount(7) != 1 {
		t.Errorf("HolderCount = %d", m.HolderCount(7))
	}
}

func TestTimeoutResolvesDeadlock(t *testing.T) {
	// Classic AB-BA deadlock: both transactions time out or one proceeds
	// after the other's timeout.
	eng := sim.NewEngine(1)
	m := NewManager(eng, "dp0")
	var errs []error
	work := func(txn audit.TxnID, first, second uint64) {
		eng.Spawn(fmt.Sprint("t", txn), func(p *sim.Proc) {
			m.Acquire(p, first, txn, Exclusive, -1)
			p.Wait(sim.Millisecond)
			err := m.Acquire(p, second, txn, Exclusive, 100*sim.Millisecond)
			errs = append(errs, err)
			m.ReleaseAll(txn)
		})
	}
	work(1, 100, 200)
	work(2, 200, 100)
	eng.Run()
	timeouts := 0
	for _, err := range errs {
		if errors.Is(err, ErrLockTimeout) {
			timeouts++
		}
	}
	if timeouts == 0 {
		t.Error("deadlock did not resolve via timeout")
	}
	if m.Timeouts == 0 {
		t.Error("Timeouts stat not incremented")
	}
	m.CheckInvariants()
	if m.LockedKeys() != 0 {
		t.Errorf("locks leaked after deadlock resolution: %d", m.LockedKeys())
	}
}

func TestTimeoutDoesNotBlockQueueForever(t *testing.T) {
	// A timed-out waiter at the head of the queue must not wedge those
	// behind it.
	eng := sim.NewEngine(1)
	m := NewManager(eng, "dp0")
	var granted []audit.TxnID
	eng.Spawn("holder", func(p *sim.Proc) {
		m.Acquire(p, 7, 1, Exclusive, -1)
		p.Wait(200 * sim.Millisecond)
		m.Release(7, 1)
	})
	eng.SpawnAt(sim.Millisecond, "impatient", func(p *sim.Proc) {
		if err := m.Acquire(p, 7, 2, Exclusive, 20*sim.Millisecond); err == nil {
			t.Error("impatient waiter should time out")
			m.Release(7, 2)
		}
	})
	eng.SpawnAt(2*sim.Millisecond, "patient", func(p *sim.Proc) {
		if err := m.Acquire(p, 7, 3, Exclusive, -1); err != nil {
			t.Errorf("patient: %v", err)
			return
		}
		granted = append(granted, 3)
		m.Release(7, 3)
	})
	eng.Run()
	if fmt.Sprint(granted) != "[3]" {
		t.Errorf("granted = %v, want [3]", granted)
	}
}

func TestReleaseAll(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewManager(eng, "dp0")
	eng.Spawn("t", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			m.Acquire(p, uint64(i), 1, Exclusive, -1)
		}
	})
	eng.Run()
	if m.LockedKeys() != 10 {
		t.Fatalf("LockedKeys = %d", m.LockedKeys())
	}
	m.ReleaseAll(1)
	if m.LockedKeys() != 0 {
		t.Errorf("LockedKeys = %d after ReleaseAll", m.LockedKeys())
	}
}

// TestReleaseAllWithdrawsQueuedRequests: a transaction that ends while its
// requests wait has them withdrawn — an Exclusive request on a key another
// transaction holds, and an upgrade on a key it shares — and each waiter's
// Acquire returns ErrTxnEnded at that instant, not a grant later. The other
// waiters keep their places: txn 3, queued behind txn 2 on key 7, is granted
// once txn 1 releases. The queue law counts each withdrawal as an exit.
func TestReleaseAllWithdrawsQueuedRequests(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewManager(eng, "dp0")
	reg := metrics.NewRegistry()
	m.SetMetrics(reg.Locks)
	type result struct {
		err error
		at  sim.Time
	}
	got := map[string]result{}
	acquire := func(name string, start sim.Time, key uint64, txn audit.TxnID, mode Mode) {
		eng.SpawnAt(start, name, func(p *sim.Proc) {
			err := m.Acquire(p, key, txn, mode, sim.Second)
			got[name] = result{err, p.Now()}
		})
	}
	acquire("t1-x7", 0, 7, 1, Exclusive)
	acquire("t1-s8", 0, 8, 1, Shared)
	acquire("t2-s8", 0, 8, 2, Shared)
	acquire("t2-x7", sim.Millisecond, 7, 2, Exclusive)
	acquire("t2-x8", sim.Millisecond, 8, 2, Exclusive) // an upgrade: txn 1 shares key 8
	acquire("t3-s7", 2*sim.Millisecond, 7, 3, Shared)
	eng.SpawnAt(5*sim.Millisecond, "end2", func(p *sim.Proc) { m.ReleaseAll(2) })
	eng.SpawnAt(9*sim.Millisecond, "end1", func(p *sim.Proc) { m.ReleaseAll(1) })
	eng.Run()
	for name, want := range map[string]result{
		"t2-x7": {ErrTxnEnded, 5 * sim.Millisecond},
		"t2-x8": {ErrTxnEnded, 5 * sim.Millisecond},
		"t3-s7": {nil, 9 * sim.Millisecond},
	} {
		if r := got[name]; !errors.Is(r.err, want.err) || r.at != want.at || (want.err == nil) != (r.err == nil) {
			t.Errorf("%s: %v at %v, want %v at %v", name, r.err, r.at, want.err, want.at)
		}
	}
	if _, held := m.Holds(8, 2); held {
		t.Error("txn 2 still holds key 8 after it ended")
	}
	if mode, held := m.Holds(7, 3); !held || mode != Shared {
		t.Errorf("txn 3 holds key 7: %v %v, want Shared", mode, held)
	}
	m.ReleaseAll(3)
	if m.LockedKeys() != 0 {
		t.Errorf("LockedKeys = %d after every transaction ended", m.LockedKeys())
	}
	l := reg.Locks
	if l.Enters.Value() != 3 || l.Exits.Value() != 3 || l.Timeouts.Value() != 0 || l.Queued.Value() != 0 {
		t.Errorf("queue enters %d, exits %d, timeouts %d, queued %d; want 3, 3, 0, 0",
			l.Enters.Value(), l.Exits.Value(), l.Timeouts.Value(), l.Queued.Value())
	}
	if errs := reg.CheckConservation(); len(errs) != 0 {
		t.Errorf("conservation: %v", errs)
	}
}

// Property: under random workloads of acquire/release with timeouts, the
// compatibility invariants always hold and no lock state leaks once all
// transactions release.
func TestLockInvariantProperty(t *testing.T) {
	type op struct {
		Txn  uint8
		Key  uint8
		Excl bool
	}
	prop := func(ops []op) bool {
		if len(ops) > 60 {
			ops = ops[:60]
		}
		eng := sim.NewEngine(7)
		m := NewManager(eng, "prop")
		violated := false
		for i, o := range ops {
			o := o
			txn := audit.TxnID(o.Txn%8 + 1)
			key := uint64(o.Key % 4)
			eng.SpawnAt(sim.Time(i)*sim.Microsecond, fmt.Sprint("p", i), func(p *sim.Proc) {
				mode := Shared
				if o.Excl {
					mode = Exclusive
				}
				if err := m.Acquire(p, key, txn, mode, 5*sim.Millisecond); err == nil {
					func() {
						defer func() {
							if recover() != nil {
								violated = true
							}
						}()
						m.CheckInvariants()
					}()
					p.Wait(sim.Time(o.Key%3) * sim.Millisecond)
					m.Release(key, txn)
				}
			})
		}
		eng.Run()
		for txn := audit.TxnID(1); txn <= 8; txn++ {
			m.ReleaseAll(txn)
		}
		return !violated && m.LockedKeys() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTryAcquireGrantsExactlyWhenAcquireWouldNotWait sets up each lock
// state a request can meet — held by others, by the requester, with a queue
// — and asks txn 1 for the lock both ways: TryAcquire, and on a copy of the
// state Acquire with a zero timeout. They must agree with the table and with
// each other, and a refused TryAcquire must leave the lock as it was.
func TestTryAcquireGrantsExactlyWhenAcquireWouldNotWait(t *testing.T) {
	type hold struct {
		txn  audit.TxnID
		mode Mode
	}
	for _, tc := range []struct {
		name   string
		held   []hold // granted in order
		queued *hold  // then queued behind them
		mode   Mode   // txn 1's request
		want   bool
	}{
		{"free/S", nil, nil, Shared, true},
		{"free/X", nil, nil, Exclusive, true},
		{"own S/S", []hold{{1, Shared}}, nil, Shared, true},
		{"own X/S", []hold{{1, Exclusive}}, nil, Shared, true},
		{"own X/X", []hold{{1, Exclusive}}, nil, Exclusive, true},
		{"own S, sole/X upgrades", []hold{{1, Shared}}, nil, Exclusive, true},
		{"own S, sole, a queue/X upgrades", []hold{{1, Shared}}, &hold{3, Exclusive}, Exclusive, true},
		{"own S, another S/X", []hold{{1, Shared}, {2, Shared}}, nil, Exclusive, false},
		{"other S/S", []hold{{2, Shared}}, nil, Shared, true},
		{"other S, a queue/S", []hold{{2, Shared}}, &hold{3, Exclusive}, Shared, false},
		{"other S/X", []hold{{2, Shared}}, nil, Exclusive, false},
		{"other X/S", []hold{{2, Exclusive}}, nil, Shared, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setup := func() (*sim.Engine, *Manager) {
				eng := sim.NewEngine(1)
				m := NewManager(eng, "dp0")
				for _, h := range tc.held {
					if !m.TryAcquire(7, h.txn, h.mode) {
						t.Fatalf("setup: txn %d's %v refused", h.txn, h.mode)
					}
				}
				if q := tc.queued; q != nil {
					eng.Spawn("queued", func(p *sim.Proc) { m.Acquire(p, 7, q.txn, q.mode, -1) })
					eng.RunUntil(0)
				}
				return eng, m
			}
			_, m := setup()
			before, _ := m.Holds(7, 1)
			count := m.HolderCount(7)
			if got := m.TryAcquire(7, 1, tc.mode); got != tc.want {
				t.Errorf("TryAcquire = %v, want %v", got, tc.want)
			} else if !got {
				if after, _ := m.Holds(7, 1); after != before || m.HolderCount(7) != count {
					t.Errorf("a refused TryAcquire changed the lock: mode %v → %v, %d → %d holders", before, after, count, m.HolderCount(7))
				}
			}
			m.CheckInvariants()

			eng, m := setup()
			var err error
			eng.Spawn("acquire", func(p *sim.Proc) { err = m.Acquire(p, 7, 1, tc.mode, 0) })
			eng.RunUntil(0)
			if (err == nil) != tc.want {
				t.Errorf("Acquire with no wait allowed: %v; TryAcquire says %v", err, tc.want)
			}
		})
	}
}

// TestTryAcquireAllocatesNothing: granting and releasing a lock that no one
// else holds costs no allocation once the manager's pools are warm.
func TestTryAcquireAllocatesNothing(t *testing.T) {
	m := NewManager(sim.NewEngine(1), "dp0")
	m.TryAcquire(7, 1, Exclusive)
	m.Release(7, 1)
	if n := testing.AllocsPerRun(100, func() {
		if !m.TryAcquire(7, 1, Exclusive) || !m.TryAcquire(7, 1, Shared) {
			t.Fatal("refused a free lock")
		}
		m.ReleaseAll(1)
	}); n != 0 {
		t.Errorf("TryAcquire and ReleaseAll allocate %.1f objects a lock, want 0", n)
	}
}
