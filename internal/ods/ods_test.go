package ods

import (
	"errors"
	"fmt"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/dp2"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

// smallOptions returns a compact store for tests: 2 files × 2 partitions
// over 4 volumes, retaining data so reads and crash checks work.
func smallOptions(d Durability) Options {
	o := DefaultOptions()
	o.Files = []FileSpec{{Name: "TRADES", Partitions: 2}, {Name: "ORDERS", Partitions: 2}}
	o.DataVolumes = 4
	o.Durability = d
	o.RetainData = true
	o.DataVolumeBytes = 64 << 20
	o.AuditVolumeBytes = 64 << 20
	o.PMRegionBytes = 8 << 20
	return o
}

// runClient spawns body as a client on CPU 3 and drives the sim.
func runClient(s *Store, body func(se *Session)) {
	s.Cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		body(s.NewSession(p))
	})
	s.Eng.Run()
}

func TestCommitAndReadBack(t *testing.T) {
	for _, d := range []Durability{DiskDurability, PMDurability, PMDirectDurability} {
		t.Run(d.String(), func(t *testing.T) {
			s := Build(smallOptions(d))
			runClient(s, func(se *Session) {
				txn, err := se.Begin()
				if err != nil {
					t.Fatalf("Begin: %v", err)
				}
				for k := uint64(1); k <= 8; k++ {
					if err := txn.InsertAsync("TRADES", k, []byte(fmt.Sprintf("trade-%d", k))); err != nil {
						t.Fatalf("InsertAsync: %v", err)
					}
				}
				if err := txn.Commit(); err != nil {
					t.Fatalf("Commit: %v", err)
				}
				for k := uint64(1); k <= 8; k++ {
					body, err := se.ReadBrowse("TRADES", k)
					if err != nil {
						t.Fatalf("ReadBrowse(%d): %v", k, err)
					}
					if string(body) != fmt.Sprintf("trade-%d", k) {
						t.Errorf("key %d = %q", k, body)
					}
				}
			})
			s.Eng.Shutdown()
		})
	}
}

func TestAbortUndoesInserts(t *testing.T) {
	s := Build(smallOptions(DiskDurability))
	runClient(s, func(se *Session) {
		txn, _ := se.Begin()
		txn.InsertAsync("TRADES", 42, []byte("doomed"))
		if err := txn.Abort(); err != nil {
			t.Fatalf("Abort: %v", err)
		}
		if _, err := se.ReadBrowse("TRADES", 42); !errors.Is(err, dp2.ErrNotFound) {
			t.Errorf("read after abort: %v, want ErrNotFound", err)
		}
		// The key is free for reuse.
		txn2, _ := se.Begin()
		txn2.InsertAsync("TRADES", 42, []byte("second life"))
		if err := txn2.Commit(); err != nil {
			t.Fatalf("reuse commit: %v", err)
		}
	})
	s.Eng.Shutdown()
}

// TestEndedHandleCannotActOnALaterTxn holds the ErrTxnDone contract across
// Begins: a handle kept past its commit gets ErrTxnDone from every method
// once the session has begun another transaction, and the later transaction
// commits exactly its own rows. A session that handed back one pooled handle
// would let the old one insert into, commit or abort the new transaction.
func TestEndedHandleCannotActOnALaterTxn(t *testing.T) {
	s := Build(smallOptions(DiskDurability))
	runClient(s, func(se *Session) {
		old, err := se.Begin()
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		if err := old.Insert("TRADES", 1, []byte("old")); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := old.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		cur, err := se.Begin()
		if err != nil {
			t.Fatalf("second Begin: %v", err)
		}
		if err := cur.InsertAsync("TRADES", 2, []byte("cur")); err != nil {
			t.Fatalf("InsertAsync: %v", err)
		}

		if err := old.InsertAsync("TRADES", 3, []byte("stray")); !errors.Is(err, ErrTxnDone) {
			t.Errorf("old InsertAsync = %v, want ErrTxnDone", err)
		}
		if _, err := old.Read("TRADES", 2); !errors.Is(err, ErrTxnDone) {
			t.Errorf("old Read = %v, want ErrTxnDone", err)
		}
		if err := old.WaitPending(); !errors.Is(err, ErrTxnDone) {
			t.Errorf("old WaitPending = %v, want ErrTxnDone", err)
		}
		if err := old.Commit(); !errors.Is(err, ErrTxnDone) {
			t.Errorf("old Commit = %v, want ErrTxnDone", err)
		}
		if err := old.Abort(); !errors.Is(err, ErrTxnDone) {
			t.Errorf("old Abort = %v, want ErrTxnDone", err)
		}
		if err := (Txn{}).Commit(); !errors.Is(err, ErrTxnDone) {
			t.Errorf("zero Txn Commit = %v, want ErrTxnDone", err)
		}

		if err := cur.Commit(); err != nil {
			t.Fatalf("Commit of the later transaction: %v", err)
		}
		if err := cur.Abort(); !errors.Is(err, ErrTxnDone) {
			t.Errorf("Abort after Commit = %v, want ErrTxnDone", err)
		}
		for key, want := range map[uint64]string{1: "old", 2: "cur"} {
			if body, err := se.ReadBrowse("TRADES", key); err != nil || string(body) != want {
				t.Errorf("row %d = %q, %v; want %q", key, body, err, want)
			}
		}
		if _, err := se.ReadBrowse("TRADES", 3); !errors.Is(err, dp2.ErrNotFound) {
			t.Errorf("the stale handle's row: %v, want ErrNotFound", err)
		}
	})
	s.Eng.Shutdown()
}

func TestDuplicateKeyFailsCommit(t *testing.T) {
	s := Build(smallOptions(DiskDurability))
	runClient(s, func(se *Session) {
		txn, _ := se.Begin()
		txn.InsertAsync("TRADES", 7, []byte("first"))
		if err := txn.Commit(); err != nil {
			t.Fatalf("first commit: %v", err)
		}
		txn2, _ := se.Begin()
		txn2.InsertAsync("TRADES", 7, []byte("dup"))
		err := txn2.Commit()
		if !errors.Is(err, ErrInsertFailed) {
			t.Errorf("duplicate commit: %v, want ErrInsertFailed", err)
		}
		// Original row untouched.
		body, _ := se.ReadBrowse("TRADES", 7)
		if string(body) != "first" {
			t.Errorf("row = %q after failed duplicate", body)
		}
	})
	s.Eng.Shutdown()
}

func TestTxnReadRepeatable(t *testing.T) {
	s := Build(smallOptions(DiskDurability))
	runClient(s, func(se *Session) {
		setup, _ := se.Begin()
		setup.InsertAsync("ORDERS", 5, []byte("v1"))
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}
		txn, _ := se.Begin()
		v, err := txn.Read("ORDERS", 5)
		if err != nil || string(v) != "v1" {
			t.Fatalf("txn read: %q, %v", v, err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("read-only commit: %v", err)
		}
	})
	s.Eng.Shutdown()
}

func TestLockConflictSerializes(t *testing.T) {
	// Two concurrent transactions insert the same key: exactly one commits.
	s := Build(smallOptions(DiskDurability))
	results := make(map[string]error)
	for i, cpu := range []int{2, 3} {
		name := fmt.Sprintf("client%d", i)
		s.Cl.CPU(cpu).Spawn(name, func(p *cluster.Process) {
			se := s.NewSession(p)
			txn, err := se.Begin()
			if err != nil {
				results[name] = err
				return
			}
			txn.InsertAsync("TRADES", 99, []byte(name))
			results[name] = txn.Commit()
		})
	}
	s.Eng.Run()
	committed := 0
	for name, err := range results {
		if err == nil {
			committed++
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
	if committed != 1 {
		t.Errorf("%d transactions committed on the same key, want exactly 1", committed)
	}
	s.Eng.Shutdown()
}

func TestPMCommitFasterThanDisk(t *testing.T) {
	// The core claim: commit latency collapses with PM audit.
	measure := func(d Durability) sim.Time {
		s := Build(smallOptions(d))
		var commitTime sim.Time
		runClient(s, func(se *Session) {
			// Warm up (regions opened, ADPs settled).
			w, _ := se.Begin()
			w.InsertAsync("TRADES", 1, make([]byte, 4096))
			w.Commit()
			txn, _ := se.Begin()
			for k := uint64(10); k < 18; k++ {
				txn.InsertAsync("TRADES", k, make([]byte, 4096))
			}
			txn.WaitPending()
			start := se.p.Now()
			if err := txn.Commit(); err != nil {
				t.Fatalf("%v commit: %v", d, err)
			}
			commitTime = se.p.Now() - start
		})
		s.Eng.Shutdown()
		return commitTime
	}
	diskT := measure(DiskDurability)
	pmT := measure(PMDurability)
	if pmT >= diskT {
		t.Fatalf("PM commit (%v) not faster than disk commit (%v)", pmT, diskT)
	}
	if diskT < 2*sim.Millisecond {
		t.Errorf("disk commit %v implausibly fast (storage gap missing)", diskT)
	}
	if pmT > 2*sim.Millisecond {
		t.Errorf("PM commit %v implausibly slow", pmT)
	}
	t.Logf("commit latency: disk=%v pm=%v speedup=%.1fx", diskT, pmT, float64(diskT)/float64(pmT))
}

func TestGroupCommitBatchesConcurrentSessions(t *testing.T) {
	s := Build(smallOptions(DiskDurability))
	done := 0
	for c := 0; c < 4; c++ {
		c := c
		s.Cl.CPU(c).Spawn(fmt.Sprintf("driver%d", c), func(p *cluster.Process) {
			se := s.NewSession(p)
			for i := 0; i < 6; i++ {
				txn, err := se.Begin()
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				key := uint64(c*1000 + i)
				txn.InsertAsync("TRADES", key, make([]byte, 1024))
				txn.InsertAsync("ORDERS", key, make([]byte, 1024))
				if err := txn.Commit(); err != nil {
					t.Errorf("driver%d commit %d: %v", c, i, err)
					return
				}
			}
			done++
		})
	}
	s.Eng.Run()
	if done != 4 {
		t.Fatalf("only %d/4 drivers finished", done)
	}
	grouped := int64(0)
	for _, a := range s.ADPs {
		grouped += a.Stats().GroupedCommits
	}
	if grouped == 0 {
		t.Error("no commits were grouped despite 4 concurrent drivers")
	}
	s.Eng.Shutdown()
}

func TestADPTakeoverPreservesDurability(t *testing.T) {
	// Kill the ADP primary process mid-run (software fault): committed
	// transactions must keep committing after takeover, and the unflushed
	// buffer survives via checkpoints.
	s := Build(smallOptions(DiskDurability))
	runClient(s, func(se *Session) {
		txn, _ := se.Begin()
		txn.InsertAsync("TRADES", 1, []byte("before"))
		if err := txn.Commit(); err != nil {
			t.Fatalf("pre-failure commit: %v", err)
		}
		s.ADPs[0].Pair().KillPrimary()
		// Immediately try more transactions; they retry through the
		// takeover window.
		deadline := se.p.Now() + 10*sim.Second
		k := uint64(100)
		committed := 0
		for committed < 3 {
			if se.p.Now() > deadline {
				t.Fatal("transactions never resumed after ADP takeover")
			}
			txn, err := se.Begin()
			if err != nil {
				se.p.Wait(50 * sim.Millisecond)
				continue
			}
			txn.InsertAsync("TRADES", k, []byte("after"))
			if err := txn.Commit(); err != nil {
				se.p.Wait(50 * sim.Millisecond)
				k++
				continue
			}
			committed++
			k++
		}
	})
	if s.ADPs[0].Pair().Takeovers != 1 {
		t.Errorf("ADP takeovers = %d, want 1", s.ADPs[0].Pair().Takeovers)
	}
	s.Eng.Shutdown()
}

func TestDP2TakeoverKeepsCache(t *testing.T) {
	s := Build(smallOptions(DiskDurability))
	runClient(s, func(se *Session) {
		txn, _ := se.Begin()
		txn.InsertAsync("TRADES", 2, []byte("cached")) // partition 0
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		name := s.DP2Name("TRADES", 0)
		s.DP2s[name].Pair().KillPrimary()
		se.p.Wait(cluster.TakeoverDelay + 100*sim.Millisecond)
		body, err := se.ReadBrowse("TRADES", 2)
		if err != nil {
			t.Fatalf("read after DP2 takeover: %v", err)
		}
		if string(body) != "cached" {
			t.Errorf("row after takeover = %q", body)
		}
		if s.DP2s[name].Pair().Takeovers != 1 {
			t.Errorf("takeovers = %d", s.DP2s[name].Pair().Takeovers)
		}
	})
	s.Eng.Shutdown()
}

func TestDeterministicElapsedTime(t *testing.T) {
	run := func() sim.Time {
		s := Build(smallOptions(PMDurability))
		var end sim.Time
		runClient(s, func(se *Session) {
			for i := 0; i < 5; i++ {
				txn, _ := se.Begin()
				for j := 0; j < 4; j++ {
					txn.InsertAsync("TRADES", uint64(i*10+j), make([]byte, 2048))
				}
				if err := txn.Commit(); err != nil {
					t.Fatalf("commit: %v", err)
				}
			}
			end = se.p.Now()
		})
		s.Eng.Shutdown()
		return end
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs took %v and %v; simulation not deterministic", a, b)
	}
}

func TestWritebackDestagesDirtyData(t *testing.T) {
	s := Build(smallOptions(DiskDurability))
	runClient(s, func(se *Session) {
		for i := 0; i < 10; i++ {
			txn, _ := se.Begin()
			for j := 0; j < 8; j++ {
				txn.InsertAsync("TRADES", uint64(i*100+j), make([]byte, 4096))
			}
			if err := txn.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
		// Give the destager time to run.
		se.p.Wait(2 * sim.Second)
	})
	var written int64
	for _, d := range s.DP2s {
		written += d.Stats().WrittenBack
	}
	if written == 0 {
		t.Error("no dirty data was destaged to data volumes")
	}
	s.Eng.Shutdown()
}

func TestPMModeWritesNoAuditToDisk(t *testing.T) {
	s := Build(smallOptions(PMDurability))
	runClient(s, func(se *Session) {
		txn, _ := se.Begin()
		txn.InsertAsync("TRADES", 1, make([]byte, 4096))
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	})
	if len(s.AuditVolumes) != 0 {
		t.Error("PM store created audit volumes")
	}
	pmWrites := int64(0)
	for _, a := range s.ADPs {
		pmWrites += a.Stats().PMWrites
	}
	if pmWrites == 0 {
		t.Error("no PM writes recorded in PM mode")
	}
	s.Eng.Shutdown()
}

func TestPMDirectCommitFastest(t *testing.T) {
	// §3.4's vision: persisting once at the database writer beats even
	// the PM-audit prototype, because commit needs no log-writer round
	// trips at all.
	measure := func(d Durability) sim.Time {
		s := Build(smallOptions(d))
		var commitTime sim.Time
		runClient(s, func(se *Session) {
			w, _ := se.Begin()
			w.InsertAsync("TRADES", 1, make([]byte, 4096))
			w.Commit()
			txn, _ := se.Begin()
			for k := uint64(10); k < 18; k++ {
				txn.InsertAsync("TRADES", k, make([]byte, 4096))
			}
			txn.WaitPending()
			start := se.p.Now()
			if err := txn.Commit(); err != nil {
				t.Fatalf("%v commit: %v", d, err)
			}
			commitTime = se.p.Now() - start
		})
		s.Eng.Shutdown()
		return commitTime
	}
	pm := measure(PMDurability)
	direct := measure(PMDirectDurability)
	if direct >= pm {
		t.Errorf("PMDirect commit (%v) not faster than PM-audit commit (%v)", direct, pm)
	}
	t.Logf("commit latency: pm=%v pmdirect=%v", pm, direct)
}

func TestPMDirectHasNoLogWriters(t *testing.T) {
	s := Build(smallOptions(PMDirectDurability))
	if len(s.ADPs) != 0 {
		t.Errorf("PMDirect store created %d ADPs, want 0", len(s.ADPs))
	}
	if len(s.AuditVolumes) != 0 {
		t.Errorf("PMDirect store created %d audit volumes, want 0", len(s.AuditVolumes))
	}
	runClient(s, func(se *Session) {
		txn, _ := se.Begin()
		txn.InsertAsync("TRADES", 1, make([]byte, 1024))
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	})
	var pmWrites int64
	for _, d := range s.DP2s {
		pmWrites += d.Stats().PMLogWrites
	}
	if pmWrites == 0 {
		t.Error("no DP2 PM log writes in PMDirect mode")
	}
	s.Eng.Shutdown()
}

// The rebuilt rows are slices of the image the rebuild read out of PM, so
// every one of them is read back, not just the first.
func TestPMDirectTakeoverRebuildsFromPM(t *testing.T) {
	s := Build(smallOptions(PMDirectDurability))
	runClient(s, func(se *Session) {
		txn, _ := se.Begin()
		txn.InsertAsync("TRADES", 2, []byte("persisted once")) // partition 0
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		rebuilt := func(k uint64) string { return fmt.Sprintf("row %d, rebuilt from PM", k) }
		more := []uint64{6, 8, 10, 12, 14, 16, 18, 20} // partition 0
		for _, keys := range [][]uint64{more[:4], more[4:]} {
			txn, _ := se.Begin()
			for _, k := range keys {
				txn.InsertAsync("TRADES", k, []byte(rebuilt(k)))
			}
			if err := txn.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
		// An aborted transaction's row must stay dead across the rebuild.
		txn2, _ := se.Begin()
		txn2.InsertAsync("TRADES", 4, []byte("aborted")) // partition 0
		txn2.WaitPending()
		if err := txn2.Abort(); err != nil {
			t.Fatalf("abort: %v", err)
		}
		name := s.DP2Name("TRADES", 0)
		s.DP2s[name].Pair().KillPrimary()
		se.p.Wait(cluster.TakeoverDelay + 200*sim.Millisecond)
		body, err := se.ReadBrowse("TRADES", 2)
		if err != nil {
			t.Fatalf("read after PMDirect takeover: %v", err)
		}
		if string(body) != "persisted once" {
			t.Errorf("row after rebuild = %q", body)
		}
		for _, k := range more {
			if body, err := se.ReadBrowse("TRADES", k); err != nil || string(body) != rebuilt(k) {
				t.Errorf("row %d after rebuild = %q, %v; want %q", k, body, err, rebuilt(k))
			}
		}
		if _, err := se.ReadBrowse("TRADES", 4); err == nil {
			t.Error("aborted row resurrected by PM rebuild")
		}
		st := s.DP2s[name].Stats()
		if st.PMRebuilds != 1 {
			t.Errorf("PMRebuilds = %d, want 1", st.PMRebuilds)
		}
	})
	s.Eng.Shutdown()
}

func TestTransactionsSurviveFabricPathFailure(t *testing.T) {
	// §4's redundant ServerNet: losing the X fabric mid-run must be
	// invisible to the transaction stream.
	s := Build(smallOptions(PMDurability))
	runClient(s, func(se *Session) {
		for i := 0; i < 6; i++ {
			if i == 3 {
				s.Cl.Fabric().FailPath(0)
			}
			txn, err := se.Begin()
			if err != nil {
				t.Fatalf("begin %d: %v", i, err)
			}
			txn.InsertAsync("TRADES", uint64(100+i), make([]byte, 2048))
			if err := txn.Commit(); err != nil {
				t.Fatalf("commit %d (path X %v): %v", i, s.Cl.Fabric().PathUp(0), err)
			}
		}
	})
	if s.Cl.Fabric().PathOps[1] == 0 {
		t.Error("no traffic crossed the Y fabric after X failed")
	}
	s.Eng.Shutdown()
}

func TestStatsRequests(t *testing.T) {
	s := Build(smallOptions(DiskDurability))
	runClient(s, func(se *Session) {
		txn, _ := se.Begin()
		txn.InsertAsync("TRADES", 1, []byte("x"))
		txn.Commit()
		treq := &tmf.StateReq{}
		if _, err := se.p.Call(s.TMF.Name(), 32, treq); err != nil {
			t.Fatalf("TMF state: %v", err)
		}
		if st := treq.Resp; st.Begins != 1 || st.Commits != 1 || st.ActiveTxns != 0 {
			t.Errorf("TMF stats = %+v", st)
		}
		dreq := &dp2.StateReq{}
		if _, err := se.p.Call(s.DP2Name("TRADES", s.PartitionOf("TRADES", 1)), 32, dreq); err != nil {
			t.Fatalf("DP2 state: %v", err)
		}
		if ds := dreq.Resp; ds.Inserts != 1 || ds.CacheRows != 1 {
			t.Errorf("DP2 stats = %+v", ds)
		}
	})
	s.Eng.Shutdown()
}

// TestStoreLifecycle covers the store-level conveniences on a timing-only
// (non-retaining) build: the partition map answers, the commit hook
// observes commits, the event counter moves, and Stop drains the service
// pairs cleanly.
func TestStoreLifecycle(t *testing.T) {
	for _, d := range []Durability{DiskDurability, PMDurability} {
		t.Run(d.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Files = []FileSpec{{Name: "FILE0", Partitions: 4}}
			opts.DataVolumes = 4
			opts.Durability = d
			s := Build(opts)
			defer s.Shutdown()
			if s.Partitions("FILE0") != 4 {
				t.Fatalf("Partitions(FILE0) = %d, want 4", s.Partitions("FILE0"))
			}
			var commits int64
			s.SetCommitHook(func(total int64) { commits = total })
			s.Cl.CPU(0).Spawn("cli", func(p *cluster.Process) {
				se := s.NewSession(p)
				tx, err := se.Begin()
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				if tx.ID() == 0 {
					t.Error("fresh transaction has a zero id")
				}
				if err := tx.InsertAsync("FILE0", 7, []byte("lifecycle-row")); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
				}
			})
			s.Run(1)
			if commits != 1 {
				t.Errorf("commit hook saw %d commits, want 1", commits)
			}
			if s.EventsExecuted() == 0 {
				t.Error("store reports zero executed events")
			}
			s.Stop()
			s.Run(1)
			if n := s.Eng.Pending(); n != 0 {
				t.Errorf("%d events still pending after Stop drained", n)
			}
		})
	}
}

// TestPMDirectTakeoverReadsTheFullerReplica detaches the primary NPMU for
// transactions 3–6, so their log writes land on the mirror alone, and
// re-attaches it before transaction 7. A takeover of every DP2 must then
// rebuild from the replica that holds the whole log: the primary's copy has
// a hole where the outage was, and a rebuild that trusted it would stop
// there and drop every later row.
func TestPMDirectTakeoverReadsTheFullerReplica(t *testing.T) {
	s := Build(smallOptions(PMDirectDurability))
	var committed []uint64
	runClient(s, func(se *Session) {
		for i := 0; i < 10; i++ {
			switch i {
			case 2:
				s.NPMUPrimary.Fail()
			case 6:
				s.NPMUPrimary.Recover()
			}
			txn, err := se.Begin()
			if err != nil {
				t.Fatalf("begin %d: %v", i, err)
			}
			for j := 0; j < 4; j++ {
				key := uint64(i*10 + j + 1)
				txn.InsertAsync("TRADES", key, []byte(fmt.Sprintf("row %d", key)))
			}
			if err := txn.Commit(); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
			for j := 0; j < 4; j++ {
				committed = append(committed, uint64(i*10+j+1))
			}
		}
		for _, f := range s.Opts.Files {
			for part := 0; part < s.Partitions(f.Name); part++ {
				s.DP2s[s.DP2Name(f.Name, part)].Pair().KillPrimary()
			}
		}
		se.p.Wait(2 * sim.Second)
		lost := 0
		for _, key := range committed {
			if body, err := se.ReadBrowse("TRADES", key); err != nil || string(body) != fmt.Sprintf("row %d", key) {
				lost++
			}
		}
		if lost > 0 {
			t.Errorf("%d of %d committed rows unreadable after the takeovers", lost, len(committed))
		}
	})
	s.Eng.Shutdown()
}
