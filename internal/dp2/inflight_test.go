package dp2

import (
	"bytes"
	"testing"

	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/sim"
)

// A cached row lives by value in its B-tree leaf, so it moves whenever the
// leaf splits, lends or shifts, and its key may be aborted and inserted
// again, or be destaged, while a volume write or a PM log write that
// concerns it is parked. These tests change the tree under each
// and hold that each finds its row again by key and stamp, and counts its
// bytes once.

// waitFor parks p in 50 µs steps until cond holds, failing after limit.
func waitFor(t *testing.T, p *cluster.Process, limit sim.Time, what string, cond func() bool) {
	t.Helper()
	for end := p.Now() + limit; !cond(); p.Wait(50 * sim.Microsecond) {
		if p.Now() > end {
			t.Fatalf("%s: not within %v", what, limit)
		}
	}
}

// TestAbortDuringItsOwnDestageLeavesTheRestDirty: a row aborted while its
// destage write is in flight has its bytes taken off the dirty count by the
// abort, so the write's completion must not take them off again. Were it to,
// the count would fall below the bytes still dirty — here to zero — and the
// row inserted during the write would never be destaged.
func TestAbortDuringItsOwnDestageLeavesTheRestDirty(t *testing.T) {
	eng, cl, d := harness(t, nil)
	vol := d.cfg.Volume
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 1, Body: rowBody(1, 1<<10)})
		call(t, p, &EndTxnReq{Txn: 1, Commit: true})
		call(t, p, &InsertReq{Txn: 2, Key: 2, Body: rowBody(2, 8<<10)})
		waitFor(t, p, settle, "the first destage write", func() bool { return vol.Stats.Writes == 1 })
		// Rows 1 and 2 are on their way to the volume: abort 2, insert 3.
		call(t, p, &EndTxnReq{Txn: 2, Commit: false})
		call(t, p, &InsertReq{Txn: 3, Key: 3, Body: rowBody(3, 2<<10)})
		call(t, p, &EndTxnReq{Txn: 3, Commit: true})
		if d.stats.Writebacks != 0 {
			t.Fatal("the first write finished before the abort: the test no longer races it")
		}
		waitFor(t, p, settle, "the first destage", func() bool { return d.stats.Writebacks == 1 })
		if st := call(t, p, &StateReq{}).Resp; st.DirtyBytes != 2<<10 {
			t.Errorf("after the first batch DirtyBytes = %d, want %d: row 3 is still dirty", st.DirtyBytes, 2<<10)
		}
		p.Wait(settle)
		st := call(t, p, &StateReq{}).Resp
		if st.Writebacks != 2 || st.WrittenBack != 11<<10 || st.DirtyBytes != 0 {
			t.Errorf("Writebacks = %d, WrittenBack = %d, DirtyBytes = %d; want 2, %d, 0: row 3 was never destaged",
				st.Writebacks, st.WrittenBack, st.DirtyBytes, 11<<10)
		}
		got := make([]byte, 2<<10)
		if err := vol.Store().ReadAt(9<<10, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, rowBody(3, 2<<10)) {
			t.Error("row 3 is not on the volume after the first batch's 9 KB")
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestDestageFindsRowsMovedDuringTheWrite runs the destager on a state image
// and, while its first write is in flight, inserts enough rows to split and
// lend the leaf that holds the batch, and aborts and reinserts one batch
// key. Every insert's body must reach the volume exactly once, back to back
// in insert order — the replaced row's in the first batch, which was already
// writing it — and the reinserted row must stay dirty through the first
// batch's completion and go last in the second.
func TestDestageFindsRowsMovedDuringTheWrite(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Shutdown()
	cl := cluster.New(eng, cluster.DefaultConfig())
	vol := disk.New(eng, "$DATA", disk.DefaultConfig(), 64<<20)
	d := &DP2{cl: cl, cfg: Config{Volume: vol, RetainData: true}}
	st := newState()
	keys := map[uint64]bool{}
	var image []byte // every insert's body, in insert order
	insert := func(txn audit.TxnID, key uint64, body []byte) {
		st.insert(insertDelta{txn: txn, key: key, body: body, blen: len(body)}, true)
		keys[key] = true
		image = append(image, body...)
	}
	// The first batch fills the root leaf: the even keys 2–124 at 64 B, key
	// 62 under a transaction still open, and a 1 MiB row that keeps the
	// write in flight for ~35 ms.
	for key := uint64(2); key <= 124; key += 2 {
		txn := audit.TxnID(1)
		if key == 62 {
			txn = 2
		}
		insert(txn, key, rowBody(key, 64))
	}
	insert(1, 1000, rowBody(1000, 1<<20))
	st.applyEnd(endDelta{txn: 1, commit: true})
	firstBatch := st.dirty
	kick := eng.NewBoundedChan("kick", 1)
	cl.CPU(1).Spawn("wb", func(p *cluster.Process) { d.writeback(p, st, kick) })
	kick.TrySend(nil)

	var secondBatch int64
	cl.CPU(2).Spawn("mutator", func(p *cluster.Process) {
		waitFor(t, p, settle, "the first destage write", func() bool { return vol.Stats.Writes == 1 })
		before := st.tree.Ref(124)
		// Odd keys between the batch's split and shift its leaf; a run
		// above it makes the full leaves lend.
		for key := uint64(1); key <= 125; key += 2 {
			insert(3, key, rowBody(key, 32))
		}
		for key := uint64(2000); key < 2200; key++ {
			insert(3, key, rowBody(key, 32))
		}
		st.applyEnd(endDelta{txn: 3, commit: true})
		st.applyEnd(endDelta{txn: 2})
		insert(4, 62, bytes.Repeat([]byte{0x5A}, 100))
		st.applyEnd(endDelta{txn: 4, commit: true})
		secondBatch = 63*32 + 200*32 + 100
		if want := firstBatch - 64 + secondBatch; st.dirty != want {
			t.Errorf("%d bytes dirty during the write, want %d: the abort took off key 62's 64", st.dirty, want)
		}
		if st.tree.Ref(124) == before {
			t.Error("key 124's row did not move: the inserts no longer split its leaf")
		}
		if d.stats.Writebacks != 0 {
			t.Fatal("the first write finished before the tree changed: the test no longer races it")
		}
		waitFor(t, p, settle, "the first destage", func() bool { return d.stats.Writebacks == 1 })
		if r, _ := st.tree.Get(62); !r.dirty() {
			t.Error("key 62's reinserted row was marked clean by the write of the row it replaced")
		}
		if st.dirty != secondBatch {
			t.Errorf("after the first batch %d bytes are dirty, want %d: those inserted during the write", st.dirty, secondBatch)
		}
	})
	eng.Run()

	if want := firstBatch + secondBatch; d.stats.Writebacks != 2 || d.stats.WrittenBack != want || vol.Stats.BytesWritten != want {
		t.Errorf("Writebacks %d, WrittenBack %d, volume bytes %d; want 2, %d, %d: a row was written twice or not at all",
			d.stats.Writebacks, d.stats.WrittenBack, vol.Stats.BytesWritten, want, want)
	}
	if st.dirty != 0 || st.dirtyq.len() != 0 {
		t.Errorf("%d bytes still dirty, %d entries queued; want none", st.dirty, st.dirtyq.len())
	}
	if st.tree.Len() != len(keys) {
		t.Errorf("%d rows cached, want %d", st.tree.Len(), len(keys))
	}
	for key := range keys {
		if r, _ := st.tree.Get(key); r.dirty() {
			t.Errorf("key %d is still dirty", key)
		}
	}
	got := make([]byte, len(image))
	if err := vol.Store().ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, image) {
		t.Error("the volume does not hold every insert's body once, back to back in insert order")
	}
}

// TestPMDirectInsertRolledBackAfterItsDestage: a PM-direct insert whose log
// write fails rolls its row out of the cache, but the write waits out the
// fabric's ack timeout first, long enough for the destager to have written
// the row and taken it off the dirty count. The rollback must take off only
// what the row still counts in; taking its bytes off again leaves the count
// short, and a later row is never destaged. Row 1 starts the destager's
// interval, and the failing insert of row 2 is sent 10 ms before that
// interval ends, so its log write is still waiting when the batch of both
// rows is written.
func TestPMDirectInsertRolledBackAfterItsDestage(t *testing.T) {
	eng, cl, d, devs := pmDirectHarness(t, nil)
	vol := d.cfg.Volume
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		call(t, p, &StateReq{}) // answered once the log region is open
		start := p.Now()
		call(t, p, &InsertReq{Txn: 1, Key: 1, Body: rowBody(1, 1<<10)})
		call(t, p, &EndTxnReq{Txn: 1, Commit: true})
		p.Wait(start + writebackInterval - 10*sim.Millisecond - p.Now())
		devs[0].Fail()
		devs[1].Fail()
		if resp := call(t, p, &InsertReq{Txn: 2, Key: 2, Body: rowBody(2, 2<<10)}).Resp; resp.Err == nil {
			t.Fatal("an insert with both NPMUs down succeeded")
		}
		if d.stats.Writebacks != 1 || d.stats.WrittenBack != 3<<10 {
			t.Fatalf("Writebacks = %d of %d bytes while the log write waited, want 1 of %d: row 2 was not destaged before its rollback",
				d.stats.Writebacks, d.stats.WrittenBack, 3<<10)
		}
		devs[0].Recover()
		devs[1].Recover()
		call(t, p, &EndTxnReq{Txn: 2, Commit: false})
		if resp := call(t, p, &InsertReq{Txn: 3, Key: 3, Body: rowBody(3, 1<<10)}).Resp; resp.Err != nil {
			t.Fatalf("insert 3: %v", resp.Err)
		}
		call(t, p, &EndTxnReq{Txn: 3, Commit: true})
		p.Wait(settle)
		st := call(t, p, &StateReq{}).Resp
		if st.Writebacks != 2 || st.WrittenBack != 4<<10 || st.DirtyBytes != 0 || st.CacheRows != 2 {
			t.Errorf("Writebacks %d, WrittenBack %d, DirtyBytes %d, CacheRows %d; want 2, %d, 0, 2: row 3 was never destaged",
				st.Writebacks, st.WrittenBack, st.DirtyBytes, st.CacheRows, 4<<10)
		}
		got := make([]byte, 1<<10)
		if err := vol.Store().ReadAt(3<<10, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, rowBody(3, 1<<10)) {
			t.Error("row 3 is not on the volume after the first batch's 3 KB")
		}
	})
	eng.Run()
	eng.Shutdown()
}
