package dp2

import (
	"bytes"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/sim"
)

// The destager sizes its write buffer to the batch it has assembled. These
// tests drive the paths where that matters: a row larger than the batch
// budget, such a row behind a stale queue entry, and a batch requeued
// because the data volume was down.

// settle is long enough for dozens of 10 ms destage intervals.
const settle = 500 * sim.Millisecond

// rowBody is a row image whose every byte depends on the key.
func rowBody(key uint64, n int) []byte {
	return bytes.Repeat([]byte{byte(key*37 + 1)}, n)
}

// readBackAll reads every key and checks the bytes, whichever of cache and
// data volume serves them.
func readBackAll(t *testing.T, p *cluster.Process, sizes map[uint64]int) {
	t.Helper()
	for key, n := range sizes {
		resp := call(t, p, &ReadReq{Key: key}).Resp
		if resp.Err != nil {
			t.Errorf("read %d: %v", key, resp.Err)
			continue
		}
		if !bytes.Equal(resp.Body, rowBody(key, n)) {
			t.Errorf("row %d: %d bytes read back, content or length wrong (want %d)", key, len(resp.Body), n)
		}
	}
}

func TestDestageOversizeRowGoesAlone(t *testing.T) {
	const budget = 8 << 10
	sizes := map[uint64]int{1: 3 << 10, 2: 20 << 10, 3: 3 << 10, 4: 3 << 10, 5: 9 << 10}
	eng, cl, _ := harness(t, func(c *Config) {
		c.WritebackMaxBytes = budget
		c.WritebackInterval = 10 * sim.Millisecond
		c.MaxCacheBytes = 1 // evict every destaged row: reads come from the volume
	})
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		var total int64
		for key := uint64(1); key <= 5; key++ {
			if resp := call(t, p, &InsertReq{Txn: 1, Key: key, Body: rowBody(key, sizes[key])}).Resp; resp.Err != nil {
				t.Fatalf("insert %d: %v", key, resp.Err)
			}
			total += int64(sizes[key])
		}
		call(t, p, &EndTxnReq{Txn: 1, Commit: true})
		p.Wait(settle)
		st := call(t, p, &StateReq{}).Resp
		// Batches in queue order under an 8 KB budget: {1}, {2} alone and
		// oversize, {3,4}, {5} alone and oversize.
		if st.Writebacks != 4 || st.WrittenBack != total || st.DirtyBytes != 0 {
			t.Errorf("Writebacks = %d, WrittenBack = %d, DirtyBytes = %d; want 4, %d, 0", st.Writebacks, st.WrittenBack, st.DirtyBytes, total)
		}
		if st.Evictions != 5 {
			t.Errorf("Evictions = %d, want all 5 rows out of the cache", st.Evictions)
		}
		readBackAll(t, p, sizes)
		if st = call(t, p, &StateReq{}).Resp; st.CacheMisses == 0 {
			t.Error("no read came from the data volume")
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestDestageOversizeRowBehindStaleEntry(t *testing.T) {
	// An aborted insert leaves a stale entry at the head of the dirty
	// queue. The oversize row queued behind it must still be destaged, in
	// the same interval, not left for the next kick.
	eng, cl, _ := harness(t, func(c *Config) {
		c.WritebackMaxBytes = 4 << 10
		c.WritebackInterval = 10 * sim.Millisecond
		c.MaxCacheBytes = 1
	})
	sizes := map[uint64]int{2: 10 << 10}
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 1, Body: rowBody(1, 1<<10)})
		call(t, p, &EndTxnReq{Txn: 1, Commit: false})
		call(t, p, &InsertReq{Txn: 2, Key: 2, Body: rowBody(2, sizes[2])})
		call(t, p, &EndTxnReq{Txn: 2, Commit: true})
		p.Wait(settle)
		st := call(t, p, &StateReq{}).Resp
		if st.Writebacks != 1 || st.WrittenBack != int64(sizes[2]) || st.DirtyBytes != 0 {
			t.Errorf("Writebacks = %d, WrittenBack = %d, DirtyBytes = %d; want 1, %d, 0", st.Writebacks, st.WrittenBack, st.DirtyBytes, sizes[2])
		}
		readBackAll(t, p, sizes)
	})
	eng.Run()
	eng.Shutdown()
}

// Rows come from ten-row slabs, and the destage and eviction queues tell a
// live entry from a stale one by comparing *row pointers, so a slab must
// hand every row out exactly once: a key aborted and inserted again gets a
// new row, and the first insert's queue entry stays stale. Were the slot
// reused, that entry would match again and the row be destaged twice.
func TestDestageSkipsTheAbortedRowOfAReinsertedKey(t *testing.T) {
	eng, cl, _ := harness(t, func(c *Config) {
		c.WritebackMaxBytes = 64 << 10
		c.WritebackInterval = 10 * sim.Millisecond
		c.MaxCacheBytes = 1 // evict after destage: the read comes from the volume
	})
	sizes := map[uint64]int{1: 3 << 10, 2: 2 << 10}
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 1, Body: bytes.Repeat([]byte{0xEE}, 1<<10)})
		call(t, p, &EndTxnReq{Txn: 1, Commit: false})
		call(t, p, &InsertReq{Txn: 2, Key: 1, Body: rowBody(1, sizes[1])})
		call(t, p, &InsertReq{Txn: 2, Key: 2, Body: rowBody(2, sizes[2])})
		call(t, p, &EndTxnReq{Txn: 2, Commit: true})
		p.Wait(settle)
		st := call(t, p, &StateReq{}).Resp
		if want := int64(sizes[1] + sizes[2]); st.Writebacks != 1 || st.WrittenBack != want || st.DirtyBytes != 0 {
			t.Errorf("Writebacks = %d, WrittenBack = %d, DirtyBytes = %d; want 1, %d, 0: the aborted row's entry was not skipped",
				st.Writebacks, st.WrittenBack, st.DirtyBytes, want)
		}
		if st.Evictions != 2 {
			t.Errorf("Evictions = %d, want both committed rows out of the cache, each once", st.Evictions)
		}
		readBackAll(t, p, sizes)
	})
	eng.Run()
	eng.Shutdown()
}

// TestSlabRowsAreHandedOutOnce holds the same property at the state image,
// across slab boundaries and for the backup's absorbed copy: every insert
// gets a row no other insert has, the primary's image and the backup's
// share none, and a slab costs one allocation per rowSlab inserts.
func TestSlabRowsAreHandedOutOnce(t *testing.T) {
	eng, _, d := harness(t, nil)
	defer eng.Shutdown()
	prim := newState()
	var back interface{}
	seen := map[*row]uint64{}
	note := func(st *dpState, key uint64) {
		r, ok := st.tree.Get(key)
		if !ok {
			t.Fatalf("key %d missing from the image", key)
		}
		if prev, dup := seen[r]; dup {
			t.Fatalf("key %d was handed the row key %d holds", key, prev)
		}
		seen[r] = key
	}
	const n = 3*rowSlab + 1
	for key := uint64(1); key <= n; key++ {
		delta := insertDelta{txn: 1, key: key, blen: 64}
		prim.applyInsert(delta, false)
		back = d.absorb(back, &delta)
		note(prim, key)
		note(back.(*dpState), key)
	}
	// Abort and reinsert: new rows on both sides, the old ones still queued.
	prim.applyEnd(endDelta{txn: 1})
	back = d.absorb(back, &endDelta{txn: 1})
	redo := insertDelta{txn: 2, key: n, blen: 64}
	prim.applyInsert(redo, false)
	back = d.absorb(back, &redo)
	note(prim, n)
	note(back.(*dpState), n)
	if got := prim.dirtyq.len(); got != n+1 {
		t.Errorf("dirty queue holds %d entries, want %d: one per insert, stale ones included", got, n+1)
	}
	perSlab := testing.AllocsPerRun(100, func() {
		for i := 0; i < rowSlab; i++ {
			prim.newRow()
		}
	})
	if perSlab != 1 {
		t.Errorf("%d rows cost %.0f allocations, want one slab", rowSlab, perSlab)
	}
}

func TestDestageRequeuesWhileVolumeDown(t *testing.T) {
	sizes := map[uint64]int{1: 2 << 10, 2: 5 << 10, 3: 2 << 10, 4: 12 << 10}
	eng, cl, d := harness(t, func(c *Config) {
		c.WritebackMaxBytes = 8 << 10
		c.WritebackInterval = 10 * sim.Millisecond
		c.MaxCacheBytes = 1
	})
	vol := d.cfg.Volume
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		vol.Fail()
		var total int64
		for key := uint64(1); key <= 4; key++ {
			call(t, p, &InsertReq{Txn: 1, Key: key, Body: rowBody(key, sizes[key])})
			total += int64(sizes[key])
		}
		call(t, p, &EndTxnReq{Txn: 1, Commit: true})
		p.Wait(settle) // dozens of failed intervals
		st := call(t, p, &StateReq{}).Resp
		if st.Writebacks != 0 || st.WrittenBack != 0 || st.DirtyBytes != total || st.Evictions != 0 {
			t.Errorf("volume down: Writebacks = %d, WrittenBack = %d, DirtyBytes = %d, Evictions = %d; want 0, 0, %d, 0",
				st.Writebacks, st.WrittenBack, st.DirtyBytes, st.Evictions, total)
		}
		// Still dirty means still resident: reads are served from cache.
		readBackAll(t, p, sizes)

		vol.Restore()
		p.Wait(settle)
		st = call(t, p, &StateReq{}).Resp
		// {1,2}, {3} (4 does not fit beside it), {4} alone and oversize —
		// the same batches, in the same order, as if nothing had failed.
		if st.Writebacks != 3 || st.WrittenBack != total || st.DirtyBytes != 0 {
			t.Errorf("after restore: Writebacks = %d, WrittenBack = %d, DirtyBytes = %d; want 3, %d, 0", st.Writebacks, st.WrittenBack, st.DirtyBytes, total)
		}
		misses := st.CacheMisses
		readBackAll(t, p, sizes)
		if st = call(t, p, &StateReq{}).Resp; st.CacheMisses != misses+int64(len(sizes)) {
			t.Errorf("CacheMisses went %d -> %d, want every row fetched from the volume", misses, st.CacheMisses)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestDestageBufLen(t *testing.T) {
	const budget = 2 << 20
	for _, tc := range []struct{ have, need, want int64 }{
		{0, 4 << 10, 4 << 10},                // first batch: exactly what it needs
		{4 << 10, 5 << 10, 8 << 10},          // a little more: double
		{4 << 10, 100 << 10, 100 << 10},      // a lot more: the need
		{1536 << 10, 1600 << 10, budget},     // doubling stops at the budget
		{0, budget, budget},                  // a full batch
		{4 << 10, 3 * budget, 3 * budget},    // one oversize row: sized to the row
		{3 * budget, 4 * budget, 4 * budget}, // a larger one later: no doubling past the budget
	} {
		if got := destageBufLen(tc.have, tc.need, budget); got != tc.want {
			t.Errorf("destageBufLen(%d, %d) = %d, want %d", tc.have, tc.need, got, tc.want)
		}
	}
	// A destager whose batches ramp from one row to the full budget has
	// allocated, over its whole life, a small multiple of the one eager
	// budget-sized buffer this policy replaced — and one that never ramps
	// never pays for it.
	var have, total int64
	for need := int64(4 << 10); need <= budget; need += 4 << 10 {
		if need > have {
			have = destageBufLen(have, need, budget)
			total += have
		}
	}
	if have != budget || total >= 2*budget {
		t.Errorf("4 KB ramp: final buffer %d, %d bytes allocated in all; want %d and under %d", have, total, budget, 2*budget)
	}
}
