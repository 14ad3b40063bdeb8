package dp2

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"persistmem/internal/audit"
	"persistmem/internal/btree"
	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/sim"
)

// The destager sizes its write buffer to the batch it has assembled. These
// tests drive the paths where that matters: a row larger than the batch
// budget, such a row behind a stale queue entry, and a batch requeued
// because the data volume was down.

// settle is twenty destage intervals: long enough for the destager to
// write several batches, or to fail twenty times at a volume that is down.
const settle = 20 * writebackInterval

// rowBody is a row image whose every byte depends on the key.
func rowBody(key uint64, n int) []byte {
	return bytes.Repeat([]byte{byte(key*37 + 1)}, n)
}

// readBackAll reads every key and checks the bytes.
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

// volumeHolds checks that the data volume holds the bodies of keys back to
// back from offset 0, in that order: the extent the destager wrote them to.
func volumeHolds(t *testing.T, vol *disk.Volume, keys []uint64, sizes map[uint64]int) {
	t.Helper()
	var want []byte
	for _, key := range keys {
		want = append(want, rowBody(key, sizes[key])...)
	}
	got := make([]byte, len(want))
	if err := vol.Store().ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the volume's first %d bytes are not the bodies of keys %v back to back", len(want), keys)
	}
}

func TestDestageOversizeRowGoesAlone(t *testing.T) {
	const b = writebackBudget
	sizes := map[uint64]int{1: 3 * b / 8, 2: 5 * b / 2, 3: 3 * b / 8, 4: 3 * b / 8, 5: 9 * b / 8}
	eng, cl, d := harness(t, nil)
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
		// Batches in queue order under the budget: {1}, {2} alone and
		// oversize, {3,4}, {5} alone and oversize.
		if st.Writebacks != 4 || st.WrittenBack != total || st.DirtyBytes != 0 {
			t.Errorf("Writebacks = %d, WrittenBack = %d, DirtyBytes = %d; want 4, %d, 0", st.Writebacks, st.WrittenBack, st.DirtyBytes, total)
		}
		volumeHolds(t, d.cfg.Volume, []uint64{1, 2, 3, 4, 5}, sizes)
		readBackAll(t, p, sizes)
	})
	eng.Run()
	eng.Shutdown()
}

func TestDestageOversizeRowBehindStaleEntry(t *testing.T) {
	// An aborted insert leaves a stale entry at the head of the dirty
	// queue. The oversize row queued behind it must still be destaged, in
	// the same interval, not left for the next kick.
	eng, cl, d := harness(t, nil)
	sizes := map[uint64]int{2: 5 * writebackBudget / 2}
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 1, Body: rowBody(1, writebackBudget/4)})
		call(t, p, &EndTxnReq{Txn: 1, Commit: false})
		call(t, p, &InsertReq{Txn: 2, Key: 2, Body: rowBody(2, sizes[2])})
		call(t, p, &EndTxnReq{Txn: 2, Commit: true})
		p.Wait(settle)
		st := call(t, p, &StateReq{}).Resp
		if st.Writebacks != 1 || st.WrittenBack != int64(sizes[2]) || st.DirtyBytes != 0 {
			t.Errorf("Writebacks = %d, WrittenBack = %d, DirtyBytes = %d; want 1, %d, 0", st.Writebacks, st.WrittenBack, st.DirtyBytes, sizes[2])
		}
		volumeHolds(t, d.cfg.Volume, []uint64{2}, sizes)
		readBackAll(t, p, sizes)
	})
	eng.Run()
	eng.Shutdown()
}

// The destage queue tells a live entry from a stale one by key and stamp,
// so every insert must get a stamp of its own: a key aborted and inserted
// again gets a new one, and the first insert's queue entry stays stale. Were the stamp reused, that entry would match again and the row be
// destaged twice.
func TestDestageSkipsTheAbortedRowOfAReinsertedKey(t *testing.T) {
	eng, cl, d := harness(t, nil)
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
		volumeHolds(t, d.cfg.Volume, []uint64{1, 2}, sizes)
		readBackAll(t, p, sizes)
	})
	eng.Run()
	eng.Shutdown()
}

// TestInsertStampsAreHandedOutOnce holds the same property at the state
// image, for the primary's and for the backup's absorbed copy: every insert
// gets a stamp no other insert of that image has, and a key aborted and
// inserted again gets a new one while the first insert's queue entry stays
// queued and stale.
func TestInsertStampsAreHandedOutOnce(t *testing.T) {
	eng, _, d := harness(t, nil)
	defer eng.Shutdown()
	prim := newState()
	var back interface{}
	seen := map[*dpState]map[uint32]uint64{}
	note := func(st *dpState, key uint64) {
		r, ok := st.tree.Get(key)
		if !ok {
			t.Fatalf("key %d missing from the image", key)
		}
		if seen[st] == nil {
			seen[st] = map[uint32]uint64{}
		}
		if prev, dup := seen[st][r.stamp]; dup {
			t.Fatalf("key %d was handed stamp %d, which key %d holds", key, r.stamp, prev)
		}
		seen[st][r.stamp] = key
	}
	const n = 100
	for key := uint64(1); key <= n; key++ {
		delta := insertDelta{txn: 1, key: key, blen: 64}
		prim.insert(delta, false)
		back = d.absorb(back, &delta)
		note(prim, key)
		note(back.(*dpState), key)
	}
	first := *prim.dirtyq.front()
	// Abort and reinsert: new stamps on both sides, the old entries still queued.
	prim.applyEnd(endDelta{txn: 1})
	back = d.absorb(back, &endDelta{txn: 1})
	redo := insertDelta{txn: 2, key: 1, blen: 64}
	prim.insert(redo, false)
	back = d.absorb(back, &redo)
	note(prim, 1)
	note(back.(*dpState), 1)
	if got := prim.dirtyq.len(); got != n+1 {
		t.Errorf("dirty queue holds %d entries, want %d: one per insert, stale ones included", got, n+1)
	}
	if first.key != 1 || prim.live(first) != nil {
		t.Errorf("the aborted insert's entry (key %d) still names a live row", first.key)
	}
	if prim.dirty != 64 {
		t.Errorf("%d bytes dirty after the abort and reinsert; want 64", prim.dirty)
	}
}

// TestCacheShapes pins what a cached row costs. The row is 16 bytes and the
// B-tree item holding it by value 24, so a split-born leaf, its 32-byte
// header and 62 items in one block, is 1 528 B of the 1 536-byte size class
// with the malloc header; a queue entry is 16 bytes and holds no pointer,
// so the queues pin no row and the collector does not scan them. A field that
// widens the row — a body slice header in place of the data pointer, or a
// dirty flag of its own beside the length — pushes every full leaf into a
// larger size class and trips this; so does a *row back in the entry.
func TestCacheShapes(t *testing.T) {
	if got := unsafe.Sizeof(row{}); got != 16 {
		t.Errorf("a row is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(btree.Item[row]{}); got != 24 {
		t.Errorf("a B-tree item is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(queueEnt{}); got != 16 {
		t.Errorf("a queue entry is %d bytes, want 16", got)
	}
	for ent, i := reflect.TypeOf(queueEnt{}), 0; i < ent.NumField(); i++ {
		if f := ent.Field(i); f.Type.Kind() != reflect.Uint32 && f.Type.Kind() != reflect.Uint64 {
			t.Errorf("a queue entry holds %s %s: an entry is plain integers, so the queues pin nothing", f.Name, f.Type)
		}
	}
}

func TestDestageRequeuesWhileVolumeDown(t *testing.T) {
	const b = writebackBudget
	sizes := map[uint64]int{1: b / 4, 2: 5 * b / 8, 3: b / 4, 4: 3 * b / 2}
	eng, cl, d := harness(t, nil)
	vol := d.cfg.Volume
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		vol.Fail()
		var total int64
		for key := uint64(1); key <= 4; key++ {
			call(t, p, &InsertReq{Txn: 1, Key: key, Body: rowBody(key, sizes[key])})
			total += int64(sizes[key])
		}
		call(t, p, &EndTxnReq{Txn: 1, Commit: true})
		p.Wait(settle) // twenty failed intervals
		st := call(t, p, &StateReq{}).Resp
		if st.Writebacks != 0 || st.WrittenBack != 0 || st.DirtyBytes != total {
			t.Errorf("volume down: Writebacks = %d, WrittenBack = %d, DirtyBytes = %d; want 0, 0, %d",
				st.Writebacks, st.WrittenBack, st.DirtyBytes, total)
		}
		readBackAll(t, p, sizes)

		vol.Restore()
		p.Wait(settle)
		st = call(t, p, &StateReq{}).Resp
		// {1,2}, {3} (4 does not fit beside it), {4} alone and oversize —
		// the same batches, in the same order, as if nothing had failed.
		if st.Writebacks != 3 || st.WrittenBack != total || st.DirtyBytes != 0 {
			t.Errorf("after restore: Writebacks = %d, WrittenBack = %d, DirtyBytes = %d; want 3, %d, 0", st.Writebacks, st.WrittenBack, st.DirtyBytes, total)
		}
		volumeHolds(t, vol, []uint64{1, 2, 3, 4}, sizes)
		readBackAll(t, p, sizes)
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

// destageRun is what one destager wrote for a fixed set of rows.
type destageRun struct {
	writebacks, writtenBack int64
	drained                 sim.Time // virtual time the destager went idle
	vol                     *disk.Volume
}

// scribble is the byte a destageRows volume holds where nothing was written.
const scribble = 0xAB

// destageRows queues rows of the given sizes in one committed transaction and
// runs the destager on them directly, over a retaining data volume, until it
// blocks for want of dirty data. The volume starts out scribble up to a page
// past the rows, so the extent the destager wrote shows in its bytes.
func destageRows(t *testing.T, sizes []int, retain bool) destageRun {
	t.Helper()
	eng := sim.NewEngine(1)
	defer eng.Shutdown()
	cl := cluster.New(eng, cluster.DefaultConfig())
	vol := disk.New(eng, "$DATA", disk.DefaultConfig(), 64<<20)
	d := &DP2{cl: cl, cfg: Config{Volume: vol, RetainData: retain}}
	st := newState()
	total := 0
	for i, n := range sizes {
		key := uint64(i + 1)
		st.insert(insertDelta{txn: 1, key: key, body: rowBody(key, n), blen: n}, retain)
		total += n
	}
	st.applyEnd(endDelta{txn: 1, commit: true})
	if err := vol.Store().WriteAt(0, bytes.Repeat([]byte{scribble}, total+4096)); err != nil {
		t.Fatal(err)
	}
	kick := eng.NewBoundedChan("kick", 1)
	cl.CPU(1).Spawn("wb", func(p *cluster.Process) { d.writeback(p, st, kick) })
	kick.TrySend(nil)
	eng.Run()
	return destageRun{writebacks: d.stats.Writebacks, writtenBack: d.stats.WrittenBack, drained: eng.Now(), vol: vol}
}

// TestDestageOfANonRetainingDP2 holds what a DP2 that keeps no row bodies
// writes when it destages to a volume that does keep them: batches of
// 1540 KB, 3 MB alone (larger than the zero block), 1544 KB and 700 KB, in
// the same number of writes and bytes as a retaining DP2's, over the same
// extent of the volume, and the destager goes idle at the same virtual
// instant, 585.88 ms: four 100 ms intervals and the four writes. The volume
// holds, from offset 0 and back to back in insert order, zeros where the
// retaining DP2 wrote bodies, and nothing past the rows — a batch at any
// other offset leaves scribble inside that extent. The zero block is still
// all zero afterwards.
func TestDestageOfANonRetainingDP2(t *testing.T) {
	sizes := []int{4 << 10, 1 << 20, 512 << 10, 3 << 20, 8 << 10, 1536 << 10, 700 << 10}
	const total = 7020544
	for _, retain := range []bool{false, true} {
		run := destageRows(t, sizes, retain)
		if vs := run.vol.Stats; run.writebacks != 4 || run.writtenBack != total || vs.Writes != 4 || vs.BytesWritten != total {
			t.Errorf("retain=%v: Writebacks %d, WrittenBack %d, volume writes %d of %d bytes; want 4, %d, 4, %d",
				retain, run.writebacks, run.writtenBack, vs.Writes, vs.BytesWritten, total, total)
		}
		if run.drained != 585882811 {
			t.Errorf("retain=%v: destager idle at %v, want 585.882811ms", retain, run.drained)
		}
		got := make([]byte, total+4096)
		if err := run.vol.Store().ReadAt(0, got); err != nil {
			t.Fatal(err)
		}
		var off int
		for i, n := range sizes {
			key := uint64(i + 1)
			img := rowBody(key, n)
			if !retain {
				img = make([]byte, n)
			}
			if !bytes.Equal(got[off:off+n], img) {
				t.Errorf("retain=%v: the volume at %d does not hold row %d as the DP2 does", retain, off, key)
			}
			off += n
		}
		if !bytes.Equal(got[total:], bytes.Repeat([]byte{scribble}, 4096)) {
			t.Errorf("retain=%v: the destager wrote past the rows' %d bytes", retain, total)
		}
	}
	if !bytes.Equal(zeroBlock[:], make([]byte, len(zeroBlock))) {
		t.Error("the zero block holds a non-zero byte")
	}
}

// TestZeroBlockSharedAcrossEngines destages from non-retaining DP2s of four
// engines at once, each on its own goroutine as bench's worker pool runs
// them: under -race it holds that sharing the zero block is read-only.
func TestZeroBlockSharedAcrossEngines(t *testing.T) {
	sizes := []int{512 << 10, 1 << 20, 64 << 10}
	var wg sync.WaitGroup
	runs := make([]destageRun, 4)
	for g := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[g] = destageRows(t, sizes, false)
		}()
	}
	wg.Wait()
	for g, run := range runs {
		if run.writtenBack != 1600<<10 || run.vol.Stats.BytesWritten != 1600<<10 {
			t.Errorf("engine %d: %d bytes destaged, %d written; want %d", g, run.writtenBack, run.vol.Stats.BytesWritten, 1600<<10)
		}
	}
	if !bytes.Equal(zeroBlock[:], make([]byte, len(zeroBlock))) {
		t.Error("the zero block holds a non-zero byte")
	}
}

// TestTakeoverDestagesEverythingAgain pins the backup's destage debt as it
// stands. A backup folds every checkpointed insert into its image as a dirty
// row and queues it for a destage it never runs: its dirty queue only grows,
// its dirty bytes only rise, and its next volume offset stays 0. So the
// incarnation a takeover starts destages every row since the pair started a
// second time, from offset 0, over what the first incarnation already wrote.
// Retiring destaged rows at the backup would move fault-cell virtual results;
// when that is done on purpose, this test changes with it.
func TestTakeoverDestagesEverythingAgain(t *testing.T) {
	eng, cl, d := harness(t, nil)
	vol := d.cfg.Volume
	const rowLen, rows = 4 << 10, 8
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		// Two transactions, each destaged before the next: two writes, the
		// second continuing the first.
		for txn := audit.TxnID(1); txn <= 2; txn++ {
			for i := 0; i < rows/2; i++ {
				key := uint64(txn-1)*rows/2 + uint64(i) + 1
				call(t, p, &InsertReq{Txn: txn, Key: key, Body: rowBody(key, rowLen)})
			}
			call(t, p, &EndTxnReq{Txn: txn, Commit: true})
			p.Wait(settle)
		}
		st := call(t, p, &StateReq{}).Resp
		if st.Writebacks != 2 || st.WrittenBack != rows*rowLen || vol.Stats.Writes != 2 || vol.Stats.SeqWrites != 1 {
			t.Fatalf("before the takeover: Writebacks %d, WrittenBack %d, volume writes %d (%d sequential); want 2, %d, 2 (1)",
				st.Writebacks, st.WrittenBack, vol.Stats.Writes, vol.Stats.SeqWrites, rows*rowLen)
		}
		// Scribble over what was destaged, so a rewrite shows on the media.
		if err := vol.Store().WriteAt(0, bytes.Repeat([]byte{0xAB}, rows*rowLen)); err != nil {
			t.Fatal(err)
		}

		d.Pair().KillPrimary()
		p.Wait(cluster.TakeoverDelay + settle)
		st = call(t, p, &StateReq{}).Resp
		if d.Pair().Takeovers != 1 {
			t.Fatalf("takeovers = %d, want 1", d.Pair().Takeovers)
		}
		// All eight rows again, in one batch, at a seek back to offset 0.
		if st.Writebacks != 3 || st.WrittenBack != 2*rows*rowLen || st.DirtyBytes != 0 {
			t.Errorf("after the takeover: Writebacks %d, WrittenBack %d, DirtyBytes %d; want 3, %d, 0",
				st.Writebacks, st.WrittenBack, st.DirtyBytes, 2*rows*rowLen)
		}
		if vol.Stats.Writes != 3 || vol.Stats.SeqWrites != 1 || vol.Stats.BytesWritten != 2*rows*rowLen {
			t.Errorf("after the takeover: %d volume writes (%d sequential) of %d bytes; want 3 (1), %d",
				vol.Stats.Writes, vol.Stats.SeqWrites, vol.Stats.BytesWritten, 2*rows*rowLen)
		}
		for key := uint64(1); key <= rows; key++ {
			got := make([]byte, rowLen)
			if err := vol.Store().ReadAt(int64(key-1)*rowLen, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, rowBody(key, rowLen)) {
				t.Errorf("row %d is not at offset %d: the takeover did not destage it again from offset 0", key, (key-1)*rowLen)
			}
		}
		readBackAll(t, p, map[uint64]int{1: rowLen, 2: rowLen, 3: rowLen, 4: rowLen, 5: rowLen, 6: rowLen, 7: rowLen, 8: rowLen})
	})
	eng.Run()
	eng.Shutdown()
}
