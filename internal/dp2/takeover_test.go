package dp2

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/npmu"
	"persistmem/internal/sim"
)

// A takeover serves a copy of the image the backup absorbed, and the copy
// rebuilds the destage queue the backup never kept. These tests hold both
// halves: what the served copy counts, and the queue it rebuilds.

// TestTakeoverServesACopyOfTheHeldImage checkpoints into the held image
// while the pair runs unprotected and again after Rebackup, and counts what
// the served image holds. Were the held image served itself, each
// checkpoint would fold the insert in a second time — a 100-byte insert
// would read 200 dirty bytes and its abort leave 100 — and after Rebackup
// the new backup would absorb into the very image being served, so the
// primary's destage would clean the backup's rows too and a second
// takeover find nothing to destage.
func TestTakeoverServesACopyOfTheHeldImage(t *testing.T) {
	const n = 100
	eng, cl, d := harness(t, nil)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		state := func() Stats { return call(t, p, &StateReq{}).Resp }
		call(t, p, &InsertReq{Txn: 1, Key: 1, Body: rowBody(1, n)})
		call(t, p, &EndTxnReq{Txn: 1, Commit: true})
		d.Pair().KillPrimary()
		p.Wait(cluster.TakeoverDelay + settle)
		if d.Pair().Takeovers != 1 || d.Pair().Protected() {
			t.Fatalf("takeovers %d, protected %v; want 1 and an unprotected pair", d.Pair().Takeovers, d.Pair().Protected())
		}
		if st := state(); st.DirtyBytes != 0 {
			t.Fatalf("%d bytes dirty once the takeover's destage settled, want 0", st.DirtyBytes)
		}

		call(t, p, &InsertReq{Txn: 2, Key: 2, Body: rowBody(2, n)})
		if st := state(); st.DirtyBytes != n {
			t.Errorf("an unprotected %d-byte insert reads %d dirty bytes, want %d: it was applied twice", n, st.DirtyBytes, n)
		}
		call(t, p, &EndTxnReq{Txn: 2, Commit: false})
		if st := state(); st.DirtyBytes != 0 {
			t.Errorf("its abort leaves %d dirty bytes, want 0", st.DirtyBytes)
		}

		d.Pair().Rebackup(1)
		call(t, p, &InsertReq{Txn: 3, Key: 3, Body: rowBody(3, n)})
		call(t, p, &EndTxnReq{Txn: 3, Commit: true})
		if st := state(); st.DirtyBytes != n {
			t.Errorf("a protected %d-byte insert after Rebackup reads %d dirty bytes, want %d", n, st.DirtyBytes, n)
		}
		p.Wait(settle)
		before := state()
		if before.DirtyBytes != 0 {
			t.Fatalf("%d bytes dirty after settling, want 0", before.DirtyBytes)
		}

		// The served image destaged keys 1 and 3; the new backup's image,
		// which no destager touches, still holds both dirty, and a second
		// takeover destages both again.
		d.Pair().KillPrimary()
		p.Wait(cluster.TakeoverDelay + settle)
		after := state()
		if d.Pair().Takeovers != 2 {
			t.Fatalf("takeovers = %d, want 2", d.Pair().Takeovers)
		}
		if got := after.WrittenBack - before.WrittenBack; got != 2*n || after.DirtyBytes != 0 {
			t.Errorf("the second takeover destaged %d bytes and left %d dirty; want %d and 0: the backup's image was not its own",
				got, after.DirtyBytes, 2*n)
		}
		readBackAll(t, p, map[uint64]int{1: n, 3: n})
		if resp := call(t, p, &ReadReq{Key: 2}).Resp; !errors.Is(resp.Err, ErrNotFound) {
			t.Errorf("the aborted key 2 reads back %d bytes, %v; want ErrNotFound", len(resp.Body), resp.Err)
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestBackupQueuesNothing: a backup absorbing N inserts keeps N dirty rows
// and no queue entry, not even a block; what a takeover's requeue then
// builds is one entry a row, in insert order.
func TestBackupQueuesNothing(t *testing.T) {
	const n = 5000
	d := &DP2{}
	var back interface{}
	for i := range n {
		// Keys descend, so insert order is not key order.
		back = d.absorb(back, &insertDelta{txn: 1, key: uint64(n - i), blen: 64})
	}
	st := back.(*dpState)
	if st.dirtyq.len() != 0 || st.dirtyq.blocks != nil {
		t.Errorf("the backup queued %d entries in %d blocks, want none", st.dirtyq.len(), len(st.dirtyq.blocks))
	}
	if st.tree.Len() != n || st.dirty != n*64 {
		t.Errorf("the backup holds %d rows, %d bytes dirty; want %d, %d", st.tree.Len(), st.dirty, n, n*64)
	}
	st.requeue()
	for i := range n {
		if e := st.dirtyq.pop(); e.key != uint64(n-i) || e.blen != 64 || e.stamp != uint32(i+1) {
			t.Fatalf("requeued entry %d is %+v, want key %d, 64 bytes, stamp %d", i, e, n-i, i+1)
		}
	}
	if st.dirtyq.len() != 0 {
		t.Errorf("%d entries left past the rows", st.dirtyq.len())
	}
}

// FuzzRequeueMatchesInsertOrder checks requeue against the queue a serving
// image would have pushed to, one entry an insert. The ops drive a backup's
// absorbed image through inserts under two open transactions, commits,
// aborts, reinserts under an aborted key and destages that clean a row.
// After the run, requeue must yield exactly the entries of the full
// insert-order queue whose row is still live and dirty, in that order, and
// their lengths must add up to the image's dirty count.
//
// Each op is two bytes: the op, and its argument. The argument's low five
// bits pick a key of 32 (or an aborted key), its top bit one of the two
// transactions, and the row's length is the argument times 7.
func FuzzRequeueMatchesInsertOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 0})                         // three inserts, commit
	f.Add([]byte{0, 5, 0, 133, 2, 0, 3, 0, 0, 6, 1, 128})         // abort one transaction, reinsert its key
	f.Add([]byte{0, 9, 0, 3, 4, 9, 0, 4, 2, 0, 0, 9, 3, 0, 4, 3}) // destage, abort a destaged row, reinsert
	f.Add([]byte{0, 31, 0, 30, 0, 29, 4, 30, 2, 0, 3, 1, 3, 2, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := &DP2{}
		var img interface{} = newState()
		var all []queueEnt // every insert, in insert order
		var aborted []uint64
		txns := [2]audit.TxnID{1, 2}
		next := audit.TxnID(3)
		insert := func(key uint64, blen int, txn audit.TxnID) {
			if img.(*dpState).tree.Has(key) {
				return // the primary refuses a duplicate key before it checkpoints
			}
			img = d.absorb(img, &insertDelta{txn: txn, key: key, blen: blen})
			all = append(all, queueEnt{key: key, blen: uint32(blen), stamp: img.(*dpState).stamp})
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			key, slot := uint64(arg%32)+1, int(arg>>7)
			switch ops[i] % 5 {
			case 0:
				insert(key, 7*int(arg), txns[slot])
			case 1, 2:
				commit := ops[i]%5 == 1
				if !commit {
					aborted = append(aborted, img.(*dpState).undo[txns[slot]]...)
				}
				img = d.absorb(img, &endDelta{txn: txns[slot], commit: commit})
				txns[slot], next = next, next+1
			case 3:
				if len(aborted) > 0 {
					insert(aborted[int(arg)%len(aborted)], 7*int(arg), txns[slot])
				}
			case 4:
				st := img.(*dpState)
				if r := st.tree.Ref(key); r != nil && r.dirty() {
					r.clean()
					st.dirty -= int64(r.blen())
				}
			}
		}
		st := img.(*dpState)
		if st.dirtyq.len() != 0 {
			t.Fatalf("the absorbed image queued %d entries, want none", st.dirtyq.len())
		}
		var want []queueEnt
		var dirty int64
		for _, e := range all {
			if r := st.live(e); r != nil && r.dirty() {
				want = append(want, e)
				dirty += int64(e.blen)
			}
		}
		st.requeue()
		var got []queueEnt
		for st.dirtyq.len() > 0 {
			got = append(got, st.dirtyq.pop())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("requeue gave %v, want the live dirty entries of the insert-order queue %v", got, want)
		}
		if dirty != st.dirty {
			t.Fatalf("the requeued rows hold %d bytes, the image counts %d dirty", dirty, st.dirty)
		}
	})
}

// A PMDirect takeover that cannot rebuild the whole image from its PM log
// retires the pair, as a failed region open does, and says why in RegionErr:
// it never serves a short image. Each case commits six two-row
// transactions, calling fault before each, then as step 7 before the kill
// and as step 8 once the takeover is over, before an insert that must not
// be acknowledged.
func TestPMDirectTakeoverThatCannotRebuildRetires(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tweak  func(*Config)
		fault  func(step audit.TxnID, devs [2]*npmu.Device)
		reason string
	}{
		{"both replicas unreadable", nil, func(step audit.TxnID, devs [2]*npmu.Device) {
			for _, dev := range devs {
				switch step {
				case 7:
					dev.Fail()
				case 8:
					dev.Recover() // the insert's log write would land
				}
			}
		}, "no replica reads"},
		// Twelve 36-byte insert frames and six 33-byte commits run past
		// 512 bytes.
		{"the ring wrapped", func(c *Config) { c.PMRegionSize = 512 }, func(audit.TxnID, [2]*npmu.Device) {}, "the ring wrapped"},
		{"the only readable replica is short", nil, func(step audit.TxnID, devs [2]*npmu.Device) {
			switch step {
			case 3:
				devs[1].Fail() // transactions 3 and 4 reach the primary alone
			case 5:
				devs[1].Recover()
			case 7:
				devs[0].Fail()
			}
		}, "short of LSN"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, cl, d, devs := pmDirectHarness(t, tc.tweak)
			cl.CPU(3).Spawn("client", func(p *cluster.Process) {
				for txn := audit.TxnID(1); txn <= 6; txn++ {
					tc.fault(txn, devs)
					for k := uint64(0); k < 2; k++ {
						key := uint64(txn)*10 + k
						if r := call(t, p, &InsertReq{Txn: txn, Key: key, Body: []byte(fmt.Sprint(key))}).Resp; r.Err != nil {
							t.Fatalf("insert %d: %v", key, r.Err)
						}
					}
					call(t, p, &EndTxnReq{Txn: txn, Commit: true})
				}
				tc.fault(7, devs)
				d.Pair().KillPrimary()
				p.Wait(cluster.TakeoverDelay + 100*sim.Millisecond)
				tc.fault(8, devs)
				req := &InsertReq{Txn: 8, Key: 80, Body: []byte("80")}
				if _, err := p.Call(d.Name(), 128, req); err == nil && req.Resp.Err == nil {
					t.Error("an insert was acknowledged after the takeover")
				}
			})
			eng.Run()
			st := d.Stats()
			if !errors.Is(st.RegionErr, ErrLogLost) || !strings.Contains(st.RegionErr.Error(), tc.reason) {
				t.Errorf("RegionErr = %v, want %v naming %q", st.RegionErr, ErrLogLost, tc.reason)
			}
			if st.PMRebuilds != 0 || d.Pair().Up() {
				t.Errorf("PMRebuilds = %d, pair up %v; want 0 and a retired pair", st.PMRebuilds, d.Pair().Up())
			}
			eng.Shutdown()
		})
	}
}
