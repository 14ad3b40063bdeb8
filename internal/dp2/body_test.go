package dp2

import (
	"bytes"
	"testing"

	"persistmem/internal/cluster"
)

// A retaining DP2 keeps each row's body as a pointer to its first byte and
// its length, and rebuilds the slice on a read. These tests read bodies of
// 0, 1 and 4 096 bytes back through every way a row gets its body: the
// insert, a key aborted and inserted again, the backup's checkpointed image,
// and a PM-direct rebuild.

// retained names the rows of these tests and their lengths: keys 1–3 are
// inserted once, keys 11–13 are inserted, aborted and inserted again.
var retained = map[uint64]int{1: 0, 2: 1, 3: 4096, 11: 0, 12: 1, 13: 4096}

// insertRetained commits every row of retained in key order, the reinserted
// keys over an aborted first insert of a different length and content.
func insertRetained(t *testing.T, p *cluster.Process) {
	t.Helper()
	keys := []uint64{1, 2, 3, 11, 12, 13}
	for _, key := range keys[3:] {
		call(t, p, &InsertReq{Txn: 1, Key: key, Body: bytes.Repeat([]byte{0xEE}, retained[key]+7)})
	}
	call(t, p, &EndTxnReq{Txn: 1, Commit: false})
	for _, key := range keys {
		if resp := call(t, p, &InsertReq{Txn: 2, Key: key, Body: rowBody(key, retained[key])}).Resp; resp.Err != nil {
			t.Fatalf("insert %d: %v", key, resp.Err)
		}
	}
	call(t, p, &EndTxnReq{Txn: 2, Commit: true})
}

// TestRetainedBodiesReadBackWhileResidentAndAfterTakeover reads every body
// from the cache, again once it is destaged, and again from the image the
// backup absorbed from checkpoints after the primary is killed. A destaged
// row stays in the cache: no read touches the data volume.
func TestRetainedBodiesReadBackWhileResidentAndAfterTakeover(t *testing.T) {
	eng, cl, d := harness(t, nil)
	vol := d.cfg.Volume
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		insertRetained(t, p)
		readBackAll(t, p, retained)
		p.Wait(settle)
		if st := call(t, p, &StateReq{}).Resp; st.Writebacks == 0 || st.DirtyBytes != 0 {
			t.Fatalf("after settling: Writebacks %d, DirtyBytes %d; want every row destaged", st.Writebacks, st.DirtyBytes)
		}
		readBackAll(t, p, retained)
		if vol.Stats.Reads != 0 {
			t.Errorf("%d data-volume reads serving destaged rows, want none", vol.Stats.Reads)
		}
		d.Pair().KillPrimary()
		p.Wait(cluster.TakeoverDelay + settle)
		if d.Pair().Takeovers != 1 {
			t.Fatalf("takeovers = %d, want 1", d.Pair().Takeovers)
		}
		readBackAll(t, p, retained)
		if vol.Stats.Reads != 0 {
			t.Errorf("%d data-volume reads after the takeover, want none", vol.Stats.Reads)
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestRetainedBodiesReadBackAfterPMRebuild reads every body from a PM-direct
// DP2's cache and again after a takeover rebuilt the cache from the PM log,
// each body a slice of the rebuild's image.
func TestRetainedBodiesReadBackAfterPMRebuild(t *testing.T) {
	eng, cl, d, _ := pmDirectHarness(t, nil)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		insertRetained(t, p)
		readBackAll(t, p, retained)
		d.Pair().KillPrimary()
		p.Wait(cluster.TakeoverDelay + settle)
		readBackAll(t, p, retained)
	})
	eng.Run()
	if got := d.Stats().PMRebuilds; got != 1 {
		t.Errorf("PMRebuilds = %d, want 1: the reads after the takeover did not come from a rebuilt cache", got)
	}
	eng.Shutdown()
}

// TestBodyLimit holds the bound a row's 31-bit length word sets: a body of
// bodyLimit − 1 bytes fits, one of bodyLimit does not, and the dirty flag
// in the top bit leaves the length it shares the word with intact.
func TestBodyLimit(t *testing.T) {
	if bodyLimit != 1<<31 {
		t.Fatalf("bodyLimit = %d, want 2^31: the row's length word has 31 bits", bodyLimit)
	}
	for _, tc := range []struct {
		n    int
		fits bool
	}{{0, true}, {bodyLimit - 1, true}, {bodyLimit, false}, {1 << 32, false}} {
		if got := bodyFits(tc.n); got != tc.fits {
			t.Errorf("bodyFits(%d) = %v, want %v", tc.n, got, tc.fits)
		}
	}
	r := row{word: uint32(bodyLimit-1) | dirtyBit}
	if r.blen() != bodyLimit-1 || !r.dirty() {
		t.Fatalf("a dirty row of the longest body reads blen %d, dirty %v", r.blen(), r.dirty())
	}
	r.clean()
	if r.blen() != bodyLimit-1 || r.dirty() {
		t.Errorf("cleaned, the row reads blen %d, dirty %v", r.blen(), r.dirty())
	}
}

// TestApplyRefusesAnOversizedBody holds the apply path to a loud failure on
// a body its row cannot record: a replayed audit record of bodyLimit bytes
// panics rather than being cached with a truncated length. The delta
// declares the length without carrying the body.
func TestApplyRefusesAnOversizedBody(t *testing.T) {
	st := newState()
	defer func() {
		if recover() == nil {
			t.Fatal("an insert of bodyLimit bytes was applied")
		}
		if st.tree.Len() != 0 || st.dirty != 0 || st.dirtyq.len() != 0 || st.stamp != 0 {
			t.Errorf("the refused insert changed the image: %d rows, %d dirty, %d queued, stamp %d",
				st.tree.Len(), st.dirty, st.dirtyq.len(), st.stamp)
		}
	}()
	st.applyInsert(insertDelta{txn: 1, key: 1, blen: bodyLimit}, false)
}
