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
