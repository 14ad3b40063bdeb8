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

// Pins the request-box lifecycle that boxcheck (simlint) verifies
// statically: a session recycles its begin, insert, read and commit request
// boxes once the replies arrive — the replies being the boxes themselves with
// the response written in — so back-to-back transactions run on pooled boxes.

func TestSessionRequestBoxesRecycledAcrossTxns(t *testing.T) {
	s := Build(smallOptions(DiskDurability))
	var insPool, cmtPool int
	runClient(s, func(se *Session) {
		runTxn := func(round uint64) {
			txn, err := se.Begin()
			if err != nil {
				t.Fatalf("Begin: %v", err)
			}
			for k := uint64(0); k < 4; k++ {
				if err := txn.InsertAsync("TRADES", round*100+k, []byte(fmt.Sprintf("r%d-%d", round, k))); err != nil {
					t.Fatalf("InsertAsync: %v", err)
				}
			}
			if err := txn.Commit(); err != nil {
				t.Fatalf("Commit: %v", err)
			}
		}
		runTxn(1)
		insPool, cmtPool = len(se.insfree), len(se.cmtfree)
		if insPool == 0 {
			t.Fatal("insfree empty after all insert replies arrived; boxes were not recycled")
		}
		if cmtPool != 1 || len(se.begfree) != 1 {
			t.Fatalf("cmtfree holds %d boxes and begfree %d after one transaction, want 1 and 1", cmtPool, len(se.begfree))
		}
		recycled, begun := se.cmtfree[0], se.begfree[0]
		if begun.Resp != (tmf.BeginResp{}) || recycled.Resp != (tmf.CommitResp{}) {
			t.Errorf("pooled boxes still carry their last responses: %+v, %+v", begun.Resp, recycled.Resp)
		}
		// An identical transaction must run on the recycled boxes: the
		// pools return to exactly the same size, and the commit request
		// is the same box.
		runTxn(2)
		if len(se.insfree) != insPool || len(se.cmtfree) != cmtPool {
			t.Errorf("pools grew across an identical transaction: insfree %d -> %d, cmtfree %d -> %d (boxes not reused)",
				insPool, len(se.insfree), cmtPool, len(se.cmtfree))
		}
		if se.cmtfree[0] != recycled {
			t.Errorf("second commit did not reuse the recycled commit-request box")
		}
		if len(se.begfree) != 1 || se.begfree[0] != begun {
			t.Errorf("second begin did not reuse the recycled begin-request box (pool %d)", len(se.begfree))
		}
	})
	s.Eng.Shutdown()
}

// A pooled box is blank: the response its last reply carried — an insert's
// error, a read's row — is gone before the box is issued again.
func TestRecycledBoxesCarryNoStaleResponse(t *testing.T) {
	s := Build(smallOptions(DiskDurability))
	runClient(s, func(se *Session) {
		txn, _ := se.Begin()
		if err := txn.Insert("TRADES", 1, []byte("row")); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := txn.Insert("TRADES", 1, []byte("again")); !errors.Is(err, ErrInsertFailed) {
			t.Fatalf("duplicate insert: %v, want ErrInsertFailed", err)
		}
		if body, err := txn.Read("TRADES", 1); err != nil || string(body) != "row" {
			t.Fatalf("Read = %q, %v", body, err)
		}
		txn.Abort()
		if len(se.insfree) != 1 || len(se.rdfree) != 1 {
			t.Fatalf("insfree holds %d boxes and rdfree %d, want 1 and 1: a replied box was not recycled", len(se.insfree), len(se.rdfree))
		}
		if r := se.insfree[0]; r.Resp.Err != nil || r.Body != nil {
			t.Errorf("the pooled insert box still carries %+v", *r)
		}
		if r := se.rdfree[0]; r.Resp.Err != nil || r.Resp.Body != nil || r.Key != 0 {
			t.Errorf("the pooled read box still carries %+v", *r)
		}
		recycled := se.rdfree[0]
		se.ReadBrowse("TRADES", 1)
		if len(se.rdfree) != 1 || se.rdfree[0] != recycled {
			t.Errorf("the second read did not reuse the recycled read-request box (pool %d)", len(se.rdfree))
		}
	})
	s.Eng.Shutdown()
}

// stallDP2 rebinds the DP2 name serving key 1 of TRADES to a stand-in that
// sits on its first insert and its first read past CallTimeout and then
// answers them, late, with errLate; every later request is answered at once.
// It records the boxes it saw and checks each arrived blank.
func stallDP2(t *testing.T, s *Store, inserts *[]*dp2.InsertReq, reads *[]*dp2.ReadReq) {
	slow := s.Cl.CPU(0).Spawn("slowdp2", func(p *cluster.Process) {
		for {
			ev := p.Recv()
			switch req := ev.Payload.(type) {
			case *dp2.InsertReq:
				if req.Resp.Err != nil {
					t.Errorf("insert %d arrived with Resp %+v already written", len(*inserts), req.Resp)
				}
				*inserts = append(*inserts, req)
				if len(*inserts) == 1 {
					p.Wait(cluster.CallTimeout + sim.Second) // the session gives up first
					req.Resp = dp2.InsertResp{Err: errLate}
				}
			case *dp2.ReadReq:
				if req.Resp.Err != nil || req.Resp.Body != nil {
					t.Errorf("read %d arrived with Resp %+v already written", len(*reads), req.Resp)
				}
				*reads = append(*reads, req)
				if len(*reads) == 1 {
					p.Wait(cluster.CallTimeout + sim.Second)
					req.Resp = dp2.ReadResp{Err: errLate}
				}
			}
			ev.Reply(ev.Payload) // flushes and ends have nothing to report
		}
	})
	s.Cl.Register(s.DP2Name("TRADES", s.PartitionOf("TRADES", 1)), slow)
}

var errLate = errors.New("late reply")

// A late reply never lands in a live box. A DP2's reply is the request box
// itself with the response written into it, so a box whose call timed out
// must stay out of the session's pool for good: here the DP2 answers its
// first insert a second after the session gave up on it, into a box nobody
// reads any more. The next insert travels in a fresh box, which arrives
// blank, and only that one is pooled.
func TestLateInsertReplyLandsInAbandonedBox(t *testing.T) {
	s := Build(smallOptions(DiskDurability))
	var inserts []*dp2.InsertReq
	var reads []*dp2.ReadReq
	stallDP2(t, s, &inserts, &reads)
	runClient(s, func(se *Session) {
		txn, _ := se.Begin()
		if err := txn.Insert("TRADES", 1, []byte("x")); !errors.Is(err, ErrInsertFailed) {
			t.Errorf("the insert behind a stalled DP2: %v, want ErrInsertFailed after the timeout", err)
		}
		se.p.Wait(2 * cluster.CallTimeout) // the late reply has been sent by now
		if len(se.insfree) != 0 {
			t.Errorf("insfree holds %d boxes after a timed-out insert, want none: the box may still be written", len(se.insfree))
		}
		txn.Abort()
		txn, _ = se.Begin()
		if err := txn.Insert("TRADES", 1, []byte("y")); err != nil {
			t.Errorf("the next insert: %v", err)
		}
		if err := txn.Commit(); err != nil {
			t.Errorf("the next commit: %v", err)
		}
		if len(inserts) != 2 || inserts[0] == inserts[1] {
			t.Fatalf("the DP2 saw boxes %p: want two distinct ones, the timed-out one never re-issued", inserts)
		}
		if inserts[0].Resp.Err != errLate {
			t.Errorf("the late reply wrote %+v into the abandoned box, want errLate", inserts[0].Resp)
		}
		if len(se.insfree) != 1 || se.insfree[0] != inserts[1] {
			t.Errorf("insfree = %p, want only the box whose reply arrived (%p)", se.insfree, inserts[1])
		}
	})
	s.Eng.Shutdown()
}

// The same for a read: the box of a read that timed out is never pooled, so
// the row a late reply carries reaches nobody.
func TestLateReadReplyLandsInAbandonedBox(t *testing.T) {
	s := Build(smallOptions(DiskDurability))
	var inserts []*dp2.InsertReq
	var reads []*dp2.ReadReq
	stallDP2(t, s, &inserts, &reads)
	runClient(s, func(se *Session) {
		if _, err := se.ReadBrowse("TRADES", 1); !errors.Is(err, cluster.ErrTimeout) {
			t.Errorf("the read behind a stalled DP2: %v, want the call timeout", err)
		}
		se.p.Wait(2 * cluster.CallTimeout) // the late reply has been sent by now
		if len(se.rdfree) != 0 {
			t.Errorf("rdfree holds %d boxes after a timed-out read, want none: the box may still be written", len(se.rdfree))
		}
		if _, err := se.ReadBrowse("TRADES", 1); err != nil {
			t.Errorf("the next read: %v", err)
		}
		if len(reads) != 2 || reads[0] == reads[1] {
			t.Fatalf("the DP2 saw boxes %p: want two distinct ones, the timed-out one never re-issued", reads)
		}
		if reads[0].Resp.Err != errLate {
			t.Errorf("the late reply wrote %+v into the abandoned box, want errLate", reads[0].Resp)
		}
		if len(se.rdfree) != 1 || se.rdfree[0] != reads[1] {
			t.Errorf("rdfree = %p, want only the box whose reply arrived (%p)", se.rdfree, reads[1])
		}
	})
	s.Eng.Shutdown()
}
