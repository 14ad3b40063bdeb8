package ods

import (
	"fmt"
	"testing"

	"persistmem/internal/tmf"
)

// Pins the request-box lifecycle that boxcheck (simlint) verifies
// statically: a session recycles its begin, insert and commit request boxes
// once the replies arrive — the monitor's replies being the boxes themselves
// with the response written in — so back-to-back transactions run on pooled
// boxes.

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
