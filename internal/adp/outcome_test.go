package adp

import (
	"bytes"
	"testing"

	"persistmem/internal/audit"
	"persistmem/internal/cluster"
)

// TestCommitWithOutcomeWritesOutcomeRecord: a CommitReq carrying an
// outcome body must land an audit.RecOutcome frame — the cross-shard
// commit point — on the trail instead of a plain commit record, with the
// body passed through byte-for-byte (the ADP treats it as opaque; the
// TMF owns the encoding).
func TestCommitWithOutcomeWritesOutcomeRecord(t *testing.T) {
	eng, cl, _, vol := diskHarness(t, nil)
	data := appendRecords(1, 2, 256)
	outcome := []byte("opaque-outcome-body")
	cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		call(t, p, len(data), &AppendReq{Data: data})
		if resp := call(t, p, 64+len(outcome), &CommitReq{Txn: 1, Outcome: outcome}).Resp; resp.Err != nil {
			t.Fatalf("commit resp err: %v", resp.Err)
		}
	})
	eng.Run()
	read := make([]byte, 64<<10)
	vol.Store().ReadAt(0, read)
	s := audit.NewScanner(read)
	var outcomes, commits int
	for s.Next() {
		rec := s.Record()
		switch rec.Type {
		case audit.RecOutcome:
			outcomes++
			if rec.Txn != 1 || !bytes.Equal(rec.Body, outcome) {
				t.Errorf("outcome record = %+v", rec)
			}
		case audit.RecCommit:
			commits++
		}
	}
	if outcomes != 1 || commits != 0 {
		t.Errorf("trail holds %d outcome and %d commit records, want 1 and 0", outcomes, commits)
	}
	eng.Shutdown()
}
