package tmf

import (
	"testing"

	"persistmem/internal/adp"
	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/dp2"
	"persistmem/internal/sim"
)

// A late reply never lands in a live box. The master log's reply to the
// coordinator's commit record is the request box itself — commitScratch.creq
// — with the response written into it, so a scratch whose call timed out
// must stay out of the pool for good: here the log writer stalls past
// CallTimeout on the first commit record and answers a second later, into a
// scratch nobody reads any more. The next commit gets a fresh scratch, whose
// request arrives with Resp untouched, and only that one is pooled.
func TestLateCommitReplyLandsInAbandonedScratch(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	const late = audit.LSN(999999)
	var boxes []*adp.CommitReq
	slow := cl.CPU(0).Spawn("slowadp", func(p *cluster.Process) {
		for {
			ev := p.Recv()
			req, ok := ev.Payload.(*adp.CommitReq)
			if !ok {
				continue // the rollback's one-way abort record
			}
			if req.Resp != (adp.CommitResp{}) {
				t.Errorf("commit record %d arrived with Resp %+v already written", len(boxes), req.Resp)
			}
			boxes = append(boxes, req)
			if len(boxes) == 1 {
				p.Wait(cl.Config().CallTimeout + sim.Second) // the coordinator gives up first
				req.Resp = adp.CommitResp{LSN: late}
				ev.Reply(req)
				continue
			}
			req.Resp = adp.CommitResp{LSN: 64}
			ev.Reply(req)
		}
	})
	cl.Register("$SLOW", slow)
	// A participant with nothing to flush: it names the stalled stream.
	part := cl.CPU(1).Spawn("fakedp", func(p *cluster.Process) {
		for {
			ev := p.Recv()
			if req, ok := ev.Payload.(*dp2.FlushAuditReq); ok { // a commit's flush, or adpOf's lookup on the rollback path
				req.Resp = dp2.FlushAuditResp{ADP: "$SLOW", LSN: 32}
			}
			ev.Reply(ev.Payload)
		}
	})
	cl.Register("$DP-F-0", part)
	tm := Start(cl, Config{PrimaryCPU: 2, BackupCPU: 3})

	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		commit := func() (CommitResp, error) {
			req := &CommitReq{Txn: begin(t, p), DP2s: []string{"$DP-F-0"}}
			_, err := p.Call("$TMF", 64, req)
			return req.Resp, err
		}
		// This commit rides the stalled commit record: both calls time out.
		if _, err := commit(); err == nil {
			t.Error("the commit behind a stalled master log returned before its timeout")
		}
		p.Wait(2 * cl.Config().CallTimeout) // the late reply has been sent by now
		if len(tm.scfree) != 0 {
			t.Errorf("scfree holds %d scratches after a timed-out commit record, want none: its box may still be written", len(tm.scfree))
		}
		if resp, err := commit(); err != nil || resp.Err != nil {
			t.Errorf("the next commit: %v, %v", err, resp.Err)
		}
	})
	eng.Run()
	if len(boxes) != 2 || boxes[0] == boxes[1] {
		t.Fatalf("the master log saw boxes %p: want two distinct ones, the timed-out one never re-issued", boxes)
	}
	if boxes[0].Resp.LSN != late {
		t.Errorf("the late reply wrote %+v into the abandoned scratch, want LSN %d", boxes[0].Resp, late)
	}
	if len(tm.scfree) != 1 || &tm.scfree[0].creq != boxes[1] {
		t.Errorf("scfree = %p, want only the scratch whose reply arrived", tm.scfree)
	}
	if st := tm.Stats(); st.Commits != 1 || st.Aborts != 1 {
		t.Errorf("stats = %+v, want one commit and one abort", st)
	}
	eng.Shutdown()
}
