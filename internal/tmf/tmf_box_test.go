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
// coordinator's commit record is the request box itself — coordinator.creq —
// with the response written into it, so a coordinator whose call timed out
// must never be restarted: here the log writer stalls past CallTimeout on the
// first commit record and answers a second later, into a coordinator nobody
// runs any more. The next commit gets a newly spawned coordinator, whose
// request arrives with Resp untouched, and only that one is pooled.
func TestTimedOutCoordinatorIsNeverRestarted(t *testing.T) {
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
			if len(boxes) < 2 && req.Resp != (adp.CommitResp{}) { // a restarted coordinator's box carries its last answer
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
		if n := len(tm.pool.idle); n != 0 {
			t.Errorf("the pool holds %d coordinators after a timed-out commit record, want none: its box may still be written", n)
		}
		for i := 0; i < 3; i++ {
			if resp, err := commit(); err != nil || resp.Err != nil {
				t.Errorf("commit %d after the stall: %v, %v", i, err, resp.Err)
			}
		}
	})
	eng.Run()
	if len(boxes) != 4 || boxes[0] == boxes[1] || boxes[1] != boxes[3] {
		t.Fatalf("the master log saw boxes %p: want the timed-out one never re-issued and the next coordinator's for the rest", boxes)
	}
	if boxes[0].Resp.LSN != late {
		t.Errorf("the late reply wrote %+v into the abandoned coordinator, want LSN %d", boxes[0].Resp, late)
	}
	if len(tm.pool.idle) != 1 || &tm.pool.idle[0].creq != boxes[1] || tm.ncoord != 2 {
		t.Errorf("pool = %p after %d spawns, want only the second coordinator, spawned once and restarted", tm.pool.idle, tm.ncoord)
	}
	if st := tm.Stats(); st.Commits != 3 || st.Aborts != 1 {
		t.Errorf("stats = %+v, want three commits and one abort", st)
	}
	eng.Shutdown()
}
