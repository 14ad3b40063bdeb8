package tmf

import (
	"errors"
	"testing"

	"persistmem/internal/adp"
	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/dp2"
	"persistmem/internal/npmu"
	"persistmem/internal/pmclient"
	"persistmem/internal/pmm"
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
				p.Wait(cluster.CallTimeout + sim.Second) // the coordinator gives up first
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
			if req, ok := ev.Payload.(*dp2.FlushAuditReq); ok { // a commit's flush, or the rollback's ADP lookup
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
		p.Wait(2 * cluster.CallTimeout) // the late reply has been sent by now
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

// A transaction whose master commit record is durable can still roll back:
// the log writer's reply is an error, or comes too late. Its participants'
// logs then hold the commit record and an abort behind it, and recovery
// takes the abort. The control block must agree: the monitor writes
// TCBCommitted only once the master commit succeeded, so a rollback leaves the
// transaction's block as begin wrote it. Recovery redoes a transaction's rows
// as they land on the strength of TCBCommitted alone, which is sound only
// because no trail can then abort it.
func TestRollbackAfterDurableCommitRecordNeverLeavesTCBCommitted(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply func(cl *cluster.Cluster, p *cluster.Process, ev cluster.Envelope, req *adp.CommitReq)
	}{
		{"error reply", func(_ *cluster.Cluster, _ *cluster.Process, ev cluster.Envelope, req *adp.CommitReq) {
			req.Resp = adp.CommitResp{Err: errors.New("log writer lost its backup")}
			ev.Reply(req)
		}},
		{"late reply", func(cl *cluster.Cluster, p *cluster.Process, ev cluster.Envelope, req *adp.CommitReq) {
			p.Wait(cluster.CallTimeout + sim.Second)
			req.Resp = adp.CommitResp{LSN: 64}
			ev.Reply(req)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			defer eng.Shutdown()
			cl := cluster.New(eng, cluster.DefaultConfig())
			var durable, aborted []audit.TxnID
			master := cl.CPU(0).Spawn("masteradp", func(p *cluster.Process) {
				for {
					ev := p.Recv()
					switch req := ev.Payload.(type) {
					case *adp.CommitReq:
						durable = append(durable, req.Txn) // the record is on the trail
						tc.reply(cl, p, ev, req)
					case *adp.AbortReq:
						aborted = append(aborted, req.Txn)
					}
				}
			})
			cl.Register("$MASTER", master)
			part := cl.CPU(1).Spawn("fakedp", func(p *cluster.Process) {
				for {
					ev := p.Recv()
					if req, ok := ev.Payload.(*dp2.FlushAuditReq); ok {
						req.Resp = dp2.FlushAuditResp{ADP: "$MASTER", LSN: 32}
					}
					ev.Reply(ev.Payload)
				}
			})
			cl.Register("$DP-F-0", part)
			a := npmu.New(cl, "npmu-a", 16<<20)
			b := npmu.New(cl, "npmu-b", 16<<20)
			pmm.Start(cl, "$PM1", 2, 3, a, b)
			Start(cl, Config{PrimaryCPU: 2, BackupCPU: 3, TCBVolume: "$PM1"})

			var txn audit.TxnID
			states := map[audit.TxnID]uint8{}
			cl.CPU(3).Spawn("client", func(p *cluster.Process) {
				txn = begin(t, p)
				req := &CommitReq{Txn: txn, DP2s: []string{"$DP-F-0"}}
				if _, err := p.Call("$TMF", 64, req); err == nil && req.Resp.Err == nil {
					t.Error("the commit succeeded though its master commit record's reply failed")
				}
				p.Wait(2 * cluster.CallTimeout) // every reply and abort is in by now
				r, err := pmclient.Attach(cl, "$PM1").Open(p, TCBRegionName)
				if err != nil {
					t.Errorf("open the TCB region: %v", err)
					return
				}
				img := make([]byte, r.Size())
				if err := r.Read(p, 0, img); err != nil {
					t.Errorf("read the TCB region: %v", err)
				}
				ScanTCBs(img, func(txn audit.TxnID, state uint8) { states[txn] = state })
			})
			eng.Run()
			if len(durable) != 1 || durable[0] != txn || len(aborted) != 1 || aborted[0] != txn {
				t.Fatalf("master log saw commit records %v and aborts %v, want one each for transaction %d", durable, aborted, txn)
			}
			if got := states[txn]; got != TCBActive {
				t.Errorf("transaction %d's control block reads state %d after the rollback, want %d (active, as begin wrote it): never %d (committed)", txn, got, TCBActive, TCBCommitted)
			}
		})
	}
}
