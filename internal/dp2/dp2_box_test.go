package dp2

import (
	"testing"

	"persistmem/internal/adp"
	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/sim"
)

// The tests below pin the checkpoint-delta and audit-request box
// lifecycles that boxcheck (simlint) verifies statically: once the backup
// has absorbed a delta (CheckpointFrom returned nil) or the ADP has
// replied, the box is back in its pool, and later traffic reuses pooled
// boxes instead of allocating.

func TestDeltaBoxesRecycledAfterCheckpoint(t *testing.T) {
	eng, cl, d := harness(t, nil)
	runTxn := func(txn audit.TxnID, base uint64) {
		cl.CPU(3).Spawn("client", func(p *cluster.Process) {
			for i := uint64(0); i < 4; i++ {
				call(t, p, &InsertReq{Txn: txn, Key: base + i, Body: []byte("x")})
			}
			call(t, p, &EndTxnReq{Txn: txn, Commit: true})
		})
		eng.Run()
	}
	runTxn(1, 100)
	insPool, endPool := len(d.insfree), len(d.endfree)
	if insPool == 0 {
		t.Fatal("insfree empty after absorbed insert checkpoints; deltas were not recycled")
	}
	if endPool == 0 {
		t.Fatal("endfree empty after an absorbed end checkpoint; the delta was not recycled")
	}
	// Steady state: a second transaction of the same shape must run
	// entirely on recycled boxes, leaving the pools exactly as they were.
	runTxn(2, 200)
	if len(d.insfree) != insPool || len(d.endfree) != endPool {
		t.Errorf("pools grew across an identical transaction: insfree %d -> %d, endfree %d -> %d (boxes not reused)",
			insPool, len(d.insfree), endPool, len(d.endfree))
	}
	eng.Shutdown()
}

func TestAppendReqBoxRecycledAfterADPReply(t *testing.T) {
	eng, cl, d := harness(t, nil)
	flush := func(txn audit.TxnID, key uint64) {
		cl.CPU(3).Spawn("client", func(p *cluster.Process) {
			call(t, p, &InsertReq{Txn: txn, Key: key, Body: make([]byte, 512)})
			resp := call(t, p, &FlushAuditReq{Txn: txn}).Resp
			if resp.Err != nil {
				t.Fatalf("flush audit: %v", resp.Err)
			}
		})
		eng.Run()
	}
	flush(1, 1)
	if len(d.appfree) != 1 {
		t.Fatalf("appfree holds %d boxes after the ADP replied, want 1", len(d.appfree))
	}
	recycled := d.appfree[0]
	flush(2, 2)
	if len(d.appfree) != 1 || d.appfree[0] != recycled {
		t.Errorf("second flush did not reuse the recycled append-request box (pool %d, got %p want %p)",
			len(d.appfree), d.appfree[0], recycled)
	}
	eng.Shutdown()
}

// A late reply never lands in a live box. The ADP's reply to a pointer
// request is the request box itself with the response written into it, so
// the rule that lets auditSent recycle a box only after its reply also
// has to keep a box whose call timed out away from the pool for good: here
// the log writer stalls past CallTimeout on the first append and answers a
// second later, into a box nobody reads any more. The retry travels in a
// fresh box, whose Resp arrives untouched, and only that one is pooled.
func TestLateAppendReplyLandsInAbandonedBox(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	const late = audit.LSN(999999)
	var boxes []*adp.AppendReq
	var trail int
	slow := cl.CPU(0).Spawn("slowadp", func(p *cluster.Process) {
		for {
			ev := p.Recv()
			req, ok := ev.Payload.(*adp.AppendReq)
			if !ok {
				t.Errorf("the DP2 sent its audit as %T, want a pooled *adp.AppendReq", ev.Payload)
				return
			}
			if req.Resp != (adp.AppendResp{}) {
				t.Errorf("request %d arrived with Resp %+v already written", len(boxes), req.Resp)
			}
			boxes = append(boxes, req)
			if len(boxes) == 1 {
				p.Wait(cluster.CallTimeout + sim.Second) // the caller gives up first
				req.Resp = adp.AppendResp{End: late}
				ev.Reply(req)
				continue
			}
			trail += len(req.Data)
			req.Resp = adp.AppendResp{End: audit.LSN(trail)}
			ev.Reply(req)
		}
	})
	cl.Register("$SLOW", slow)
	d := Start(cl, Config{
		Name: "$DP-F-0", File: "F", Partition: 0, PrimaryCPU: 1, BackupCPU: 2,
		Volume: disk.New(eng, "$DATA", disk.DefaultConfig(), 64<<20), ADPName: "$SLOW",
	})
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 1, Body: make([]byte, 512)})
		// This flush rides the stalled append: both calls time out.
		if _, err := p.Call("$DP-F-0", 128, &FlushAuditReq{Txn: 1}); err == nil {
			t.Error("the flush behind a stalled log writer returned before its timeout")
		}
		p.Wait(2 * cluster.CallTimeout) // the late reply has been sent by now
		if len(d.appfree) != 0 {
			t.Errorf("appfree holds %d boxes after a timed-out append, want none: the box may still be written", len(d.appfree))
		}
		resp := call(t, p, &FlushAuditReq{Txn: 1}).Resp
		if resp.Err != nil || resp.LSN != audit.LSN(trail) || trail == 0 {
			t.Errorf("retried flush = %+v with %d bytes on the trail", resp, trail)
		}
	})
	eng.Run()
	if len(boxes) != 2 || boxes[0] == boxes[1] {
		t.Fatalf("the log writer saw boxes %p: want two distinct ones, the timed-out one never re-issued", boxes)
	}
	if boxes[0].Resp.End != late {
		t.Errorf("the late reply wrote %+v into the abandoned box, want End %d", boxes[0].Resp, late)
	}
	if len(d.appfree) != 1 || d.appfree[0] != boxes[1] {
		t.Errorf("appfree = %p, want only the box whose reply arrived (%p)", d.appfree, boxes[1])
	}
	if d.appfree[0].Resp != (adp.AppendResp{}) || d.appfree[0].Data != nil {
		t.Errorf("the pooled box still carries %+v", *d.appfree[0])
	}
	eng.Shutdown()
}
