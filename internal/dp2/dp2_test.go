package dp2

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"persistmem/internal/adp"
	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/locks"
	"persistmem/internal/sim"
)

// harness builds one DP2 over a retaining data volume, audited by one
// disk-mode ADP.
func harness(t *testing.T, tweak func(*Config)) (*sim.Engine, *cluster.Cluster, *DP2) {
	t.Helper()
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	auditVol := disk.New(eng, "$AUDIT", disk.DefaultConfig(), 64<<20)
	adp.Start(cl, adp.Config{Name: "$ADP0", PrimaryCPU: 0, BackupCPU: 1, Mode: adp.Disk, Volume: auditVol})
	dataVol := disk.New(eng, "$DATA", disk.DefaultConfig(), 64<<20)
	cfg := Config{
		Name: "$DP-F-0", File: "F", Partition: 0,
		PrimaryCPU: 1, BackupCPU: 2,
		Volume: dataVol, ADPName: "$ADP0",
		RetainData: true,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return eng, cl, Start(cl, cfg)
}

// call sends the request box req to the DP2 and hands it back once the reply
// — the box itself, carrying the response — has arrived.
func call[R any](t *testing.T, p *cluster.Process, req *R) *R {
	t.Helper()
	raw, err := p.Call("$DP-F-0", 128, req)
	if err != nil {
		t.Fatalf("call %T: %v", req, err)
	}
	if raw != interface{}(req) {
		t.Fatalf("call %T: the reply is %T %v, want the request box itself", req, raw, raw)
	}
	return req
}

func TestInsertAndRead(t *testing.T) {
	eng, cl, _ := harness(t, nil)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		resp := call(t, p, &InsertReq{Txn: 1, Key: 5, Body: []byte("hello")}).Resp
		if resp.Err != nil {
			t.Fatalf("insert: %v", resp.Err)
		}
		rresp := call(t, p, &ReadReq{Txn: 0, Key: 5}).Resp
		if rresp.Err != nil || string(rresp.Body) != "hello" {
			t.Errorf("read = %q, %v", rresp.Body, rresp.Err)
		}
		missing := call(t, p, &ReadReq{Txn: 0, Key: 99}).Resp
		if !errors.Is(missing.Err, ErrNotFound) {
			t.Errorf("missing read: %v, want ErrNotFound", missing.Err)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestDuplicateKeyRejected(t *testing.T) {
	eng, cl, d := harness(t, nil)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 5, Body: []byte("x")})
		call(t, p, &EndTxnReq{Txn: 1, Commit: true})
		resp := call(t, p, &InsertReq{Txn: 2, Key: 5, Body: []byte("y")}).Resp
		if !errors.Is(resp.Err, ErrDuplicateKey) {
			t.Errorf("dup insert: %v, want ErrDuplicateKey", resp.Err)
		}
	})
	eng.Run()
	if d.Stats().DuplicateKeys != 1 {
		t.Errorf("DuplicateKeys = %d", d.Stats().DuplicateKeys)
	}
	eng.Shutdown()
}

func TestAbortUndo(t *testing.T) {
	eng, cl, d := harness(t, nil)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 10, Body: []byte("doomed")})
		call(t, p, &EndTxnReq{Txn: 1, Commit: false})
		resp := call(t, p, &ReadReq{Key: 10}).Resp
		if !errors.Is(resp.Err, ErrNotFound) {
			t.Errorf("read after abort: %v", resp.Err)
		}
	})
	eng.Run()
	if d.Stats().Aborted != 1 {
		t.Errorf("Aborted = %d", d.Stats().Aborted)
	}
	eng.Shutdown()
}

func TestLockConflictWaitsForHolder(t *testing.T) {
	// Txn 1 holds key 5's lock; txn 2's insert must wait for txn 1's end
	// — and critically, the serve loop must keep processing the EndTxn
	// while txn 2's insert is parked (the continuation path).
	eng, cl, _ := harness(t, nil)
	var t2Done sim.Time
	var t1End sim.Time
	cl.CPU(3).Spawn("txn1", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 5, Body: []byte("first")})
		p.Wait(50 * sim.Millisecond)
		t1End = p.Now()
		call(t, p, &EndTxnReq{Txn: 1, Commit: false}) // abort frees the key
	})
	cl.CPU(2).Spawn("txn2", func(p *cluster.Process) {
		p.Wait(5 * sim.Millisecond)
		resp := call(t, p, &InsertReq{Txn: 2, Key: 5, Body: []byte("second")}).Resp
		if resp.Err != nil {
			t.Errorf("waiting insert failed: %v", resp.Err)
			return
		}
		t2Done = p.Now()
		call(t, p, &EndTxnReq{Txn: 2, Commit: true})
	})
	eng.Run()
	if t2Done < t1End {
		t.Errorf("txn2 insert completed at %v, before txn1 released at %v", t2Done, t1End)
	}
	eng.Shutdown()
}

func TestLockTimeout(t *testing.T) {
	eng, cl, d := harness(t, nil)
	cl.CPU(3).Spawn("holder", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 5, Body: []byte("x")})
		// Never ends; the waiter must time out.
	})
	cl.CPU(2).Spawn("waiter", func(p *cluster.Process) {
		p.Wait(time5ms)
		resp := call(t, p, &InsertReq{Txn: 2, Key: 5, Body: []byte("y")}).Resp
		if !errors.Is(resp.Err, locks.ErrLockTimeout) {
			t.Errorf("err = %v, want ErrLockTimeout", resp.Err)
		}
	})
	eng.Run()
	if d.Stats().LockTimeouts != 1 {
		t.Errorf("LockTimeouts = %d", d.Stats().LockTimeouts)
	}
	eng.Shutdown()
}

const time5ms = 5 * sim.Millisecond

func TestFlushAuditReportsADPAndLSN(t *testing.T) {
	eng, cl, _ := harness(t, nil)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 1, Body: make([]byte, 1024)})
		resp := call(t, p, &FlushAuditReq{Txn: 1}).Resp
		if resp.Err != nil {
			t.Fatalf("flush audit: %v", resp.Err)
		}
		if resp.ADP != "$ADP0" {
			t.Errorf("ADP = %q", resp.ADP)
		}
		if resp.LSN == 0 {
			t.Error("LSN = 0 after unsent audit")
		}
		// Second flush with nothing pending reports LSN 0 (nothing new).
		resp2 := call(t, p, &FlushAuditReq{Txn: 1}).Resp
		if resp2.LSN != 0 {
			t.Errorf("second flush LSN = %v, want 0", resp2.LSN)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestAuditThresholdForwarding(t *testing.T) {
	// Inserts beyond auditSendBytes push audit to the ADP without waiting
	// for commit.
	eng, cl, d := harness(t, nil)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		for i := 0; i < 4; i++ {
			call(t, p, &InsertReq{Txn: 1, Key: uint64(i), Body: make([]byte, auditSendBytes/2)})
		}
	})
	eng.Run()
	if d.Stats().AuditSends == 0 {
		t.Error("no audit forwarded despite exceeding the threshold")
	}
	eng.Shutdown()
}

func TestTransactionalReadTakesSharedLock(t *testing.T) {
	eng, cl, _ := harness(t, nil)
	var writerDone sim.Time
	var readerRelease sim.Time
	cl.CPU(3).Spawn("reader", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 5, Body: []byte("v")})
		call(t, p, &EndTxnReq{Txn: 1, Commit: true})
		// Txn 2 reads key 5 with a shared lock and holds it 40ms.
		resp := call(t, p, &ReadReq{Txn: 2, Key: 5}).Resp
		if resp.Err != nil {
			t.Fatalf("txn read: %v", resp.Err)
		}
		p.Wait(40 * sim.Millisecond)
		readerRelease = p.Now()
		call(t, p, &EndTxnReq{Txn: 2, Commit: true})
	})
	cl.CPU(2).Spawn("writer", func(p *cluster.Process) {
		p.Wait(25 * sim.Millisecond)
		// Deleting/updating would need X; our only writer op is insert,
		// which conflicts via the same lock key. A duplicate insert will
		// fail — but only AFTER the shared lock is released.
		resp := call(t, p, &InsertReq{Txn: 3, Key: 5, Body: []byte("w")}).Resp
		writerDone = p.Now()
		if !errors.Is(resp.Err, ErrDuplicateKey) {
			t.Errorf("writer got %v, want ErrDuplicateKey", resp.Err)
		}
		call(t, p, &EndTxnReq{Txn: 3, Commit: false})
	})
	eng.Run()
	if writerDone < readerRelease {
		t.Errorf("writer's conflicting insert finished at %v, before reader released at %v",
			writerDone, readerRelease)
	}
	eng.Shutdown()
}

func TestStateReport(t *testing.T) {
	eng, cl, _ := harness(t, nil)
	var st Stats
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 1, Body: make([]byte, 4096)})
		call(t, p, &InsertReq{Txn: 1, Key: 2, Body: make([]byte, 4096)})
		call(t, p, &EndTxnReq{Txn: 1, Commit: true})
		st = call(t, p, &StateReq{}).Resp
	})
	eng.Run()
	if st.Inserts != 2 || st.CacheRows != 2 || st.InsertBytes != 8192 {
		t.Errorf("stats = %+v", st)
	}
	eng.Shutdown()
}

func TestTakeoverRebuildsFromDeltas(t *testing.T) {
	eng, cl, d := harness(t, nil)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 11, Body: []byte("survives")})
		call(t, p, &EndTxnReq{Txn: 1, Commit: true})
		d.Pair().KillPrimary()
		deadline := p.Now() + 5*sim.Second
		for {
			req := &ReadReq{Key: 11}
			if _, err := p.Call("$DP-F-0", 64, req); err == nil {
				resp := req.Resp
				if resp.Err != nil || string(resp.Body) != "survives" {
					t.Errorf("post-takeover read = %q, %v", resp.Body, resp.Err)
				}
				return
			}
			if p.Now() > deadline {
				t.Fatal("DP2 never answered after takeover")
			}
			p.Wait(100 * sim.Millisecond)
		}
	})
	eng.Run()
	if d.Pair().Takeovers != 1 {
		t.Errorf("takeovers = %d", d.Pair().Takeovers)
	}
	eng.Shutdown()
}

func TestAbortedRowsNotDestaged(t *testing.T) {
	eng, cl, _ := harness(t, nil)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 1, Body: make([]byte, 4096)})
		call(t, p, &EndTxnReq{Txn: 1, Commit: false}) // abort before destage
		p.Wait(settle)
		st := call(t, p, &StateReq{}).Resp
		if st.DirtyBytes != 0 || st.Writebacks != 0 {
			t.Errorf("DirtyBytes = %d, Writebacks = %d after abort; want 0, 0", st.DirtyBytes, st.Writebacks)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestAuditRecordsCarryAfterImages(t *testing.T) {
	// The audit frames a DP2 emits decode back to the inserted rows.
	eng, cl, _ := harness(t, nil)
	var frames []byte
	// Intercept at a fake ADP.
	srv := cl.CPU(0).Spawn("fakeadp", func(p *cluster.Process) {
		for {
			ev := p.Recv()
			// The DP2 sends its audit in a pooled box and reads the reply
			// out of it.
			req, ok := ev.Payload.(*adp.AppendReq)
			if !ok {
				continue
			}
			frames = append(frames, req.Data...)
			req.Resp = adp.AppendResp{End: audit.LSN(len(frames))}
			ev.Reply(req)
		}
	})
	cl.Register("$FAKE", srv)
	dataVol := disk.New(eng, "$DATA2", disk.DefaultConfig(), 64<<20)
	Start(cl, Config{
		Name: "$DP-G-0", File: "G", Partition: 3,
		PrimaryCPU: 1, BackupCPU: 2, Volume: dataVol,
		ADPName: "$FAKE", RetainData: true,
	})
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		ins := &InsertReq{Txn: 4, Key: 77, Body: []byte("image")}
		if _, err := p.Call("$DP-G-0", 128, ins); err != nil || ins.Resp.Err != nil {
			t.Fatalf("insert: %v %v", err, ins.Resp.Err)
		}
		p.Call("$DP-G-0", 64, &FlushAuditReq{Txn: 4})
	})
	eng.Run()
	s := audit.NewScanner(frames)
	found := false
	for s.Next() {
		r := s.Record()
		if r.Type == audit.RecInsert && r.Txn == 4 && r.File == "G" &&
			r.Partition == 3 && r.Key == 77 && string(r.Body) == "image" {
			found = true
		}
	}
	if !found {
		t.Error("insert after-image not found in emitted audit")
	}
	eng.Shutdown()
}

// A payload the server does not know is a programming error, and loud: once
// senders read their own box and ignore Call's value, a request sent by value
// that was answered with some error struct would look like success.
func TestUnknownRequestPanics(t *testing.T) {
	eng, cl, _ := harness(t, nil)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		p.Send("$DP-F-0", 128, InsertReq{Txn: 1, Key: 1}) // not a box
	})
	defer eng.Shutdown()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "dp2: unknown request dp2.InsertReq") {
			t.Errorf("a by-value request: Run panicked with %q, want the server to name the type it cannot serve", msg)
		}
	}()
	eng.Run()
}

// TestStartRefusesAnIncompleteConfig holds Start to refusing, before it
// starts anything, a config without the volume its mode destages to or the
// log it makes changes durable in.
func TestStartRefusesAnIncompleteConfig(t *testing.T) {
	vol := disk.New(sim.NewEngine(1), "$DATA", disk.DefaultConfig(), 1<<20)
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{ADPName: "$ADP0"}, "dp2: volume required"},
		{Config{Volume: vol}, "dp2: ADP name required in Classic mode"},
		{Config{Volume: vol, Mode: PMDirect}, "dp2: PM volume required in PMDirect mode"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("Start(%+v) panicked with %v, want %q", tc.cfg, got, tc.want)
				}
			}()
			Start(nil, tc.cfg)
		}()
	}
}

// TestNamesAreTheConfigured reads back the service and log-writer names a
// DP2 was started with.
func TestNamesAreTheConfigured(t *testing.T) {
	eng, _, d := harness(t, nil)
	defer eng.Shutdown()
	if d.Name() != "$DP-F-0" || d.ADPName() != "$ADP0" {
		t.Errorf("Name %q, ADPName %q; want $DP-F-0, $ADP0", d.Name(), d.ADPName())
	}
}
