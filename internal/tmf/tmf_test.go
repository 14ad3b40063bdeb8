package tmf

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"persistmem/internal/adp"
	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/dp2"
	"persistmem/internal/npmu"
	"persistmem/internal/pmm"
	"persistmem/internal/sim"
)

// harness builds a minimal transactional stack: one disk ADP, one DP2,
// and the TMF, optionally with a PM volume for control blocks.
func harness(t *testing.T, withTCB bool) (*sim.Engine, *cluster.Cluster, *TMF) {
	t.Helper()
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	auditVol := disk.New(eng, "$AUDIT", disk.DefaultConfig(), 64<<20)
	adp.Start(cl, adp.Config{Name: "$ADP0", PrimaryCPU: 0, BackupCPU: 1, Mode: adp.Disk, Volume: auditVol})
	dataVol := disk.New(eng, "$DATA", disk.DefaultConfig(), 64<<20)
	dp2.Start(cl, dp2.Config{
		Name: "$DP-F-0", File: "F", Partition: 0,
		PrimaryCPU: 1, BackupCPU: 2, Volume: dataVol, ADPName: "$ADP0",
		RetainData: true,
	})
	cfg := Config{PrimaryCPU: 0, BackupCPU: 1}
	if withTCB {
		a := npmu.New(cl, "npmu-a", 16<<20)
		b := npmu.New(cl, "npmu-b", 16<<20)
		pmm.Start(cl, "$PM1", 2, 3, a, b)
		cfg.TCBVolume = "$PM1"
	}
	return eng, cl, Start(cl, cfg)
}

// call sends the request box req to the server named dst and hands it back
// once the reply — the box itself, carrying the response — has arrived.
func call[R any](t *testing.T, p *cluster.Process, dst string, sz int, req *R) *R {
	t.Helper()
	raw, err := p.Call(dst, sz, req)
	if err != nil {
		t.Fatalf("call %s %T: %v", dst, req, err)
	}
	if raw != interface{}(req) {
		t.Fatalf("call %s %T: the reply is %T %v, want the request box itself", dst, req, raw, raw)
	}
	return req
}

func begin(t *testing.T, p *cluster.Process) audit.TxnID {
	t.Helper()
	resp := call(t, p, "$TMF", 48, &BeginReq{}).Resp
	if resp.Err != nil {
		t.Fatalf("begin resp: %v", resp.Err)
	}
	return resp.Txn
}

func TestBeginCommitCycle(t *testing.T) {
	eng, cl, tm := harness(t, false)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		txn := begin(t, p)
		if txn == 0 {
			t.Fatal("zero txn id")
		}
		if err := call(t, p, "$DP-F-0", 128, &dp2.InsertReq{Txn: txn, Key: 1, Body: []byte("v")}).Resp.Err; err != nil {
			t.Fatalf("insert: %v", err)
		}
		if resp := call(t, p, "$TMF", 64, &CommitReq{Txn: txn, DP2s: []string{"$DP-F-0"}}).Resp; resp.Err != nil {
			t.Fatalf("commit resp: %v", resp.Err)
		}
	})
	eng.Run()
	st := tm.Stats()
	if st.Begins != 1 || st.Commits != 1 || st.Aborts != 0 {
		t.Errorf("stats = %+v", st)
	}
	eng.Shutdown()
}

func TestMonotonicTxnIDs(t *testing.T) {
	eng, cl, _ := harness(t, false)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		prev := audit.TxnID(0)
		for i := 0; i < 5; i++ {
			txn := begin(t, p)
			if txn <= prev {
				t.Errorf("txn ids not increasing: %d after %d", txn, prev)
			}
			prev = txn
			p.Call("$TMF", 64, &AbortReq{Txn: txn, DP2s: nil})
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestCommitUnknownTxn(t *testing.T) {
	eng, cl, _ := harness(t, false)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		if err := call(t, p, "$TMF", 64, &CommitReq{Txn: 999}).Resp.Err; !errors.Is(err, ErrUnknownTxn) {
			t.Errorf("err = %v, want ErrUnknownTxn", err)
		}
		if err := call(t, p, "$TMF", 64, &AbortReq{Txn: 999}).Resp.Err; !errors.Is(err, ErrUnknownTxn) {
			t.Errorf("abort err = %v", err)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestDoubleCommitRejected(t *testing.T) {
	eng, cl, _ := harness(t, false)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		txn := begin(t, p)
		p.Call("$TMF", 64, &CommitReq{Txn: txn})
		if err := call(t, p, "$TMF", 64, &CommitReq{Txn: txn}).Resp.Err; !errors.Is(err, ErrUnknownTxn) {
			t.Errorf("second commit: %v, want ErrUnknownTxn", err)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestEmptyTxnCommits(t *testing.T) {
	eng, cl, _ := harness(t, false)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		txn := begin(t, p)
		if err := call(t, p, "$TMF", 64, &CommitReq{Txn: txn, DP2s: nil}).Resp.Err; err != nil {
			t.Errorf("empty commit failed: %v", err)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestAbortReleasesLocksAtDP2(t *testing.T) {
	eng, cl, _ := harness(t, false)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		txn := begin(t, p)
		p.Call("$DP-F-0", 128, &dp2.InsertReq{Txn: txn, Key: 7, Body: []byte("a")})
		if err := call(t, p, "$TMF", 64, &AbortReq{Txn: txn, DP2s: []string{"$DP-F-0"}}).Resp.Err; err != nil {
			t.Fatalf("abort: %v", err)
		}
		// The key is free again.
		txn2 := begin(t, p)
		if err := call(t, p, "$DP-F-0", 128, &dp2.InsertReq{Txn: txn2, Key: 7, Body: []byte("b")}).Resp.Err; err != nil {
			t.Errorf("insert after abort: %v", err)
		}
		p.Call("$TMF", 64, &CommitReq{Txn: txn2, DP2s: []string{"$DP-F-0"}})
	})
	eng.Run()
	eng.Shutdown()
}

func TestConcurrentCommitsPipeline(t *testing.T) {
	// Two clients commit at once; the coordinator continuations must let
	// both proceed (no serialization through the monitor's serve loop).
	eng, cl, tm := harness(t, false)
	done := 0
	for i := 0; i < 2; i++ {
		key := uint64(100 + i)
		cl.CPU(2+i).Spawn("client", func(p *cluster.Process) {
			txn := begin(t, p)
			p.Call("$DP-F-0", 128, &dp2.InsertReq{Txn: txn, Key: key, Body: []byte("v")})
			req := &CommitReq{Txn: txn, DP2s: []string{"$DP-F-0"}}
			if _, err := p.Call("$TMF", 64, req); err == nil && req.Resp.Err == nil {
				done++
			}
		})
	}
	eng.Run()
	if done != 2 {
		t.Fatalf("%d/2 concurrent commits", done)
	}
	if tm.Stats().Commits != 2 {
		t.Errorf("Commits = %d", tm.Stats().Commits)
	}
	eng.Shutdown()
}

func TestTCBWritesOnOutcomes(t *testing.T) {
	eng, cl, tm := harness(t, true)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		txn := begin(t, p)
		p.Call("$DP-F-0", 128, &dp2.InsertReq{Txn: txn, Key: 1, Body: []byte("v")})
		p.Call("$TMF", 64, &CommitReq{Txn: txn, DP2s: []string{"$DP-F-0"}})
		txn2 := begin(t, p)
		p.Call("$TMF", 64, &AbortReq{Txn: txn2})
	})
	eng.Run()
	// begin(2) + commit(1) + abort(1) = 4 TCB writes.
	if tm.Stats().TCBWrites != 4 {
		t.Errorf("TCBWrites = %d, want 4", tm.Stats().TCBWrites)
	}
	eng.Shutdown()
}

// TestTCBRegionErrNamesTheFullVolume: NPMUs with room for half a control
// block region past the PM manager's metadata leave the monitor serving
// without TCBs, as before, and its Stats say why.
func TestTCBRegionErrNamesTheFullVolume(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	auditVol := disk.New(eng, "$AUDIT", disk.DefaultConfig(), 64<<20)
	adp.Start(cl, adp.Config{Name: "$ADP0", PrimaryCPU: 0, BackupCPU: 1, Mode: adp.Disk, Volume: auditVol})
	const devBytes = pmm.MetaBytes + TCBRegionSize/2
	pmm.Start(cl, "$PM1", 2, 3, npmu.New(cl, "npmu-a", devBytes), npmu.New(cl, "npmu-b", devBytes))
	tm := Start(cl, Config{PrimaryCPU: 0, BackupCPU: 1, TCBVolume: "$PM1"})
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		txn := begin(t, p)
		if resp := call(t, p, "$TMF", 64, &CommitReq{Txn: txn}).Resp; resp.Err != nil {
			t.Errorf("commit without TCBs: %v", resp.Err)
		}
	})
	eng.Run()
	st := tm.Stats()
	if st.Commits != 1 || st.TCBWrites != 0 {
		t.Errorf("Commits %d, TCBWrites %d; want 1 commit served without control blocks", st.Commits, st.TCBWrites)
	}
	if err := st.RegionErr; err == nil || !strings.Contains(err.Error(), "volume full") || !strings.Contains(err.Error(), TCBRegionName) {
		t.Errorf("RegionErr = %v, want the volume-full create failure of %s", err, TCBRegionName)
	}
	eng.Shutdown()
}

func TestStateReport(t *testing.T) {
	eng, cl, _ := harness(t, false)
	var st Stats
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		begin(t, p) // left active
		st = call(t, p, "$TMF", 32, &StateReq{}).Resp
	})
	eng.Run()
	if st.Begins != 1 || st.ActiveTxns != 1 {
		t.Errorf("stats = %+v", st)
	}
	eng.Shutdown()
}

func TestTCBEncodeDecode(t *testing.T) {
	e := AppendTCB(nil, 42, TCBCommitted)
	if len(e) != TCBEntrySize {
		t.Fatalf("entry size %d", len(e))
	}
	txn, state, ok := DecodeTCB(e)
	if !ok || txn != 42 || state != TCBCommitted {
		t.Errorf("decode = %d,%d,%v", txn, state, ok)
	}
	// Corruption is detected.
	e[5] ^= 0xFF
	if _, _, ok := DecodeTCB(e); ok {
		t.Error("corrupt entry decoded")
	}
	// Empty slots are not entries.
	if _, _, ok := DecodeTCB(make([]byte, TCBEntrySize)); ok {
		t.Error("zero slot decoded")
	}
	if _, _, ok := DecodeTCB(nil); ok {
		t.Error("nil decoded")
	}
}

// scanTCBs collects ScanTCBs' entries by transaction.
func scanTCBs(img []byte) map[audit.TxnID]uint8 {
	out := make(map[audit.TxnID]uint8)
	ScanTCBs(img, func(txn audit.TxnID, state uint8) { out[txn] = state })
	return out
}

func TestScanTCBs(t *testing.T) {
	img := make([]byte, 10*TCBEntrySize)
	copy(img[0:], AppendTCB(nil, 1, TCBCommitted))
	copy(img[3*TCBEntrySize:], AppendTCB(nil, 2, TCBAborted))
	copy(img[7*TCBEntrySize:], AppendTCB(nil, 3, TCBActive))
	out := scanTCBs(img)
	if len(out) != 3 || out[1] != TCBCommitted || out[2] != TCBAborted || out[3] != TCBActive {
		t.Errorf("ScanTCBs = %v", out)
	}
}

// Property: every (txn, state) round-trips through a TCB entry and
// survives embedding at any slot of a region image.
func TestTCBRoundTripProperty(t *testing.T) {
	prop := func(txn uint64, state uint8, slot uint8) bool {
		st := state%3 + 1
		img := make([]byte, 32*TCBEntrySize)
		off := int(slot%32) * TCBEntrySize
		copy(img[off:], AppendTCB(nil, audit.TxnID(txn), st))
		out := scanTCBs(img)
		return len(out) == 1 && out[audit.TxnID(txn)] == st
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// AppendTCB appends into the caller's buffer, entry after entry, and
// allocates nothing when the buffer has room — the monitor encodes two a
// transaction.
func TestAppendTCBReusesItsBuffer(t *testing.T) {
	buf := make([]byte, 0, 2*TCBEntrySize)
	buf = AppendTCB(buf, 7, TCBActive)
	buf = AppendTCB(buf, 1<<40, TCBCommitted)
	if len(buf) != 2*TCBEntrySize {
		t.Fatalf("two entries take %d bytes, want %d", len(buf), 2*TCBEntrySize)
	}
	if txn, state, ok := DecodeTCB(buf); !ok || txn != 7 || state != TCBActive {
		t.Errorf("first entry decodes as %d, %d, %v", txn, state, ok)
	}
	if txn, state, ok := DecodeTCB(buf[TCBEntrySize:]); !ok || txn != 1<<40 || state != TCBCommitted {
		t.Errorf("second entry decodes as %d, %d, %v", txn, state, ok)
	}
	if n := testing.AllocsPerRun(100, func() { buf = AppendTCB(buf[:0], 9, TCBAborted) }); n != 0 {
		t.Errorf("AppendTCB into a buffer with room allocates %.0f objects", n)
	}
}

// A payload the server does not know is a programming error, and loud: once
// senders read their own box and ignore Call's value, a request sent by value
// that was answered with some error struct would look like success.
func TestUnknownRequestPanics(t *testing.T) {
	eng, cl, _ := harness(t, false)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		p.Send("$TMF", 64, CommitReq{Txn: 1}) // not a box
	})
	defer eng.Shutdown()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "tmf: unknown request tmf.CommitReq") {
			t.Errorf("a by-value request: Run panicked with %q, want the server to name the type it cannot serve", msg)
		}
	}()
	eng.Run()
}

// TestTCBWriteFailureFailsPMDirectCommit: with no log writer the control
// block is the commit point, so a commit whose control-block write reaches
// neither NPMU must fail and roll back. With a master log the commit record
// already made the commit durable, and it stands.
func TestTCBWriteFailureFailsPMDirectCommit(t *testing.T) {
	for _, pmDirect := range []bool{true, false} {
		t.Run(fmt.Sprintf("pmdirect=%v", pmDirect), func(t *testing.T) {
			eng := sim.NewEngine(1)
			cl := cluster.New(eng, cluster.DefaultConfig())
			a := npmu.New(cl, "npmu-a", 64<<20)
			b := npmu.New(cl, "npmu-b", 64<<20)
			pmm.Start(cl, "$PM1", 2, 3, a, b)
			dcfg := dp2.Config{
				Name: "$DP-F-0", File: "F", Partition: 0,
				PrimaryCPU: 1, BackupCPU: 2, RetainData: true,
				Volume: disk.New(eng, "$DATA", disk.DefaultConfig(), 64<<20),
			}
			if pmDirect {
				dcfg.Mode, dcfg.PMVolume = dp2.PMDirect, "$PM1"
			} else {
				auditVol := disk.New(eng, "$AUDIT", disk.DefaultConfig(), 64<<20)
				adp.Start(cl, adp.Config{Name: "$ADP0", PrimaryCPU: 0, BackupCPU: 1, Mode: adp.Disk, Volume: auditVol})
				dcfg.ADPName = "$ADP0"
			}
			dp2.Start(cl, dcfg)
			tm := Start(cl, Config{PrimaryCPU: 0, BackupCPU: 1, TCBVolume: "$PM1"})
			cl.CPU(3).Spawn("client", func(p *cluster.Process) {
				txn := begin(t, p)
				if err := call(t, p, "$DP-F-0", 128, &dp2.InsertReq{Txn: txn, Key: 1, Body: []byte("v")}).Resp.Err; err != nil {
					t.Fatalf("insert: %v", err)
				}
				a.Fail()
				b.Fail()
				err := call(t, p, "$TMF", 64, &CommitReq{Txn: txn, DP2s: []string{"$DP-F-0"}}).Resp.Err
				read := call(t, p, "$DP-F-0", 64, &dp2.ReadReq{Key: 1}).Resp.Err
				if pmDirect {
					if !errors.Is(err, ErrCommitFailed) {
						t.Errorf("commit over a failed control-block write = %v, want ErrCommitFailed", err)
					}
					if read == nil {
						t.Error("the failed commit's row is still readable")
					}
				} else if err != nil || read != nil {
					t.Errorf("commit with a master log = %v, read = %v; want both nil", err, read)
				}
			})
			eng.Run()
			if st := tm.Stats(); st.TCBWrites != 1 {
				t.Errorf("TCBWrites = %d, want 1 (begin's only)", st.TCBWrites)
			}
			eng.Shutdown()
		})
	}
}
