package tmf

import (
	"errors"
	"testing"

	"persistmem/internal/adp"
	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/dp2"
	"persistmem/internal/sim"
)

// A transaction whose rows live on two DP2s that audit to different log
// writers commits across two audit streams. The master stream is the one of
// the lowest-named ADP: the commit record goes there, and every other stream
// must first be flushed up to the LSN its DP2 reported. These tests run that
// path with a stand-in for the master log writer, which notes how much of the
// other, real, log writer's trail was durable when the commit record came.

// masterLog is the stand-in master log writer, "$ADP0". It keeps its DP2's
// appends as a trail of its own, or fails them once failAppends is set,
// answers each commit record at once and counts abort records.
type masterLog struct {
	failAppends bool
	trail       int
	commits     []audit.TxnID
	// atCommit is the non-master ADP's counters as each commit record came.
	atCommit []adp.Stats
	aborts   int
}

var errAppendsFail = errors.New("stand-in master: appends fail")

// twoStreams is a monitor, the stand-in master log writer and a real
// disk-mode ADP "$ADP1", with DP2 "$DP-A-0" auditing to the master and
// "$DP-B-0" to $ADP1.
type twoStreams struct {
	eng    *sim.Engine
	cl     *cluster.Cluster
	tm     *TMF
	master *masterLog
	adp1   *adp.ADP
	vol1   *disk.Volume // $ADP1's audit volume
}

func twoStreamHarness() *twoStreams {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	h := &twoStreams{eng: eng, cl: cl, master: &masterLog{}}
	h.vol1 = disk.New(eng, "$AUDIT1", disk.DefaultConfig(), 64<<20)
	h.adp1 = adp.Start(cl, adp.Config{Name: "$ADP1", PrimaryCPU: 2, BackupCPU: 3, Mode: adp.Disk, Volume: h.vol1})
	m := h.master
	srv := cl.CPU(0).Spawn("master", func(p *cluster.Process) {
		for {
			ev := p.Recv()
			switch req := ev.Payload.(type) {
			case *adp.AppendReq:
				if m.failAppends {
					req.Resp = adp.AppendResp{Err: errAppendsFail}
				} else {
					m.trail += len(req.Data)
					req.Resp = adp.AppendResp{End: audit.LSN(m.trail)}
				}
			case *adp.CommitReq:
				m.commits = append(m.commits, req.Txn)
				m.atCommit = append(m.atCommit, h.adp1.Stats())
				req.Resp = adp.CommitResp{LSN: audit.LSN(m.trail)}
			case *adp.AbortReq:
				m.aborts++
			}
			ev.Reply(ev.Payload)
		}
	})
	cl.Register("$ADP0", srv)
	dp2.Start(cl, dp2.Config{
		Name: "$DP-A-0", File: "A", PrimaryCPU: 1, BackupCPU: 2, RetainData: true,
		Volume: disk.New(eng, "$DATA-A", disk.DefaultConfig(), 64<<20), ADPName: "$ADP0",
	})
	dp2.Start(cl, dp2.Config{
		Name: "$DP-B-0", File: "B", PrimaryCPU: 1, BackupCPU: 3, RetainData: true,
		Volume: disk.New(eng, "$DATA-B", disk.DefaultConfig(), 64<<20), ADPName: "$ADP1",
	})
	h.tm = Start(cl, Config{PrimaryCPU: 0, BackupCPU: 1})
	return h
}

// insertOnBoth begins a transaction and inserts key 1 at $DP-A-0 and key 2
// at $DP-B-0 under it.
func insertOnBoth(t *testing.T, p *cluster.Process) audit.TxnID {
	t.Helper()
	txn := begin(t, p)
	for i, dst := range bothDP2s {
		if err := call(t, p, dst, 600, &dp2.InsertReq{Txn: txn, Key: uint64(i + 1), Body: make([]byte, 512)}).Resp.Err; err != nil {
			t.Fatalf("insert at %s: %v", dst, err)
		}
	}
	return txn
}

// bothDP2s names the two DP2s, the one auditing to the master first.
var bothDP2s = []string{"$DP-A-0", "$DP-B-0"}

// TestCommitFlushesTheNonMasterStreamFirst: by the time the commit record
// reaches the master log writer, $ADP1 has flushed all of $DP-B-0's audit to
// its volume, in one device write, and took no commit record of its own.
func TestCommitFlushesTheNonMasterStreamFirst(t *testing.T) {
	h := twoStreamHarness()
	defer h.eng.Shutdown()
	var txn audit.TxnID
	h.cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		txn = insertOnBoth(t, p)
		if err := call(t, p, "$TMF", 64, &CommitReq{Txn: txn, DP2s: bothDP2s}).Resp.Err; err != nil {
			t.Fatalf("commit: %v", err)
		}
	})
	h.eng.Run()
	m := h.master
	if len(m.commits) != 1 || m.commits[0] != txn {
		t.Fatalf("the master took commit records %v, want one for txn %d", m.commits, txn)
	}
	at, now := m.atCommit[0], h.adp1.Stats()
	if now.AppendBytes == 0 || m.trail == 0 {
		t.Fatalf("audit appended: %d bytes to $ADP1, %d to the master; want both streams in the commit", now.AppendBytes, m.trail)
	}
	if at.Flushes != 1 || at.FlushBytes != now.AppendBytes {
		t.Errorf("when the commit record came $ADP1 had flushed %d bytes in %d writes, want all %d of $DP-B-0's audit in 1",
			at.FlushBytes, at.Flushes, now.AppendBytes)
	}
	if now.Commits != 0 {
		t.Errorf("$ADP1 took %d commit records; the commit record belongs to the master stream only", now.Commits)
	}
	if st := h.tm.Stats(); st.Commits != 1 || st.Aborts != 0 {
		t.Errorf("monitor: %d commits, %d aborts; want 1, 0", st.Commits, st.Aborts)
	}
}

// TestTwoStreamCommitFailureRollsBack: a commit across two streams fails with
// ErrCommitFailed and is rolled back at every DP2 when a DP2's audit flush
// fails, when one of its DP2s is not registered, when the non-master ADP's
// flush fails on its volume, and when that ADP is killed while its flush is
// on the volume. No commit record is written, and the rollback writes an
// abort record to the master stream.
func TestTwoStreamCommitFailureRollsBack(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dp2s  []string
		setup func(h *twoStreams)
	}{
		{"flush audit error", bothDP2s, func(h *twoStreams) { h.master.failAppends = true }},
		{"unregistered DP2", []string{"$DP-A-0", "$DP-B-0", "$DP-NONE"}, nil},
		{"non-master audit volume down", bothDP2s, func(h *twoStreams) { h.vol1.Fail() }},
		{"non-master ADP killed mid-flush", bothDP2s, func(h *twoStreams) {
			h.cl.CPU(3).Spawn("killer", func(kp *cluster.Process) {
				for end := kp.Now() + sim.Second; h.vol1.Stats.Writes == 0; kp.Wait(50 * sim.Microsecond) {
					if kp.Now() > end {
						t.Error("$ADP1 never wrote its volume")
						return
					}
				}
				h.adp1.Pair().Stop()
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := twoStreamHarness()
			defer h.eng.Shutdown()
			h.cl.CPU(3).Spawn("client", func(p *cluster.Process) {
				txn := insertOnBoth(t, p)
				if tc.setup != nil {
					tc.setup(h)
				}
				// A commit that waits out a dead log writer's flush takes a
				// call timeout there, as long as a Call waits: the outcome is
				// read from the request box once the rollback is done.
				req := &CommitReq{Txn: txn, DP2s: tc.dp2s}
				if _, err := p.CallAsync("$TMF", 64, req); err != nil {
					t.Fatal(err)
				}
				p.Wait(2 * cluster.CallTimeout)
				if err := req.Resp.Err; !errors.Is(err, ErrCommitFailed) {
					t.Errorf("commit = %v, want ErrCommitFailed", err)
				}
				for i, dst := range bothDP2s {
					key := uint64(i + 1)
					if err := call(t, p, dst, 64, &dp2.ReadReq{Key: key}).Resp.Err; !errors.Is(err, dp2.ErrNotFound) {
						t.Errorf("read of key %d at %s after the failed commit = %v, want ErrNotFound: not rolled back", key, dst, err)
					}
				}
			})
			h.eng.Run()
			if len(h.master.commits) != 0 || h.master.aborts != 1 {
				t.Errorf("the master took commit records %v and %d abort records, want none and 1", h.master.commits, h.master.aborts)
			}
			if st := h.tm.Stats(); st.Commits != 0 || st.Aborts != 1 {
				t.Errorf("monitor: %d commits, %d aborts; want 0, 1", st.Commits, st.Aborts)
			}
		})
	}
}
