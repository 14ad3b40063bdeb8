package adp

import (
	"bytes"
	"errors"
	"testing"

	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/metrics"
	"persistmem/internal/npmu"
	"persistmem/internal/pmm"
	"persistmem/internal/sim"
)

// The ADP's failure paths: a group-commit flush to an audit volume that is
// down, on a plain write and before or during either half of a write that
// wraps the volume, and a PM-mode commit whose mirrored write reaches neither NPMU.

// TestFlushWithAuditVolumeDownFailsTheCommitAndKeepsTheBuffer: a commit
// whose flush finds the audit volume down fails with the volume's error,
// makes nothing durable and records no flush. The primary keeps its buffer,
// so the same commit retried once the volume is back writes the records.
func TestFlushWithAuditVolumeDownFailsTheCommitAndKeepsTheBuffer(t *testing.T) {
	reg := metrics.NewRegistry()
	eng, cl, a, vol := diskHarness(t, func(c *Config) { c.Metrics = reg })
	data := appendRecords(4, 3, 512)
	cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		end := call(t, p, len(data), &AppendReq{Data: data}).Resp.End
		vol.Fail()
		if err := call(t, p, 64, &CommitReq{Txn: 4}).Resp.Err; !errors.Is(err, disk.ErrVolumeDown) {
			t.Errorf("a commit with the audit volume down returns %v, want %v", err, disk.ErrVolumeDown)
		}
		if st := stateOf(t, p); st.DurableLSN != 0 || st.Flushes != 0 || st.Commits != 1 {
			t.Errorf("after the failed flush: DurableLSN %d, Flushes %d, Commits %d; want 0, 0, 1", st.DurableLSN, st.Flushes, st.Commits)
		}
		if n := reg.ADP.FlushDisk.Count(); n != 0 {
			t.Errorf("%d flushes timed, want none", n)
		}
		if in, out := reg.ADP.In.Value(), reg.ADP.Flushed.Value(); in != 1 || out != 1 {
			t.Errorf("boxcar in %d, flushed %d; want the failed waiter in and out", in, out)
		}

		vol.Restore()
		resp := call(t, p, 64, &CommitReq{Txn: 4}).Resp
		if resp.Err != nil || resp.LSN <= end {
			t.Fatalf("the retried commit: %+v, want durable past %d", resp, end)
		}
		st := stateOf(t, p)
		if st.DurableLSN != resp.LSN || st.Flushes != 1 || reg.ADP.FlushDisk.Count() != 1 {
			t.Errorf("after the retry: DurableLSN %d, Flushes %d, timed %d; want %d, 1, 1", st.DurableLSN, st.Flushes, reg.ADP.FlushDisk.Count(), resp.LSN)
		}
		// Nothing buffered: a flush request returns at once, with no write.
		if fr := call(t, p, 64, &FlushReq{UpTo: resp.LSN}).Resp; fr.Err != nil || fr.Durable != resp.LSN {
			t.Errorf("a flush of an empty buffer: %+v, want durable %d", fr, resp.LSN)
		}
		if st := stateOf(t, p); st.Flushes != 1 {
			t.Errorf("a flush of an empty buffer wrote: %d flushes, want 1", st.Flushes)
		}
	})
	eng.Run()
	got := make([]byte, len(data))
	if err := vol.Store().ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("the audit volume does not start with the records appended before the failed flush")
	}
	if a.Name() != "$ADP0" {
		t.Errorf("Name() = %q", a.Name())
	}
	a.Stop()
	eng.Run()
	if a.Pair().Up() {
		t.Error("the pair is still up after Stop")
	}
	eng.Shutdown()
}

// TestFailedFlushSurvivesATakeover: a flush that finds the audit volume down
// leaves the buffer at the primary, and the backup keeps its copy too. So
// after the primary dies, the commit retried against the new primary writes
// the records appended before the failure, from the trail's start.
func TestFailedFlushSurvivesATakeover(t *testing.T) {
	eng, cl, a, vol := diskHarness(t, nil)
	data := appendRecords(7, 3, 1<<10)
	var lsn audit.LSN
	cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		call(t, p, len(data), &AppendReq{Data: data})
		vol.Fail()
		if err := call(t, p, 64, &CommitReq{Txn: 7}).Resp.Err; !errors.Is(err, disk.ErrVolumeDown) {
			t.Fatalf("a commit with the audit volume down returns %v, want %v", err, disk.ErrVolumeDown)
		}
		a.Pair().KillPrimary()
		vol.Restore()
		p.Wait(cluster.TakeoverDelay + sim.Millisecond)
		resp := call(t, p, 64, &CommitReq{Txn: 7}).Resp
		if resp.Err != nil {
			t.Fatalf("the retried commit: %v", resp.Err)
		}
		lsn = resp.LSN
	})
	eng.Run()
	if a.Pair().Takeovers != 1 {
		t.Fatalf("takeovers = %d, want 1", a.Pair().Takeovers)
	}
	trail := make([]byte, 64<<10)
	if err := vol.Store().ReadAt(0, trail); err != nil {
		t.Fatal(err)
	}
	s := audit.NewScanner(trail)
	var inserts, commits int
	for s.Next() {
		switch s.Record().Type {
		case audit.RecInsert:
			inserts++
		case audit.RecCommit:
			commits++
		}
	}
	// Both commit records: the refused one stayed in the buffer.
	if inserts != 3 || commits != 2 || audit.LSN(s.Offset()) != lsn {
		t.Errorf("the trail holds %d inserts and %d commits and ends at %d; want 3, 2 and the acknowledged LSN %d", inserts, commits, s.Offset(), lsn)
	}
	eng.Shutdown()
}

// wrapVolume is the audit volume of the wrap tests: two flushes of
// wrapRecords fill it past its end, so the second wraps to offset 0.
const (
	wrapVolume  = 16 << 10
	wrapRecords = 5000
)

// flushTwice appends two records and commits them, then does it again under
// a second transaction, calling before just ahead of the second commit. It
// returns the second commit's error and the second batch.
func flushTwice(t *testing.T, before func(p *cluster.Process, vol *disk.Volume)) (error, []byte, *ADP, *disk.Volume) {
	t.Helper()
	eng := sim.NewEngine(1)
	defer eng.Shutdown()
	cl := cluster.New(eng, cluster.DefaultConfig())
	vol := disk.New(eng, "$AUDIT", disk.DefaultConfig(), wrapVolume)
	a := Start(cl, Config{Name: "$ADP0", PrimaryCPU: 0, BackupCPU: 1, Mode: Disk, Volume: vol})
	first, second := appendRecords(1, 2, wrapRecords), appendRecords(2, 2, wrapRecords)
	var err error
	cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		call(t, p, len(first), &AppendReq{Data: first})
		if err := call(t, p, 64, &CommitReq{Txn: 1}).Resp.Err; err != nil {
			t.Fatalf("first commit: %v", err)
		}
		call(t, p, len(second), &AppendReq{Data: second})
		if before != nil {
			before(p, vol)
		}
		err = call(t, p, 64, &CommitReq{Txn: 2}).Resp.Err
	})
	eng.Run()
	return err, second, a, vol
}

// TestFlushWrapsTheAuditVolume: a flush that runs past the volume's end
// writes the rest from offset 0, in two writes, and a volume down before
// or during either of them fails the commit.
func TestFlushWrapsTheAuditVolume(t *testing.T) {
	err, second, a, vol := flushTwice(t, nil)
	if err != nil {
		t.Fatalf("the wrapping commit: %v", err)
	}
	if a.Stats().Flushes != 2 || vol.Stats.Writes != 3 {
		t.Errorf("%d flushes in %d volume writes, want 2 in 3", a.Stats().Flushes, vol.Stats.Writes)
	}
	// The second flush starts where the first one's commit record ended; the
	// first batch is as long as the second.
	off := len(second) + audit.EncodedSize(&audit.Record{Type: audit.RecCommit})
	tail, head := make([]byte, wrapVolume-off), make([]byte, len(second)-(wrapVolume-off))
	if err := vol.Store().ReadAt(int64(off), tail); err != nil {
		t.Fatal(err)
	}
	if err := vol.Store().ReadAt(0, head); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(tail, head...), second) {
		t.Errorf("the wrapped batch is not at %d and then at 0", off)
	}

	for _, tc := range []struct {
		name   string
		writes int64 // volume writes that reached the media in all
		before func(p *cluster.Process, vol *disk.Volume)
	}{
		{"down before the first write", 1, func(_ *cluster.Process, vol *disk.Volume) { vol.Fail() }},
		{"down during the first write", 2, func(p *cluster.Process, vol *disk.Volume) {
			// Fail the volume once the first write has reached the media:
			// the write reports the volume down when its service ends.
			w0 := vol.Stats.Writes
			p.CPU().Spawn("fail", func(q *cluster.Process) {
				for vol.Stats.Writes == w0 {
					q.Wait(10 * sim.Microsecond)
				}
				vol.Fail()
			})
		}},
		{"down during the second write", 2, func(p *cluster.Process, vol *disk.Volume) {
			// Fail the volume once the first write's service has ended: the
			// second write finds it down after its stack overhead.
			b0 := vol.Stats.BusyTime
			p.CPU().Spawn("fail", func(q *cluster.Process) {
				for vol.Stats.BusyTime == b0 {
					q.Wait(10 * sim.Microsecond)
				}
				vol.Fail()
			})
		}},
	} {
		err, _, a, vol := flushTwice(t, tc.before)
		if !errors.Is(err, disk.ErrVolumeDown) {
			t.Errorf("%s: the commit returns %v, want %v", tc.name, err, disk.ErrVolumeDown)
		}
		if a.Stats().Flushes != 1 || vol.Stats.Writes != tc.writes {
			t.Errorf("%s: %d flushes, %d volume writes; want 1, %d", tc.name, a.Stats().Flushes, vol.Stats.Writes, tc.writes)
		}
	}
}

// TestPMCommitFailsWithBothNPMUsDown: with neither mirror reachable, an
// append and a commit fail with the write's error, and neither advances
// the log or counts; nor does an abort, whose record reaches no mirror.
func TestPMCommitFailsWithBothNPMUsDown(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	a, b := npmu.New(cl, "npmu-a", 64<<20), npmu.New(cl, "npmu-b", 64<<20)
	pmm.Start(cl, "$PM1", 0, 1, a, b)
	Start(cl, Config{Name: "$ADP0", PrimaryCPU: 2, BackupCPU: 3, Mode: PM, PMVolume: "$PM1", RegionSize: 1 << 20})
	data := appendRecords(5, 1, 256)
	cl.CPU(1).Spawn("client", func(p *cluster.Process) {
		end := call(t, p, len(data), &AppendReq{Data: data}).Resp.End
		a.Fail()
		b.Fail()
		if resp := call(t, p, len(data), &AppendReq{Data: data}).Resp; resp.Err == nil {
			t.Errorf("an append with both NPMUs down: %+v, want an error", resp)
		}
		if resp := call(t, p, 64, &CommitReq{Txn: 5}).Resp; resp.Err == nil {
			t.Errorf("a commit with both NPMUs down: %+v, want an error", resp)
		}
		call(t, p, 64, &AbortReq{Txn: 5})
		st := stateOf(t, p)
		if st.DurableLSN != end || st.NextLSN != end || st.Commits != 0 || st.PMWrites != 1 {
			t.Errorf("DurableLSN %d, NextLSN %d, Commits %d, PMWrites %d; want %d, %d, 0, 1", st.DurableLSN, st.NextLSN, st.Commits, st.PMWrites, end, end)
		}
		if st.Appends != 1 || st.AppendBytes != int64(len(data)) || st.Aborts != 0 {
			t.Errorf("Appends %d, AppendBytes %d, Aborts %d; want 1, %d, 0: a refused append or abort was counted", st.Appends, st.AppendBytes, st.Aborts, len(data))
		}
	})
	eng.Run()
	eng.Shutdown()
}
