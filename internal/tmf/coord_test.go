package tmf

import (
	"testing"

	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/dp2"
	"persistmem/internal/sim"
)

// TestCoordinatorPool: a coordinator grows its request boxes on demand and
// lists its streams in name order; the serve loop spawns one only when none
// is idle, and otherwise restarts a finished one under a new spawn id — for
// commits and aborts alike.
func TestCoordinatorPool(t *testing.T) {
	c := &coordinator{adpLSNs: make(map[string]audit.LSN)}
	if r := c.endReq(2); r == nil || len(c.ereqs) != 3 {
		t.Errorf("endReq growth: %d reqs", len(c.ereqs))
	}
	if r := c.adpFlushReq(1); r == nil || len(c.flreqs) != 2 {
		t.Errorf("adpFlushReq growth: %d reqs", len(c.flreqs))
	}
	c.adpLSNs["$ADP2"] = 7
	c.adpLSNs["$ADP0"] = 3
	if got := c.sortedADPs(); len(got) != 2 || got[0] != "$ADP0" || got[1] != "$ADP2" {
		t.Errorf("sortedADPs = %v", got)
	}

	eng, cl, tm := harness(t, false)
	var first *coordinator
	var ids []uint64
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		for i := 0; i < 4; i++ {
			txn := begin(t, p)
			if i == 3 {
				call(t, p, "$TMF", 64, &AbortReq{Txn: txn, DP2s: []string{"$DP-F-0"}})
			} else {
				call(t, p, "$DP-F-0", 128, &dp2.InsertReq{Txn: txn, Key: uint64(i), Body: []byte("v")})
				if err := call(t, p, "$TMF", 64, &CommitReq{Txn: txn, DP2s: []string{"$DP-F-0"}}).Resp.Err; err != nil {
					t.Fatalf("commit %d: %v", i, err)
				}
			}
			// The coordinator went back to the pool before the reply reached us.
			if len(tm.pool.idle) != 1 {
				t.Fatalf("request %d: %d coordinators idle, want 1", i, len(tm.pool.idle))
			}
			if first == nil {
				first = tm.pool.idle[0]
			} else if tm.pool.idle[0] != first {
				t.Errorf("request %d ran on a second coordinator while the first was idle", i)
			}
			ids = append(ids, first.proc.Sim().ID())
		}
	})
	eng.Run()
	if tm.ncoord != 1 || first.proc.Name() != "$TMF-coord-1" || first.proc.CPU().Index() != 0 {
		t.Errorf("%d coordinators spawned, the first %q on cpu %d; want one, $TMF-coord-1, on the primary's cpu 0",
			tm.ncoord, first.proc.Name(), first.proc.CPU().Index())
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Errorf("spawn ids across restarts %v: each restart must draw a new, later one", ids)
		}
	}

	// Two commits at once need two coordinators; both come back.
	for i := 0; i < 2; i++ {
		key := uint64(100 + i)
		cl.CPU(2+i).Spawn("client", func(p *cluster.Process) {
			txn := begin(t, p)
			call(t, p, "$DP-F-0", 128, &dp2.InsertReq{Txn: txn, Key: key, Body: []byte("v")})
			call(t, p, "$TMF", 64, &CommitReq{Txn: txn, DP2s: []string{"$DP-F-0"}})
		})
	}
	eng.Run()
	if tm.ncoord != 2 || len(tm.pool.idle) != 2 {
		t.Errorf("two concurrent commits: %d coordinators spawned, %d idle; want 2 and 2", tm.ncoord, len(tm.pool.idle))
	}
	if st := tm.Stats(); st.Commits != 5 || st.Aborts != 1 {
		t.Errorf("stats = %+v, want five commits and one abort", st)
	}
	eng.Shutdown()
}

// coordHarness is a monitor pair on CPUs 2 (primary) and 3 (backup) with one
// stand-in participant on CPU 1 that owns no audit stream. Its flush handler
// runs stall on the nth flush it sees; the reply follows when it returns.
func coordHarness(n int, stall func(p *cluster.Process)) (*sim.Engine, *cluster.Cluster, *TMF) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	flushes := 0
	part := cl.CPU(1).Spawn("fakedp", func(p *cluster.Process) {
		for {
			ev := p.Recv()
			if _, ok := ev.Payload.(*dp2.FlushAuditReq); ok {
				if flushes++; flushes == n {
					stall(p)
				}
			}
			ev.Reply(ev.Payload)
		}
	})
	cl.Register("$DP-F-0", part)
	return eng, cl, Start(cl, Config{PrimaryCPU: 2, BackupCPU: 3})
}

// commitOne begins and commits one transaction at the stand-in participant.
func commitOne(t *testing.T, p *cluster.Process) (CommitResp, error) {
	t.Helper()
	req := &CommitReq{Txn: begin(t, p), DP2s: []string{"$DP-F-0"}}
	_, err := p.Call("$TMF", 64, req)
	return req.Resp, err
}

// TestKilledCoordinatorIsNeverRestarted: a coordinator killed mid-commit by
// the failure of its CPU unwinds without returning to the pool it came from,
// and the takeover's commits run on a coordinator of their own.
func TestKilledCoordinatorIsNeverRestarted(t *testing.T) {
	var cl *cluster.Cluster
	var victim *coordinator
	var victimID uint64
	eng, cl, tm := coordHarness(2, func(p *cluster.Process) {
		victimID = victim.proc.Sim().ID()
		cl.CPU(2).Fail() // the primary and the coordinator waiting on this flush
	})
	var dead *coordPool
	cl.CPU(0).Spawn("client", func(p *cluster.Process) {
		if resp, err := commitOne(t, p); err != nil || resp.Err != nil {
			t.Fatalf("warm-up commit: %v, %v", err, resp.Err)
		}
		victim, dead = tm.pool.idle[0], tm.pool // restarted for the next commit
		if _, err := commitOne(t, p); err == nil {
			t.Error("the commit whose coordinator's CPU failed was answered")
		}
		p.Wait(sim.Second) // the takeover is done
		for i := 0; i < 2; i++ {
			if resp, err := commitOne(t, p); err != nil || resp.Err != nil {
				t.Errorf("commit %d after the takeover: %v, %v", i, err, resp.Err)
			}
		}
	})
	eng.Run()
	if victim == nil {
		t.Fatal("the warm-up commit never pooled its coordinator")
	}
	if sp := victim.proc.Sim(); !sp.Done() || !sp.Killed() || sp.ID() != victimID {
		t.Errorf("the killed coordinator: done %v, killed %v, spawn id %d → %d; want killed and never restarted", sp.Done(), sp.Killed(), victimID, sp.ID())
	}
	for _, c := range append(dead.idle, tm.pool.idle...) {
		if c == victim {
			t.Error("the coordinator killed mid-commit is back in a pool")
		}
	}
	if tm.pool == dead || len(tm.pool.idle) != 1 || tm.pool.idle[0].proc.CPU().Index() != 3 {
		t.Errorf("after the takeover the pool holds %d coordinators, want one on the new primary's cpu 3", len(tm.pool.idle))
	}
	eng.Shutdown()

	// Killed while it runs — its commit hook fails its own CPU — a coordinator
	// finishes its body, and still does not go back.
	eng, cl, tm = coordHarness(0, nil)
	tm.SetCommitHook(func(int64) {
		dead = tm.pool
		cl.CPU(2).Fail()
	})
	cl.CPU(0).Spawn("client", func(p *cluster.Process) { commitOne(t, p) })
	eng.Run()
	if dead == nil || len(dead.idle) != 0 {
		t.Errorf("a coordinator killed in its commit hook went back to its pool")
	}
	eng.Shutdown()
}

// TestTakeoverCommitsRunOnTheNewPrimary: a coordinator outlives the primary
// that started it. Killed with a commit in flight (prockill), the primary's
// coordinator finishes that commit into the dead incarnation's pool, and the
// takeover's commits run only on coordinators spawned on the new primary's
// CPU — a pooled coordinator is never restarted on a CPU its serve loop does
// not run on.
func TestTakeoverCommitsRunOnTheNewPrimary(t *testing.T) {
	var tm *TMF
	eng, cl, tm := coordHarness(1, func(p *cluster.Process) {
		tm.Pair().KillPrimary()
		p.Wait(sim.Millisecond) // the coordinator outlives its primary
	})
	var dead *coordPool
	cl.CPU(0).Spawn("client", func(p *cluster.Process) {
		dead = tm.pool
		if resp, err := commitOne(t, p); err != nil || resp.Err != nil {
			t.Fatalf("the commit in flight at the kill: %v, %v", err, resp.Err)
		}
		p.Wait(sim.Second) // the takeover is done
		for i := 0; i < 3; i++ {
			if resp, err := commitOne(t, p); err != nil || resp.Err != nil {
				t.Errorf("commit %d after the takeover: %v, %v", i, err, resp.Err)
			}
		}
	})
	eng.Run()
	if len(dead.idle) != 1 || dead.idle[0].proc.CPU().Index() != 2 {
		t.Fatalf("the dead incarnation's pool holds %d coordinators, want the one that finished the commit, on cpu 2", len(dead.idle))
	}
	old := dead.idle[0].proc.Sim().ID()
	if tm.pool == dead || tm.ncoord != 2 || len(tm.pool.idle) != 1 {
		t.Fatalf("after the takeover: %d coordinators spawned, %d idle in the new pool; want 2 and 1", tm.ncoord, len(tm.pool.idle))
	}
	if c := tm.pool.idle[0]; c.proc.CPU().Index() != 3 || c.proc.Name() != "$TMF-coord-2" {
		t.Errorf("the takeover's coordinator is %q on cpu %d, want $TMF-coord-2 on the new primary's cpu 3", c.proc.Name(), c.proc.CPU().Index())
	}
	if dead.idle[0].proc.Sim().ID() != old || tm.Pair().Takeovers != 1 {
		t.Errorf("the dead incarnation's coordinator was restarted, or %d takeovers", tm.Pair().Takeovers)
	}
	eng.Shutdown()
}
