package tmf

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/dp2"
	"persistmem/internal/servernet"
	"persistmem/internal/sim"
)

// coordFault is one run of TestKillAtEveryCoordinatorLeg's scenario:
// transaction 1 inserts key 1 and commits (or aborts), and the coordinator
// running that request is killed at the kth event addressed to it (k 0:
// never). Transaction 2 then inserts key 2 and commits.
type coordFault struct {
	abort bool
	k     int
}

type coordOutcome struct {
	wakes    int // events addressed to the coordinator while the request was in flight
	firstErr error
	retryErr error
	victim   *coordinator
	pooled   bool // the victim is back in a pool
	cpuInUse []int
	ports    map[string]int
	readErr  error
}

func (f coordFault) run(t *testing.T) coordOutcome {
	t.Helper()
	eng, cl, tm := harness(t, true)
	var o coordOutcome
	inFlight := false
	eng.SetDispatchObserver(func(_ sim.Time, _ uint64, p *sim.Proc, _ uint64) {
		if p == nil || !inFlight || !strings.HasPrefix(p.Name(), "$TMF-coord-") {
			return
		}
		if o.wakes++; o.wakes == f.k {
			p.Kill()
		}
	})
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		txn := begin(t, p)
		call(t, p, "$DP-F-0", 128, &dp2.InsertReq{Txn: txn, Key: 1, Body: []byte("v")})
		inFlight = true
		if f.abort {
			req := &AbortReq{Txn: txn, DP2s: []string{"$DP-F-0"}}
			_, o.firstErr = p.Call("$TMF", 64, req)
		} else {
			req := &CommitReq{Txn: txn, DP2s: []string{"$DP-F-0"}}
			if _, o.firstErr = p.Call("$TMF", 64, req); o.firstErr == nil {
				o.firstErr = req.Resp.Err
			}
		}
		inFlight = false
		txn = begin(t, p)
		if err := call(t, p, "$DP-F-0", 128, &dp2.InsertReq{Txn: txn, Key: 2, Body: []byte("v")}).Resp.Err; err != nil {
			o.retryErr = fmt.Errorf("insert: %w", err)
			return
		}
		req := &CommitReq{Txn: txn, DP2s: []string{"$DP-F-0"}}
		if _, err := p.Call("$TMF", 64, req); err != nil || req.Resp.Err != nil {
			o.retryErr = fmt.Errorf("commit: %v, %v", err, req.Resp.Err)
		}
	})
	eng.Run()
	if tm.ncoord > 0 {
		// The first coordinator spawned ran transaction 1's request.
		for _, c := range tm.pool.idle {
			if c.proc.Name() == "$TMF-coord-1" {
				o.pooled = true
			}
		}
	}
	for i := 0; i < cl.NumCPUs(); i++ {
		o.cpuInUse = append(o.cpuInUse, cl.CPU(i).InUse())
	}
	o.ports = map[string]int{}
	for _, id := range []servernet.EndpointID{0, 1, 2, 3, 1004, 1005, 1006} {
		if ep := cl.Fabric().Endpoint(id); ep != nil && ep.PortInUse() != 0 {
			o.ports[ep.Name()] = ep.PortInUse()
		}
	}
	eng.Shutdown()
	return o
}

// TestKillAtEveryCoordinatorLeg kills the commit coordinator at every event
// addressed to it while a commit, and then an abort, is in flight: its start,
// the flush request and its reply, the master commit record, the control
// block, the end request and its reply, the rollback's calls, the outcome
// checkpoint and its last resume. The coordinator parks once on its request
// script, so a kill unwinds it out of that park and its guard must give back
// exactly the leg in flight. Afterwards no CPU is held, no fabric port is
// held, the client's request went unanswered (the coordinator died before
// replying), the killed coordinator never goes back to its pool, and the
// monitor serves the next transaction on a fresh one. Transaction 1's own
// row lock is not checked: a coordinator killed before its end fan-out leaves
// the transaction unresolved at the DP2, and nothing resolves it yet.
func TestKillAtEveryCoordinatorLeg(t *testing.T) {
	for _, abort := range []bool{false, true} {
		name := map[bool]string{false: "commit", true: "abort"}[abort]
		clean := coordFault{abort: abort}.run(t)
		if clean.firstErr != nil || clean.retryErr != nil || clean.wakes < 4 || !clean.pooled {
			t.Fatalf("%s undisturbed: %v, %v after %d events at the coordinator (pooled %v)", name, clean.firstErr, clean.retryErr, clean.wakes, clean.pooled)
		}
		for k := 1; k <= clean.wakes; k++ {
			t.Run(fmt.Sprintf("%s/event%d", name, k), func(t *testing.T) {
				o := coordFault{abort: abort, k: k}.run(t)
				if !errors.Is(o.firstErr, cluster.ErrTimeout) {
					t.Errorf("the %s whose coordinator was killed: %v, want no reply (%v)", name, o.firstErr, cluster.ErrTimeout)
				}
				if o.pooled {
					t.Error("the killed coordinator went back to its pool")
				}
				if o.retryErr != nil {
					t.Errorf("the next transaction: %v", o.retryErr)
				}
				for i, n := range o.cpuInUse {
					if n != 0 {
						t.Errorf("cpu%d's execution resource still held at the end", i)
					}
				}
				if len(o.ports) != 0 {
					t.Errorf("fabric ports still held at the end: %v", o.ports)
				}
			})
		}
	}
}
