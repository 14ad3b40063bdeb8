package dp2

import (
	"errors"
	"fmt"
	"testing"

	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/locks"
	"persistmem/internal/servernet"
	"persistmem/internal/sim"
)

// requestOps names the requests TestKillAtEveryRequestLeg faults, in the
// order a transaction sends them.
var requestOps = [...]string{"insert", "prepare", "end"}

// sendRequest sends request op of transaction txn, on key, with body for an
// insert, and returns its outcome.
func sendRequest(p *cluster.Process, op int, txn audit.TxnID, key uint64, body []byte) error {
	var req interface{}
	switch op {
	case 0:
		req = &InsertReq{Txn: txn, Key: key, Body: body}
	case 1:
		req = &FlushAuditReq{Txn: txn, Prepare: true}
	default:
		req = &EndTxnReq{Txn: txn, Commit: true}
	}
	if _, err := p.Call("$DP-F-0", 128, req); err != nil {
		return err
	}
	switch r := req.(type) {
	case *InsertReq:
		return r.Resp.Err
	case *FlushAuditReq:
		return r.Resp.Err
	}
	return nil
}

// legFault is one run of TestKillAtEveryRequestLeg's scenario: transaction 1
// sends an insert, a prepare flush and an end, and fault strikes at the kth
// event addressed to the first primary while request op is in flight (k 0:
// never). Whatever failed is retried as transaction 2 once the takeover is
// done, and transaction 3 then reads both keys under a Shared lock.
type legFault struct {
	pmDirect bool
	body     int // insert body bytes
	fault    func(cl *cluster.Cluster, d *DP2)
	op, k    int
}

type legOutcome struct {
	wakes    int   // events addressed to the primary while op was in flight
	firstErr error // transaction 1's first failed request
	retryErr error
	readErrs []error
	primary  *sim.Proc
	cpuInUse []int
	ports    map[string]int
	d        *DP2
}

func (f legFault) run(t *testing.T) legOutcome {
	t.Helper()
	var eng *sim.Engine
	var cl *cluster.Cluster
	var d *DP2
	if f.pmDirect {
		eng, cl, d, _ = pmDirectHarness(t, nil)
	} else {
		eng, cl, d = harness(t, nil)
	}
	var o legOutcome
	cur := -1
	eng.SetDispatchObserver(func(_ sim.Time, _ uint64, p *sim.Proc, _ uint64) {
		if p == nil || p.Name() != "$DP-F-0-p1" {
			return
		}
		o.primary = p
		if cur == f.op {
			if o.wakes++; o.wakes == f.k {
				f.fault(cl, d)
			}
		}
	})
	body := make([]byte, f.body)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		for op := range requestOps {
			cur = op
			err := sendRequest(p, op, 1, 1, body)
			cur = -1
			if err != nil {
				o.firstErr = fmt.Errorf("%s: %w", requestOps[op], err)
				break
			}
		}
		if o.firstErr != nil {
			p.Wait(cluster.TakeoverDelay + 100*sim.Millisecond)
			for op := range requestOps {
				if err := sendRequest(p, op, 2, 2, body); err != nil {
					o.retryErr = fmt.Errorf("%s: %w", requestOps[op], err)
					break
				}
			}
		}
		for _, key := range []uint64{1, 2} {
			raw, err := p.Call("$DP-F-0", 64, &ReadReq{Txn: 3, Key: key})
			if err == nil {
				err = raw.(*ReadReq).Resp.Err
			}
			o.readErrs = append(o.readErrs, err)
		}
		sendRequest(p, 2, 3, 0, nil)
	})
	eng.Run()
	o.d = d
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

// TestKillAtEveryRequestLeg kills the DP2 primary — and separately fails its
// CPU — at every event addressed to it while an insert, a flush with prepare
// or an end is in flight, in Classic mode (with a small row, whose audit the
// prepare sends, and with a 24 KiB row, whose insert sends it) and in
// PMDirect mode: the request's receive, every CPU hold, checkpoint call,
// audit send and PM log transfer.
// The primary is parked on its request script for good, so a kill unwinds it
// out of the park and its guard must give back exactly the leg in flight.
// Afterwards no CPU is held, no fabric port is held, the takeover serves the
// retried transaction, and a third transaction's Shared locks on both keys
// grant: nothing the dead incarnation held lingers.
func TestKillAtEveryRequestLeg(t *testing.T) {
	faults := []struct {
		name string
		do   func(cl *cluster.Cluster, d *DP2)
	}{
		{"KillPrimary", func(cl *cluster.Cluster, d *DP2) { d.Pair().KillPrimary() }},
		{"CPU.Fail", func(cl *cluster.Cluster, d *DP2) { cl.CPU(1).Fail() }},
	}
	for _, mode := range []struct {
		name     string
		pmDirect bool
		body     int
	}{{"classic", false, 3}, {"classic-24k", false, auditSendBytes}, {"pmdirect", true, 3}} {
		for op, opName := range requestOps {
			clean := legFault{pmDirect: mode.pmDirect, body: mode.body, op: op}.run(t)
			if clean.firstErr != nil || clean.wakes < 2 {
				t.Fatalf("%s %s undisturbed: %v after %d events at the primary", mode.name, opName, clean.firstErr, clean.wakes)
			}
			for _, flt := range faults {
				for k := 1; k <= clean.wakes; k++ {
					t.Run(fmt.Sprintf("%s/%s/%s/event%d", mode.name, opName, flt.name, k), func(t *testing.T) {
						o := legFault{pmDirect: mode.pmDirect, body: mode.body, fault: flt.do, op: op, k: k}.run(t)
						if o.firstErr == nil {
							t.Fatalf("transaction 1 was served whole: the fault did not land inside the %s", opName)
						}
						if !o.primary.Done() || !o.primary.Killed() {
							t.Errorf("the first primary: done %v, killed %v; want killed", o.primary.Done(), o.primary.Killed())
						}
						if o.d.Pair().Takeovers != 1 {
							t.Errorf("%d takeovers, want 1", o.d.Pair().Takeovers)
						}
						if o.retryErr != nil {
							t.Errorf("the retried transaction after the takeover: %v", o.retryErr)
						}
						for i, err := range o.readErrs {
							if errors.Is(err, locks.ErrLockTimeout) || (i == 1 && err != nil) {
								t.Errorf("transaction 3's read of key %d: %v", i+1, err)
							}
						}
						for i, n := range o.cpuInUse {
							if n != 0 {
								t.Errorf("cpu%d's execution resource still held at the end", i)
							}
						}
						if len(o.ports) != 0 {
							t.Errorf("fabric ports still held at the end: %v", o.ports)
						}
						if o.d.Stats().RegionErr != nil {
							t.Errorf("the takeover could not rebuild: %v", o.d.Stats().RegionErr)
						}
					})
				}
			}
		}
	}
}
