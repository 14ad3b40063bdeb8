package dp2

import (
	"errors"
	"fmt"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/locks"
	"persistmem/internal/sim"
)

// An insert or a read that meets a held row lock waits for it in a process
// of its own, so the primary keeps serving — the holder's end must get
// through. These tests hold that the primary stays the partition's only
// writer all the same: what the waiter waited for is applied by the primary
// that spawned it, or by nobody.

// TestWaitedInsertAndAbortRecordShareNoLogOffset: txn 1 inserts key 5 and
// aborts while txn 2's insert of key 5 waits on its lock; txn 2 then commits
// and the primary is killed. The abort's End record and txn 2's insert
// record both go to the PM log; were they written by two writers, both would
// be armed at the same LSN and the log would keep a hole the takeover cannot
// rebuild across.
func TestWaitedInsertAndAbortRecordShareNoLogOffset(t *testing.T) {
	eng, cl, d, _ := pmDirectHarness(t, nil)
	cl.CPU(3).Spawn("txn1", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 5, Body: []byte("txn 1")})
		p.Wait(time5ms)
		call(t, p, &EndTxnReq{Txn: 1, Commit: false})
	})
	cl.CPU(2).Spawn("txn2", func(p *cluster.Process) {
		p.Wait(sim.Millisecond)
		if r := call(t, p, &InsertReq{Txn: 2, Key: 5, Body: []byte("txn 2")}).Resp; r.Err != nil {
			t.Errorf("txn 2's waiting insert: %v", r.Err)
			return
		}
		call(t, p, &EndTxnReq{Txn: 2, Commit: true})
		d.Pair().KillPrimary()
		p.Wait(cluster.TakeoverDelay + settle)
		raw, err := p.Call(d.Name(), 64, &ReadReq{Key: 5})
		if err == nil {
			err = raw.(*ReadReq).Resp.Err
		}
		if err != nil || string(raw.(*ReadReq).Resp.Body) != "txn 2" {
			t.Errorf("the takeover serves key 5 as %v; want txn 2's committed row", err)
		}
	})
	eng.Run()
	if st := d.Stats(); st.RegionErr != nil || st.PMRebuilds != 1 {
		t.Errorf("RegionErr %v, PMRebuilds %d; want a takeover that rebuilt from its log", st.RegionErr, st.PMRebuilds)
	}
	eng.Shutdown()
}

// waitKill is one run of TestKillWhileAnInsertWaitsOnItsLock's scenario:
// txn 1 inserts key 5, and txn 2's insert of key 5 waits on its lock. At k 0
// the primary is killed while txn 2 waits; at k ≥ 1 txn 1 aborts, and the
// primary is killed at the kth event addressed to it while the abort — whose
// lock release grants txn 2's wait — is in flight.
type waitKill struct {
	pmDirect bool
	k        int
}

type waitKillOutcome struct {
	wakes    int   // events addressed to the first primary during the abort
	abortErr error // txn 1's abort at the first primary
	waitErr  error // txn 2's insert
	// What the first takeover serves, and the second: key 5's body (or the
	// read's error) and the row count.
	served [2]string
	rows   [2]int
	// The next transaction on key 5, at the third incarnation.
	nextErr  error
	nextRead string
	d        *DP2
}

func readKey(p *cluster.Process, name string, key uint64) string {
	raw, err := p.Call(name, 64, &ReadReq{Key: key})
	if err == nil {
		err = raw.(*ReadReq).Resp.Err
	}
	if err != nil {
		return err.Error()
	}
	return string(raw.(*ReadReq).Resp.Body)
}

func (f waitKill) run(t *testing.T) waitKillOutcome {
	t.Helper()
	var eng *sim.Engine
	var cl *cluster.Cluster
	var d *DP2
	if f.pmDirect {
		eng, cl, d, _ = pmDirectHarness(t, nil)
	} else {
		eng, cl, d = harness(t, nil)
	}
	var o waitKillOutcome
	aborting := false
	eng.SetDispatchObserver(func(_ sim.Time, _ uint64, p *sim.Proc, _ uint64) {
		if aborting && p != nil && p.Name() == "$DP-F-0-p1" {
			if o.wakes++; o.wakes == f.k {
				d.Pair().KillPrimary()
			}
		}
	})
	cl.CPU(2).Spawn("txn2", func(p *cluster.Process) {
		p.Wait(sim.Millisecond)
		req := &InsertReq{Txn: 2, Key: 5, Body: []byte("txn 2")}
		if _, o.waitErr = p.Call(d.Name(), 128, req); o.waitErr == nil {
			o.waitErr = req.Resp.Err
		}
	})
	cl.CPU(3).Spawn("txn1", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 5, Body: []byte("txn 1")})
		p.Wait(time5ms)
		if f.k == 0 {
			d.Pair().KillPrimary()
		} else {
			aborting = true
			_, o.abortErr = p.Call(d.Name(), 64, &EndTxnReq{Txn: 1, Commit: false})
			aborting = false
		}
		// Past the takeover and every wait the first incarnation started.
		p.Wait(lockTimeout + cluster.TakeoverDelay + settle)
		for i := range o.served {
			o.served[i] = readKey(p, d.Name(), 5)
			raw, err := p.Call(d.Name(), 64, &StateReq{})
			if err != nil {
				t.Errorf("takeover %d serves nothing: %v (RegionErr %v)", i+1, err, d.Stats().RegionErr)
				return
			}
			o.rows[i] = raw.(*StateReq).Resp.CacheRows
			if i == 0 {
				// Serve the held image again: a new backup on the other of
				// CPUs 1 and 2, then a second takeover.
				d.Pair().Rebackup(3 - d.Pair().PrimaryCPU())
				d.Pair().KillPrimary()
				p.Wait(cluster.TakeoverDelay + settle)
			}
		}
		// The monitor would abort both; then the key is free for the next.
		call(t, p, &EndTxnReq{Txn: 1, Commit: false})
		call(t, p, &EndTxnReq{Txn: 2, Commit: false})
		req := &InsertReq{Txn: 3, Key: 5, Body: []byte("txn 3")}
		if _, o.nextErr = p.Call(d.Name(), 128, req); o.nextErr == nil {
			o.nextErr = req.Resp.Err
		}
		if o.nextErr == nil {
			call(t, p, &EndTxnReq{Txn: 3, Commit: true})
		}
		o.nextRead = readKey(p, d.Name(), 5)
	})
	eng.Run()
	o.d = d
	eng.Shutdown()
	return o
}

// TestKillWhileAnInsertWaitsOnItsLock kills the primary while an insert
// waits on its row lock — and at every event of the abort whose release
// grants that wait — in Classic and PMDirect mode. The waiting client gets
// an error unless its insert was acknowledged, and then the takeover serves
// it; the first takeover and a second one serve the same image, so nothing
// the dead incarnation's waiter did reached the held image or the PM log;
// both takeovers rebuild; and the next transaction on the key commits.
func TestKillWhileAnInsertWaitsOnItsLock(t *testing.T) {
	for _, mode := range []struct {
		name     string
		pmDirect bool
	}{{"classic", false}, {"pmdirect", true}} {
		clean := waitKill{pmDirect: mode.pmDirect, k: -1}.run(t)
		if clean.abortErr != nil || clean.waitErr != nil || clean.wakes < 2 {
			t.Fatalf("%s undisturbed: abort %v, waiting insert %v, %d events at the primary", mode.name, clean.abortErr, clean.waitErr, clean.wakes)
		}
		for k := 0; k <= clean.wakes; k++ {
			t.Run(fmt.Sprintf("%s/event%d", mode.name, k), func(t *testing.T) {
				o := waitKill{pmDirect: mode.pmDirect, k: k}.run(t)
				if k == 0 && o.waitErr == nil {
					t.Error("txn 2's insert was acknowledged by a primary killed while it waited")
				}
				if (o.waitErr == nil) != (o.served[0] == "txn 2") {
					t.Errorf("txn 2's insert returned %v, and the takeover serves key 5 as %q", o.waitErr, o.served[0])
				}
				if o.served != [2]string{o.served[0], o.served[0]} || o.rows[0] != o.rows[1] {
					t.Errorf("the two takeovers serve key 5 as %q, %d rows; want one image", o.served, o.rows)
				}
				if st := o.d.Stats(); st.RegionErr != nil || (mode.pmDirect && st.PMRebuilds != 2) {
					t.Errorf("RegionErr %v, PMRebuilds %d: a takeover could not rebuild", st.RegionErr, st.PMRebuilds)
				}
				if o.nextErr != nil || o.nextRead != "txn 3" {
					t.Errorf("the next transaction on key 5: insert %v, then reads %q; want it committed", o.nextErr, o.nextRead)
				}
				if o.d.Pair().Takeovers != 2 {
					t.Errorf("%d takeovers, want 2", o.d.Pair().Takeovers)
				}
			})
		}
	}
}

// TestHandBackOfAnEndedTransactionIsRefused: txn 2's insert waits on key 5,
// and txn 1's end and txn 2's own abort reach the primary back to back,
// queued behind a slow insert. Txn 1's end grants txn 2 the lock, but the
// hand-back queues behind txn 2's abort, which releases it: the insert is
// refused, not applied to a transaction that is over.
func TestHandBackOfAnEndedTransactionIsRefused(t *testing.T) {
	eng, cl, d := harness(t, nil)
	var waitErr error
	cl.CPU(2).Spawn("txn2", func(p *cluster.Process) {
		p.Wait(sim.Millisecond)
		req := &InsertReq{Txn: 2, Key: 5, Body: []byte("txn 2")}
		if _, waitErr = p.Call(d.Name(), 128, req); waitErr == nil {
			waitErr = req.Resp.Err
		}
	})
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 5, Body: []byte("txn 1")})
		p.Wait(time5ms)
		var replies []*sim.Signal
		for _, req := range []interface{}{
			&InsertReq{Txn: 3, Key: 6, Body: make([]byte, auditSendBytes)}, // sends the audit: slow
			&EndTxnReq{Txn: 1, Commit: false},
			&EndTxnReq{Txn: 2, Commit: false},
		} {
			reply, err := p.CallAsync(d.Name(), 128, req)
			if err != nil {
				t.Errorf("send %T: %v", req, err)
				return
			}
			replies = append(replies, reply)
		}
		for _, reply := range replies {
			if _, err := p.AwaitReply(reply); err != nil {
				t.Errorf("reply: %v", err)
				return
			}
		}
		if r := call(t, p, &ReadReq{Key: 5}).Resp; !errors.Is(r.Err, ErrNotFound) {
			t.Errorf("key 5 reads %q, %v after both transactions ended; want ErrNotFound", r.Body, r.Err)
		}
		if r := call(t, p, &InsertReq{Txn: 4, Key: 5, Body: []byte("txn 4")}).Resp; r.Err != nil {
			t.Errorf("the next insert of key 5: %v", r.Err)
		}
	})
	eng.Run()
	if !errors.Is(waitErr, locks.ErrNotHeld) {
		t.Errorf("txn 2's insert returned %v, want %v", waitErr, locks.ErrNotHeld)
	}
	if st := d.Stats(); st.Inserts != 3 {
		t.Errorf("%d inserts applied, want 3: txns 1, 3 and 4", st.Inserts)
	}
	eng.Shutdown()
}

// TestTransactionalReadWaitsForTheWriter: a Shared read of a row another
// transaction inserted waits for that transaction's end and is then served
// by the primary — the committed row — while a read of a row whose writer
// never ends times out.
func TestTransactionalReadWaitsForTheWriter(t *testing.T) {
	eng, cl, d := harness(t, nil)
	var committed sim.Time
	cl.CPU(3).Spawn("writer", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 5, Body: []byte("txn 1")})
		call(t, p, &InsertReq{Txn: 9, Key: 7, Body: []byte("never ends")})
		p.Wait(20 * sim.Millisecond)
		committed = p.Now()
		call(t, p, &EndTxnReq{Txn: 1, Commit: true})
	})
	cl.CPU(2).Spawn("reader", func(p *cluster.Process) {
		p.Wait(time5ms)
		r := call(t, p, &ReadReq{Txn: 2, Key: 5}).Resp
		if r.Err != nil || string(r.Body) != "txn 1" || p.Now() < committed {
			t.Errorf("txn 2's read of key 5 = %q, %v at %v; want txn 1's row once it committed at %v", r.Body, r.Err, p.Now(), committed)
		}
		if r := call(t, p, &ReadReq{Txn: 2, Key: 7}).Resp; !errors.Is(r.Err, locks.ErrLockTimeout) {
			t.Errorf("txn 2's read of key 7 = %q, %v; want %v", r.Body, r.Err, locks.ErrLockTimeout)
		}
		call(t, p, &EndTxnReq{Txn: 2, Commit: true})
	})
	eng.Run()
	if st := d.Stats(); st.Reads != 1 || st.LockTimeouts != 1 {
		t.Errorf("%d reads served and %d lock timeouts, want 1 and 1", st.Reads, st.LockTimeouts)
	}
	eng.Shutdown()
}

// TestLockWaitEndsWithItsTransaction: txn 1 holds key 5 and txn 2's insert of
// key 5 waits on its lock; txn 2 aborts, then txn 1 does. The abort withdraws
// txn 2's queued request, so its insert fails with locks.ErrTxnEnded rather
// than being granted by txn 1's release, applied and acknowledged after its
// transaction ended, with a row lock nothing would ever release. A Shared
// read of key 5 by txn 4 is then granted at once.
func TestLockWaitEndsWithItsTransaction(t *testing.T) {
	eng, cl, d := harness(t, nil)
	var waitErr, readErr error
	var readTook sim.Time
	cl.CPU(2).Spawn("txn2", func(p *cluster.Process) {
		p.Wait(sim.Millisecond)
		req := &InsertReq{Txn: 2, Key: 5, Body: []byte("txn 2")}
		if _, waitErr = p.Call(d.Name(), 128, req); waitErr == nil {
			waitErr = req.Resp.Err
		}
	})
	cl.CPU(3).Spawn("txn1", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 5, Body: []byte("txn 1")})
		p.Wait(time5ms)
		call(t, p, &EndTxnReq{Txn: 2, Commit: false})
		call(t, p, &EndTxnReq{Txn: 1, Commit: false})
		p.Wait(time5ms)
		start := p.Now()
		raw, err := p.Call(d.Name(), 64, &ReadReq{Txn: 4, Key: 5})
		if err == nil {
			err = raw.(*ReadReq).Resp.Err
		}
		readErr, readTook = err, p.Now()-start
		call(t, p, &EndTxnReq{Txn: 4, Commit: true})
	})
	eng.Run()
	if !errors.Is(waitErr, locks.ErrTxnEnded) {
		t.Errorf("txn 2's insert, waiting when txn 2 aborted: %v, want %v", waitErr, locks.ErrTxnEnded)
	}
	if !errors.Is(readErr, ErrNotFound) || readTook > sim.Millisecond {
		t.Errorf("txn 4's Shared read of key 5: %v after %v, want %v at once: no transaction holds the key", readErr, readTook, ErrNotFound)
	}
	if st := d.Stats(); st.LockTimeouts != 0 || st.Inserts != 1 {
		t.Errorf("LockTimeouts %d, Inserts %d; want 0 and txn 1's insert alone", st.LockTimeouts, st.Inserts)
	}
	eng.Shutdown()
}
