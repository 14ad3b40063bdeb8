package recovery

import (
	"fmt"
	"testing"

	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

// The in-doubt resolution tests pin resolveInDoubt's contract for each
// outcome-record state a prepared cross-shard transaction can be found
// in after a crash: a durable commit outcome means redo, a durable
// abort outcome means discard, and no outcome anywhere means presumed
// abort — never redo, never a third state.

func TestInDoubtPresumedAbortWithoutOutcome(t *testing.T) {
	an := new(analysis)
	an.prepare(7)
	var rep Report
	resolveInDoubt(an, &rep)
	if got := an.outcome(7); got != tmf.TCBAborted {
		t.Errorf("prepared txn with no outcome resolved to state %d, want TCBAborted", got)
	}
	if rep.InDoubt != 1 || rep.OutcomeResolved != 0 {
		t.Errorf("report = {InDoubt: %d, OutcomeResolved: %d}, want {1, 0}", rep.InDoubt, rep.OutcomeResolved)
	}
}

func TestInDoubtResolvedByCommitOutcome(t *testing.T) {
	an := new(analysis)
	an.prepare(7)
	an.decide(7, tmf.TCBCommitted)
	var rep Report
	resolveInDoubt(an, &rep)
	if got := an.outcome(7); got != tmf.TCBCommitted {
		t.Errorf("outcome flipped to %d, want TCBCommitted kept", got)
	}
	if rep.InDoubt != 0 || rep.OutcomeResolved != 1 {
		t.Errorf("report = {InDoubt: %d, OutcomeResolved: %d}, want {0, 1}", rep.InDoubt, rep.OutcomeResolved)
	}
}

func TestInDoubtResolvedByAbortOutcome(t *testing.T) {
	an := new(analysis)
	an.prepare(7)
	an.decide(7, tmf.TCBAborted)
	var rep Report
	resolveInDoubt(an, &rep)
	if got := an.outcome(7); got != tmf.TCBAborted {
		t.Errorf("outcome flipped to %d, want TCBAborted kept", got)
	}
	if rep.InDoubt != 0 || rep.OutcomeResolved != 1 {
		t.Errorf("report = {InDoubt: %d, OutcomeResolved: %d}, want {0, 1}", rep.InDoubt, rep.OutcomeResolved)
	}
}

func TestInDoubtActiveTCBStateIsStillPresumedAbort(t *testing.T) {
	// A TCB slot caught in TCBActive is not a decision: the coordinator
	// died before the commit point, so the prepared participant must
	// still resolve to presumed abort.
	an := new(analysis)
	an.prepare(7)
	an.decide(7, tmf.TCBActive)
	var rep Report
	resolveInDoubt(an, &rep)
	if got := an.outcome(7); got != tmf.TCBAborted {
		t.Errorf("active-state prepared txn resolved to %d, want TCBAborted", got)
	}
	if rep.InDoubt != 1 || rep.OutcomeResolved != 0 {
		t.Errorf("report = {InDoubt: %d, OutcomeResolved: %d}, want {1, 0}", rep.InDoubt, rep.OutcomeResolved)
	}
}

// inDoubtFixture is one transaction of each kind: txn 1 prepared with a
// durable commit outcome (rows must be redone), txn 2 prepared with a
// durable abort outcome (rows discarded), txn 3 prepared with no outcome at
// all (presumed abort, rows discarded), txn 4 never prepared and aborted
// (rows discarded). Split, the first three transactions' records go to a
// stream each and both outcome records, with txn 4, to a fourth, as a
// coordinator's outcome lands on its own log writer's trail, not on its
// participants'; otherwise all of it is one stream.
func inDoubtFixture(split bool) [][]byte {
	streams := make([][]byte, 4)
	add := func(i int, rec *audit.Record) {
		if !split {
			i = 0
		}
		streams[i] = audit.AppendRecord(streams[i], rec)
	}
	row := func(txn audit.TxnID, key uint64) {
		add(int(txn)-1, &audit.Record{Type: audit.RecInsert, Txn: txn, File: "TRADES", Key: key, Body: []byte("v")})
	}
	prep := func(txn audit.TxnID) {
		add(int(txn)-1, &audit.Record{Type: audit.RecPrepare, Txn: txn})
	}
	outcome := func(txn audit.TxnID, state uint8) {
		add(3, &audit.Record{
			Type: audit.RecOutcome, Txn: txn,
			Body: tmf.AppendOutcome(nil, state, []string{"$DP-TRADES-0", "$DP-TRADES-1"}),
		})
	}
	prep(1)
	row(1, 10)
	add(0, &audit.Record{Type: audit.RecUpdate, Txn: 1, File: "TRADES", Key: 10, Body: []byte("v2")})
	row(1, 11)
	add(0, &audit.Record{Type: audit.RecDelete, Txn: 1, File: "TRADES", Key: 11})
	prep(2)
	row(2, 20)
	prep(3)
	row(3, 30)
	outcome(1, tmf.TCBCommitted)
	outcome(2, tmf.TCBAborted)
	add(3, &audit.Record{Type: audit.RecInsert, Txn: 4, File: "TRADES", Key: 40, Body: []byte("v")})
	add(3, &audit.Record{Type: audit.RecAbort, Txn: 4})
	if !split {
		return streams[:1]
	}
	return streams
}

// recoverFixture runs recoverStreams with the analysis charged, as on the
// disk path, over hand-built streams, one replica each, which each worker
// reads in no time, on a fresh four-CPU node: the workers spread over its
// CPUs or, serial, all on CPU 0.
func recoverFixture(t *testing.T, streams [][]byte, serial bool) (Report, *Rebuilt) {
	t.Helper()
	trails := make([][][]byte, len(streams))
	for i, s := range streams {
		trails[i] = [][]byte{s}
	}
	rep, rb, err := recoverLogs(trails, nil, Options{}, 0, serial)
	if err != nil {
		t.Fatal(err)
	}
	return rep, rb
}

// imageLog is a hand-built trail: its replicas' byte images, zero past
// their end up to capacity bytes; every read waits perRead first.
type imageLog struct {
	reps     [][]byte
	capacity int
	perRead  sim.Time
}

func (l *imageLog) replicas() int          { return len(l.reps) }
func (l *imageLog) size() int64            { return int64(l.capacity) }
func (l *imageLog) close(*cluster.Process) {}
func (l *imageLog) wrap(err error) error   { return err }
func (l *imageLog) readReplica(p *cluster.Process, r int, off int64, buf []byte) error {
	p.Wait(l.perRead)
	clear(buf)
	if off < int64(len(l.reps[r])) {
		copy(buf, l.reps[r][off:])
	}
	return nil
}

// fixtureOpener opens each trail as an imageLog.
func fixtureOpener(trails [][][]byte, capacity int, perRead sim.Time) logOpener {
	return func(_ *cluster.Process, i int) (trailLog, error) {
		return &imageLog{reps: trails[i], capacity: capacity, perRead: perRead}, nil
	}
}

// fixtureCapacity is the device size hand-built trails are read from: 4 KiB
// past the longest replica.
func fixtureCapacity(trails [][][]byte) int {
	n := 0
	for _, reps := range trails {
		for _, r := range reps {
			n = max(n, len(r))
		}
	}
	return n + 4<<10
}

// recoverLogs runs recoverStreams over hand-built trails on a fresh
// four-CPU node, the workers spread over its CPUs or, serial, all on CPU 0.
// With a TCB table the analysis is the TCB path's (redo charged, records
// the table decides redone as they land); without one it is charged as on
// the disk path. Each read waits perRead, so a trail of several chunks
// arrives over time. MTTR is the virtual time recoverStreams took.
func recoverLogs(trails [][][]byte, tcb map[audit.TxnID]uint8, opts Options, perRead sim.Time, serial bool) (Report, *Rebuilt, error) {
	eng := sim.NewEngine(1)
	defer eng.Shutdown()
	cl := cluster.New(eng, cluster.DefaultConfig())
	cpus := nodeCPUs(cl)
	if serial {
		cpus = cpus[:1]
	}
	return recoverLogsOn(cl, cpus, trails, tcb, opts, perRead)
}

// recoverLogsOn is recoverLogs on a node of the caller's: the recovering
// process runs on CPU 0, the workers on cpus, and the engine runs until it
// quiesces.
func recoverLogsOn(cl *cluster.Cluster, cpus []*cluster.CPU, trails [][][]byte, tcb map[audit.TxnID]uint8, opts Options, perRead sim.Time) (Report, *Rebuilt, error) {
	capacity := fixtureCapacity(trails)
	var rep Report
	var rb *Rebuilt
	var err error
	cl.CPU(0).Spawn("recover", func(p *cluster.Process) {
		start := p.Now()
		opts.defaults()
		an := new(analysis)
		for txn, state := range tcb {
			an.decide(txn, state)
		}
		rb, err = recoverStreams(p, cpus, opts, len(trails), fixtureOpener(trails, capacity, perRead), an, tcb == nil, &rep)
		rep.UsedTCB = tcb != nil
		rep.MTTR = p.Now() - start
	})
	cl.Engine().Run()
	return rep, rb, err
}

// TestInDoubtStreamResolution drives the full scan → resolve → redo path
// over the in-doubt fixture, in one stream and split over four with the
// outcomes apart from the data they decide, each both with its workers
// spread over the node's CPUs and serial on one.
func TestInDoubtStreamResolution(t *testing.T) {
	for _, split := range []bool{false, true} {
		for _, serial := range []bool{false, true} {
			t.Run(fmt.Sprintf("split=%v/serial=%v", split, serial), func(t *testing.T) {
				rep, rb := recoverFixture(t, inDoubtFixture(split), serial)
				if rep.OutcomeResolved != 2 || rep.InDoubt != 1 {
					t.Errorf("report = {OutcomeResolved: %d, InDoubt: %d}, want {2, 1}", rep.OutcomeResolved, rep.InDoubt)
				}
				if body, ok := rb.Get("TRADES", 10); !ok || string(body) != "v2" {
					t.Errorf("committed txn's row = %q, %v after redo; want updated image", body, ok)
				}
				for _, key := range []uint64{11, 20, 30, 40} {
					if _, ok := rb.Get("TRADES", key); ok {
						t.Errorf("row %d (deleted or aborted/in-doubt) visible after redo", key)
					}
				}
				if rb.Rows() != 1 {
					t.Errorf("rebuilt image holds %d rows, want 1", rb.Rows())
				}
				if rep.Committed != 1 || rep.Aborted != 3 {
					t.Errorf("classified {Committed: %d, Aborted: %d}, want {1, 3}", rep.Committed, rep.Aborted)
				}
			})
		}
	}
}
