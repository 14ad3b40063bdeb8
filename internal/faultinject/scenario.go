// Faulted crash scenarios: run the recovery package's standard workload
// with a fault plan armed, crash the node, recover, and check the
// paper's durability invariants against ground truth.
package faultinject

import (
	"bytes"
	"fmt"

	"persistmem/internal/cluster"
	"persistmem/internal/consistency"
	"persistmem/internal/metrics"
	"persistmem/internal/ods"
	"persistmem/internal/recovery"
	"persistmem/internal/sim"
)

// ScenarioConfig describes one faulted crash scenario.
type ScenarioConfig struct {
	Durability ods.Durability
	// Txns transactions of 4 inserts each are attempted before the
	// crash; a final transaction is left in flight.
	Txns int
	Seed int64
	Plan Plan
	// Pace inserts a wait before each transaction, stretching the run so
	// time-delayed plan actions land mid-stream instead of after the
	// crash. Zero means back-to-back transactions.
	Pace sim.Time
	// TwoPhase runs every workload transaction under the cross-shard
	// outcome-record protocol (the 4 inserts span all 4 partitions, so
	// each commit prepares on 4 participant shards).
	TwoPhase bool
}

// Begin-retry policy: a client whose transaction monitor is mid-
// takeover parks and retries instead of giving up — the paper's
// availability story assumes exactly this (§1.3: sessions survive a
// takeover). The budget comfortably covers TakeoverDelay plus a stale-
// registration call timeout.
const (
	beginRetries    = 40
	beginRetryDelay = 50 * sim.Millisecond
)

// Result is the crashed store, its ground truth and the injection log.
// It embeds recovery.ScenarioResult, whose Committed/InFlight buckets
// keep their meaning — plus a third bucket faults make necessary.
type Result struct {
	recovery.ScenarioResult
	// Unresolved holds keys of transactions whose Commit returned an
	// error under faults. The commit record may or may not have become
	// durable before the error, so recovery may surface or drop them —
	// but a surfaced one must carry the correct body.
	Unresolved []uint64
	// TxnErrs counts workload operations that failed under faults
	// (begins and commits; expected non-zero for disruptive plans).
	TxnErrs int
	// Injector exposes the firing log and takeover-bound verdicts.
	Injector *Injector
	// Metrics is the span registry the scenario ran with. Its conservation
	// laws are written with occupancy terms, so they must balance even at
	// a crash point — Violations checks every one.
	Metrics *metrics.Registry
	// History is the registry's transaction stream with its protocol
	// events retained — every scenario's input to the atomicity checker.
	History *metrics.TxnStream
	// Ops lists every write the workload issued, per transaction — the
	// checker's ground truth for all-or-nothing visibility.
	Ops []consistency.Op
}

// Run executes the scenario: build a data-retaining store, arm the
// plan, drive the workload from the spare CPU, then power-fail the
// whole node. The workload tolerates faults: a failed begin skips the
// transaction, a failed commit files its keys under Unresolved; only a
// nil Commit promotes keys to Committed (the session aborts internally
// on any insert error, so a nil Commit proves all inserts landed).
func Run(cfg ScenarioConfig) *Result {
	pd := Start(cfg)
	pd.Engine().Run()
	return pd.Result()
}

// Pending is a scenario whose processes are spawned but whose engine has
// not been driven yet. It lets a caller time the crash run apart from
// set-up: drain the engine (Engine().Run), then call Result.
type Pending struct {
	res *Result
}

// Engine returns the scenario's engine, to be driven to completion.
func (pd *Pending) Engine() *sim.Engine { return pd.res.Store.Eng }

// Result returns the scenario outcome. Valid only after the engine has
// drained (the crash has happened).
func (pd *Pending) Result() *Result { return pd.res }

// Start builds the scenario and spawns its workload and crasher
// processes without running the engine.
func Start(cfg ScenarioConfig) *Pending {
	opts := recovery.ScenarioOptions(cfg.Durability, cfg.Seed)
	opts.Metrics = metrics.NewRegistry()
	hist := opts.Metrics.EnableHistory()
	s := ods.Build(opts)

	res := &Result{
		ScenarioResult: recovery.ScenarioResult{Store: s},
		Metrics:        opts.Metrics,
		History:        hist,
	}
	inj := Arm(s, cfg.Plan)
	res.Injector = inj

	workCPU := opts.CPUs - 1 // no service pair has its primary here
	crashNow := s.Eng.NewChan("crash")
	s.Cl.CPU(workCPU).Spawn("workload", func(p *cluster.Process) {
		se := s.NewSession(p)
		se.SetTwoPhase(cfg.TwoPhase)
		var bodies recovery.RowBodies
		record := func(txn ods.Txn, key uint64) {
			res.Ops = append(res.Ops, consistency.Op{
				Txn:   uint64(txn.ID()),
				File:  "TRADES",
				Key:   key,
				Shard: s.DP2Name("TRADES", s.PartitionOf("TRADES", key)),
			})
		}
		begin := func() (ods.Txn, bool) {
			for attempt := 0; ; attempt++ {
				txn, err := se.Begin()
				if err == nil {
					return txn, true
				}
				res.TxnErrs++
				if attempt == beginRetries {
					return ods.Txn{}, false
				}
				p.Wait(beginRetryDelay)
			}
		}
		for i := 0; i < cfg.Txns; i++ {
			if cfg.Pace > 0 {
				p.Wait(cfg.Pace)
			}
			txn, ok := begin()
			if !ok {
				continue
			}
			keys := make([]uint64, 0, 4)
			for j := 0; j < 4; j++ {
				key := uint64(i*10 + j + 1)
				txn.InsertAsync("TRADES", key, bodies.Next(key))
				keys = append(keys, key)
				record(txn, key)
			}
			if err := txn.Commit(); err != nil {
				res.TxnErrs++
				res.Unresolved = append(res.Unresolved, keys...)
				continue
			}
			res.Committed = append(res.Committed, keys...)
		}
		// One more transaction, inserted but never committed.
		if txn, ok := begin(); ok {
			for j := 0; j < 4; j++ {
				key := uint64(1000000 + j)
				txn.InsertAsync("TRADES", key, []byte("uncommitted"))
				res.InFlight = append(res.InFlight, key)
				record(txn, key)
			}
			txn.WaitPending()
		}
		crashNow.TrySend(nil)
		p.Wait(sim.Minute) // the crash kills us first
	})
	s.Eng.Spawn("crasher", func(p *sim.Proc) {
		crashNow.Recv(p)
		inj.Disarm()
		s.PowerFail()
	})
	return &Pending{res: res}
}

// Recover repairs, reboots and runs the durability mode's recovery
// path. Repair first: a chaos plan may be cut short by the crash with a
// device still failed, and recovery models the restart *after* ops has
// swapped the broken part — a disk volume or fabric-detached NPMU left
// failed would otherwise make the trail unreadable, which is an
// operations problem, not a durability one.
func (res *Result) Recover(opts recovery.Options) (recovery.Report, *recovery.Rebuilt, error) {
	s := res.Store
	for _, v := range s.DataVolumes {
		v.Restore()
	}
	for _, v := range s.AuditVolumes {
		v.Restore()
	}
	if s.NPMUPrimary != nil {
		s.NPMUPrimary.Recover()
		if s.NPMUMirror != s.NPMUPrimary {
			s.NPMUMirror.Recover()
		}
	}
	s.Cl.Fabric().RestorePath(0)
	s.Cl.Fabric().RestorePath(1)
	if s.Opts.Durability == ods.DiskDurability {
		return res.RecoverDisk(opts)
	}
	return res.RecoverPM(opts, true)
}

// Violations checks the recovered image against ground truth and the
// injector's takeover verdicts, returning one description per violated
// invariant. The invariants are the paper's §5 claims:
//
//  1. no committed transaction is lost (every key whose Commit returned
//     nil is present with the committed body),
//  2. no in-flight transaction resurrects (presumed abort),
//  3. an unresolved commit is either absent or intact — never corrupt,
//  4. every fault that killed a protected primary led to a takeover
//     within the cluster's TakeoverDelay,
//  5. every metrics conservation law balances at the crash point (work
//     lost to a fault must stay counted in an occupancy term, never
//     vanish from the ledger).
func (res *Result) Violations(rb *recovery.Rebuilt) []string {
	var v []string
	if rb == nil {
		return []string{"no recovered image"}
	}
	var want [recovery.RowBodyMax]byte
	for _, key := range res.Committed {
		body, ok := rb.Get("TRADES", key)
		if !ok {
			v = append(v, fmt.Sprintf("committed key %d lost", key))
		} else if !bytes.Equal(body, recovery.AppendRowBody(want[:0], key)) {
			v = append(v, fmt.Sprintf("committed key %d has corrupt body %q", key, body))
		}
	}
	for _, key := range res.InFlight {
		if _, ok := rb.Get("TRADES", key); ok {
			v = append(v, fmt.Sprintf("in-flight key %d resurrected", key))
		}
	}
	for _, key := range res.Unresolved {
		if body, ok := rb.Get("TRADES", key); ok && !bytes.Equal(body, recovery.AppendRowBody(want[:0], key)) {
			v = append(v, fmt.Sprintf("unresolved key %d has corrupt body %q", key, body))
		}
	}
	v = append(v, res.Injector.TakeoverViolations...)
	for _, err := range res.Metrics.CheckConservation() {
		v = append(v, "conservation: "+err.Error())
	}
	return v
}

// CheckHistory runs the offline atomicity/serializability checker over
// the scenario's recorded protocol history against the recovered image.
// It subsumes nothing from Violations — that method checks ground-truth
// buckets the client observed; this one checks the protocol's own event
// grammar and all-or-nothing visibility per transaction, including the
// in-doubt ones whose coordinator died before recording an outcome.
func (res *Result) CheckHistory(rb *recovery.Rebuilt) consistency.Result {
	visible := func(file string, key uint64) bool {
		_, ok := rb.Get(file, key)
		return ok
	}
	return consistency.Check(res.History.Events(), res.Ops, visible)
}
