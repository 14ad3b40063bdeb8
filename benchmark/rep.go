package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"
)

// The types in this file are the whole interface between the adapter
// (the one file that calls the program) and the rest of the benchmark:
// plain numbers in, plain numbers out.

// phase is one host-time span of a rep. Every top-level call a cell
// makes into the program is wrapped in exactly one phase, so the phases
// tile the rep's wall time.
type phase int

const (
	phBuild phase = iota
	phStart
	phRun
	phCollect
	phRecover
	phCheck
	phShutdown
	numPhases
)

var phaseNames = [numPhases]string{"build", "start", "run", "collect", "recover", "check", "shutdown"}

// span is one recorded phase interval, kept in memory until exit.
type span struct {
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
	Phase    string  `json:"phase"`
	StartS   float64 `json:"start_s"` // since the benchmark started
	EndS     float64 `json:"end_s"`
}

// phaseClock times the phases of one rep. enter closes the open phase
// and opens the next, so no host time between the first enter and stop
// goes unattributed.
type phaseClock struct {
	epoch    time.Time // benchmark start, the origin of retained spans
	workload string
	rep      int
	retain   *[]span // nil: totals only

	cur   phase
	open  bool
	since time.Time
	total [numPhases]time.Duration
}

func (c *phaseClock) enter(p phase) {
	now := time.Now()
	c.close(now)
	c.cur, c.open, c.since = p, true, now
}

func (c *phaseClock) stop() { c.close(time.Now()) }

func (c *phaseClock) close(now time.Time) {
	if !c.open {
		return
	}
	c.total[c.cur] += now.Sub(c.since)
	if c.retain != nil {
		*c.retain = append(*c.retain, span{
			Workload: c.workload, Rep: c.rep, Phase: phaseNames[c.cur],
			StartS: c.since.Sub(c.epoch).Seconds(), EndS: now.Sub(c.epoch).Seconds(),
		})
	}
	c.open = false
}

// sizing fixes the work of one rep. It is never adapted to the clock:
// a longer run means more reps, not bigger ones.
type sizing struct {
	hotRecords   int   // records each hot-stock driver inserts, 8 per transaction
	openWindowNs int64 // open-loop arrival window, virtual
	faultTxns    int   // transactions each fault-matrix cell attempts
	faultStride  int   // run every faultStride-th matrix cell (1 = all 64)
	recoverTxns  int   // committed transactions in each crash-and-recover cell
	probeOps     int   // operations each layer probe times
	btreeKeys    int   // keys the btree.set probe inserts
	odsTxns      int   // transactions per size in the ods.insert/ods.commit probe
	yardEvents   int   // events one yardstick run dispatches
	setupWarmups int   // untimed set-ups before the timed ones
	setups       int   // timed cold set-ups
	minReps      int   // reps run however short --seconds is
	crossCheck   bool  // full size: hold seed 1 to the committed CSV artifacts
}

var fullSize = sizing{
	hotRecords: 32000, openWindowNs: 2_000_000_000, faultTxns: 8, faultStride: 1,
	recoverTxns: 4000, probeOps: 200_000, btreeKeys: 100_000, odsTxns: 2000,
	yardEvents: yardEvents, setupWarmups: 2, setups: 32, minReps: 5, crossCheck: true,
}

// smokeSize shrinks every cell so the whole suite runs in seconds under
// the race detector; its numbers mean nothing, only its shape does.
var smokeSize = sizing{
	hotRecords: 160, openWindowNs: 20_000_000, faultTxns: 4, faultStride: 32,
	recoverTxns: 40, probeOps: 1000, btreeKeys: 1000, odsTxns: 10,
	yardEvents: 1000, setups: 1, minReps: 1,
}

// repOut is what one rep of a workload reports.
type repOut struct {
	// attempted and failed count operations for the result line:
	// transactions on the load workloads, cells on fault-recover.
	attempted, failed int64
	// committed transactions, the denominator of every per-txn metric.
	committed int64
	// events the simulator executed and virtual nanoseconds it covered,
	// summed over the rep's cells.
	events uint64
	virtNs int64
	// virt holds every virtual-time metric the rep can compute without
	// the span registry, by metric name. It is deterministic per seed,
	// and with events it is what virt_digest hashes.
	virt map[string]float64
	// layer holds the registry-derived per-layer metrics of a traced
	// rep, by metric name.
	layer map[string]float64
	// artifacts are the strings a seed-1 full-size rep must reproduce
	// from the committed CSV artifacts.
	artifacts []artifact
	// wrong lists every correctness-gate failure; empty means the rep's
	// outputs were all correct.
	wrong []string
}

func newRepOut() *repOut {
	return &repOut{virt: map[string]float64{}, layer: map[string]float64{}}
}

func (r *repOut) fail(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

// digest hashes the rep's virtual results and event count. Every rep of
// a workload at one seed, traced or not, must produce the same digest.
func (r *repOut) digest() string {
	names := make([]string, 0, len(r.virt))
	for n := range r.virt {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	fmt.Fprintf(h, "events=%d virt_ns=%d committed=%d\n", r.events, r.virtNs, r.committed)
	for _, n := range names {
		fmt.Fprintf(h, "%s=%v\n", n, r.virt[n])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// artifact is one value a rep printed the way a committed CSV artifact
// prints it: the row of file that starts with rowPrefix must carry got
// in the given column, or as everything after the prefix.
type artifact struct {
	file      string
	rowPrefix string
	column    int // wholeRow: compare the rest of the row
	got       string
}

const wholeRow = -1

// probeOut is one layer probe's cost per operation.
type probeOut struct {
	hostNs float64
	allocs float64
	events float64
	virtUs float64
}
