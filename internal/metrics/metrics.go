// Package metrics is the deterministic observability layer for the whole
// simulated stack: a registry of counters, gauges, virtual-time-weighted
// utilization trackers and latency histograms that subsystems record into,
// plus the per-transaction stream (stream.go) whose views are the
// client's transaction ledger, the commit critical-path ladder that
// explains where commit time goes, phase by phase, and the protocol
// events the atomicity checker reads.
//
// Two rules govern every instrument:
//
//  1. Zero cost when disabled. Subsystems hold instrument pointers that
//     are nil when no registry is attached, and every recording method
//     nil-short-circuits, takes only scalar arguments and allocates
//     nothing — so the uninstrumented hot path stays hotalloc-clean and
//     full-scale benchmark output is byte-identical with metrics off.
//  2. Determinism. Instruments only fold values derived from virtual
//     time; they never schedule events, wait, or consult the wall clock,
//     so attaching a registry cannot perturb a simulation's schedule.
//
// The registry additionally carries conservation laws — double-entry
// bookkeeping checks such as "transactions begun == committed + aborted +
// unresolved + in-flight" — that fault-injection harnesses assert after
// every scenario.
package metrics

import (
	"fmt"
	"slices"

	"persistmem/internal/hist"
	"persistmem/internal/sim"
)

// Counter is a monotonically increasing event count. The nil Counter
// records nothing, which is how disabled instrumentation stays free.
type Counter struct {
	name string
	v    int64
}

// Inc adds one.
//
//simlint:hotpath
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n (n must be non-negative; counters only go up).
//
//simlint:hotpath
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count (0 for the nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is an instantaneous level (queue occupancy, in-flight count).
// The nil Gauge records nothing.
type Gauge struct {
	name string
	v    int64
}

// Inc raises the level by one.
//
//simlint:hotpath
func (g *Gauge) Inc() {
	if g == nil {
		return
	}
	g.v++
}

// Dec lowers the level by one.
//
//simlint:hotpath
func (g *Gauge) Dec() {
	if g == nil {
		return
	}
	g.v--
}

// Add shifts the level by delta.
//
//simlint:hotpath
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v += delta
}

// Value returns the current level (0 for the nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// Util integrates a busy level over virtual time — the utilization
// instrument for service stations (disk arms, links). Callers report
// level changes with the current virtual time; Util accumulates both
// busy time (level > 0) and the level-weighted integral, from which
// utilization and mean queue depth follow. The nil Util records nothing.
type Util struct {
	name     string
	level    int64
	last     sim.Time
	busy     sim.Time // ∫ [level>0] dt
	weighted sim.Time // ∫ level dt
}

// Add shifts the busy level by delta at virtual time now. Time must not
// run backwards between calls (virtual time never does).
//
//simlint:hotpath
func (u *Util) Add(delta int64, now sim.Time) {
	if u == nil {
		return
	}
	if dt := now - u.last; dt > 0 {
		if u.level > 0 {
			u.busy += dt
			u.weighted += sim.Time(u.level) * dt
		}
		u.last = now
	} else if u.last == 0 {
		u.last = now
	}
	u.level += delta
}

// Level returns the current busy level.
func (u *Util) Level() int64 {
	if u == nil {
		return 0
	}
	return u.level
}

// Busy returns the fraction of [0, now] the level was positive.
func (u *Util) Busy(now sim.Time) float64 {
	if u == nil || now <= 0 {
		return 0
	}
	b := u.busy
	if u.level > 0 && now > u.last {
		b += now - u.last
	}
	return float64(b) / float64(now)
}

// MeanLevel returns the time-weighted average level over [0, now].
func (u *Util) MeanLevel(now sim.Time) float64 {
	if u == nil || now <= 0 {
		return 0
	}
	w := u.weighted
	if u.level > 0 && now > u.last {
		w += sim.Time(u.level) * (now - u.last)
	}
	return float64(w) / float64(now)
}

// Name returns the registered name.
func (u *Util) Name() string { return u.name }

// LatencyHist is a named latency distribution backed by internal/hist,
// with an exact running sum alongside the bucketed percentiles so that
// span decompositions can be checked for exact tiling (bucket means
// round; the sum does not). The nil LatencyHist records nothing.
type LatencyHist struct {
	name string
	h    hist.H
	sum  sim.Time
}

// Record adds one duration sample.
//
//simlint:hotpath
func (l *LatencyHist) Record(d sim.Time) {
	if l == nil {
		return
	}
	l.h.Record(d)
	l.sum += d
}

// Count returns the number of samples.
func (l *LatencyHist) Count() int64 {
	if l == nil {
		return 0
	}
	return l.h.Count()
}

// Sum returns the exact sum of all samples.
func (l *LatencyHist) Sum() sim.Time {
	if l == nil {
		return 0
	}
	return l.sum
}

// Mean returns the exact sample mean.
func (l *LatencyHist) Mean() sim.Time {
	if l == nil || l.h.Count() == 0 {
		return 0
	}
	return l.sum / sim.Time(l.h.Count())
}

// Percentile returns the approximate p-th percentile (within one
// histogram bucket).
func (l *LatencyHist) Percentile(p float64) sim.Time {
	if l == nil {
		return 0
	}
	return l.h.Percentile(p)
}

// Max returns the largest sample.
func (l *LatencyHist) Max() sim.Time {
	if l == nil {
		return 0
	}
	return l.h.Max()
}

// Name returns the registered name.
func (l *LatencyHist) Name() string { return l.name }

// check is one registered conservation law.
type check struct {
	name string
	fn   func() error
}

// Registry is the store-wide instrument registry. Build one with
// NewRegistry and hand it to ods.Options.Metrics; the store wires each
// subsystem's instruments. All instruments live for the registry's
// lifetime and accumulate across process-pair takeovers (the service is
// the unit of observation, not the incarnation).
type Registry struct {
	counters []*Counter
	gauges   []*Gauge
	utils    []*Util
	hists    []*LatencyHist
	checks   []check

	// counterSlab and histSlab are the unissued tails of the current
	// slabs: an instrument is handed out once and lives as long as the
	// registry, so the two kinds a registry holds dozens of come
	// instrumentSlab to an allocation instead of one each, and their index
	// above grows a slab at a time with them.
	counterSlab []Counter
	histSlab    []LatencyHist

	// Subsystem bundles, created eagerly so wiring is field access.
	// Commit is the per-transaction stream (stream.go).
	Commit    *TxnStream
	Locks     *LockSpans
	DP2       *DP2Spans
	ADP       *ADPSpans
	AuditDisk *DiskSpans
	DataDisk  *DiskSpans
	Net       *NetSpans
	PM        *PMSpans
	Load      *LoadSpans
}

// instrumentSlab is how many counters or histograms a registry allocates at
// a time: NewRegistry's bundles register 17 and 24, one slab of each.
const instrumentSlab = 32

// NewRegistry returns a registry with every subsystem bundle and its
// conservation laws registered.
func NewRegistry() *Registry {
	r := &Registry{}
	r.Locks = newLockSpans(r)
	r.DP2 = newDP2Spans(r)
	r.ADP = newADPSpans(r)
	r.AuditDisk = newDiskSpans(r, "disk.audit")
	r.DataDisk = newDiskSpans(r, "disk.data")
	r.Net = newNetSpans(r)
	r.PM = newPMSpans(r)
	// After the slab-registered bundles: the stream files its histograms in
	// the index room their first slab grew.
	r.Commit = newTxnStream(r)
	r.Load = newLoadSpans(r)
	return r
}

// register hands out the next instrument of *slab and files it in *index,
// starting a fresh slab, and room in the index for it, when the last is used
// up.
func register[T any](slab *[]T, index *[]*T) *T {
	if len(*slab) == 0 {
		*slab = make([]T, instrumentSlab)
		*index = slices.Grow(*index, instrumentSlab)
	}
	p := &(*slab)[0]
	*slab = (*slab)[1:]
	*index = append(*index, p)
	return p
}

// Counter registers and returns a new named counter.
func (r *Registry) Counter(name string) *Counter {
	c := register(&r.counterSlab, &r.counters)
	c.name = name
	return c
}

// Gauge registers and returns a new named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	g := &Gauge{name: name}
	r.gauges = append(r.gauges, g)
	return g
}

// Util registers and returns a new named utilization tracker.
func (r *Registry) Util(name string) *Util {
	u := &Util{name: name}
	r.utils = append(r.utils, u)
	return u
}

// Hist registers and returns a new named latency histogram.
func (r *Registry) Hist(name string) *LatencyHist {
	h := register(&r.histSlab, &r.hists)
	h.name = name
	return h
}

// AddCheck registers a conservation law. The function returns nil while
// the law holds and a descriptive error when it is violated.
func (r *Registry) AddCheck(name string, fn func() error) {
	r.checks = append(r.checks, check{name: name, fn: fn})
}

// CheckConservation evaluates every registered law in registration order
// and returns one error per violation. A healthy store returns nil at
// any quiescent point — including after crashes: the laws are written so
// that work lost to a fault stays counted in an occupancy term.
func (r *Registry) CheckConservation() []error {
	if r == nil {
		return nil
	}
	var errs []error
	for _, c := range r.checks {
		if err := c.fn(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", c.name, err))
		}
	}
	return errs
}

// LockSpans instruments the lock managers' wait queues. The conservation
// law is
//
//	Enters == Exits + Timeouts + Queued
//
// Queued stays elevated when a queued waiter is killed by a fault — the
// lost waiter remains counted as occupancy, so the law holds across
// crashes by construction.
type LockSpans struct {
	Wait                    *LatencyHist
	Enters, Exits, Timeouts *Counter
	Queued                  *Gauge
}

func newLockSpans(r *Registry) *LockSpans {
	l := &LockSpans{
		Wait:     r.Hist("locks.wait"),
		Enters:   r.Counter("locks.queue_enters"),
		Exits:    r.Counter("locks.queue_exits"),
		Timeouts: r.Counter("locks.queue_timeouts"),
		Queued:   r.Gauge("locks.queued"),
	}
	r.AddCheck("locks-queue-conservation", func() error {
		out := l.Exits.Value() + l.Timeouts.Value() + l.Queued.Value()
		if l.Enters.Value() != out {
			return fmt.Errorf("enters %d != exits %d + timeouts %d + queued %d",
				l.Enters.Value(), l.Exits.Value(), l.Timeouts.Value(), l.Queued.Value())
		}
		return nil
	})
	return l
}

// OnEnter records a request joining a lock wait queue. Nil-safe.
//
//simlint:hotpath
func (l *LockSpans) OnEnter() {
	if l == nil {
		return
	}
	l.Enters.Inc()
	l.Queued.Inc()
}

// OnGranted records a queued request being granted after waiting d.
// Nil-safe.
//
//simlint:hotpath
func (l *LockSpans) OnGranted(d sim.Time) {
	if l == nil {
		return
	}
	l.Exits.Inc()
	l.Queued.Dec()
	l.Wait.Record(d)
}

// OnTimeout records a queued request withdrawing on deadlock timeout.
// Nil-safe.
//
//simlint:hotpath
func (l *LockSpans) OnTimeout() {
	if l == nil {
		return
	}
	l.Timeouts.Inc()
	l.Queued.Dec()
}

// OnWithdrawn records a queued request withdrawn because its transaction
// ended first: it leaves the queue as an exit, with no wait sample, since it
// was never granted. Nil-safe.
func (l *LockSpans) OnWithdrawn() {
	if l == nil {
		return
	}
	l.Exits.Inc()
	l.Queued.Dec()
}

// DP2Spans instruments the database writers: insert completion (apply +
// audit generation + backup checkpoint), the checkpoint call itself, and
// audit pushes to the log writer.
type DP2Spans struct {
	Insert     *LatencyHist
	Checkpoint *LatencyHist
	AuditSend  *LatencyHist
}

func newDP2Spans(r *Registry) *DP2Spans {
	return &DP2Spans{
		Insert:     r.Hist("dp2.insert"),
		Checkpoint: r.Hist("dp2.checkpoint"),
		AuditSend:  r.Hist("dp2.audit_send"),
	}
}

// ADPSpans instruments the log writers' group commit ("boxcarring"): how
// long each commit/flush waiter sat in the boxcar before its batch was
// durable, and the device flush itself (Disk mode; PM-mode appends are
// synchronously durable and flushes degenerate). The conservation law is
//
//	In == Flushed + Pending
//
// Pending stays elevated for waiters lost to a killed ADP primary.
type ADPSpans struct {
	BoxcarWait  *LatencyHist
	FlushDisk   *LatencyHist
	In, Flushed *Counter
	Pending     *Gauge
}

func newADPSpans(r *Registry) *ADPSpans {
	a := &ADPSpans{
		BoxcarWait: r.Hist("adp.boxcar_wait"),
		FlushDisk:  r.Hist("adp.flush_disk"),
		In:         r.Counter("adp.boxcar_in"),
		Flushed:    r.Counter("adp.boxcar_flushed"),
		Pending:    r.Gauge("adp.boxcar_pending"),
	}
	r.AddCheck("adp-boxcar-conservation", func() error {
		if a.In.Value() != a.Flushed.Value()+a.Pending.Value() {
			return fmt.Errorf("boxcar in %d != flushed %d + pending %d",
				a.In.Value(), a.Flushed.Value(), a.Pending.Value())
		}
		return nil
	})
	return a
}

// OnWaiterIn records a commit/flush waiter joining the boxcar. Nil-safe.
//
//simlint:hotpath
func (a *ADPSpans) OnWaiterIn() {
	if a == nil {
		return
	}
	a.In.Inc()
	a.Pending.Inc()
}

// OnWaiterFlushed records a waiter leaving the boxcar after waiting d
// for its batch to become durable. Nil-safe.
//
//simlint:hotpath
func (a *ADPSpans) OnWaiterFlushed(d sim.Time) {
	if a == nil {
		return
	}
	a.Flushed.Inc()
	a.Pending.Dec()
	a.BoxcarWait.Record(d)
}

// DiskSpans instruments one class of disk volumes (audit or data): queue
// wait for the arm, arm service time, and arm utilization.
type DiskSpans struct {
	Queue   *LatencyHist
	Service *LatencyHist
	Arm     *Util
}

func newDiskSpans(r *Registry, prefix string) *DiskSpans {
	return &DiskSpans{
		Queue:   r.Hist(prefix + ".queue"),
		Service: r.Hist(prefix + ".service"),
		Arm:     r.Util(prefix + ".arm"),
	}
}

// NetSpans instruments the fabric: completed transfer durations
// (initiator software cost + port queueing + serialization + wire), plus
// operation and byte counts.
type NetSpans struct {
	Transfer *LatencyHist
	Ops      *Counter
	Bytes    *Counter
}

func newNetSpans(r *Registry) *NetSpans {
	return &NetSpans{
		Transfer: r.Hist("net.transfer"),
		Ops:      r.Counter("net.ops"),
		Bytes:    r.Counter("net.bytes"),
	}
}

// PMSpans instruments client-side persistent memory writes (each one a
// synchronous mirrored RDMA write — the paper's 10–20 µs persistence
// primitive).
type PMSpans struct {
	Write  *LatencyHist
	Writes *Counter
	Bytes  *Counter
}

func newPMSpans(r *Registry) *PMSpans {
	return &PMSpans{
		Write:  r.Hist("pm.write"),
		Writes: r.Counter("pm.writes"),
		Bytes:  r.Counter("pm.bytes"),
	}
}

// LoadSpans instruments the open-loop load generator's arrival plane:
// offered arrivals, admission-queue occupancy, drops at a bounded queue,
// and the queue wait between a transaction's arrival and the moment a
// worker picks it up — the term that explodes past the saturation knee
// while service time stays flat. The conservation law is
//
//	Arrivals == Starts + Drops + Queued
//
// which holds at any quiescent point because every generated arrival is
// either dropped at admission, still queued, or picked up by a worker.
type LoadSpans struct {
	Wait                    *LatencyHist
	Arrivals, Starts, Drops *Counter
	Queued                  *Gauge
}

func newLoadSpans(r *Registry) *LoadSpans {
	l := &LoadSpans{
		Wait:     r.Hist("load.queue_wait"),
		Arrivals: r.Counter("load.arrivals"),
		Starts:   r.Counter("load.starts"),
		Drops:    r.Counter("load.drops"),
		Queued:   r.Gauge("load.queued"),
	}
	r.AddCheck("load-conservation", func() error {
		// A negative occupancy means a start or drop that never arrived
		// — it would otherwise keep the sum balanced and slip through.
		if q := l.Queued.Value(); q < 0 {
			return fmt.Errorf("load queue occupancy %d is negative", q)
		}
		accounted := l.Starts.Value() + l.Drops.Value() + l.Queued.Value()
		if l.Arrivals.Value() != accounted {
			return fmt.Errorf("arrivals %d != starts %d + drops %d + queued %d",
				l.Arrivals.Value(), l.Starts.Value(), l.Drops.Value(), l.Queued.Value())
		}
		return nil
	})
	return l
}

// OnArrival records one generated arrival. Nil-safe.
//
//simlint:hotpath
func (l *LoadSpans) OnArrival() {
	if l == nil {
		return
	}
	l.Arrivals.Inc()
	l.Queued.Inc()
}

// OnDrop records an arrival rejected at a full admission queue (the
// arrival was counted by OnArrival and is re-filed from queued to
// dropped). Nil-safe.
//
//simlint:hotpath
func (l *LoadSpans) OnDrop() {
	if l == nil {
		return
	}
	l.Drops.Inc()
	l.Queued.Dec()
}

// OnStart records a worker picking an arrival up after waiting d in the
// admission queue. Nil-safe.
//
//simlint:hotpath
func (l *LoadSpans) OnStart(d sim.Time) {
	if l == nil {
		return
	}
	l.Starts.Inc()
	l.Queued.Dec()
	l.Wait.Record(d)
}
