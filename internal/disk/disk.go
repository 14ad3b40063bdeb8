// Package disk models rotating magnetic storage volumes with the latency
// structure that creates the paper's "storage gap": a storage software
// stack costing hundreds of microseconds per I/O (SCSI command handling,
// DMA setup, interrupts, context switches — §3.2), plus mechanical seek,
// rotational positioning and media transfer time, behind a FIFO queue at
// the disk arm.
//
// Volumes durably retain their contents (backed by a stable.Store), so
// crash-recovery experiments can read the log back after simulated power
// loss. Timing-only runs can use discard-backed volumes.
package disk

import (
	"errors"
	"fmt"

	"persistmem/internal/metrics"
	"persistmem/internal/sim"
	"persistmem/internal/stable"
)

// ErrVolumeDown is returned while a failed volume is being accessed.
var ErrVolumeDown = errors.New("disk: volume down")

// Config sets a volume's service model. The defaults approximate a
// 10k RPM SCSI drive of the paper's era with a storage stack in front.
type Config struct {
	// StackOverhead is the host-side software cost per I/O operation.
	StackOverhead sim.Time
	// SeekTime is the average seek for a non-sequential access.
	SeekTime sim.Time
	// RotationalLatency is the average rotational positioning delay. A
	// write-through volume pays it on every synchronous write — by the
	// time the host issues the next I/O the platter has moved on — while
	// sequential reads stream.
	RotationalLatency sim.Time
	// BytesPerSecond is the media transfer rate.
	BytesPerSecond int64
	// WriteCache enables a battery-backed controller write cache: writes
	// complete after the stack overhead plus CacheLatency, and the arm
	// destages asynchronously. This is the "BBDRAM as write cache" design
	// the paper contrasts PM against (§3.2).
	WriteCache bool
	// CacheLatency is the controller cache copy cost when WriteCache is on.
	CacheLatency sim.Time
	// SeqWindow: a new access starting within this many bytes after the
	// previous one's end counts as sequential (no seek).
	SeqWindow int64
}

// DefaultConfig returns the calibration used across the repository.
func DefaultConfig() Config {
	return Config{
		StackOverhead:     250 * sim.Microsecond,
		SeekTime:          5500 * sim.Microsecond,
		RotationalLatency: 3 * sim.Millisecond,
		BytesPerSecond:    40 << 20,
		CacheLatency:      50 * sim.Microsecond,
		SeqWindow:         256 << 10,
	}
}

// Stats aggregates a volume's traffic counters.
type Stats struct {
	Reads, Writes   int64
	BytesRead       int64
	BytesWritten    int64
	SeqWrites       int64
	BusyTime        sim.Time // arm busy time, for utilization
	StackTime       sim.Time // host software time spent on this volume
	MaxQueueObserve int
}

// Volume is one disk spindle (or mirrored spindle pair presented as one —
// mirroring inside the storage subsystem does not change host-visible
// latency in this model).
type Volume struct {
	eng   *sim.Engine
	name  string
	cfg   Config
	arm   *sim.Resource
	store *stable.Store
	up    bool

	// destageName is the spawn name for asynchronous cache destages,
	// precomputed so the cached-write hot path does not format a string
	// per write.
	destageName string

	legfree []*WriteLeg //simlint:box -- in-flight blocking-access leg pool

	lastEnd  int64 // end offset of the previous access, for seq detection
	accessed bool  // false until the first access (which always seeks)

	// Instrument pointers, nil when unmetered (Record/Add nil-short-
	// circuit). Shared per volume class (audit vs data) across a store.
	mQueue   *metrics.LatencyHist
	mService *metrics.LatencyHist
	mArm     *metrics.Util

	Stats Stats
}

// New creates a volume with the given capacity whose contents are retained
// durably.
func New(eng *sim.Engine, name string, cfg Config, capacity int64) *Volume {
	return newVolume(eng, name, cfg, stable.New(capacity))
}

// NewDiscard creates a timing-identical volume that retains no data —
// for benchmark runs that never read back.
func NewDiscard(eng *sim.Engine, name string, cfg Config, capacity int64) *Volume {
	return newVolume(eng, name, cfg, stable.NewDiscard(capacity))
}

func newVolume(eng *sim.Engine, name string, cfg Config, st *stable.Store) *Volume {
	if cfg.BytesPerSecond <= 0 {
		cfg.BytesPerSecond = 40 << 20
	}
	return &Volume{
		eng:         eng,
		name:        name,
		cfg:         cfg,
		arm:         eng.NewResource(fmt.Sprintf("disk-arm-%s", name), 1),
		store:       st,
		up:          true,
		destageName: name + "-destage",
	}
}

// SetMetrics attaches queue/service/utilization instruments (nil
// detaches all three).
func (v *Volume) SetMetrics(ds *metrics.DiskSpans) {
	if ds == nil {
		v.mQueue, v.mService, v.mArm = nil, nil, nil
		return
	}
	v.mQueue, v.mService, v.mArm = ds.Queue, ds.Service, ds.Arm
}

// Name returns the volume name.
func (v *Volume) Name() string { return v.name }

// Capacity returns the volume capacity in bytes.
func (v *Volume) Capacity() int64 { return v.store.Len() }

// Store exposes the durable backing for recovery code, which reads the
// platter directly after a crash.
func (v *Volume) Store() *stable.Store { return v.store }

// Up reports whether the volume is serving I/O.
func (v *Volume) Up() bool { return v.up }

// ArmInUse reports whether the arm is held (1) or free (0): after a run,
// whether some access left it held.
func (v *Volume) ArmInUse() int { return v.arm.InUse() }

// Fail stops the volume; in-flight and future I/O returns ErrVolumeDown.
// Contents are retained (media survives controller failure).
func (v *Volume) Fail() { v.up = false }

// Restore returns a failed volume to service.
func (v *Volume) Restore() { v.up = true }

// transfer returns the media transfer time for n bytes.
//
//simlint:hotpath
func (v *Volume) transfer(n int) sim.Time {
	return sim.Time(int64(n) * int64(sim.Second) / v.cfg.BytesPerSecond)
}

// position returns the mechanical positioning cost for an access at off,
// updating sequential-detection state. Reads that continue a sequential
// stream cost nothing; writes on a write-through volume always pay the
// rotational latency (see Config.RotationalLatency).
//
//simlint:hotpath
func (v *Volume) position(off int64, n int, write bool) sim.Time {
	seq := v.accessed && off >= v.lastEnd && off-v.lastEnd <= v.cfg.SeqWindow
	v.accessed = true
	v.lastEnd = off + int64(n)
	if seq {
		if write {
			v.Stats.SeqWrites++
			return v.cfg.RotationalLatency
		}
		return 0
	}
	return v.cfg.SeekTime + v.cfg.RotationalLatency
}

// Write durably stores data at byte offset off. The call returns when the
// write is durable: after arm service for write-through volumes, or after
// the controller cache copy for write-cached volumes (battery-backed cache
// counts as durable, with the complexity cost the paper notes). The process
// parks once for the whole write (see WriteLeg).
//
//simlint:hotpath
func (v *Volume) Write(p *sim.Proc, off int64, data []byte) error {
	return v.access(p, off, data, false)
}

// Read fills buf from byte offset off, parking the process once.
//
//simlint:hotpath
func (v *Volume) Read(p *sim.Proc, off int64, buf []byte) error {
	return v.access(p, off, buf, true)
}

// access arms a pooled leg for one access and parks p once on it.
//
//simlint:hotpath
func (v *Volume) access(p *sim.Proc, off int64, b []byte, read bool) error {
	w := v.newLeg()
	defer v.freeLeg(w)
	if !w.arm(v, p, off, b, read) {
		p.ParkScript(w)
	}
	return w.err
}

//simlint:hotpath
func (v *Volume) newLeg() *WriteLeg {
	if n := len(v.legfree); n > 0 {
		w := v.legfree[n-1]
		v.legfree[n-1] = nil
		v.legfree = v.legfree[:n-1]
		return w
	}
	return &WriteLeg{}
}

// freeLeg releases what w still holds — the arm, if its process is being
// unwound during service — and recycles it.
//
//simlint:hotpath
func (v *Volume) freeLeg(w *WriteLeg) {
	w.Abort()
	*w = WriteLeg{}
	v.legfree = append(v.legfree, w)
}

// legPhase names the wake-up a leg's process is parked on.
type legPhase uint8

const (
	legIdle    legPhase = iota // nothing armed, nothing held
	legStack                   // the storage stack's software cost
	legCache                   // a cached write's controller copy
	legQueued                  // queued at the arm
	legService                 // holding the arm for positioning and transfer
)

// WriteLeg is one volume access in flight — Volume.Write or Volume.Read — as
// a script of timed legs: the storage stack's overhead, then, for a write to
// a write-cached volume, the controller cache copy (the arm destages
// asynchronously), or else the arm, queued for in FIFO order and held for
// positioning and media transfer. A write reaches the media after the stack
// overhead; a read fills its buffer after the arm's service. Volume.Write and
// Volume.Read arm a pooled one and park once on it. A process walking a
// longer script of its own keeps a WriteLeg, arms it with Write from its step
// function, forwards its wake-ups to Step until that reports true, reads Err
// and defers Abort as its kill guard. Arming reports true when the access is
// already over. The zero value is idle.
type WriteLeg struct {
	v     *Volume
	p     *sim.Proc
	off   int64
	b     []byte // the data written, or the buffer read into
	read  bool
	phase legPhase

	qstart  sim.Time // when the access began to queue for the arm
	service sim.Time // the arm's positioning and transfer time

	err error
}

// Err returns the outcome of the finished access.
func (w *WriteLeg) Err() error { return w.err }

// Write arms a write of data at byte offset off of v, for p.
//
//simlint:hotpath
func (w *WriteLeg) Write(v *Volume, p *sim.Proc, off int64, data []byte) (done bool) {
	return w.arm(v, p, off, data, false)
}

// arm arms an access: the stack overhead, unless the volume is down.
//
//simlint:hotpath
func (w *WriteLeg) arm(v *Volume, p *sim.Proc, off int64, b []byte, read bool) (done bool) {
	*w = WriteLeg{v: v, p: p, off: off, b: b, read: read}
	if !v.up {
		return w.over(ErrVolumeDown)
	}
	p.ArmWait(v.cfg.StackOverhead)
	w.phase = legStack
	return false
}

// Step implements sim.Stepper: one wake-up of the parked process.
//
//simlint:hotpath
func (w *WriteLeg) Step(p *sim.Proc) (done bool) {
	v := w.v
	switch w.phase {
	case legStack:
		v.Stats.StackTime += v.cfg.StackOverhead
		if !v.up {
			return w.over(ErrVolumeDown)
		}
		if !w.read {
			if err := v.store.WriteAt(w.off, w.b); err != nil {
				return w.over(err)
			}
			v.Stats.Writes++
			v.Stats.BytesWritten += int64(len(w.b))
			if v.cfg.WriteCache {
				p.ArmWait(v.cfg.CacheLatency)
				w.phase = legCache
				return false
			}
		}
		if q := v.arm.QueueLen(); q > v.Stats.MaxQueueObserve {
			v.Stats.MaxQueueObserve = q
		}
		w.qstart = v.eng.Now()
		if !v.arm.ArmAcquire(p) {
			w.phase = legQueued
			return false
		}
		w.serve()
		return false
	case legCache:
		v.destage(v.position(w.off, len(w.b), true) + v.transfer(len(w.b)))
		return w.over(nil)
	case legQueued:
		v.arm.Granted(p)
		w.serve()
		return false
	case legService:
		w.phase = legIdle
		v.Stats.BusyTime += w.service
		v.mService.Record(w.service)
		v.mArm.Add(-1, v.eng.Now())
		v.arm.Release()
		switch {
		case !v.up:
			return w.over(ErrVolumeDown)
		case w.read:
			return w.over(v.store.ReadAt(w.off, w.b))
		}
		return w.over(nil)
	}
	panic("disk: wake-up for a leg of " + v.name + " with nothing armed")
}

// serve holds the arm, granted, for the access's positioning and transfer.
//
//simlint:hotpath
func (w *WriteLeg) serve() {
	v := w.v
	v.mQueue.Record(v.eng.Now() - w.qstart)
	w.service = v.position(w.off, len(w.b), !w.read) + v.transfer(len(w.b))
	v.mArm.Add(1, v.eng.Now())
	w.p.ArmWait(w.service)
	w.phase = legService
}

// over finishes the access with err.
//
//simlint:hotpath
func (w *WriteLeg) over(err error) (done bool) {
	w.phase, w.err = legIdle, err
	return true
}

// Abort is the kill guard: it releases the arm an access holds during its
// service at the instant its process is unwound. A queued access holds
// nothing yet, and a grant made in the kill's instant is given back by the
// kernel. After a finished access it does nothing.
//
//simlint:hotpath
func (w *WriteLeg) Abort() {
	if w.phase == legService {
		w.v.arm.Release()
	}
	w.phase = legIdle
}

// destage runs a cached write's arm service in a process of its own: the
// arm still does the work, which keeps utilization accounting honest and
// lets saturation back up into cache (ignored here: cache is assumed deep
// enough).
func (v *Volume) destage(service sim.Time) {
	//simlint:allow hotalloc -- async destage requires a spawned process; the closure is the destage itself
	v.eng.Spawn(v.destageName, func(d *sim.Proc) {
		qstart := v.eng.Now()
		v.arm.Acquire(d)
		v.mQueue.Record(v.eng.Now() - qstart)
		v.mArm.Add(1, v.eng.Now())
		d.Wait(service)
		v.Stats.BusyTime += service
		v.mService.Record(service)
		v.mArm.Add(-1, v.eng.Now())
		v.arm.Release()
	})
}

// Utilization reports the fraction of elapsed virtual time the arm has
// been busy.
func (v *Volume) Utilization() float64 {
	if v.eng.Now() == 0 {
		return 0
	}
	return float64(v.Stats.BusyTime) / float64(v.eng.Now())
}
