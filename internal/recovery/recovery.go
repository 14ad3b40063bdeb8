// Package recovery implements restart recovery of the online data store
// from its audit trails, and measures MTTR — the metric §3.4 argues PM
// improves ("eliminates costly heuristic searching of audit trail
// information, leading to shorter MTTR").
//
// Two recovery paths are modeled:
//
//   - FromDisk: the baseline. Each audit volume is read sequentially off
//     the disk; because transaction outcomes are scattered through the
//     trail, classification needs one full pass over every stream before
//     a second pass can redo committed work.
//   - FromPM: the log streams are read out of NPMU regions with RDMA
//     (memory bandwidth, no storage stack), and the fine-grained TCB
//     region gives transaction outcomes directly, so a single redo pass
//     suffices.
//
// Both paths rebuild the key-sequenced file caches from committed insert
// after-images; in-flight and aborted transactions are discarded
// (presumed abort). One worker process per trail, spread over the node's
// CPUs, reads its trail and runs the passes over it, so the reads overlap
// across devices (PM trail i reads mirror i mod 2 first, so both NPMUs serve
// at once) and a pass takes as long as its longest trail's share of a CPU.
package recovery

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"persistmem/internal/audit"
	"persistmem/internal/btree"
	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/pmclient"
	"persistmem/internal/pmm"
	"persistmem/internal/sim"
	"persistmem/internal/stable"
	"persistmem/internal/tmf"
)

// ErrNoLog means a log source could not be read at all.
var ErrNoLog = errors.New("recovery: log unreadable")

// ErrWorkerLost means a recovery worker was killed — its CPU failed — before
// it finished its trail, so the recovery has no whole image to return.
var ErrWorkerLost = errors.New("recovery: worker lost")

// Options tunes the recovery procedure.
type Options struct {
	// ChunkBytes is the read granularity from the log device, 64 KiB by
	// default (EXPERIMENTS.md, Claim C2, has the read-size table).
	ChunkBytes int
	// CPUPerRecord is the analysis/redo cost per audit record, charged to
	// the CPU of the worker that scans the record's trail.
	CPUPerRecord sim.Time
}

func (o *Options) defaults() {
	if o.ChunkBytes == 0 {
		o.ChunkBytes = 64 << 10
	}
	if o.CPUPerRecord == 0 {
		o.CPUPerRecord = 2 * sim.Microsecond
	}
}

// Report summarizes one recovery run.
type Report struct {
	// MTTR is the total virtual time the recovery took.
	MTTR sim.Time
	// BytesRead is the log volume read from devices.
	BytesRead int64
	// RecordsScanned counts audit records examined (both passes for the
	// disk path).
	RecordsScanned int64
	// Committed, Aborted, InFlight classify the transactions found.
	Committed, Aborted, InFlight int
	// RowsRedone counts reapplied committed inserts.
	RowsRedone int
	// UsedTCB reports whether fine-grained control blocks provided the
	// outcomes (PM path).
	UsedTCB bool
	// InDoubt counts cross-shard transactions found prepared on at least
	// one stream with no durable outcome anywhere — resolved by presumed
	// abort.
	InDoubt int
	// OutcomeResolved counts prepared cross-shard transactions whose
	// outcome record (or other durable outcome) named their fate.
	OutcomeResolved int
}

// Rebuilt holds the recovered database image: one tree per file, merged
// across partitions (keys are globally unique in this system).
type Rebuilt struct {
	Files map[string]*btree.Tree[[]byte]
}

// Get reads a recovered row.
func (r *Rebuilt) Get(file string, key uint64) ([]byte, bool) {
	t := r.Files[file]
	if t == nil {
		return nil, false
	}
	return t.Get(key)
}

// Rows counts all recovered rows.
func (r *Rebuilt) Rows() int {
	n := 0
	//simlint:ordered -- commutative count
	for _, t := range r.Files {
		n += t.Len()
	}
	return n
}

// analysis classifies transactions from scanned records. It keeps no data
// records: redo rescans the streams for them. The zero analysis is empty: its
// maps are made at its first outcome or vote, so a stream with neither — a
// participant's trail on the TCB path — costs its worker nothing.
type analysis struct {
	outcome  map[audit.TxnID]uint8 // tmf.TCBCommitted / TCBAborted
	prepared map[audit.TxnID]bool  // cross-shard prepare votes seen
}

// decide records txn's outcome, overriding any earlier one.
func (an *analysis) decide(txn audit.TxnID, state uint8) {
	if an.outcome == nil {
		an.outcome = make(map[audit.TxnID]uint8)
	}
	an.outcome[txn] = state
}

// prepare records txn's cross-shard prepare vote.
func (an *analysis) prepare(txn audit.TxnID) {
	if an.prepared == nil {
		an.prepared = make(map[audit.TxnID]bool)
	}
	an.prepared[txn] = true
}

// note folds one scanned record's outcome evidence into the analysis.
func (an *analysis) note(rec *audit.Record) {
	switch rec.Type {
	case audit.RecCommit:
		an.decide(rec.Txn, tmf.TCBCommitted)
	case audit.RecAbort:
		an.decide(rec.Txn, tmf.TCBAborted)
	case audit.RecPrepare:
		an.prepare(rec.Txn)
	case audit.RecOutcome:
		// The coordinator's durable decision for a cross-shard
		// transaction — authoritative over anything else seen so far.
		if o, err := tmf.DecodeOutcome(rec.Body); err == nil {
			an.decide(rec.Txn, o.State)
		}
	}
}

// scan notes every record of one stream and returns how many it read.
func (an *analysis) scan(data []byte) int64 {
	var n int64
	s := audit.NewScanner(data)
	for s.Next() {
		n++
		an.note(s.Record())
	}
	return n
}

// merge folds a later stream's analysis into an, leaving what one scan of
// an's records followed by later's would have: later's outcomes override.
func (an *analysis) merge(later *analysis) {
	//simlint:ordered -- one write per key; later's own order cannot matter
	for txn, o := range later.outcome {
		an.decide(txn, o)
	}
	//simlint:ordered -- set union
	for txn := range later.prepared {
		an.prepare(txn)
	}
}

// resolveInDoubt settles every prepared cross-shard transaction: a
// durable outcome anywhere names its fate; with none, it is presumed
// aborted. Must run after all streams (and the TCB, on the PM path)
// have been scanned and before redo.
func resolveInDoubt(an *analysis, rep *Report) {
	if len(an.prepared) == 0 {
		return
	}
	txns := make([]audit.TxnID, 0, len(an.prepared))
	//simlint:ordered -- collected into a slice and sorted below
	for txn := range an.prepared {
		txns = append(txns, txn)
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i] < txns[j] })
	for _, txn := range txns {
		switch an.outcome[txn] {
		case tmf.TCBCommitted, tmf.TCBAborted:
			rep.OutcomeResolved++
		default:
			// Prepared on some shard, no outcome record on any stream and
			// no decided TCB state: the coordinator died inside the
			// in-doubt window before the commit point. Presumed abort.
			an.decide(txn, tmf.TCBAborted)
			rep.InDoubt++
		}
	}
}

// redo applies one stream's committed data records to rb and returns how
// many data records it examined. seen, the transactions that had data
// records, is shared by every stream's redo, so a cross-shard transaction
// whose rows sit in several streams is classified once. The stream is this
// recovery's own copy, not its scratch: a row keeps its slice of it.
func redo(data []byte, an *analysis, rb *Rebuilt, seen map[audit.TxnID]bool, rep *Report) int64 {
	var records int64
	s := audit.NewScanner(data)
	for s.Next() {
		rec := s.Record()
		if rec.Type != audit.RecInsert && rec.Type != audit.RecUpdate && rec.Type != audit.RecDelete {
			continue // outcome evidence: the analysis has it
		}
		records++
		if an.outcome[rec.Txn] != tmf.TCBCommitted {
			if !seen[rec.Txn] {
				seen[rec.Txn] = true
				if an.outcome[rec.Txn] == tmf.TCBAborted {
					rep.Aborted++
				} else {
					rep.InFlight++
				}
			}
			continue
		}
		if !seen[rec.Txn] {
			seen[rec.Txn] = true
			rep.Committed++
		}
		t := rb.Files[rec.File]
		if t == nil {
			t = btree.New[[]byte]()
			rb.Files[rec.File] = t
		}
		if rec.Type == audit.RecDelete {
			t.Delete(rec.Key)
		} else {
			n := len(rec.Body) // capped: an append cannot reach the next record
			t.Set(rec.Key, rec.Body[:n:n])
			rep.RowsRedone++
		}
	}
	return records
}

// trailReader reads trail i on worker w into sc and returns what the
// recovery keeps of it — its own copy of the valid record prefix, never sc's
// bytes — and the bytes read. A trail that does not exist reads as nil.
type trailReader func(w *cluster.Process, i int, sc *scratch) ([]byte, int64, error)

// recoverStreams recovers from trails trails, on one worker per trail
// (crew.start places them). Each worker
//
//  1. reads its trail with read, into a scratch of its own drawn from the
//     process's spares, and hands that scratch on as soon as the kept prefix
//     is copied out of it;
//  2. analysis: notes its stream's outcome evidence into an analysis of its
//     own, charging CPUPerRecord a record when scanCharged (the
//     outcome-discovery pass of the disk and PM-scan paths; with TCBs the
//     records are noted free and charged once, in redo). The first stream's
//     worker notes straight over an — what the caller already knows, the TCB
//     table or nothing — exactly as one serial scan would; the later streams'
//     analyses are merged over it in stream order, so an outcome's
//     precedence never depends on which worker finished first;
//  3. the barrier, then resolveInDoubt: an outcome record may sit in another
//     stream than the data it decides, so no redo starts before every stream
//     is analysed;
//  4. redo: applies its stream's committed records to the one image and
//     charges CPUPerRecord a data record. A key's records all live in one
//     stream (one DP2 writes one trail), so its redo order is the serial one.
//
// A trail that cannot be read fails the recovery at the barrier with its
// error — the lowest-indexed trail's, when several fail — and sends the
// workers home. It returns the image and the transactions that had data
// records.
func recoverStreams(p *cluster.Process, cpus []*cluster.CPU, opts Options, trails int, read trailReader, an *analysis, scanCharged bool, rep *Report) (*Rebuilt, map[audit.TxnID]bool, error) {
	parts := make([]analysis, trails) // parts[0] stays empty: stream 0 is noted into an
	rb := &Rebuilt{Files: make(map[string]*btree.Tree[[]byte])}
	var seen map[audit.TxnID]bool
	var readErr error
	failed := trails // the lowest-indexed trail that could not be read
	c := newCrew(p, trails)
	c.start(cpus, func(w *cluster.Process, i int) {
		sc := new(scratch)
		stream, n, err := read(w, i, sc)
		stable.HandOn(sc.buf)
		if err != nil {
			if i < failed {
				failed, readErr = i, err
			}
			return // its exit counts it in at the barrier
		}
		rep.BytesRead += n
		part := an
		if i > 0 {
			part = &parts[i]
		}
		n = part.scan(stream)
		if scanCharged {
			rep.RecordsScanned += n
			charge(w, n, opts)
		}
		if !c.barrier(w) {
			return
		}
		n = redo(stream, an, rb, seen, rep)
		rep.RecordsScanned += n
		charge(w, n, opts)
	})
	if !c.wait(p) {
		return nil, nil, ErrWorkerLost
	}
	if readErr != nil {
		c.dismiss()
		return nil, nil, readErr
	}
	for i := 1; i < len(parts); i++ {
		an.merge(&parts[i])
	}
	resolveInDoubt(an, rep)
	seen = make(map[audit.TxnID]bool, len(an.outcome))
	c.release()
	if !c.wait(p) {
		return nil, nil, ErrWorkerLost
	}
	return rb, seen, nil
}

// charge holds the worker's CPU for n records' worth of recovery work: one
// hold a stream and pass, queueing behind any other worker on that CPU.
func charge(w *cluster.Process, n int64, opts Options) {
	if n > 0 {
		w.Compute(sim.Time(n) * opts.CPUPerRecord)
	}
}

// crew is one recovery's workers, one process per trail, and the two
// meetings the recovering process holds with them: the barrier after
// analysis and their end. A worker killed before its end — its CPU failed —
// fails the meeting in progress, so the recovering process returns an error
// instead of waiting on the dead worker or returning part of an image. A
// recovering process that exits — killed, or returning early — sends the
// workers home at their next meeting.
type crew struct {
	n        int
	pending  int         // workers yet to reach the current meeting
	finished int         // workers whose body returned
	exited   int         // workers that exited, killed or not
	lost     bool        // a worker exited without its body returning
	home     bool        // the recovery stops at the barrier
	met      *sim.Signal // the current meeting is complete, or lost
	resume   *sim.Signal // the go-ahead past the barrier
	eng      *sim.Engine
}

func newCrew(p *cluster.Process, n int) *crew {
	eng := p.Cluster().Engine()
	c := &crew{n: n, pending: n, met: eng.NewSignal(), resume: eng.NewSignal(), eng: eng}
	p.Sim().OnExit(c.dismiss)
	return c
}

// start runs body(w, i) for each of the crew's n trails on a worker process
// w of its own, trail i on the i-th of cpus that is up (round-robin); cpus
// holds the recovering process's own CPU, so one is. A worker sees only what
// body closes over and the scratch it draws itself — never another worker's
// or the recovering process's.
func (c *crew) start(cpus []*cluster.CPU, body func(w *cluster.Process, i int)) {
	up := make([]*cluster.CPU, 0, len(cpus))
	for _, cpu := range cpus {
		if cpu.Up() {
			up = append(up, cpu)
		}
	}
	exit := c.exit
	for i := range c.n {
		w := up[i%len(up)].Spawn("recover-worker", func(w *cluster.Process) {
			body(w, i)
			c.finished++
		})
		w.Sim().OnExit(exit)
	}
}

// exit runs as each worker exits. A worker's body returned just before its
// exit unless the worker was killed: then exits outnumber returns.
func (c *crew) exit() {
	c.exited++
	if c.exited > c.finished {
		c.lost = true
		c.dismiss()
		if !c.met.Fired() {
			c.met.Trigger(nil)
		}
		return
	}
	c.arrive()
}

// arrive counts a worker in at the current meeting.
func (c *crew) arrive() {
	c.pending--
	if c.pending == 0 && !c.met.Fired() {
		c.met.Trigger(nil)
	}
}

// barrier is a worker's side of the meeting after analysis: it reports
// whether the recovery goes on.
func (c *crew) barrier(w *cluster.Process) bool {
	c.arrive()
	c.resume.Wait(w.Sim())
	return !c.home
}

// dismiss sends the workers home: those waiting at the barrier now, and the
// rest as they reach it.
func (c *crew) dismiss() {
	c.home = true
	if !c.resume.Fired() {
		c.resume.Trigger(nil)
	}
}

// wait is the recovering process's side of a meeting: it returns once every
// worker is there, true, or once one is lost, false.
func (c *crew) wait(p *cluster.Process) bool {
	if c.pending > 0 && !c.lost {
		c.met.Wait(p.Sim())
	}
	return !c.lost
}

// release opens the end meeting and lets the workers past the barrier.
func (c *crew) release() {
	c.pending = c.n
	c.met = c.eng.NewSignal()
	c.resume.Trigger(nil)
}

// nodeCPUs lists every CPU of the node: a recovery's workers go to those of
// them that are up when each pass starts.
func nodeCPUs(cl *cluster.Cluster) []*cluster.CPU {
	cpus := make([]*cluster.CPU, cl.NumCPUs())
	for i := range cpus {
		cpus[i] = cl.CPU(i)
	}
	return cpus
}

// scratch is one reader's read buffer: the recovering process's for the TCB
// image, each worker's for its trail. Every replica the reader reads is read
// into it and scanned there; what the recovery keeps of a trail — the valid
// record prefix of the winning replica — is copied out before the next read
// reuses the buffer. Nothing that outlives the read may alias it, and a
// reader that is done hands it on to the process's next device reader (one
// killed part-way drops it). Only bytes a read of this reader wrote are ever
// scanned, so a buffer that arrives dirty from a longer trail recovers what a
// fresh one does.
type scratch struct{ buf []byte }

// scratchFloor is the least a scratch grows to: the first read of a small
// trail then leaves behind a buffer a larger one can reuse.
const scratchFloor = 1 << 20

// reserve makes buf at least end bytes long, keeping its first keep bytes.
// It grows by doubling from scratchFloor, so a trail read chunk by chunk
// regrows its buffer a few times, not once a chunk. The first reservation
// takes one of the process's spare buffers, if there is one — at the first
// read and not at entry, because a PM recovery is spawned in the instant the
// rebooted PM manager starts reading its metadata slots into a spare, and its
// first read comes after the manager has answered an Open, so after the
// manager handed that buffer on.
func (sc *scratch) reserve(keep, end int) {
	if sc.buf == nil {
		sc.buf = stable.TakeScratch()
	}
	if end > len(sc.buf) {
		n := max(len(sc.buf), scratchFloor)
		for n < end {
			n *= 2
		}
		grown := make([]byte, n)
		copy(grown, sc.buf[:keep])
		sc.buf = grown
	}
}

// FromDisk recovers from audit disk volumes. One worker per volume, on the
// node's CPUs, reads the trail area sequentially and scans it twice: once to
// discover transaction outcomes (the "heuristic searching" the paper decries)
// and once to redo.
func FromDisk(p *cluster.Process, volumes []*disk.Volume, opts Options) (Report, *Rebuilt, error) {
	return fromDisk(p, volumes, opts, nodeCPUs(p.Cluster()))
}

func fromDisk(p *cluster.Process, volumes []*disk.Volume, opts Options, cpus []*cluster.CPU) (Report, *Rebuilt, error) {
	opts.defaults()
	var rep Report
	start := p.Now()
	read := func(w *cluster.Process, i int, sc *scratch) ([]byte, int64, error) {
		v := volumes[i]
		valid, n, err := readStream(sc, v.Capacity(), opts, func(off int64, buf []byte) error {
			return v.Read(w.Sim(), off, buf)
		})
		if err != nil {
			return nil, 0, err
		}
		return bytes.Clone(sc.buf[:valid]), n, nil
	}
	rb, _, err := recoverStreams(p, cpus, opts, len(volumes), read, new(analysis), true, &rep)
	if err != nil {
		return rep, nil, err
	}
	rep.MTTR = p.Now() - start
	return rep, rb, nil
}

// frameHeader is the size of an audit frame's little-endian u32 length
// prefix; the length it holds excludes the prefix itself.
const frameHeader = 4

// readStream reads a log area chunk by chunk straight into sc.buf, stopping
// as soon as more bytes cannot move where the end-of-trail scan stops, and
// returns the length of the valid record prefix (sc.buf[:valid] is the
// stream) and the bytes read. Each chunk resumes the scan at the last record
// boundary: a frame the previous chunk cut short is retried whole, and
// nothing already validated is scanned again.
//
// The scan is settled when it stopped on a zero length prefix (a clean end),
// on a frame wholly inside what was read (a torn one: its check reads only
// its own bytes), or on a frame whose declared length runs past the device.
// Only a scan that reached the read's edge — fewer than frameHeader bytes
// left, or a frame that runs past them — reads on.
func readStream(sc *scratch, capacity int64, opts Options, readChunk func(off int64, buf []byte) error) (valid int, read int64, err error) {
	var off int64
	for off < capacity {
		n := min(int64(opts.ChunkBytes), capacity-off)
		end := int(off + n)
		sc.reserve(int(off), end)
		if err := readChunk(off, sc.buf[off:end]); err != nil {
			return 0, 0, fmt.Errorf("%w: %v", ErrNoLog, err)
		}
		off += n
		s := audit.NewScanner(sc.buf[valid:end])
		for s.Next() {
		}
		valid += s.Offset()
		if end-valid >= frameHeader {
			length := int64(binary.LittleEndian.Uint32(sc.buf[valid:]))
			frameEnd := int64(valid) + frameHeader + length
			if length == 0 || frameEnd <= int64(end) || frameEnd > capacity {
				break
			}
		}
	}
	return valid, off, nil
}

// FromPM recovers from NPMU-resident log regions via the PM client
// library, consulting the TCB region for outcomes so a single pass
// suffices; as in FromDisk, one worker per trail, on the node's CPUs, reads
// it — opening the region from its own CPU — and runs the passes. The
// caller provides a recovery process bound to a cluster with a live PMM
// (restarted after the crash), the PM volume handle, the log region names,
// and the TCB region name ("" to force the two-pass disk-style analysis over
// PM, for apples-to-apples ablation). A log region the PMM has never heard
// of is an empty trail, not an error.
func FromPM(p *cluster.Process, vol *pmclient.Volume, logRegions []string, tcbRegion string, opts Options) (Report, *Rebuilt, error) {
	return fromPM(p, vol, logRegions, tcbRegion, opts, nodeCPUs(p.Cluster()))
}

func fromPM(p *cluster.Process, vol *pmclient.Volume, logRegions []string, tcbRegion string, opts Options, cpus []*cluster.CPU) (Report, *Rebuilt, error) {
	opts.defaults()
	var rep Report
	start := p.Now()
	an := new(analysis)

	// Fine-grained outcomes first, read by the recovering process before any
	// worker starts; its scratch goes back to the spares before any worker
	// takes one.
	if tcbRegion != "" {
		r, err := vol.Open(p, tcbRegion)
		if err == nil {
			sc := new(scratch)
			sc.reserve(0, int(r.Size()))
			img := sc.buf[:r.Size()]
			if err := readPMStream(p, r, img, opts); err == nil {
				rep.BytesRead += r.Size()
				an.outcome = tmf.ScanTCBs(img)
				rep.UsedTCB = true
			}
			stable.HandOn(sc.buf)
			r.Close(p)
		}
	}

	read := func(w *cluster.Process, i int, sc *scratch) ([]byte, int64, error) {
		name := logRegions[i]
		r, err := vol.Open(w, name)
		if errors.Is(err, pmm.ErrNotFound) {
			// The PMM answered and has no such region: the log's writer died
			// before its first append created it, so the trail is empty. An
			// unreachable PMM is any other error and stays ErrNoLog.
			return nil, 0, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %s: %v", ErrNoLog, name, err)
		}
		data, n, err := readLogReplicas(w, r, i, opts, sc)
		r.Close(w)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %s: %v", ErrNoLog, name, err)
		}
		return data, n, nil
	}

	// Without control blocks the outcome-discovery pass is charged. With
	// them the single pass is charged in redo, and trail outcomes still
	// override the TCB table: a bounded, wrapping structure sized for
	// *concurrent* transactions (its job is naming the in-flight ones
	// without a search), whose slots may have been overwritten.
	rb, seen, err := recoverStreams(p, cpus, opts, len(logRegions), read, an, !rep.UsedTCB, &rep)
	if err != nil {
		return rep, nil, err
	}
	if rep.UsedTCB {
		// Fine-grained knowledge: control blocks name in-flight
		// transactions even when none of their audit reached the durable
		// trail — no heuristic log search required.
		//simlint:ordered -- commutative count
		for txn, state := range an.outcome {
			if state == tmf.TCBActive && !seen[txn] {
				rep.InFlight++
			}
		}
	}
	rep.MTTR = p.Now() - start
	return rep, rb, nil
}

// readLogReplicas reads a log region's stream from each device of the
// mirrored pair independently and keeps the replica whose valid record
// prefix scans furthest — of equal ones, the lower replica's. Log writes are
// strictly sequential appends, and the PM write path succeeds whenever at
// least one mirror accepted the data — so a device that power-failed mid-run
// holds a truncated prefix (its partner carried the writes alone while it
// was away), and trusting the primary blindly would silently drop committed
// transactions. A replica that cannot be read at all (device still down) is
// skipped as long as its partner is readable. Trail i reads replica i mod
// the replica count first, so the workers of a recovery start on both
// devices at once instead of queueing on the primary. Every replica is read
// into the scratch; only a replica that beats the best so far is copied out
// of it.
func readLogReplicas(p *cluster.Process, r *pmclient.Region, trail int, opts Options, sc *scratch) ([]byte, int64, error) {
	var best []byte
	bestValid, bestRep := -1, 0
	var total int64
	var firstErr error
	replicas := r.Replicas()
	for k := range replicas {
		rep := (trail + k) % replicas
		valid, n, err := readStream(sc, r.Size(), opts, func(off int64, buf []byte) error {
			return r.ReadReplica(p, rep, off, buf)
		})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		total += n
		if valid > bestValid || valid == bestValid && rep < bestRep {
			bestValid, bestRep, best = valid, rep, append(best[:0], sc.buf[:valid]...)
		}
	}
	if bestValid < 0 {
		return nil, 0, firstErr
	}
	return best, total, nil
}

// readPMStream fills buf from the region in RDMA-sized chunks.
func readPMStream(p *cluster.Process, r *pmclient.Region, buf []byte, opts Options) error {
	for off := 0; off < len(buf); off += opts.ChunkBytes {
		end := min(off+opts.ChunkBytes, len(buf))
		if err := r.Read(p, int64(off), buf[off:end]); err != nil {
			return err
		}
	}
	return nil
}
