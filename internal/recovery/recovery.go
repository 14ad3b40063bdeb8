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
// (presumed abort).
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

// Options tunes the recovery procedure.
type Options struct {
	// ChunkBytes is the read granularity from the log device, 64 KiB by
	// default (EXPERIMENTS.md, Claim C2, has the read-size table).
	ChunkBytes int
	// CPUPerRecord is the analysis/redo cost per audit record.
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
// records: redo rescans the streams for them.
type analysis struct {
	outcome  map[audit.TxnID]uint8 // tmf.TCBCommitted / TCBAborted
	prepared map[audit.TxnID]bool  // cross-shard prepare votes seen
}

func newAnalysis() *analysis {
	return &analysis{outcome: make(map[audit.TxnID]uint8), prepared: make(map[audit.TxnID]bool)}
}

// note folds one scanned record's outcome evidence into the analysis.
func (an *analysis) note(rec *audit.Record) {
	switch rec.Type {
	case audit.RecCommit:
		an.outcome[rec.Txn] = tmf.TCBCommitted
	case audit.RecAbort:
		an.outcome[rec.Txn] = tmf.TCBAborted
	case audit.RecPrepare:
		an.prepared[rec.Txn] = true
	case audit.RecOutcome:
		// The coordinator's durable decision for a cross-shard
		// transaction — authoritative over anything else seen so far.
		if o, err := tmf.DecodeOutcome(rec.Body); err == nil {
			an.outcome[rec.Txn] = o.State
		}
	}
}

// scanStream walks one log stream's bytes, feeding records into the
// analysis and charging CPU per record.
func scanStream(p *sim.Proc, opts Options, data []byte, an *analysis, count *int64) {
	s := audit.NewScanner(data)
	for s.Next() {
		*count++
		p.Wait(opts.CPUPerRecord)
		an.note(s.Record())
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
			an.outcome[txn] = tmf.TCBAborted
			rep.InDoubt++
		}
	}
}

// redo rescans the streams and applies committed data records to fresh trees,
// returning the set of transactions that had data records. The streams are
// this recovery's own copies, not its scratch: a row keeps its slice of one.
func redo(p *sim.Proc, opts Options, streams [][]byte, an *analysis, rep *Report) (*Rebuilt, map[audit.TxnID]bool) {
	rb := &Rebuilt{Files: make(map[string]*btree.Tree[[]byte])}
	seen := make(map[audit.TxnID]bool, len(an.outcome))
	for _, data := range streams {
		s := audit.NewScanner(data)
		for s.Next() {
			rec := s.Record()
			if rec.Type != audit.RecInsert && rec.Type != audit.RecUpdate && rec.Type != audit.RecDelete {
				continue // outcome evidence: the analysis has it
			}
			p.Wait(opts.CPUPerRecord)
			rep.RecordsScanned++
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
	}
	return rb, seen
}

// scratch is one recovery's read buffer. Every stream replica (and the TCB
// image) is read into it and scanned there; what a recovery keeps of a
// stream — the valid record prefix of the winning replica — is copied out
// before the next read reuses the buffer. Nothing that outlives the
// recovery may alias it, and a recovery that returns hands it on to the
// process's next device reader (one killed part-way drops it). Only bytes a
// read of this recovery wrote are ever scanned, so a buffer that arrives
// dirty from a longer trail recovers what a fresh one does.
type scratch struct{ buf []byte }

// scratchFloor is the least a scratch grows to: the first read of a small
// trail then leaves behind a buffer a larger one can reuse.
const scratchFloor = 1 << 20

// reserve makes buf at least end bytes long, keeping its first keep bytes.
// It grows by doubling from scratchFloor, so a trail read chunk by chunk
// regrows its buffer a few times, not once a chunk. The first reservation
// takes the process's spare buffer, if there is one — at the first read and
// not at entry, because a PM recovery is spawned in the instant the rebooted
// PM manager starts reading its metadata slots into that same spare, and its
// first read comes after the manager has answered an Open, so after the
// manager handed the buffer on.
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

// FromDisk recovers from audit disk volumes. The full trail area of each
// volume is read sequentially and scanned twice: once to discover
// transaction outcomes (the "heuristic searching" the paper decries) and
// once to redo.
func FromDisk(p *sim.Proc, volumes []*disk.Volume, opts Options) (Report, *Rebuilt, error) {
	sc := new(scratch)
	rep, rb, err := fromDisk(p, volumes, opts, sc)
	stable.HandOn(sc.buf)
	return rep, rb, err
}

func fromDisk(p *sim.Proc, volumes []*disk.Volume, opts Options, sc *scratch) (Report, *Rebuilt, error) {
	opts.defaults()
	var rep Report
	start := p.Now()
	an := newAnalysis()

	streams := make([][]byte, 0, len(volumes))
	for _, v := range volumes {
		valid, n, err := readStream(sc, v.Capacity(), opts, func(off int64, buf []byte) error {
			return v.Read(p, off, buf)
		})
		if err != nil {
			return rep, nil, err
		}
		rep.BytesRead += n
		streams = append(streams, bytes.Clone(sc.buf[:valid]))
	}
	// Pass 1: outcome discovery across every stream.
	for _, data := range streams {
		scanStream(p, opts, data, an, &rep.RecordsScanned)
	}
	resolveInDoubt(an, &rep)
	// Pass 2: redo.
	rb, _ := redo(p, opts, streams, an, &rep)
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
// suffices. The caller provides a recovery process bound to a cluster
// with a live PMM (restarted after the crash), the PM volume handle, the
// log region names, and the TCB region name ("" to force the two-pass
// disk-style analysis over PM, for apples-to-apples ablation). A log region
// the PMM has never heard of is an empty trail, not an error.
func FromPM(p *cluster.Process, vol *pmclient.Volume, logRegions []string, tcbRegion string, opts Options) (Report, *Rebuilt, error) {
	sc := new(scratch)
	rep, rb, err := fromPM(p, vol, logRegions, tcbRegion, opts, sc)
	stable.HandOn(sc.buf)
	return rep, rb, err
}

func fromPM(p *cluster.Process, vol *pmclient.Volume, logRegions []string, tcbRegion string, opts Options, sc *scratch) (Report, *Rebuilt, error) {
	opts.defaults()
	var rep Report
	start := p.Now()
	an := newAnalysis()

	// Fine-grained outcomes first.
	if tcbRegion != "" {
		r, err := vol.Open(p, tcbRegion)
		if err == nil {
			sc.reserve(0, int(r.Size()))
			img := sc.buf[:r.Size()]
			if err := readPMStream(p, r, img, opts); err == nil {
				rep.BytesRead += r.Size()
				an.outcome = tmf.ScanTCBs(img)
				rep.UsedTCB = true
			}
			r.Close(p)
		}
	}

	streams := make([][]byte, 0, len(logRegions))
	for _, name := range logRegions {
		r, err := vol.Open(p, name)
		if errors.Is(err, pmm.ErrNotFound) {
			// The PMM answered and has no such region: the log's writer died
			// before its first append created it, so the trail is empty. An
			// unreachable PMM is any other error and stays ErrNoLog.
			continue
		}
		if err != nil {
			return rep, nil, fmt.Errorf("%w: %s: %v", ErrNoLog, name, err)
		}
		data, n, err := readLogReplicas(p, r, opts, sc)
		r.Close(p)
		if err != nil {
			return rep, nil, fmt.Errorf("%w: %s: %v", ErrNoLog, name, err)
		}
		rep.BytesRead += n
		streams = append(streams, data)
	}

	for _, data := range streams {
		if !rep.UsedTCB {
			// No control blocks: fall back to the outcome-discovery pass.
			scanStream(p.Sim(), opts, data, an, &rep.RecordsScanned)
			continue
		}
		// Single pass, charged in redo. Trail outcomes override the TCB
		// table: a bounded, wrapping structure sized for *concurrent*
		// transactions (its job is naming the in-flight ones without a
		// search), whose slots may have been overwritten.
		s := audit.NewScanner(data)
		for s.Next() {
			an.note(s.Record())
		}
	}
	resolveInDoubt(an, &rep)
	rb, seen := redo(p.Sim(), opts, streams, an, &rep)
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
// prefix scans furthest. Log writes are strictly sequential appends, and
// the PM write path succeeds whenever at least one mirror accepted the
// data — so a device that power-failed mid-run holds a truncated prefix
// (its partner carried the writes alone while it was away), and trusting
// the primary blindly would silently drop committed transactions. A
// replica that cannot be read at all (device still down) is skipped as
// long as its partner is readable. Every replica is read into the scratch;
// only a replica that beats the best so far is copied out of it.
func readLogReplicas(p *cluster.Process, r *pmclient.Region, opts Options, sc *scratch) ([]byte, int64, error) {
	var best []byte
	bestValid := -1
	var total int64
	var firstErr error
	for rep := 0; rep < r.Replicas(); rep++ {
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
		if valid > bestValid {
			bestValid, best = valid, append(best[:0], sc.buf[:valid]...)
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
