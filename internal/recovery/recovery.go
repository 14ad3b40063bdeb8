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
// (presumed abort). Recovery is one streamed pipeline: one worker process per
// trail, spread over the node's CPUs, opens its trail, reads it — past the
// first chunk through a read-ahead process, so the device keeps reading while
// the CPU works — and works on each chunk as it lands: the outcome-discovery
// pass without TCBs, and with them the redo of every record whose transaction
// the TCB image already names committed, or — when the bounded TCB ring has
// forgotten the transaction — whose commit some trail has already shown. The
// reads overlap across devices (PM trail i reads mirror i mod 2 first, so both
// NPMUs serve at once), and all that waits for the barrier after the last
// chunk is what no outcome has decided yet; redo done on a trail's word is
// checked against the merged outcomes there, and undone if they disagree.
package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"

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
	// RedoneAfterBarrier counts the data records the redo pass met after the
	// barrier, committed or not: every one without TCBs, and with them those
	// no outcome allowed early, and a discarded trail's. It says when the
	// redo ran, not what it found.
	RedoneAfterBarrier int64
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

// Rebuilt holds the recovered database image. Each trail's rows are a tree
// per file of their own: one DP2 writes one trail, so no key is in two of
// them, and a worker redoes its trail as it lands without splitting the
// leaves another worker's inserts filled.
type Rebuilt struct {
	files  map[string][]*btree.Tree[[]byte] // by file, then trail
	trails int
}

// Get reads a recovered row.
func (r *Rebuilt) Get(file string, key uint64) ([]byte, bool) {
	for _, t := range r.files[file] {
		if t == nil {
			continue
		}
		if body, ok := t.Get(key); ok {
			return body, true
		}
	}
	return nil, false
}

// Rows counts all recovered rows.
func (r *Rebuilt) Rows() int {
	n := 0
	//simlint:ordered -- commutative count
	for _, ts := range r.files {
		for _, t := range ts {
			if t != nil {
				n += t.Len()
			}
		}
	}
	return n
}

// txnPage is how many transactions share one page of the analysis table.
const txnPage = 256

// Bits of a transaction's byte in the analysis table: its outcome (a tmf.TCB*
// state, 0 while none is known), whether it voted prepare, whether redo has
// met a data record of it, and whether a trail has shown its commit before the
// barrier while the TCB image names no state for it.
const (
	stateBits   uint8 = 3
	preparedBit uint8 = 4
	seenBit     uint8 = 8
	shownBit    uint8 = 16
)

// analysis classifies transactions from scanned records. It keeps no data
// records: redo rescans the streams for them. Each transaction it has heard
// of is one byte of a page the table keys by the transaction's id over
// txnPage: the monitor numbers transactions densely, so the few thousand of
// a recovery share a few pages instead of holding a map entry each. The
// zero analysis is empty.
type analysis struct {
	pages    map[audit.TxnID]*[txnPage]uint8
	prepared []audit.TxnID // cross-shard prepare votes, each once, in the order seen
	// aborted is set once any trail notes an abort: only then can the
	// merged outcomes contradict a redo the TCB image allowed early.
	aborted bool
	// shown counts the commits trails have shown before the barrier (see
	// show): a worker retries its deferred records when it grows.
	shown int
}

// slot returns txn's byte, making its page if it has none.
func (an *analysis) slot(txn audit.TxnID) *uint8 {
	if an.pages == nil {
		an.pages = make(map[audit.TxnID]*[txnPage]uint8)
	}
	pg := an.pages[txn/txnPage]
	if pg == nil {
		pg = new([txnPage]uint8)
		an.pages[txn/txnPage] = pg
	}
	return &pg[txn%txnPage]
}

// outcome returns txn's outcome: a tmf.TCB* state, or 0 if none is known.
func (an *analysis) outcome(txn audit.TxnID) uint8 {
	if pg := an.pages[txn/txnPage]; pg != nil {
		return pg[txn%txnPage] & stateBits
	}
	return 0
}

// decide records txn's outcome, overriding any earlier one.
func (an *analysis) decide(txn audit.TxnID, state uint8) {
	b := an.slot(txn)
	*b = *b&^stateBits | state&stateBits
}

// show notes a record of a trail's kept stream before the barrier: if it shows
// its transaction committed and the TCB image names no state for that
// transaction — its slot went to a later one — the transaction is marked
// shown, and shown counts it the first time.
func (an *analysis) show(rec *audit.Record) {
	if an.outcome(rec.Txn) != 0 || !showsCommit(rec) {
		return
	}
	if b := an.slot(rec.Txn); *b&shownBit == 0 {
		*b |= shownBit
		an.shown++
	}
}

// redoable reports whether a data record of txn may be redone before the
// barrier, and whether on a trail's word: the TCB image names txn committed,
// or it names no state for txn and a trail has shown its commit. The first is
// final — the monitor writes TCBCommitted only once the master commit record
// is durable — the second speculative, until the barrier's merged analysis
// agrees.
func (an *analysis) redoable(txn audit.TxnID) (ok, onTrail bool) {
	var b uint8
	if pg := an.pages[txn/txnPage]; pg != nil {
		b = pg[txn%txnPage]
	}
	switch {
	case b&stateBits == tmf.TCBCommitted:
		return true, false
	case b&stateBits == 0 && b&shownBit != 0:
		return true, true
	}
	return false, false
}

// showsCommit reports whether rec is a trail's word that its transaction
// committed: a commit record, or a committed cross-shard outcome.
func showsCommit(rec *audit.Record) bool {
	switch rec.Type {
	case audit.RecCommit:
		return true
	case audit.RecOutcome:
		o, err := tmf.DecodeOutcome(rec.Body)
		return err == nil && o.State == tmf.TCBCommitted
	}
	return false
}

// prepare records txn's cross-shard prepare vote.
func (an *analysis) prepare(txn audit.TxnID) {
	if b := an.slot(txn); *b&preparedBit == 0 {
		*b |= preparedBit
		an.prepared = append(an.prepared, txn)
	}
}

// see marks that redo met a data record of txn and reports whether it is the
// first.
func (an *analysis) see(txn audit.TxnID) bool {
	b := an.slot(txn)
	first := *b&seenBit == 0
	*b |= seenBit
	return first
}

// activeUnseen counts the transactions the TCB image names active that had
// no data record in any trail.
func (an *analysis) activeUnseen() int {
	n := 0
	//simlint:ordered -- commutative count
	for _, pg := range an.pages {
		for _, b := range pg {
			if b&stateBits == tmf.TCBActive && b&seenBit == 0 {
				n++
			}
		}
	}
	return n
}

// note folds one scanned record's outcome evidence into the analysis.
func (an *analysis) note(rec *audit.Record) {
	switch rec.Type {
	case audit.RecCommit:
		an.decide(rec.Txn, tmf.TCBCommitted)
	case audit.RecAbort:
		an.decide(rec.Txn, tmf.TCBAborted)
		an.aborted = true
	case audit.RecPrepare:
		an.prepare(rec.Txn)
	case audit.RecOutcome:
		// The coordinator's durable decision for a cross-shard
		// transaction — authoritative over anything else seen so far.
		if o, err := tmf.DecodeOutcome(rec.Body); err == nil {
			an.decide(rec.Txn, o.State)
			an.aborted = an.aborted || o.State == tmf.TCBAborted
		}
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
	txns := slices.Clone(an.prepared)
	slices.Sort(txns)
	for _, txn := range txns {
		switch an.outcome(txn) {
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

// isData reports whether rec changes a row, as opposed to carrying outcome
// evidence.
func isData(rec *audit.Record) bool {
	return rec.Type == audit.RecInsert || rec.Type == audit.RecUpdate || rec.Type == audit.RecDelete
}

// apply redoes one data record of trail i on the image and reports whether
// it set a row. A row keeps its slice of the recovery's own stream copy,
// capped so an append cannot reach the next record.
func (r *Rebuilt) apply(i int, rec *audit.Record) bool {
	ts := r.files[rec.File]
	if ts == nil {
		ts = make([]*btree.Tree[[]byte], r.trails)
		r.files[rec.File] = ts
	}
	t := ts[i]
	if t == nil {
		t = btree.New[[]byte]()
		ts[i] = t
	}
	if rec.Type == audit.RecDelete {
		t.Delete(rec.Key)
		return false
	}
	n := len(rec.Body)
	t.Set(rec.Key, rec.Body[:n:n])
	return true
}

// trailLog is one trail as the worker that recovers it opened it: replicas
// copies of the same log, each size bytes long, read chunk by chunk from the
// process given.
type trailLog interface {
	replicas() int
	size() int64
	readReplica(p *cluster.Process, replica int, off int64, buf []byte) error
	close(p *cluster.Process)
	// wrap names the trail in the error that left it unreadable.
	wrap(err error) error
}

// logOpener opens trail i from worker w; a trail that does not exist opens
// as nil.
type logOpener func(w *cluster.Process, i int) (trailLog, error)

// diskLog is an audit volume's trail area.
type diskLog struct{ v *disk.Volume }

func (d diskLog) replicas() int          { return 1 }
func (d diskLog) size() int64            { return d.v.Capacity() }
func (d diskLog) close(*cluster.Process) {}
func (d diskLog) wrap(err error) error   { return err }
func (d diskLog) readReplica(p *cluster.Process, _ int, off int64, buf []byte) error {
	return d.v.Read(p.Sim(), off, buf)
}

// pmLog is a log region, one replica on each device of its mirrored pair.
type pmLog struct{ r *pmclient.Region }

func (l pmLog) replicas() int            { return l.r.Replicas() }
func (l pmLog) size() int64              { return l.r.Size() }
func (l pmLog) close(p *cluster.Process) { l.r.Close(p) }
func (l pmLog) wrap(err error) error {
	return fmt.Errorf("%w: %s: %v", ErrNoLog, l.r.Name(), err)
}
func (l pmLog) readReplica(p *cluster.Process, replica int, off int64, buf []byte) error {
	return l.r.ReadReplica(p, replica, off, buf)
}

// Early-redo key filters: a trail one chunk settles gets the small one, kept
// in its trail; a trail read ahead gets the large one. A false hit only
// defers a record that could have gone early.
const (
	smallFilterWords = 16   // 1 Ki bits
	aheadFilterWords = 1024 // 64 Ki bits
)

// trail is one trail of a recovery in flight. Its reader — the worker
// itself, then a read-ahead process — reads the trail's replicas in turn into
// one scratch and keeps the stream as record-aligned segments: the first
// replica's valid records as each chunk validates them, then whatever a later
// replica that agrees with them adds. Trail i reads replica i mod the replica
// count first, so the workers of a recovery start on both devices at once.
// Its worker works on each segment as it lands.
type trail struct {
	// Written by the reader.
	log      trailLog
	sc       scratch
	reader   *cluster.Process // the worker, then its read-ahead
	k        int              // replicas begun, the current one included
	cur      audit.Cursor     // the current replica's read
	best     int              // the best replica's valid prefix; -1 before one reads whole
	bestRep  int
	bestKept bool // segs begin with the best replica's valid prefix
	firstErr error
	segs     [][]byte // the kept stream, cut where each chunk's records end
	seg0     [4][]byte
	kept     int    // bytes in segs
	done     bool   // every replica has been read
	discard  bool   // the early work does not stand (see finish)
	keep     int    // on discard: the length of the stream the trail keeps
	winner   []byte // on discard: that stream, when segs do not hold it
	read     int64  // bytes read from replicas that read whole
	err      error
	wake     *sim.Signal // the worker waits on it for the next segment
	ahead    bool        // a read-ahead process reads past the first chunk

	// Written by the worker.
	i        int      // the trail's index
	taken    int      // segments worked on
	records  int      // data records met
	deferred []uint64 // bit k: the k-th data record waits for the barrier
	def0     [1]uint64
	pending  int      // deferred data records
	first    mark     // the first of them
	filter   []uint64 // keys with a deferred record, hashed
	small    [smallFilterWords]uint64
	scan     audit.Scanner // retry's, its file-name cache kept from pass to pass
	tried    int           // the analysis's shown count at the last retry
	rows     int           // rows set early
	serial   bool          // nothing was redone early: every data record waits
	trusted  bool          // a record went early on a trail's word
	streamed bool          // the worker has worked on every segment, or is lost
}

// mark is where a data record sits in a trail's kept stream: its segment, its
// offset there, and k, its place among the trail's data records.
type mark struct{ seg, off, k int }

// ReadChunk reads the current replica at off, from the reader.
func (tr *trail) ReadChunk(off int64, buf []byte) error {
	return tr.log.readReplica(tr.reader, tr.replica(), off, buf)
}

// replica is the replica being read.
func (tr *trail) replica() int { return (tr.i + tr.k - 1) % tr.log.replicas() }

// chunk reads the trail's next chunk from p and reports whether there is
// more to read. A replica's read ends where its cursor settles, or at its
// first failed read, which leaves it out of the choice as if unreadable.
func (tr *trail) chunk(p *cluster.Process, opts Options) bool {
	tr.reader = p
	lo := tr.cur.Valid
	settled, err := step(&tr.cur, &tr.sc, tr.log.size(), opts, tr)
	if err != nil {
		if tr.firstErr == nil {
			tr.firstErr = err
		}
	} else {
		tr.landed(lo, tr.cur.Valid)
		if !settled {
			return true
		}
		tr.read += tr.cur.Off
		if v, rep := tr.cur.Valid, tr.replica(); audit.Prefer(v, rep, tr.best, tr.bestRep) {
			tr.best, tr.bestRep, tr.bestKept = v, rep, !tr.discard
			if tr.discard {
				tr.winner = bytes.Clone(tr.sc.buf[:v])
			}
		}
	}
	if tr.k == tr.log.replicas() {
		return false
	}
	tr.k++
	tr.cur = audit.Cursor{}
	return true
}

// landed keeps what a chunk validated, [lo, hi) of the current replica: the
// part past the kept stream is published as a segment of its own, if the
// part before it agrees with the kept bytes. Replicas that differ inside
// their common valid prefix end the early work.
func (tr *trail) landed(lo, hi int) {
	if tr.discard || hi == lo {
		return
	}
	if m := min(hi, tr.kept); lo < m && !tr.matches(lo, tr.sc.buf[lo:m]) {
		tr.discard = true
		return
	}
	if hi > tr.kept {
		tr.publish(bytes.Clone(tr.sc.buf[max(lo, tr.kept):hi]))
	}
}

// finish ends the trail's read: it hands the scratch on, settles which
// stream the trail keeps — the replica audit.Prefer picks — and wakes the
// worker. When the segments are not exactly that stream (the replicas
// disagreed, or a replica that failed part-way had extended them), the early
// work is discarded and the trail keeps the winner's bytes.
func (tr *trail) finish() {
	stable.HandOn(tr.sc.buf)
	tr.sc.buf = nil
	switch {
	case tr.best < 0:
		tr.err = tr.log.wrap(tr.firstErr)
	case tr.discard || tr.kept != tr.best:
		tr.discard, tr.keep = true, tr.best
	}
	tr.done = true
	tr.poke()
}

// publish appends a kept segment and wakes the worker.
func (tr *trail) publish(seg []byte) {
	tr.segs = append(tr.segs, seg)
	tr.kept += len(seg)
	tr.poke()
}

// poke wakes the worker if it waits for a segment.
func (tr *trail) poke() {
	if tr.wake != nil && !tr.wake.Fired() {
		tr.wake.Trigger(nil)
	}
}

// matches reports whether b equals the kept stream's bytes from off on.
func (tr *trail) matches(off int, b []byte) bool {
	for _, seg := range tr.segs {
		if off >= len(seg) {
			off -= len(seg)
			continue
		}
		n := min(len(seg)-off, len(b))
		if !bytes.Equal(seg[off:off+n], b[:n]) {
			return false
		}
		b, off = b[n:], 0
		if len(b) == 0 {
			break
		}
	}
	return true
}

// truncate cuts the kept stream to its first n bytes.
func (tr *trail) truncate(n int) {
	for i, seg := range tr.segs {
		if n <= len(seg) {
			tr.segs[i] = seg[:n]
			tr.segs = tr.segs[:i+1]
			return
		}
		n -= len(seg)
	}
}

// hash places key in the trail's filter.
func (tr *trail) hash(key uint64) (word int, bit uint64) {
	h := (key * 0x9E3779B97F4A7C15) >> (64 - bits.Len(uint(64*len(tr.filter))) + 1)
	return int(h >> 6), 1 << (h & 63)
}

// held reports whether key may have a deferred record.
func (tr *trail) held(key uint64) bool {
	if tr.filter == nil {
		return false
	}
	w, b := tr.hash(key)
	return tr.filter[w]&b != 0
}

// hold defers the data record at m, of key, for the barrier.
func (tr *trail) hold(m mark, key uint64) {
	if tr.pending == 0 {
		tr.first = m
	}
	tr.pending++
	k := m.k
	if tr.deferred == nil {
		tr.deferred = tr.def0[:]
	}
	for len(tr.deferred) <= k>>6 {
		tr.deferred = append(tr.deferred, 0)
	}
	tr.deferred[k>>6] |= 1 << (k & 63)
	if tr.filter == nil {
		if tr.ahead {
			tr.filter = make([]uint64, aheadFilterWords)
		} else {
			tr.filter = tr.small[:]
		}
	}
	w, b := tr.hash(key)
	tr.filter[w] |= b
}

// late reports whether the k-th data record was held for the barrier.
func (tr *trail) late(k int) bool {
	return tr.serial || k>>6 < len(tr.deferred) && tr.deferred[k>>6]&(1<<(k&63)) != 0
}

// early works on the trail's i-th segment as it lands, before the barrier,
// and returns the records its CPU time is charged for. With the analysis
// charged (no TCBs), that is every record: the outcome-discovery pass. With
// TCBs it redoes each data record whose transaction analysis.redoable allows —
// the TCB image names it committed, or names no state for it and some trail
// has shown its commit — unless a deferred record of the same key came before
// it; every other data record is deferred, in trail order. A commit the TCB
// image does not name is shown to every worker (analysis.show). An's outcomes
// are the TCB image's alone until the barrier.
func (tr *trail) early(i int, an *analysis, rb *Rebuilt) int64 {
	var n int64
	s := audit.NewScanner(tr.segs[i])
	for s.Next() {
		rec := s.Record()
		if tr.serial {
			n++
			continue
		}
		if !isData(rec) {
			an.show(rec)
			continue
		}
		k := tr.records
		tr.records++
		if tr.redoEarly(an, rec, rb) {
			n++
			continue
		}
		tr.hold(mark{i, int(s.LSN()), k}, rec.Key)
	}
	return n
}

// redoEarly redoes rec before the barrier if its transaction allows it and no
// deferred record holds its key, and reports whether it did.
func (tr *trail) redoEarly(an *analysis, rec *audit.Record, rb *Rebuilt) bool {
	ok, onTrail := an.redoable(rec.Txn)
	if !ok || tr.held(rec.Key) {
		return false
	}
	tr.trusted = tr.trusted || onTrail
	if rb.apply(tr.i, rec) {
		tr.rows++
	}
	return true
}

// retry is a worker's pass over its deferred records, in trail order, once
// trails have shown commits since its last: each that redoEarly now redoes
// leaves the deferred set, and the key filter is rebuilt from the records
// still deferred, so a record waits only behind an earlier one of its key
// that still waits. It returns the records it redid.
func (tr *trail) retry(an *analysis, rb *Rebuilt) int64 {
	tr.tried = an.shown
	clear(tr.filter)
	var n int64
	left, k := tr.pending, tr.first.k
	tr.pending = 0
	for i, off := tr.first.seg, tr.first.off; left > 0; i, off = i+1, 0 {
		tr.scan.Reset(tr.segs[i][off:])
		for left > 0 && tr.scan.Next() {
			rec := tr.scan.Record()
			if !isData(rec) {
				continue
			}
			j := k
			k++
			if !tr.late(j) {
				continue
			}
			left--
			if tr.redoEarly(an, rec, rb) {
				tr.deferred[j>>6] &^= 1 << (j & 63)
				n++
				continue
			}
			tr.hold(mark{i, off + int(tr.scan.LSN()), j}, rec.Key)
		}
	}
	return n
}

// stream reads the trail from worker w — its first chunk itself, the rest
// from a read-ahead process on w's CPU unless that chunk settles the trail —
// and works on each segment as it lands, until the last one is in; whoever
// read the trail closes it once done with it. Whenever trails have shown
// commits the TCB image does not name, the worker retries its deferred
// records. Once its own segments are worked on (see settle), it counts itself
// out of the streaming workers and retries on while it holds deferred records
// and a peer may still show it their commits.
func (tr *trail) stream(w *cluster.Process, lg trailLog, opts Options, an *analysis, rb *Rebuilt, c *crew) {
	tr.log, tr.k, tr.best, tr.segs = lg, 1, -1, tr.seg0[:0]
	more := tr.chunk(w, opts)
	if more && tr.k == 1 {
		tr.ahead = true
		w.CPU().Spawn("recover-reader", func(r *cluster.Process) {
			for tr.chunk(r, opts) {
			}
			tr.finish()
			lg.close(r)
		})
	} else {
		for more {
			more = tr.chunk(w, opts)
		}
		tr.finish()
	}
	for {
		switch {
		case tr.taken < len(tr.segs):
			tr.taken++
			shown := an.shown
			charge(w, tr.early(tr.taken-1, an, rb), opts)
			if an.shown != shown {
				c.stir()
			}
		case tr.pending > 0 && tr.tried != an.shown:
			charge(w, tr.retry(an, rb), opts)
		case !tr.done:
			tr.await(w)
		case !tr.streamed:
			tr.settle(w, an, rb, opts)
			if !tr.ahead {
				// Closed once the trail's segments are worked on: a close
				// waits on the PM manager's CPU, which another worker's
				// early redo may hold.
				lg.close(w)
			}
			c.streamed(tr.i)
		case tr.pending == 0 || c.streaming == 0 || c.home:
			return
		default:
			tr.await(w)
		}
	}
}

// await parks the worker until its reader or a peer pokes it.
func (tr *trail) await(w *cluster.Process) {
	eng := w.Cluster().Engine()
	tr.wake = eng.NewSignal()
	tr.wake.Wait(w.Sim())
	eng.FreeSignal(tr.wake)
	tr.wake = nil
}

// settle ends the trail's own early work once its last segment is worked on.
// If the trail keeps other bytes than it worked on, it discards that work: the
// early redo is dropped, or the charged analysis run again over the stream
// kept.
func (tr *trail) settle(w *cluster.Process, an *analysis, rb *Rebuilt, opts Options) {
	if !tr.discard {
		return
	}
	analysed := tr.serial // the early work was the charged analysis
	if !analysed {
		tr.undo(rb)
	}
	if tr.bestKept {
		tr.truncate(tr.keep)
	} else {
		tr.segs = append(tr.segs[:0], tr.winner)
	}
	if analysed {
		for i := range tr.segs {
			charge(w, tr.early(i, an, rb), opts)
		}
	}
}

// undo drops every row the trail's early redo set — the trail's own trees —
// so the serial redo that follows starts from the image it would have.
func (tr *trail) undo(rb *Rebuilt) {
	//simlint:ordered -- one trail's slot of each file, cleared
	for _, ts := range rb.files {
		ts[tr.i] = nil
	}
	tr.rows, tr.pending = 0, 0
	tr.serial = true
}

// contradicted reports whether the merged analysis decided other than
// committed for a transaction the trail redid early.
func (tr *trail) contradicted(an *analysis) bool {
	k := 0
	for _, seg := range tr.segs {
		s := audit.NewScanner(seg)
		for s.Next() {
			rec := s.Record()
			if !isData(rec) {
				continue
			}
			if !tr.late(k) && an.outcome(rec.Txn) != tmf.TCBCommitted {
				return true
			}
			k++
		}
	}
	return false
}

// note is the trail's share of the barrier: it notes the kept stream's
// outcome evidence into an and counts what the trail read and the records
// its passes examined — every record and then every data record when the
// analysis is charged, every data record once with TCBs — whatever work a
// discard repeated.
func (tr *trail) note(an *analysis, scanCharged bool, rep *Report) {
	rep.BytesRead += tr.read
	for _, seg := range tr.segs {
		s := audit.NewScanner(seg)
		for s.Next() {
			rec := s.Record()
			if isData(rec) {
				rep.RecordsScanned++
			} else {
				an.note(rec)
			}
			if scanCharged {
				rep.RecordsScanned++
			}
		}
	}
}

// redo is a worker's pass after the barrier: it classifies every data
// record's transaction once across the streams, redoes the
// committed ones that waited for the barrier, and returns how many records it
// redid or discarded.
func (tr *trail) redo(an *analysis, rb *Rebuilt, rep *Report) int64 {
	var n int64
	k := 0
	for _, seg := range tr.segs {
		s := audit.NewScanner(seg)
		for s.Next() {
			rec := s.Record()
			if !isData(rec) {
				continue
			}
			late := tr.late(k)
			k++
			state := an.outcome(rec.Txn)
			if an.see(rec.Txn) {
				switch state {
				case tmf.TCBCommitted:
					rep.Committed++
				case tmf.TCBAborted:
					rep.Aborted++
				default:
					rep.InFlight++
				}
			}
			if !late {
				continue
			}
			n++
			if state == tmf.TCBCommitted && rb.apply(tr.i, rec) {
				rep.RowsRedone++
			}
		}
	}
	rep.RowsRedone += tr.rows
	rep.RedoneAfterBarrier += n
	return n
}

// recoverStreams recovers from trails trails as one streamed pipeline, on one
// worker per trail (crew.start places them). Each worker
//
//  1. opens its trail with open, from its own CPU, and meets the other
//     workers before any of them reads: opens then never queue behind bulk
//     reads;
//  2. reads its trail's first chunk into a scratch drawn from the process's
//     spares and, unless that chunk settles the trail, hands the rest of the
//     reading to a read-ahead process on its CPU, so the device keeps reading
//     while the CPU works; the reader copies each chunk's newly valid records
//     out as a segment of the kept stream and hands the scratch on at the end;
//  3. works on each segment as it lands (trail.early): the charged analysis
//     when scanCharged (the outcome-discovery pass of the disk and PM-scan
//     paths), otherwise the redo of every record the TCB image names
//     committed, or names nothing for while some trail has shown its commit
//     (analysis.show), deferring the rest. Each time the trails show such
//     commits, every worker retries its deferred records (trail.retry); a
//     worker whose trail is in retries on while it holds deferred records and
//     a peer still streams. A trail whose replicas disagree discards its
//     early work and keeps the winning replica's stream;
//  4. the barrier: the recovering process notes every stream's outcome
//     evidence over an (trail.note) — what the caller already knows, the TCB
//     table or nothing — in stream order, exactly as one serial scan would,
//     and resolves the in-doubt transactions: an outcome record may sit in
//     another stream than the data it decides;
//  5. redo (trail.redo): a trail whose early redo the merged analysis
//     contradicts — a transaction the TCB image named committed and a trail
//     aborts, or one redone on a trail's word that a later abort or a losing
//     replica's bytes took back — discards it; then each worker redoes what
//     waited for the barrier, in trail order, charging CPUPerRecord a data
//     record. A key's records all live in one stream (one DP2 writes one
//     trail), so its redo order is the serial one — early or late, a record
//     never passes a deferred one of its key — and each trail's rows go into
//     trees of their own (Rebuilt).
//
// Every record's CPUPerRecord is charged once per pass, to the CPU of its
// trail's worker, so the charge and the bytes read are those of a
// read-then-scan recovery; only their overlap differs, and a discarded
// trail's repeated work. A trail that cannot be read fails the recovery at
// the barrier with its error — the lowest-indexed trail's, when several fail
// — and sends the workers home.
func recoverStreams(p *cluster.Process, cpus []*cluster.CPU, opts Options, trails int, open logOpener, an *analysis, scanCharged bool, rep *Report) (*Rebuilt, error) {
	rb := &Rebuilt{files: make(map[string][]*btree.Tree[[]byte]), trails: trails}
	c := newCrew(p, trails)
	trs := c.trs
	c.start(cpus, func(w *cluster.Process, i int) {
		tr := &trs[i]
		tr.i, tr.serial = i, scanCharged
		lg, err := open(w, i)
		if !c.gather(w) {
			if lg != nil {
				lg.close(w)
			}
			return
		}
		tr.err = err
		if lg != nil {
			tr.stream(w, lg, opts, an, rb, c)
		}
		c.streamed(i) // a worker without a trail shows nothing

		if !c.barrier(w) {
			return
		}
		if !tr.serial && (an.aborted || tr.trusted) && tr.contradicted(an) {
			tr.undo(rb)
		}
		charge(w, tr.redo(an, rb, rep), opts)
	})
	if !c.wait(p) {
		return nil, ErrWorkerLost
	}
	for i := range trs {
		if err := trs[i].err; err != nil {
			c.dismiss()
			return nil, err
		}
	}
	for i := range trs {
		trs[i].note(an, scanCharged, rep)
	}
	resolveInDoubt(an, rep)
	c.release()
	if !c.wait(p) {
		return nil, ErrWorkerLost
	}
	return rb, nil
}

// charge holds the worker's CPU for n records' worth of recovery work: one
// hold a segment and pass, queueing behind any other process on that CPU.
func charge(w *cluster.Process, n int64, opts Options) {
	if n > 0 {
		w.Compute(sim.Time(n) * opts.CPUPerRecord)
	}
}

// crew is one recovery's workers, one process per trail, and their three
// meetings: the open meeting, where the workers wait for each other once
// their trails are open; the barrier after analysis, which the recovering
// process releases; and their end. A worker killed before its end — its CPU
// failed — fails the meeting in progress, so the recovering process returns
// an error instead of waiting on the dead worker or returning part of an
// image, and sends the rest home. A recovering process that exits — killed,
// or returning early — sends the workers home at their next meeting.
type crew struct {
	n         int
	trs       []trail     // the trails, one a worker
	opening   int         // workers yet to reach the open meeting
	streaming int         // workers yet to work on every segment of their trails
	pending   int         // workers yet to reach the current meeting
	finished  int         // workers whose body returned
	exited    int         // workers that exited, killed or not
	lost      bool        // a worker exited without its body returning
	home      bool        // the recovery stops at the next meeting
	opened    *sim.Signal // every worker has opened its trail, or the crew is dismissed
	met       *sim.Signal // the current meeting is complete, or lost
	resume    *sim.Signal // the go-ahead past the barrier
	eng       *sim.Engine
}

func newCrew(p *cluster.Process, n int) *crew {
	eng := p.Cluster().Engine()
	c := &crew{n: n, trs: make([]trail, n), opening: n, streaming: n, pending: n, opened: eng.NewSignal(), met: eng.NewSignal(), resume: eng.NewSignal(), eng: eng}
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
	for i := range c.n {
		w := up[i%len(up)].Spawn("recover-worker", func(w *cluster.Process) {
			body(w, i)
			c.finished++
		})
		w.Sim().OnExit(func() { c.exit(i) })
	}
}

// exit runs as worker i exits. A worker's body returned just before its exit
// unless the worker was killed: then exits outnumber returns, and the lost
// worker streams no more.
func (c *crew) exit(i int) {
	c.exited++
	c.streamed(i)
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

// streamed counts worker i out of the streaming workers, once, and wakes the
// others: it will show them no more commits.
func (c *crew) streamed(i int) {
	if tr := &c.trs[i]; !tr.streamed {
		tr.streamed = true
		c.streaming--
		c.stir()
	}
}

// stir wakes every worker parked in its stream loop to look again: at what
// its peers have shown, whether any still streams, and whether it is sent
// home.
func (c *crew) stir() {
	for i := range c.trs {
		c.trs[i].poke()
	}
}

// arrive counts a worker in at the current meeting.
func (c *crew) arrive() {
	c.pending--
	if c.pending == 0 && !c.met.Fired() {
		c.met.Trigger(nil)
	}
}

// gather is a worker's side of the open meeting, which the last worker to
// arrive releases: it reports whether the recovery goes on.
func (c *crew) gather(w *cluster.Process) bool {
	c.opening--
	if c.opening == 0 && !c.opened.Fired() {
		c.opened.Trigger(nil)
	}
	c.opened.Wait(w.Sim())
	return !c.home
}

// barrier is a worker's side of the meeting after analysis: it reports
// whether the recovery goes on.
func (c *crew) barrier(w *cluster.Process) bool {
	c.arrive()
	c.resume.Wait(w.Sim())
	return !c.home
}

// dismiss sends the workers home: those waiting at a meeting now, and the
// rest as they reach one.
func (c *crew) dismiss() {
	c.home = true
	c.stir()
	if !c.opened.Fired() {
		c.opened.Trigger(nil)
	}
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
// image, each trail reader's for its trail. Every replica the reader reads is
// read into it and validated there; what the recovery keeps of a trail is
// copied out of it a record-aligned segment at a time, before the next read
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
// as each chunk lands, and once, after the barrier, to redo.
func FromDisk(p *cluster.Process, volumes []*disk.Volume, opts Options) (Report, *Rebuilt, error) {
	return fromDisk(p, volumes, opts, nodeCPUs(p.Cluster()))
}

func fromDisk(p *cluster.Process, volumes []*disk.Volume, opts Options, cpus []*cluster.CPU) (Report, *Rebuilt, error) {
	opts.defaults()
	var rep Report
	start := p.Now()
	open := func(_ *cluster.Process, i int) (trailLog, error) { return diskLog{volumes[i]}, nil }
	rb, err := recoverStreams(p, cpus, opts, len(volumes), open, new(analysis), true, &rep)
	if err != nil {
		return rep, nil, err
	}
	rep.MTTR = p.Now() - start
	return rep, rb, nil
}

// step is audit.Cursor.Step into the scratch, grown to hold the next chunk.
func step(c *audit.Cursor, sc *scratch, size int64, opts Options, src audit.ChunkReader) (settled bool, err error) {
	end := min(c.Off+int64(opts.ChunkBytes), size)
	sc.reserve(int(c.Off), int(end))
	if settled, err = c.Step(sc.buf[:end], size, src); err != nil {
		return false, fmt.Errorf("%w: %v", ErrNoLog, err)
	}
	return settled, nil
}

// FromPM recovers from NPMU-resident log regions via the PM client
// library, consulting the TCB region for outcomes so a single pass
// suffices; as in FromDisk, one worker per trail, on the node's CPUs, opens
// its region from its own CPU, reads it and works on it as it lands. The
// caller provides a recovery process bound to a cluster with a live PMM
// (restarted after the crash), the PM volume handle, the log region names,
// and the TCB region name ("" to force the two-pass disk-style analysis over
// PM, for apples-to-apples ablation). A log region the PMM has never heard
// of is an empty trail, not an error. Each region is read from both devices
// of its mirrored pair, and the replica audit.Prefer picks is kept; one that
// cannot be read is skipped as long as its partner is readable.
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
			for off := 0; err == nil && off < len(img); off += opts.ChunkBytes {
				err = r.Read(p, int64(off), img[off:min(off+opts.ChunkBytes, len(img))])
			}
			if err == nil {
				rep.BytesRead += r.Size()
				tmf.ScanTCBs(img, an.decide)
				rep.UsedTCB = true
			}
			stable.HandOn(sc.buf)
			r.Close(p)
		}
	}

	open := func(w *cluster.Process, i int) (trailLog, error) {
		name := logRegions[i]
		r, err := vol.Open(w, name)
		if errors.Is(err, pmm.ErrNotFound) {
			// The PMM answered and has no such region: the log's writer died
			// before its first append created it, so the trail is empty. An
			// unreachable PMM is any other error and stays ErrNoLog.
			return nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrNoLog, name, err)
		}
		return pmLog{r}, nil
	}

	// Without control blocks the outcome-discovery pass is charged. With
	// them the single pass is charged in redo, and trail outcomes still
	// override the TCB table: a bounded, wrapping structure sized for
	// *concurrent* transactions (its job is naming the in-flight ones
	// without a search), whose slots may have been overwritten.
	rb, err := recoverStreams(p, cpus, opts, len(logRegions), open, an, !rep.UsedTCB, &rep)
	if err != nil {
		return rep, nil, err
	}
	if rep.UsedTCB {
		// Fine-grained knowledge: control blocks name in-flight
		// transactions even when none of their audit reached the durable
		// trail — no heuristic log search required.
		rep.InFlight += an.activeUnseen()
	}
	rep.MTTR = p.Now() - start
	return rep, rb, nil
}
