// Package dp2 implements the database writer — NSK's disk process (DP2).
// Each DP2 is a process pair owning one partition of one key-sequenced
// file on one data volume. It applies inserts to its in-memory cache
// (a B-tree), generates audit deltas for the log writer, checkpoints every
// externalized change to its backup, holds row locks for concurrency
// control, and destages dirty data to its volume asynchronously so that
// data-volume I/O stays off the commit path (§1.2, §2).
package dp2

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"unsafe"

	"persistmem/internal/adp"
	"persistmem/internal/audit"
	"persistmem/internal/btree"
	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/locks"
	"persistmem/internal/metrics"
	"persistmem/internal/pmclient"
	"persistmem/internal/sim"
)

// DP2 errors.
var (
	// ErrDuplicateKey means an insert hit an existing row.
	ErrDuplicateKey = errors.New("dp2: duplicate key")
	// ErrNotFound means a read missed.
	ErrNotFound = errors.New("dp2: key not found")
	// ErrNoTxn means a data operation referenced an unknown transaction.
	ErrNoTxn = errors.New("dp2: unknown transaction")
	// ErrBodyTooLarge means an insert's body is bodyLimit bytes or more,
	// too long for a cached row's length word.
	ErrBodyTooLarge = errors.New("dp2: body too large")
	// ErrLogLost means a PMDirect takeover's log cannot rebuild its image.
	ErrLogLost = errors.New("dp2: PM log cannot rebuild the image")
)

// Mode selects how a DP2 makes its changes durable.
type Mode int

// DP2 durability modes.
const (
	// Classic sends audit deltas to a log writer (the paper's prototype,
	// in both its disk and PM variants — the ADP decides which).
	Classic Mode = iota
	// PMDirect implements §3.4's vision: "newly inserted rows ... would
	// be made persistent once when they enter the database writer, by
	// synchronously writing to the NPMU." Each insert's after-image is
	// written straight to this DP2's own PM log region; no audit flows to
	// any log writer, and the backup checkpoint carries only counters —
	// a takeover or restart rebuilds the cache from the PM log.
	PMDirect
)

// Config describes one DP2 instance.
type Config struct {
	// Name is the service name (e.g. "$DP-TRADES-2").
	Name string
	// File and Partition identify the key-sequenced file partition.
	File      string
	Partition uint16
	// PrimaryCPU and BackupCPU place the process pair.
	PrimaryCPU, BackupCPU int
	// Volume is the data volume holding this partition.
	Volume *disk.Volume
	// Mode selects Classic (audit via ADPName) or PMDirect (audit written
	// by this DP2 straight to persistent memory).
	Mode Mode
	// ADPName is the log writer receiving this DP2's audit (Classic).
	ADPName string
	// PMVolume names the PM volume for PMDirect mode; PMRegionSize sizes
	// this DP2's log region within it.
	PMVolume     string
	PMRegionSize int64

	// RetainData keeps row bodies in the cache; benchmark runs disable it
	// to avoid materializing gigabytes (timing is unaffected).
	RetainData bool
	// Metrics, when set, attaches span instruments (insert, checkpoint,
	// audit send, lock wait, PM write) to this DP2. Nil costs nothing.
	Metrics *metrics.Registry
}

// CPU costs of the database writer: per insert (marshalling, cache update,
// audit generation), per read, and per transaction end.
const (
	insertCPU = 25 * sim.Microsecond
	readCPU   = 15 * sim.Microsecond
	endCPU    = 5 * sim.Microsecond
)

// Calibration of the database writer, the same for every DP2.
const (
	// auditSendBytes forwards buffered audit to the ADP once it reaches this
	// size; commit forces the remainder.
	auditSendBytes = 24 << 10
	// lockTimeout bounds row-lock waits (deadlock resolution).
	lockTimeout = 500 * sim.Millisecond
	// writebackInterval and writebackBudget shape the background destage of
	// dirty data to the volume: one batch of at most writebackBudget bytes an
	// interval. writebackBudget is also the size of zeroBlock.
	writebackInterval = 100 * sim.Millisecond
	writebackBudget   = 2 << 20
)

// zeroBlock is what a DP2 that keeps no row bodies destages: its batch is
// all zeros by construction, so it writes a slice of this block instead of
// growing a buffer of its own. Nothing writes to it — Volume.Write only
// reads its data — so engines on other goroutines share it without a race.
var zeroBlock [writebackBudget]byte

// protocol messages
//
// A message is a box: it is sent as a pointer, its sender owns it from the
// send to the reply, the server writes the response into its Resp field and
// replies with the box itself. A box whose call failed or timed out is never
// reused, so a late reply writes only into a box nobody reads.
type (
	// InsertReq inserts a row under a transaction.
	InsertReq struct {
		Txn  audit.TxnID
		Key  uint64
		Body []byte
		Resp InsertResp
	}
	// InsertResp acknowledges an insert (applied and backup-protected,
	// not yet durable — durability happens at commit).
	InsertResp struct {
		Err error
	}
	// ReadReq reads a row; Txn 0 is a browse (lock-free) read, otherwise
	// a Shared lock is taken and held until the transaction ends.
	ReadReq struct {
		Txn  audit.TxnID
		Key  uint64
		Resp ReadResp
	}
	// ReadResp carries the row.
	ReadResp struct {
		Body []byte
		Err  error
	}
	// FlushAuditReq pushes this DP2's pending audit to its ADP (commit
	// preparation). Prepare additionally writes a durable prepare record
	// for Txn — this participant's vote in a cross-shard two-phase
	// commit: all of the transaction's data records on this shard are
	// durable once the flush covers it.
	FlushAuditReq struct {
		Txn     audit.TxnID
		Prepare bool
		Resp    FlushAuditResp
	}
	// FlushAuditResp names the ADP and the LSN the trail must be durable
	// through for the transaction to commit.
	FlushAuditResp struct {
		ADP string
		LSN audit.LSN
		Err error
	}
	// EndTxnReq finishes a transaction at this DP2: release its locks,
	// and on abort undo its inserts. The reply is the bare box.
	EndTxnReq struct {
		Txn    audit.TxnID
		Commit bool
	}
	// StateReq asks for a Stats snapshot.
	StateReq struct {
		Resp Stats
	}
)

// Stats describes a DP2's activity.
type Stats struct {
	Inserts       int64
	InsertBytes   int64
	Reads         int64
	Aborted       int64 // inserts undone by aborts
	AuditSends    int64
	AuditBytes    int64
	Writebacks    int64
	WrittenBack   int64 // bytes destaged
	LockTimeouts  int64
	CacheRows     int
	DirtyBytes    int64
	DuplicateKeys int64
	// PMDirect-mode counters: synchronous writes into this DP2's own PM
	// log region, and cache rebuilds performed at takeover.
	PMLogWrites int64
	PMLogBytes  int64
	PMRebuilds  int64
	// EndRecordErrors counts the PMDirect End records whose PM log write
	// failed. The end is applied and acknowledged all the same; a takeover
	// rebuilding from that log does not see the outcome.
	EndRecordErrors int64
	// RegionErr is why the latest incarnation could not open or rebuild from
	// its PM log region (PMDirect mode), after which the pair retired.
	RegionErr error
}

// insertDelta is the checkpoint unit: one externalized change.
type insertDelta struct {
	txn  audit.TxnID
	key  uint64
	body []byte
	blen int
}

// endDelta checkpoints a transaction end.
type endDelta struct {
	txn    audit.TxnID
	commit bool
}

// row is one record in the disk process cache, stored by value in its
// B-tree leaf. The cache holds the whole image: a destaged row stays, so
// every read is served from memory and none from the data volume.
//
// A row has no address of its own: a leaf split, lend or shift moves it, so
// no *row (from btree.Tree.Ref) is held across a park or a tree Set or
// Delete. What must find a row again after a park — the destager after its
// volume write — names it by key and stamp: the stamp tells the row inserted
// under a key from one inserted there after an abort.
//
// A row is 16 bytes, so its leaf item is 24 and a full leaf one 1 536-byte
// block (see btree's maxKeys). The dirty flag is the top bit of the length
// word, read through blen and dirty; the length fits the other 31 bits
// because insertTail refuses a body of bodyLimit bytes or more.
type row struct {
	data  *byte  // first byte of the payload when retained, else nil
	word  uint32 // body length in the low 31 bits; dirtyBit while not yet destaged
	stamp uint32 // the state's insert count at this row's insert
}

// dirtyBit marks a row's length word while the row is not yet destaged to
// the volume; bodyLimit is the first body length the other 31 bits cannot
// hold.
const (
	dirtyBit  = 1 << 31
	bodyLimit = dirtyBit
)

// bodyFits reports whether a body of n bytes fits a row's length word.
func bodyFits(n int) bool { return uint64(n) < bodyLimit }

// blen returns the row's body length, the width an audit record gives it.
//
//simlint:hotpath
func (r *row) blen() uint32 { return r.word &^ dirtyBit }

// dirty reports whether the row is not yet destaged to the volume.
//
//simlint:hotpath
func (r *row) dirty() bool { return r.word&dirtyBit != 0 }

// clean marks the row destaged.
//
//simlint:hotpath
func (r *row) clean() { r.word &^= dirtyBit }

// setBody retains b as the row's payload; the length word must already
// hold len(b). The pointer keeps b's array alive exactly as the slice did.
//
//simlint:hotpath
func (r *row) setBody(b []byte) { r.data = unsafe.SliceData(b) }

// body returns the retained payload, or nil when the row keeps none. Every
// data pointer was set from a slice of blen bytes, so the slice it rebuilds
// is that one.
//
//simlint:hotpath
func (r *row) body() []byte {
	if r.data == nil {
		return nil
	}
	return unsafe.Slice(r.data, r.blen())
}

// queueEnt names a queued row by key and stamp, so queue consumers can skip
// entries whose row has since been aborted or replaced (abort + reinsert),
// and carries the row's length for batch assembly. It holds no pointer: the
// queues pin nothing, and the garbage collector does not scan them.
type queueEnt struct {
	key   uint64
	blen  uint32
	stamp uint32
}

// entQueue is a FIFO of queue entries held in blocks, oldest first. A push
// fills the last block and starts a new one when it is full, so no push
// copies what is already queued, and a queue a takeover rebuilds in one go
// costs its length once. An exhausted full-size block is kept as the one
// spare, so a primary's steady insert/destage churn allocates nothing.
type entQueue struct {
	blocks [][]queueEnt // pushes fill the last; blocks before it are full
	head   int          // next entry to pop in blocks[0]
	n      int          // entries queued
	spare  []queueEnt   // one exhausted entBlockMax block, empty
}

// A block holds 2^k entries, from entBlockMin up to entBlockMax, each block
// twice the one before it. An entry is 16 B and pointer-free, so a block is
// a power-of-two size class exactly: entBlockMax's 2048 × 16 B is 32 KiB, the
// largest small object.
const (
	entBlockMin = 16
	entBlockMax = 2048
)

//simlint:hotpath
func (q *entQueue) len() int { return q.n }

//simlint:hotpath
func (q *entQueue) front() *queueEnt { return &q.blocks[0][q.head] }

//simlint:hotpath
func (q *entQueue) pop() queueEnt {
	b := q.blocks[0]
	e := b[q.head]
	q.head++
	q.n--
	switch {
	case q.n == 0:
		// Empty: only this block is left, and it is refilled from its start.
		q.blocks[0], q.head = b[:0], 0
	case q.head == len(b):
		if cap(b) == entBlockMax && q.spare == nil {
			q.spare = b[:0]
		}
		k := copy(q.blocks, q.blocks[1:])
		q.blocks[k] = nil
		q.blocks, q.head = q.blocks[:k], 0
	}
	return e
}

//simlint:hotpath
func (q *entQueue) push(e queueEnt) {
	last := len(q.blocks) - 1
	if last < 0 || len(q.blocks[last]) == cap(q.blocks[last]) {
		q.blocks = append(q.blocks, q.newBlock())
		last++
	}
	q.blocks[last] = append(q.blocks[last], e)
	q.n++
}

// newBlock returns an empty block for the tail: the next capacity on the
// ladder past the current tail's, the spare when that is entBlockMax.
func (q *entQueue) newBlock() []queueEnt {
	c := entBlockMin
	if k := len(q.blocks); k > 0 {
		for c <= cap(q.blocks[k-1]) && c < entBlockMax {
			c *= 2
		}
	}
	if c == entBlockMax && q.spare != nil {
		b := q.spare
		q.spare = nil
		return b
	}
	return make([]queueEnt, 0, c)
}

// prepend re-queues a failed batch ahead of the remaining entries. Only
// the volume-down retry path uses it. A batch just popped from the front
// block goes back into the slots it left; otherwise the batch and the rest
// of the front block become a new front block.
func (q *entQueue) prepend(ents []queueEnt) {
	if len(ents) == 0 {
		return
	}
	if len(q.blocks) == 0 {
		q.blocks = append(q.blocks, nil)
	}
	if q.head >= len(ents) {
		q.head -= len(ents)
		copy(q.blocks[0][q.head:], ents)
	} else {
		rest := q.blocks[0][q.head:]
		nb := make([]queueEnt, 0, len(ents)+len(rest))
		q.blocks[0], q.head = append(append(nb, ents...), rest...), 0
	}
	q.n += len(ents)
}

// dpState is the disk process's volatile image, mirrored at the backup by
// absorbing deltas.
type dpState struct {
	tree *btree.Tree[row]
	undo map[audit.TxnID][]uint64 //simlint:boxowner -- live txns own their undo slices
	// undofree recycles per-transaction undo slices: one is retired every
	// transaction end and reborn at the next transaction's first insert.
	undofree [][]uint64 //simlint:box -- per-txn undo-slice pool

	dirty int64 // bytes not yet destaged
	alloc int64 // next volume offset for destage

	// dirtyq names the rows awaiting destage, in insert order. Only a
	// serving image queues: a backup's absorbed image keeps none, and an
	// incarnation that starts from one rebuilds it (requeue).
	dirtyq entQueue

	// stamp counts the inserts applied to this image; each row keeps the
	// count at its own. At 32 bits no two rows of one key share a stamp in
	// any run.
	stamp uint32

	// lsn is the next PM log offset (PMDirect mode). It is the only state
	// a PMDirect checkpoint needs to carry: the data itself is already
	// persistent.
	lsn audit.LSN
}

// lsnDelta is the PMDirect checkpoint unit.
type lsnDelta struct{ lsn audit.LSN }

func newState() *dpState {
	return &dpState{tree: btree.New[row](), undo: make(map[audit.TxnID][]uint64)}
}

// live returns the row e was queued for, or nil when its key was deleted or
// holds a later row since. The pointer is valid until the next tree Set or
// Delete.
//
//simlint:hotpath
func (st *dpState) live(e queueEnt) *row {
	if r := st.tree.Ref(e.key); r != nil && r.stamp == e.stamp {
		return r
	}
	return nil
}

// clone returns a copy of st that shares nothing it writes: the tree and
// every undo slice are its own. Row bodies are shared, as nothing writes
// one. The copy's queue is empty, as the image it copies keeps none.
func (st *dpState) clone() *dpState {
	c := newState()
	c.dirty, c.alloc, c.stamp, c.lsn = st.dirty, st.alloc, st.stamp, st.lsn
	st.tree.Ascend(0, ^uint64(0), func(it btree.Item[row]) bool {
		c.tree.Set(it.Key, it.Value)
		return true
	})
	//simlint:ordered -- each iteration writes its own key, nothing else
	for txn, u := range st.undo {
		c.undo[txn] = slices.Clone(u)
	}
	return c
}

// requeue rebuilds the destage queue of an image that keeps none: every
// dirty row, in stamp order. A stamp is the image's insert count, so this
// is insert order: the entries a queue pushed at every insert would hold
// that still name a live dirty row.
func (st *dpState) requeue() {
	ents := make([]queueEnt, 0, st.tree.Len()) // a backup never cleans a row
	st.tree.Ascend(0, ^uint64(0), func(it btree.Item[row]) bool {
		if it.Value.dirty() {
			ents = append(ents, queueEnt{key: it.Key, blen: it.Value.blen(), stamp: it.Value.stamp})
		}
		return true
	})
	slices.SortFunc(ents, func(a, b queueEnt) int { return cmp.Compare(a.stamp, b.stamp) })
	for _, e := range ents {
		st.dirtyq.push(e)
	}
}

// insert applies one insert at the serving image and queues its row for
// the destager.
//
//simlint:hotpath
func (st *dpState) insert(d insertDelta, retain bool) {
	st.applyInsert(d, retain)
	st.dirtyq.push(queueEnt{key: d.key, blen: uint32(d.blen), stamp: st.stamp})
}

// applyInsert folds one insert into the state image. A body too long for
// the row's length word panics: the primary refuses one before it gets
// here, so only a corrupt audit record replayed from the PM log can carry
// one, and truncating it would corrupt the image silently.
//
//simlint:hotpath
func (st *dpState) applyInsert(d insertDelta, retain bool) {
	if !bodyFits(d.blen) {
		//simlint:allow hotalloc -- an unrepresentable body, fatal
		panic(fmt.Sprintf("dp2: key %d: a %d-byte body does not fit a row's %d-byte limit", d.key, d.blen, bodyLimit-1))
	}
	st.stamp++
	r := row{word: uint32(d.blen) | dirtyBit, stamp: st.stamp}
	if retain {
		r.setBody(d.body)
	}
	st.tree.Set(d.key, r)
	u, ok := st.undo[d.txn]
	if !ok {
		if n := len(st.undofree); n > 0 {
			u = st.undofree[n-1]
			st.undofree = st.undofree[:n-1]
		}
	}
	st.undo[d.txn] = append(u, d.key)
	st.dirty += int64(d.blen)
}

// applyEnd folds a transaction end into the state image.
//
//simlint:hotpath
func (st *dpState) applyEnd(d endDelta) {
	u, had := st.undo[d.txn]
	if !d.commit {
		for _, k := range u {
			if r, ok := st.tree.Get(k); ok {
				st.drop(k, r)
			}
		}
	}
	delete(st.undo, d.txn)
	if had && cap(u) > 0 {
		st.undofree = append(st.undofree, u[:0])
	}
}

// drop deletes r, the row under key, taking its bytes off the dirty count
// while it is still dirty.
//
//simlint:hotpath
func (st *dpState) drop(key uint64, r row) {
	if r.dirty() {
		st.dirty -= int64(r.blen())
	}
	st.tree.Delete(key)
}

// DP2 is a running disk process pair.
type DP2 struct {
	cl   *cluster.Cluster
	cfg  Config
	pair *cluster.Pair

	// wbKick wakes the current incarnation's destager.
	wbKick *sim.Chan
	// pmlog is the current incarnation's PM log region (PMDirect mode).
	pmlog *pmclient.Region

	// Free lists for the boxes the insert/commit path would otherwise
	// allocate per operation: checkpoint deltas (recycled by the sender
	// once the checkpoint succeeded — absorb has copied them out by then)
	// and audit append requests (recycled once the ADP replied).
	// Per-instance, never global: the parallel harness runs engines on
	// separate goroutines.
	insfree []*insertDelta   //simlint:box -- insert-delta pool
	endfree []*endDelta      //simlint:box -- end-delta pool
	lsnfree []*lsnDelta      //simlint:box -- LSN-delta pool
	appfree []*adp.AppendReq //simlint:box -- audit append-request pool

	// waiterName names the lock waiters, built once (string concat
	// allocates per spawn).
	waiterName string

	// Instrument pointers, nil when unmetered (Record nil-short-circuits).
	mInsert     *metrics.LatencyHist
	mCheckpoint *metrics.LatencyHist
	mAuditSend  *metrics.LatencyHist
	mPM         *metrics.PMSpans
	// txns receives protocol events (prepare votes, outcome applies) for
	// the atomicity checker.
	txns *metrics.TxnStream

	stats Stats
}

//simlint:hotpath
func (d *DP2) newInsertDelta(v insertDelta) *insertDelta {
	if n := len(d.insfree); n > 0 {
		dl := d.insfree[n-1]
		d.insfree = d.insfree[:n-1]
		*dl = v
		return dl
	}
	dl := new(insertDelta)
	*dl = v
	return dl
}

//simlint:hotpath
func (d *DP2) newEndDelta(v endDelta) *endDelta {
	if n := len(d.endfree); n > 0 {
		dl := d.endfree[n-1]
		d.endfree = d.endfree[:n-1]
		*dl = v
		return dl
	}
	dl := new(endDelta)
	*dl = v
	return dl
}

//simlint:hotpath
func (d *DP2) newLSNDelta(v lsnDelta) *lsnDelta {
	if n := len(d.lsnfree); n > 0 {
		dl := d.lsnfree[n-1]
		d.lsnfree = d.lsnfree[:n-1]
		*dl = v
		return dl
	}
	dl := new(lsnDelta)
	*dl = v
	return dl
}

//simlint:hotpath
func (d *DP2) newAppendReq(data []byte) *adp.AppendReq {
	if n := len(d.appfree); n > 0 {
		r := d.appfree[n-1]
		d.appfree = d.appfree[:n-1]
		r.Data = data
		return r
	}
	return &adp.AppendReq{Data: data}
}

// RegionName returns the PM log region name a PMDirect DP2 uses.
func (d *DP2) RegionName() string { return d.cfg.Name + "-log" }

// Start launches the DP2 process pair.
func Start(cl *cluster.Cluster, cfg Config) *DP2 {
	if cfg.Volume == nil {
		panic("dp2: volume required")
	}
	switch cfg.Mode {
	case Classic:
		if cfg.ADPName == "" {
			panic("dp2: ADP name required in Classic mode")
		}
	case PMDirect:
		if cfg.PMVolume == "" {
			panic("dp2: PM volume required in PMDirect mode")
		}
		if cfg.PMRegionSize == 0 {
			cfg.PMRegionSize = 16 << 20
		}
	}
	d := &DP2{cl: cl, cfg: cfg}
	if cfg.Metrics != nil {
		d.mInsert = cfg.Metrics.DP2.Insert
		d.mCheckpoint = cfg.Metrics.DP2.Checkpoint
		d.mAuditSend = cfg.Metrics.DP2.AuditSend
		d.mPM = cfg.Metrics.PM
		d.txns = cfg.Metrics.Commit
	}
	d.waiterName = cfg.Name + "-waiter"
	d.pair = cl.StartPairAbsorb(cfg.Name, cfg.PrimaryCPU, cfg.BackupCPU, d.serve, d.absorb)
	return d
}

// Name returns the DP2 service name.
func (d *DP2) Name() string { return d.cfg.Name }

// ADPName returns the log writer this DP2 audits to.
func (d *DP2) ADPName() string { return d.cfg.ADPName }

// Pair returns the process pair, for fault injection.
func (d *DP2) Pair() *cluster.Pair { return d.pair }

// Stats returns a snapshot of activity counters.
func (d *DP2) Stats() Stats { return d.stats }

// Stop shuts the DP2 down.
func (d *DP2) Stop() { d.pair.Stop() }

// absorb folds checkpoint deltas into the backup's state image.
func (d *DP2) absorb(cur, delta interface{}) interface{} {
	st, _ := cur.(*dpState)
	if st == nil {
		st = newState()
	}
	switch dl := delta.(type) {
	case *insertDelta:
		st.applyInsert(*dl, d.cfg.RetainData)
	case *endDelta:
		st.applyEnd(*dl)
	case *lsnDelta:
		st.lsn = dl.lsn
	case *dpState:
		st = dl // full-state resync
	}
	return st
}

// serve is the DP2 primary's body.
func (d *DP2) serve(ctx *cluster.PairCtx) {
	// A takeover serves a copy: the held image stays the pair's, and an
	// unprotected checkpoint still absorbs into it.
	st := newState()
	if ctx.Restored != nil {
		st = ctx.Restored.(*dpState).clone()
	}
	lm := locks.NewManager(ctx.Cluster().Engine(), d.cfg.Name)
	if d.cfg.Metrics != nil {
		lm.SetMetrics(d.cfg.Metrics.Locks)
	}

	if d.cfg.Mode == PMDirect {
		var err error
		d.pmlog, err = pmclient.Attach(d.cl, d.cfg.PMVolume).OpenOrCreate(ctx.Process, d.RegionName(), d.cfg.PMRegionSize, d.mPM)
		if err == nil && st.tree.Len() == 0 && st.lsn > 0 {
			// Takeover with counters-only state: rebuild the cache image
			// from the persistent log (§3.4 — the state was written once,
			// to PM, and any incarnation can reload it).
			err = d.rebuildFromPM(ctx.Process, st)
		}
		if d.stats.RegionErr = err; err != nil {
			return // PM volume unreachable, or no whole image in it; pair retires
		}
	}
	st.requeue() // a restored or rebuilt image comes without its queue

	// Background destager: kicked when dirty data appears, one batched
	// sequential write per interval while any remains, blocked when idle
	// (so a quiescent store has no pending events).
	kick := ctx.Cluster().Engine().NewBoundedChan(d.cfg.Name+"-wbkick", 1)
	d.wbKick = kick
	wb := ctx.CPU().Spawn(d.cfg.Name+"-wb", func(p *cluster.Process) {
		d.writeback(p, st, kick)
	})
	ctx.Sim().OnExit(func() { wb.Kill() })
	if st.dirty > 0 {
		kick.TrySend(nil) // drain the backlog a takeover restored
	}

	// From here on the primary is its request script: it parks for good and
	// the dispatcher walks each request's legs. A kill unwinds it out of
	// Serve, and the guard releases the leg in flight.
	r := d.newRequest(ctx.Process, st, lm)
	defer r.abort()
	ctx.Inbox().ServeLegs(ctx.Sim(), r)
}

// rebuildFromPM reloads the cache image by replaying this DP2's PM log up to
// the checkpointed LSN — the PMDirect takeover path. It reads each replica,
// 256 KiB a read, into a buffer of its own and replays the one audit.Prefer
// picks. A log that cannot rebuild the whole image is ErrLogLost: no replica
// reads, the ring wrapped (the LSN is past its size), or the best valid
// prefix ends short of the LSN.
func (d *DP2) rebuildFromPM(p *cluster.Process, st *dpState) error {
	end, name := int64(st.lsn), d.RegionName()
	if end > d.pmlog.Size() {
		return fmt.Errorf("%w: %s: the ring wrapped: LSN %d is past its %d bytes", ErrLogLost, name, end, d.pmlog.Size())
	}
	var img []byte
	var readErr error
	best, bestRep := -1, 0
	for replica := 0; replica < d.pmlog.Replicas(); replica++ {
		buf := make([]byte, end)
		src := audit.ChunkFunc(func(off int64, b []byte) error { return d.pmlog.ReadReplica(p, replica, off, b) })
		var c audit.Cursor
		var err error
		for settled := false; !settled && err == nil; {
			settled, err = c.Step(buf[:min(c.Off+256<<10, end)], end, src)
		}
		if err != nil {
			readErr = err
		} else if audit.Prefer(c.Valid, replica, best, bestRep) {
			img, best, bestRep = buf[:c.Valid], c.Valid, replica
		}
	}
	switch {
	case best < 0:
		return fmt.Errorf("%w: %s: no replica reads: %v", ErrLogLost, name, readErr)
	case int64(best) < end:
		return fmt.Errorf("%w: %s: replica %d's valid prefix ends at %d, short of LSN %d", ErrLogLost, name, bestRep, best, end)
	}
	s := audit.NewScanner(img)
	for s.Next() {
		rec := s.Record()
		switch rec.Type {
		case audit.RecInsert:
			// rec.Body aliases img, capacity clipped at the frame: img is
			// this rebuild's own and nothing else writes it, so a retained
			// row keeps its slice of img.
			st.applyInsert(insertDelta{
				txn: rec.Txn, key: rec.Key, body: rec.Body, blen: len(rec.Body),
			}, d.cfg.RetainData)
		case audit.RecCommit:
			st.applyEnd(endDelta{txn: rec.Txn, commit: true})
		case audit.RecAbort:
			st.applyEnd(endDelta{txn: rec.Txn, commit: false})
		}
	}
	d.stats.PMRebuilds++
	return nil
}

// writeback is the destager loop: blocked while there is nothing dirty,
// then one batched sequential volume write per interval until drained.
// Rows are destaged in insert order; each batch is one contiguous volume
// write whose contents are the concatenated row bodies. A destaged row
// stays in the cache, clean.
//
// The batch is assembled first and the write buffer sized to it
// (destageBufLen), so a destager allocates what its load needs: nothing
// while idle, a few KB under a trickle. A DP2 that keeps no bodies needs
// none: it writes a slice of zeroBlock.
func (d *DP2) writeback(p *cluster.Process, st *dpState, kick *sim.Chan) {
	var buf []byte       // grown to the largest batch so far
	var batch []queueEnt // reused across batches
	for {
		kick.Recv(p.Sim())
		for st.dirty > 0 {
			p.Wait(writebackInterval)

			// Assemble one batch of queued dirty rows, up to the budget. A
			// row larger than the budget is destaged alone rather than
			// wedging the queue.
			batchStart := st.alloc
			if batchStart+writebackBudget > d.cfg.Volume.Capacity() {
				batchStart = 0
			}
			// The budget is checked against the front entry's length, a stale
			// entry's too.
			var n int64
			batch = batch[:0]
			for st.dirtyq.len() > 0 && (n == 0 || n+int64(st.dirtyq.front().blen) <= writebackBudget) {
				ent := st.dirtyq.pop()
				if r := st.live(ent); r == nil || !r.dirty() {
					continue // aborted or replaced since queueing
				}
				n += int64(ent.blen)
				batch = append(batch, ent)
			}
			if n == 0 {
				// Queue drained of valid entries; accounting catches up.
				st.dirty = 0
				break
			}
			var out []byte
			if !d.cfg.RetainData && n <= int64(len(zeroBlock)) {
				out = zeroBlock[:n]
			} else {
				if n > int64(len(buf)) {
					buf = make([]byte, destageBufLen(int64(len(buf)), n, writebackBudget))
				}
				var off int64
				for _, ent := range batch {
					r, _ := st.tree.Get(ent.key) // no park since assembly: every batch row is live
					copy(buf[off:], r.body())
					off += int64(ent.blen)
				}
				out = buf[:n]
			}
			if err := d.cfg.Volume.Write(p.Sim(), batchStart, out); err != nil {
				// Volume down: requeue and retry next interval.
				st.dirtyq.prepend(batch)
				continue
			}
			// The write parked: a batch row may have moved in the tree, or
			// been aborted — its bytes already left the dirty count — and
			// its key reinserted. Only rows still live by key and stamp are
			// marked clean.
			for _, ent := range batch {
				if r := st.live(ent); r != nil && r.dirty() {
					r.clean()
					st.dirty -= int64(ent.blen)
				}
			}
			st.alloc = batchStart + n
			d.stats.Writebacks++
			d.stats.WrittenBack += n
		}
	}
}

// destageBufLen sizes the destage buffer that replaces one of have bytes
// too small for a need-byte batch: at least double, so a ramping load
// reallocates O(log) times, but never past the batch budget — only a single
// row larger than the budget gets a larger buffer, sized to that row.
func destageBufLen(have, need, budget int64) int64 {
	return min(max(need, 2*have), max(need, budget))
}
