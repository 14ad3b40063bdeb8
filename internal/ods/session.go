package ods

import (
	"errors"
	"fmt"
	"sort"

	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/dp2"
	"persistmem/internal/metrics"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

// Session errors.
var (
	// ErrTxnDone means the handle's transaction already ended, or a later
	// Begin on its session took its place.
	ErrTxnDone = errors.New("ods: transaction already ended")
	// ErrInsertFailed wraps insert completion failures discovered at
	// WaitPending/Commit time.
	ErrInsertFailed = errors.New("ods: insert failed")
	// ErrUnknownFile means the file is not configured in the store.
	ErrUnknownFile = errors.New("ods: unknown file")
)

// Session is a client binding between one process and the store. A
// session runs one transaction at a time (the RTC pattern of §2).
type Session struct {
	s *Store
	p *cluster.Process

	// txns is the store registry's per-transaction stream (nil when the
	// store has no metrics attached; Record nil-short-circuits).
	txns *metrics.TxnStream

	// Per-session scratch, reused across the one-at-a-time transactions:
	// the involved-DP2 set, the in-flight insert list, and free lists for
	// the request boxes the data plane sends. A request box is recycled
	// only once its reply arrived (the reply is the box itself with the
	// response written into it, and the server is done with it by then); on
	// a call timeout the box may still sit in a server inbox — a late reply
	// would write into it — and is abandoned to the garbage collector
	// instead.
	involved map[string]bool
	pending  []pendingIns
	names    []string
	insfree  []*dp2.InsertReq //simlint:box -- insert-request pool
	rdfree   []*dp2.ReadReq   //simlint:box -- read-request pool
	begfree  []*tmf.BeginReq  //simlint:box -- begin-request pool
	cmtfree  []*tmf.CommitReq //simlint:box -- commit-request pool

	// open is the id of the session's open transaction, 0 when none is: a
	// Txn acts only while its id is this, so an ended or stale handle — a
	// copy, or one kept across a later Begin — gets ErrTxnDone.
	open audit.TxnID
	// insErr is why the open transaction is poisoned: the first InsertAsync
	// that never reached a DP2, so Commit must abort instead of committing
	// without that write. Begin clears it.
	insErr error

	// twoPhase opts this session's multi-shard commits into the
	// cross-shard outcome-record protocol (see tmf.CommitReq.TwoPhase).
	// Single-shard commits always take the plain path.
	twoPhase bool
}

// pendingIns pairs an in-flight insert's completion signal with its
// request box so the box can be recycled when the reply arrives.
type pendingIns struct {
	sig *sim.Signal
	req *dp2.InsertReq //simlint:boxowner -- in-flight insert owns its request box until the reply
}

//simlint:hotpath
func (se *Session) newInsertReq() *dp2.InsertReq {
	if n := len(se.insfree); n > 0 {
		r := se.insfree[n-1]
		se.insfree = se.insfree[:n-1]
		return r
	}
	return &dp2.InsertReq{}
}

//simlint:hotpath
func (se *Session) freeInsertReq(r *dp2.InsertReq) {
	*r = dp2.InsertReq{}
	se.insfree = append(se.insfree, r)
}

//simlint:hotpath
func (se *Session) newReadReq() *dp2.ReadReq {
	if n := len(se.rdfree); n > 0 {
		r := se.rdfree[n-1]
		se.rdfree = se.rdfree[:n-1]
		return r
	}
	return &dp2.ReadReq{}
}

//simlint:hotpath
func (se *Session) freeReadReq(r *dp2.ReadReq) {
	*r = dp2.ReadReq{}
	se.rdfree = append(se.rdfree, r)
}

//simlint:hotpath
func (se *Session) newBeginReq() *tmf.BeginReq {
	if n := len(se.begfree); n > 0 {
		r := se.begfree[n-1]
		se.begfree = se.begfree[:n-1]
		return r
	}
	return &tmf.BeginReq{}
}

//simlint:hotpath
func (se *Session) freeBeginReq(r *tmf.BeginReq) {
	*r = tmf.BeginReq{}
	se.begfree = append(se.begfree, r)
}

//simlint:hotpath
func (se *Session) newCommitReq() *tmf.CommitReq {
	if n := len(se.cmtfree); n > 0 {
		r := se.cmtfree[n-1]
		se.cmtfree = se.cmtfree[:n-1]
		return r
	}
	return &tmf.CommitReq{}
}

//simlint:hotpath
func (se *Session) freeCommitReq(r *tmf.CommitReq) {
	r.DP2s, r.Resp = nil, tmf.CommitResp{}
	se.cmtfree = append(se.cmtfree, r)
}

// SetTwoPhase opts the session's multi-shard commits into (or out of)
// the cross-shard two-phase outcome-record protocol. Commits touching a
// single DP2 are unaffected either way.
func (se *Session) SetTwoPhase(on bool) { se.twoPhase = on }

// NewSession binds a client process to the store.
func (s *Store) NewSession(p *cluster.Process) *Session {
	se := &Session{s: s, p: p, involved: make(map[string]bool)}
	if m := s.Opts.Metrics; m != nil {
		se.txns = m.Commit
	}
	return se
}

// Txn is a handle on a transaction, a value that costs no allocation. Its
// state lives in its session (the open id, the involved set, the
// pending-insert list, the poisoning error): a session runs one transaction
// at a time, and a handle acts only while its transaction is the session's
// open one, so an ended handle never races a live one.
type Txn struct {
	sess *Session
	id   audit.TxnID

	// BeginAt is the virtual time the transaction started (for response-
	// time measurement).
	BeginAt sim.Time
}

// Begin starts a transaction.
//
//simlint:hotpath
func (se *Session) Begin() (Txn, error) {
	t0 := se.p.Now()
	req := se.newBeginReq()
	if _, err := se.p.Call(se.s.TMF.Name(), 48, req); err != nil {
		// The monitor may still hold the box: abandoned, not recycled.
		return Txn{}, err
	}
	resp := req.Resp
	se.freeBeginReq(req)
	if resp.Err != nil {
		return Txn{}, resp.Err
	}
	// The txn id only exists now; attribute the pre-call timestamp
	// retroactively so the begin RPC is part of the decomposition.
	se.txns.Record(uint64(resp.Txn), metrics.MarkBeginCall, "", false, t0)
	se.txns.Record(uint64(resp.Txn), metrics.MarkBeginDone, "", false, se.p.Now())
	clear(se.involved)
	se.pending = se.pending[:0]
	se.open, se.insErr = resp.Txn, nil
	return Txn{sess: se, id: resp.Txn, BeginAt: se.p.Now()}, nil
}

// ID returns the transaction id.
func (t Txn) ID() audit.TxnID { return t.id }

// done reports whether the handle may no longer act: its transaction ended,
// or it is not the session's open one (the zero Txn is never open).
//
//simlint:hotpath
func (t Txn) done() bool { return t.sess == nil || t.id != t.sess.open }

// InsertAsync issues an insert without waiting for its completion — the
// benchmark's "asynchronous inserts" (§4.3). Completions are collected by
// WaitPending or Commit. An error here means the insert reached no DP2;
// the transaction is poisoned and its Commit will abort, so a caller that
// fires and forgets still cannot commit without the write.
//
//simlint:hotpath
func (t Txn) InsertAsync(file string, key uint64, body []byte) error {
	if t.done() {
		return ErrTxnDone
	}
	se := t.sess
	names, ok := se.s.dpNames[file]
	if !ok {
		return se.fail(fmt.Errorf("%w: %q", ErrUnknownFile, file)) //simlint:allow hotalloc -- misconfiguration path, cold
	}
	name := names[se.s.PartitionOf(file, key)]
	req := se.newInsertReq()
	req.Txn, req.Key, req.Body = t.id, key, body
	sig, err := se.p.CallAsync(name, 64+len(body), req)
	if err != nil {
		// The send never reached an inbox; the box is immediately reusable.
		// The caller may drop this error (fire-and-forget inserts collected
		// at Commit), so the session remembers it for the transaction.
		se.freeInsertReq(req)
		return se.fail(err)
	}
	se.involved[name] = true
	se.pending = append(se.pending, pendingIns{sig: sig, req: req})
	return nil
}

// fail poisons the open transaction with its first lost insert and hands
// err back for the caller to return.
//
//simlint:hotpath
func (se *Session) fail(err error) error {
	if se.insErr == nil {
		se.insErr = err
	}
	return err
}

// Insert issues an insert and waits for its completion.
func (t Txn) Insert(file string, key uint64, body []byte) error {
	if err := t.InsertAsync(file, key, body); err != nil {
		return err
	}
	return t.WaitPending()
}

// WaitPending collects all outstanding insert completions, returning the
// first failure (the transaction should then be aborted).
//
//simlint:hotpath
func (t Txn) WaitPending() error {
	if t.done() {
		return ErrTxnDone
	}
	var firstErr error
	se := t.sess
	for _, pi := range se.pending {
		if _, err := se.p.AwaitReply(pi.sig); err != nil {
			// Timed out: the DP2 may still hold the request box, so it
			// cannot be recycled.
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: %v", ErrInsertFailed, err) //simlint:allow hotalloc -- insert-failure path, cold
			}
			continue
		}
		if rerr := pi.req.Resp.Err; rerr != nil && firstErr == nil {
			firstErr = fmt.Errorf("%w: %v", ErrInsertFailed, rerr) //simlint:allow hotalloc -- insert-failure path, cold
		}
		se.freeInsertReq(pi.req)
	}
	se.pending = se.pending[:0]
	return firstErr
}

// Read reads a row under this transaction (Shared lock, repeatable read).
func (t Txn) Read(file string, key uint64) ([]byte, error) {
	if t.done() {
		return nil, ErrTxnDone
	}
	return t.sess.read(t.id, file, key)
}

// Commit waits for pending inserts, then drives the commit protocol. On
// any failure — a pending insert's, or an earlier InsertAsync's whose
// insert never reached a DP2 — the transaction is aborted and an error
// returned.
//
//simlint:hotpath
func (t Txn) Commit() error {
	if t.done() {
		return ErrTxnDone
	}
	se := t.sess
	se.txns.Record(uint64(t.id), metrics.MarkCommitCall, "", false, se.p.Now())
	if err := t.WaitPending(); err != nil {
		t.Abort()
		return err
	}
	if se.insErr != nil {
		t.Abort()
		return fmt.Errorf("%w: %v", ErrInsertFailed, se.insErr) //simlint:allow hotalloc -- insert-failure path, cold
	}
	se.open = 0
	req := se.newCommitReq()
	req.Txn, req.DP2s = t.id, se.setToList()
	req.TwoPhase = se.twoPhase && len(req.DP2s) > 1 // always assigned: the box is recycled
	se.txns.Record(uint64(t.id), metrics.MarkCommitSend, "", false, se.p.Now())
	_, err := se.p.Call(se.s.TMF.Name(), 64+16*len(se.involved), req)
	if err != nil {
		// The coordinator may still be using the box; abandon it. The
		// outcome is unknown at the client — the commit record may or may
		// not have become durable — so the ledger files it unresolved.
		se.txns.Record(uint64(t.id), metrics.TxnUnresolved, "", false, se.p.Now())
		return err
	}
	// Reply received — the box itself, carrying the response: the
	// coordinator finished with the request before replying, so the box and
	// its DP2s slice are reusable.
	cerr := req.Resp.Err
	se.names = req.DP2s[:0]
	se.freeCommitReq(req)
	if cerr != nil {
		se.txns.Record(uint64(t.id), metrics.TxnAborted, "", false, se.p.Now())
		return cerr
	}
	se.txns.Record(uint64(t.id), metrics.MarkCommitDone, "", false, se.p.Now())
	return nil
}

// Abort rolls the transaction back.
func (t Txn) Abort() error {
	if t.done() {
		return ErrTxnDone
	}
	t.WaitPending() // drain; outcomes no longer matter
	se := t.sess
	se.open = 0
	req := &tmf.AbortReq{Txn: t.id, DP2s: se.setToList()} // cold: not pooled
	if _, err := se.p.Call(se.s.TMF.Name(), 64+16*len(se.involved), req); err != nil {
		// The abort call itself failed; the monitor will eventually time
		// the transaction out, but the client never saw the outcome.
		se.txns.Record(uint64(t.id), metrics.TxnUnresolved, "", false, se.p.Now())
		return err
	}
	// Even a monitor-side abort error (e.g. the transaction was already
	// resolved by a timeout) is a known not-committed outcome here.
	se.txns.Record(uint64(t.id), metrics.TxnAborted, "", false, se.p.Now())
	return req.Resp.Err
}

// ReadBrowse performs a lock-free (browse access, §1.1) read outside any
// transaction.
func (se *Session) ReadBrowse(file string, key uint64) ([]byte, error) {
	return se.read(0, file, key)
}

// read reads key under txn, or as a browse when txn is 0.
func (se *Session) read(txn audit.TxnID, file string, key uint64) ([]byte, error) {
	names, ok := se.s.dpNames[file]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFile, file)
	}
	name := names[se.s.PartitionOf(file, key)]
	req := se.newReadReq()
	req.Txn, req.Key = txn, key
	if _, err := se.p.Call(name, 64, req); err != nil {
		// The DP2 may still hold the box: abandoned, not recycled.
		return nil, err
	}
	resp := req.Resp
	se.freeReadReq(req)
	if resp.Err != nil {
		return nil, resp.Err
	}
	if txn != 0 {
		se.involved[name] = true
	}
	return resp.Body, nil
}

// setToList returns the involved set's members sorted, keeping the
// commit protocol's message order deterministic across runs. The slice
// is built in the session's scratch buffer and ownership transfers to
// the caller (the request box); Commit hands it back on success.
//
//simlint:hotpath
func (se *Session) setToList() []string {
	out := se.names[:0]
	se.names = nil
	//simlint:ordered -- collected into a slice and sorted below
	for k := range se.involved {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
