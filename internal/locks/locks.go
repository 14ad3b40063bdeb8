// Package locks implements the concurrency-control substrate of §1.1: a
// lock manager granting shared and exclusive row locks to transactions,
// with FIFO queueing, shared-to-exclusive upgrade for sole holders, and
// timeout-based deadlock resolution. Each DP2 (disk process) owns one
// lock manager for the rows of its partitions, which is exactly the
// NonStop partitioning of lock authority.
package locks

import (
	"errors"
	"fmt"

	"persistmem/internal/audit"
	"persistmem/internal/metrics"
	"persistmem/internal/sim"
)

// Lock errors.
var (
	// ErrLockTimeout means the lock could not be granted within the
	// timeout — the system's deadlock resolution mechanism.
	ErrLockTimeout = errors.New("locks: lock wait timed out")
	// ErrNotHeld is returned by Downgrade when the transaction does not
	// hold the lock.
	ErrNotHeld = errors.New("locks: lock not held")
	// ErrTxnEnded is returned by Acquire when the waiting transaction ended
	// (ReleaseAll) before the lock was granted: its request is withdrawn.
	ErrTxnEnded = errors.New("locks: transaction ended while its lock request waited")
)

// Mode is a lock mode.
type Mode int

// Lock modes, weakest first.
const (
	// Shared allows concurrent readers.
	Shared Mode = iota
	// Exclusive allows a single writer.
	Exclusive
)

// String names the mode.
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// lockState tracks one lockable resource.
type lockState struct {
	holders map[audit.TxnID]Mode
	queue   []*waitReq //simlint:boxowner -- queued waiters own their request boxes
}

type waitReq struct {
	txn     audit.TxnID
	mode    Mode
	granted *sim.Signal
}

// Manager is a lock manager. It is used from simulation processes only.
// Keys are row numbers; each DP2 owns one manager, so the (manager, key)
// pair is globally unique.
type Manager struct {
	eng   *sim.Engine
	name  string
	locks map[uint64]*lockState //simlint:boxowner -- live lock table owns per-key state boxes

	// Free lists. Lock entries churn once per touched row per
	// transaction, so both the per-key state and queued wait requests are
	// recycled. Per-manager (never global): managers on different engines
	// run on different goroutines under the parallel harness.
	lsfree  []*lockState //simlint:box -- per-key lock-state pool
	reqfree []*waitReq   //simlint:box -- wait-queue entry pool
	relbuf  []uint64     // ReleaseAll scratch

	// Timeouts counts the lock waits that timed out.
	Timeouts int64

	// ms holds shared wait-queue instruments (nil when unmetered). All
	// managers in a store record into the same bundle, and the bundle
	// survives process-pair takeovers, so the queue conservation law
	// (enters == exits + timeouts + queued) holds store-wide even as
	// manager incarnations come and go.
	ms *metrics.LockSpans
}

// NewManager returns an empty lock manager.
func NewManager(eng *sim.Engine, name string) *Manager {
	return &Manager{eng: eng, name: name, locks: make(map[uint64]*lockState)}
}

// SetMetrics attaches wait-queue instruments (nil detaches).
func (m *Manager) SetMetrics(ms *metrics.LockSpans) { m.ms = ms }

//simlint:hotpath
func (m *Manager) newLockState() *lockState {
	if n := len(m.lsfree); n > 0 {
		ls := m.lsfree[n-1]
		m.lsfree = m.lsfree[:n-1]
		return ls
	}
	return &lockState{holders: make(map[audit.TxnID]Mode)}
}

// freeLockState recycles a lock entry. Only admit calls it, and only
// after verifying both the holder map and the queue are empty, so no
// live reference can observe the recycled state: any Acquire parked on
// this key still has its waitReq in the queue.
//
//simlint:hotpath
func (m *Manager) freeLockState(ls *lockState) {
	clear(ls.holders)
	ls.queue = ls.queue[:0]
	m.lsfree = append(m.lsfree, ls)
}

//simlint:hotpath
func (m *Manager) newWaitReq(txn audit.TxnID, mode Mode) *waitReq {
	if n := len(m.reqfree); n > 0 {
		req := m.reqfree[n-1]
		m.reqfree = m.reqfree[:n-1]
		req.txn, req.mode = txn, mode
		req.granted = m.eng.NewSignal()
		return req
	}
	return &waitReq{txn: txn, mode: mode, granted: m.eng.NewSignal()}
}

//simlint:hotpath
func (m *Manager) freeWaitReq(req *waitReq) {
	m.eng.FreeSignal(req.granted)
	req.granted = nil
	m.reqfree = append(m.reqfree, req)
}

// compatible reports whether a request by txn for mode can be granted
// given current holders.
func (ls *lockState) compatible(txn audit.TxnID, mode Mode) bool {
	//simlint:ordered -- pure scan; the boolean result is order-independent
	for holder, hmode := range ls.holders {
		if holder == txn {
			continue // self-held handled by caller
		}
		if mode == Exclusive || hmode == Exclusive {
			return false
		}
	}
	return true
}

// TryAcquire is the non-parking half of Acquire: it grants txn the lock on
// key exactly when Acquire would grant it without waiting, and reports
// whether it did.
//
//simlint:hotpath
func (m *Manager) TryAcquire(key uint64, txn audit.TxnID, mode Mode) bool {
	ls := m.locks[key]
	if ls == nil {
		ls = m.newLockState()
		m.locks[key] = ls
	}
	if held, ok := ls.holders[txn]; ok {
		if held == Exclusive || mode == Shared {
			return true // already strong enough
		}
		// Upgrade path.
		if len(ls.holders) == 1 {
			ls.holders[txn] = Exclusive
			return true
		}
		return false
	}
	if len(ls.queue) == 0 && ls.compatible(txn, mode) {
		ls.holders[txn] = mode
		return true
	}
	return false
}

// Acquire grants txn a lock on key in the given mode, blocking p in FIFO
// order behind incompatible requests, up to timeout (negative = forever).
// Re-acquiring a held lock is a no-op; holding Shared and requesting
// Exclusive upgrades when the transaction is the sole holder, and queues
// otherwise.
//
//simlint:hotpath
func (m *Manager) Acquire(p *sim.Proc, key uint64, txn audit.TxnID, mode Mode, timeout sim.Time) error {
	if m.TryAcquire(key, txn, mode) {
		return nil
	}

	// Queue and wait.
	ls := m.locks[key]
	m.ms.OnEnter()
	waitStart := m.eng.Now()
	req := m.newWaitReq(txn, mode)
	ls.queue = append(ls.queue, req)
	v, ok := req.granted.WaitTimeout(p, timeout)
	if !ok {
		// Timed out: withdraw the request and wake anyone it was blocking.
		// The request is still queued — admit removes a request from the
		// queue strictly before triggering it, and a triggered request
		// cannot reach this branch — so Trigger was never called and the
		// signal is safe to recycle.
		for i, r := range ls.queue {
			if r == req {
				ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
				m.freeWaitReq(req)
				break
			}
		}
		m.Timeouts++
		m.ms.OnTimeout()
		m.admit(key, ls)
		//simlint:allow hotalloc -- deadlock-timeout path, cold by construction
		return fmt.Errorf("%w: txn %d on %s/r%d", ErrLockTimeout, txn, m.name, key)
	}
	m.freeWaitReq(req)
	if v != nil {
		// Withdrawn: the transaction ended (ReleaseAll) before the grant.
		m.ms.OnWithdrawn()
		//simlint:allow hotalloc -- a wait its own transaction's end cut short, cold by construction
		return fmt.Errorf("%w: txn %d on %s/r%d", ErrTxnEnded, txn, m.name, key)
	}
	m.ms.OnGranted(m.eng.Now() - waitStart)
	return nil
}

// admit grants queued requests in FIFO order while they are compatible.
func (m *Manager) admit(key uint64, ls *lockState) {
	for len(ls.queue) > 0 {
		req := ls.queue[0]
		// An upgrade request is admissible when the requester is the sole
		// remaining holder.
		if held, ok := ls.holders[req.txn]; ok {
			if held == Exclusive || req.mode == Shared {
				ls.queue = ls.queue[1:]
				req.granted.Trigger(nil)
				continue
			}
			if len(ls.holders) == 1 {
				ls.holders[req.txn] = Exclusive
				ls.queue = ls.queue[1:]
				req.granted.Trigger(nil)
				continue
			}
			return
		}
		if !ls.compatible(req.txn, req.mode) {
			return
		}
		ls.holders[req.txn] = req.mode
		ls.queue = ls.queue[1:]
		req.granted.Trigger(nil)
	}
	if len(ls.holders) == 0 && len(ls.queue) == 0 {
		delete(m.locks, key)
		m.freeLockState(ls)
	}
}

// Release drops txn's lock on key.
//
//simlint:hotpath
func (m *Manager) Release(key uint64, txn audit.TxnID) {
	ls := m.locks[key]
	if ls == nil {
		return
	}
	delete(ls.holders, txn)
	m.admit(key, ls)
}

// ReleaseAll ends txn at this manager — the commit/abort path: it withdraws
// every request txn still has queued, whose Acquire then returns
// ErrTxnEnded, and drops every lock txn holds. Keys are released in sorted
// order: each release may admit waiters (waking their processes), so the
// release sequence is schedule-visible and must not depend on map iteration
// order.
//
//simlint:hotpath
func (m *Manager) ReleaseAll(txn audit.TxnID) {
	// Collect first: admit may delete map entries. Insertion sort into a
	// reused scratch slice: transactions touch a handful of rows, and the
	// closure-free sort keeps the commit path allocation-free.
	keys := m.relbuf[:0]
	//simlint:ordered -- collected into a slice and sorted below
	for key, ls := range m.locks {
		if _, ok := ls.holders[txn]; ok || ls.queues(txn) {
			i := len(keys)
			keys = append(keys, key)
			for i > 0 && keys[i-1] > key {
				keys[i] = keys[i-1]
				i--
			}
			keys[i] = key
		}
	}
	m.relbuf = keys
	for _, key := range keys {
		ls := m.locks[key]
		ls.withdraw(txn)
		delete(ls.holders, txn)
		m.admit(key, ls)
	}
}

// queues reports whether txn has a request in the key's wait queue.
//
//simlint:hotpath
func (ls *lockState) queues(txn audit.TxnID) bool {
	for _, req := range ls.queue {
		if req.txn == txn {
			return true
		}
	}
	return false
}

// withdraw takes txn's requests out of the wait queue, in queue order, and
// fails each waiter's Acquire with ErrTxnEnded. A withdrawn request is out of
// the queue by the time its waiter wakes, as a granted one is, so a wait that
// times out finds its request still queued exactly when nothing fired it.
//
//simlint:hotpath
func (ls *lockState) withdraw(txn audit.TxnID) {
	kept := ls.queue[:0]
	for _, req := range ls.queue {
		if req.txn == txn {
			req.granted.Trigger(ErrTxnEnded)
			continue
		}
		kept = append(kept, req)
	}
	clear(ls.queue[len(kept):])
	ls.queue = kept
}

// Holds reports the mode txn holds on key.
//
//simlint:hotpath
func (m *Manager) Holds(key uint64, txn audit.TxnID) (Mode, bool) {
	if ls := m.locks[key]; ls != nil {
		mode, ok := ls.holders[txn]
		return mode, ok
	}
	return 0, false
}

// HolderCount returns the number of transactions holding key.
//
//simlint:hotpath
func (m *Manager) HolderCount(key uint64) int {
	if ls := m.locks[key]; ls != nil {
		return len(ls.holders)
	}
	return 0
}

// LockedKeys returns the number of distinct keys with lock state.
func (m *Manager) LockedKeys() int { return len(m.locks) }

// CheckInvariants panics if lock-compatibility invariants are violated:
// at most one Exclusive holder per key, and never Exclusive alongside
// other holders.
func (m *Manager) CheckInvariants() {
	//simlint:ordered -- per-key checks are independent; only panics escape
	for key, ls := range m.locks {
		excl := 0
		//simlint:ordered -- commutative count
		for _, mode := range ls.holders {
			if mode == Exclusive {
				excl++
			}
		}
		if excl > 1 {
			panic(fmt.Sprintf("locks: %d exclusive holders on r%d", excl, key))
		}
		if excl == 1 && len(ls.holders) > 1 {
			panic(fmt.Sprintf("locks: exclusive plus others on r%d", key))
		}
	}
}
