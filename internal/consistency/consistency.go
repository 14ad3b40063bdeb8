// Package consistency is the offline atomicity/serializability checker
// behind the cross-shard fault matrix. It consumes the deterministic
// transaction-protocol events a metrics.TxnStream retains
// (begin/prepare/outcome/apply), the per-transaction intended
// writes the workload issued, and a visibility probe over the final
// (usually recovered) database image, and decides whether the execution
// was atomic and serializable:
//
//   - Protocol sanity: at most one outcome per transaction, prepares
//     inside the begin→outcome window, applies after the outcome and
//     agreeing with its direction.
//   - Atomicity (all-or-nothing visibility): a committed transaction's
//     writes are all visible, an aborted transaction's none. A
//     transaction with no recorded outcome — the coordinator died
//     before the in-memory event, though a durable outcome may exist —
//     must still be all-or-nothing: either recovery found its outcome
//     record and redid everything, or presumed abort removed everything.
//   - Serializability: conflicting writes (same file and key, hence the
//     same shard) of committed transactions must embed in a single
//     serial order across shards. Edges are drawn only between
//     transactions that actually conflict, ordered by the owning
//     shard's apply order; a cycle means no serial order exists. The
//     witnessed order is returned.
//
// Everything is pure computation over recorded data — the checker never
// touches the simulation — and all iteration is sorted, so its verdict
// and violation list are byte-deterministic.
package consistency

import (
	"fmt"
	"sort"

	"persistmem/internal/metrics"
)

// Op is one intended write of a transaction, as issued by the workload:
// the row it targets and the shard (DP2 service name) that owns it.
type Op struct {
	Txn   uint64
	File  string
	Key   uint64
	Shard string
}

// Violation is one checker finding.
type Violation struct {
	Txn    uint64
	Rule   string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("txn %d: %s: %s", v.Txn, v.Rule, v.Detail)
}

// Result is a full checker verdict.
type Result struct {
	// Violations lists every finding, sorted by transaction id then
	// rule. Empty means the history passed.
	Violations []Violation
	// SerialOrder is the witnessed serial order of committed
	// transactions (a topological order of the conflict graph), valid
	// when no serializability violation was found.
	SerialOrder []uint64
	// Checked counts the transactions examined.
	Checked int
}

// Ok reports whether the history passed every check.
func (r *Result) Ok() bool { return len(r.Violations) == 0 }

// shardEvt is one prepare or apply event localized to a shard.
type shardEvt struct {
	shard  string
	idx    int // global history index
	commit bool
}

// txnView folds one transaction's events.
type txnView struct {
	txn           uint64
	beginIdx      int // -1 when unseen
	outcomeIdx    int // -1 when unseen
	outcomeCommit bool
	outcomeCount  int
	prepares      []shardEvt
	applies       []shardEvt
}

// Check runs every rule over the recorded history. events is the
// stream's append-ordered events (the cooperative scheduler makes the
// append order the global protocol order) — kinds other than the four
// protocol events are skipped; ops are the workload's
// intended writes; visible probes the final database image. A nil
// visible skips the atomicity rules (protocol and serializability
// checks still run).
func Check(events []metrics.TxnEvent, ops []Op, visible func(file string, key uint64) bool) Result {
	var res Result

	views := map[uint64]*txnView{}
	view := func(txn uint64) *txnView {
		v := views[txn]
		if v == nil {
			v = &txnView{txn: txn, beginIdx: -1, outcomeIdx: -1}
			views[txn] = v
		}
		return v
	}
	for i, ev := range events {
		switch ev.Kind {
		case metrics.TxnBegin:
			if v := view(ev.Txn); v.beginIdx < 0 {
				v.beginIdx = i
			}
		case metrics.TxnPrepare:
			v := view(ev.Txn)
			v.prepares = append(v.prepares, shardEvt{shard: ev.Shard, idx: i})
		case metrics.TxnOutcome:
			v := view(ev.Txn)
			v.outcomeCount++
			if v.outcomeCount == 1 {
				v.outcomeIdx, v.outcomeCommit = i, ev.Commit
			}
		case metrics.TxnApply:
			v := view(ev.Txn)
			v.applies = append(v.applies, shardEvt{shard: ev.Shard, idx: i, commit: ev.Commit})
		}
	}

	opsByTxn := map[uint64][]Op{}
	for _, op := range ops {
		opsByTxn[op.Txn] = append(opsByTxn[op.Txn], op)
	}

	// Every transaction named by either source is examined, in id order.
	ids := make([]uint64, 0, len(views)+len(opsByTxn))
	//simlint:ordered -- collected into a slice and sorted below
	for txn := range views {
		ids = append(ids, txn)
	}
	//simlint:ordered -- collected into a slice and sorted below
	for txn := range opsByTxn {
		if _, seen := views[txn]; !seen {
			ids = append(ids, txn)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	res.Checked = len(ids)

	add := func(txn uint64, rule, format string, args ...interface{}) {
		res.Violations = append(res.Violations, Violation{
			Txn: txn, Rule: rule, Detail: fmt.Sprintf(format, args...),
		})
	}

	for _, txn := range ids {
		v := views[txn]
		if v != nil {
			checkProtocol(v, add)
		}
		if visible != nil {
			checkAtomicity(txn, v, opsByTxn[txn], visible, add)
		}
	}

	res.SerialOrder = checkSerializability(ids, views, opsByTxn, visible, add)
	return res
}

// checkProtocol enforces the per-transaction event grammar.
func checkProtocol(v *txnView, add func(txn uint64, rule, format string, args ...interface{})) {
	if v.outcomeCount > 1 {
		add(v.txn, "multiple-outcomes", "%d outcome events recorded", v.outcomeCount)
	}
	for _, pe := range v.prepares {
		if v.beginIdx >= 0 && pe.idx < v.beginIdx {
			add(v.txn, "prepare-before-begin", "prepare at %s precedes begin", pe.shard)
		}
		if v.outcomeIdx >= 0 && pe.idx > v.outcomeIdx {
			add(v.txn, "prepare-after-outcome", "prepare at %s follows the outcome decision", pe.shard)
		}
	}
	for _, ae := range v.applies {
		if v.outcomeIdx < 0 {
			add(v.txn, "apply-without-outcome", "apply at %s with no outcome event", ae.shard)
			continue
		}
		if ae.idx < v.outcomeIdx {
			add(v.txn, "apply-before-outcome", "apply at %s precedes the outcome decision", ae.shard)
		}
		if ae.commit != v.outcomeCommit {
			add(v.txn, "apply-direction", "apply at %s says commit=%v, outcome says commit=%v",
				ae.shard, ae.commit, v.outcomeCommit)
		}
	}
}

// checkAtomicity enforces all-or-nothing visibility of a transaction's
// writes in the final image.
func checkAtomicity(txn uint64, v *txnView, ops []Op, visible func(file string, key uint64) bool, add func(txn uint64, rule, format string, args ...interface{})) {
	if len(ops) == 0 {
		return
	}
	seen := 0
	for _, op := range ops {
		if visible(op.File, op.Key) {
			seen++
		}
	}
	switch {
	case v != nil && v.outcomeCount > 0 && v.outcomeCommit:
		if seen != len(ops) {
			add(txn, "committed-row-missing", "outcome committed but only %d/%d writes visible", seen, len(ops))
		}
	case v != nil && v.outcomeCount > 0:
		if seen != 0 {
			add(txn, "aborted-row-visible", "outcome aborted but %d/%d writes visible", seen, len(ops))
		}
	default:
		// No recorded outcome: the coordinator may have died after the
		// outcome became durable but before the event. Recovery must
		// still have resolved the transaction atomically — either its
		// outcome record committed everything, or presumed abort removed
		// everything.
		if seen != 0 && seen != len(ops) {
			add(txn, "torn-transaction", "no recorded outcome and %d/%d writes visible (not all-or-nothing)", seen, len(ops))
		}
	}
}

// checkSerializability builds the conflict graph of committed
// transactions and topologically sorts it. Conflicts exist only between
// writes to the same file and key — which one shard owns, so the
// shard's apply order orders the conflict. Returns the witnessed serial
// order (ties broken by transaction id).
func checkSerializability(ids []uint64, views map[uint64]*txnView, opsByTxn map[uint64][]Op, visible func(file string, key uint64) bool, add func(txn uint64, rule, format string, args ...interface{})) []uint64 {
	// Committed = explicit committed outcome, or no recorded outcome but
	// fully visible writes (resolved committed by recovery).
	committed := make([]uint64, 0, len(ids))
	isCommitted := map[uint64]bool{}
	for _, txn := range ids {
		v := views[txn]
		switch {
		case v != nil && v.outcomeCount > 0:
			if !v.outcomeCommit {
				continue
			}
		default:
			ops := opsByTxn[txn]
			if len(ops) == 0 || visible == nil {
				continue
			}
			all := true
			for _, op := range ops {
				if !visible(op.File, op.Key) {
					all = false
					break
				}
			}
			if !all {
				continue
			}
		}
		committed = append(committed, txn)
		isCommitted[txn] = true
	}

	// applyAt[txn][shard] = history index of txn's apply on that shard.
	applyAt := map[uint64]map[string]int{}
	for _, txn := range committed {
		v := views[txn]
		if v == nil {
			continue
		}
		m := map[string]int{}
		for _, ae := range v.applies {
			m[ae.shard] = ae.idx
		}
		applyAt[txn] = m
	}

	// Group committed writes by row; order each row's writers by their
	// apply index on the owning shard.
	type rowKey struct {
		file string
		key  uint64
	}
	writers := map[rowKey][]Op{}
	rows := []rowKey{}
	for _, txn := range committed {
		for _, op := range opsByTxn[txn] {
			rk := rowKey{file: op.File, key: op.Key}
			if len(writers[rk]) == 0 {
				rows = append(rows, rk)
			}
			writers[rk] = append(writers[rk], op)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].file != rows[j].file {
			return rows[i].file < rows[j].file
		}
		return rows[i].key < rows[j].key
	})

	succ := map[uint64]map[uint64]bool{}
	indeg := map[uint64]int{}
	for _, txn := range committed {
		succ[txn] = map[uint64]bool{}
	}
	for _, rk := range rows {
		ws := writers[rk]
		if len(ws) < 2 {
			continue
		}
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				a, b := ws[i], ws[j]
				if a.Txn == b.Txn {
					continue
				}
				ai, aok := applyAt[a.Txn][a.Shard]
				bi, bok := applyAt[b.Txn][b.Shard]
				if !aok || !bok {
					continue // a crash window hid the order; no constraint
				}
				from, to := a.Txn, b.Txn
				if bi < ai {
					from, to = b.Txn, a.Txn
				}
				if !succ[from][to] {
					succ[from][to] = true
					indeg[to]++
				}
			}
		}
	}

	// Kahn's algorithm with an id-ordered ready heap (a sorted slice is
	// fine at checker scale), so the witnessed order is deterministic.
	ready := make([]uint64, 0, len(committed))
	for _, txn := range committed {
		if indeg[txn] == 0 {
			ready = append(ready, txn)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	order := make([]uint64, 0, len(committed))
	for len(ready) > 0 {
		txn := ready[0]
		ready = ready[1:]
		order = append(order, txn)
		next := make([]uint64, 0)
		//simlint:ordered -- collected into a slice and sorted below
		for to := range succ[txn] {
			indeg[to]--
			if indeg[to] == 0 {
				next = append(next, to)
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		ready = mergeSorted(ready, next)
	}
	if len(order) != len(committed) {
		stuck := make([]uint64, 0)
		for _, txn := range committed {
			if indeg[txn] > 0 {
				stuck = append(stuck, txn)
			}
		}
		add(stuck[0], "serialization-cycle", "%d committed transactions form a conflict cycle: %v", len(stuck), stuck)
	}
	return order
}

// mergeSorted merges two ascending id slices.
func mergeSorted(a, b []uint64) []uint64 {
	if len(b) == 0 {
		return a
	}
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
