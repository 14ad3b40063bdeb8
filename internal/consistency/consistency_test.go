package consistency

import (
	"testing"

	"persistmem/internal/metrics"
)

// h builds a history event without ceremony.
func h(txn uint64, kind metrics.TxnKind, shard string, commit bool) metrics.TxnEvent {
	return metrics.TxnEvent{Txn: txn, Kind: kind, Shard: shard, Commit: commit}
}

// visSet builds a visibility probe from the rows present in the image.
func visSet(rows ...[2]interface{}) func(string, uint64) bool {
	type rk struct {
		file string
		key  uint64
	}
	m := map[rk]bool{}
	for _, r := range rows {
		m[rk{file: r[0].(string), key: r[1].(uint64)}] = true
	}
	return func(file string, key uint64) bool { return m[rk{file: file, key: key}] }
}

func rules(res Result) map[string]int {
	m := map[string]int{}
	for _, v := range res.Violations {
		m[v.Rule]++
	}
	return m
}

func TestCleanTwoPhaseHistoryPasses(t *testing.T) {
	events := []metrics.TxnEvent{
		h(1, metrics.TxnBegin, "", false),
		h(1, metrics.TxnPrepare, "$DP-A", false),
		h(1, metrics.TxnPrepare, "$DP-B", false),
		h(1, metrics.TxnOutcome, "", true),
		h(1, metrics.TxnApply, "$DP-A", true),
		h(1, metrics.TxnApply, "$DP-B", true),
	}
	ops := []Op{
		{Txn: 1, File: "TRADES", Key: 10, Shard: "$DP-A"},
		{Txn: 1, File: "TRADES", Key: 11, Shard: "$DP-B"},
	}
	vis := visSet([2]interface{}{"TRADES", uint64(10)}, [2]interface{}{"TRADES", uint64(11)})
	res := Check(events, ops, vis)
	if !res.Ok() {
		t.Fatalf("clean history flagged: %v", res.Violations)
	}
	if res.Checked != 1 || len(res.SerialOrder) != 1 || res.SerialOrder[0] != 1 {
		t.Fatalf("checked=%d order=%v", res.Checked, res.SerialOrder)
	}
}

// The checker reads only the four protocol kinds: a stream's ladder marks
// and client endings neither examine a transaction nor shift the rules.
func TestCheckSkipsNonProtocolKinds(t *testing.T) {
	events := []metrics.TxnEvent{
		h(2, metrics.MarkBeginCall, "", false),
		h(1, metrics.TxnBegin, "", false),
		h(1, metrics.MarkCommitSend, "", false),
		h(1, metrics.TxnOutcome, "", true),
		h(2, metrics.TxnUnresolved, "", false),
		h(1, metrics.TxnApply, "$DP-A", true),
		h(1, metrics.MarkCommitDone, "", false),
	}
	res := Check(events, []Op{{Txn: 1, File: "TRADES", Key: 10, Shard: "$DP-A"}}, visSet([2]interface{}{"TRADES", uint64(10)}))
	if !res.Ok() || res.Checked != 1 {
		t.Fatalf("checked %d transactions, violations %v; want 1 and none", res.Checked, res.Violations)
	}
}

func TestAbortedTxnRowsMustBeInvisible(t *testing.T) {
	events := []metrics.TxnEvent{
		h(1, metrics.TxnBegin, "", false),
		h(1, metrics.TxnPrepare, "$DP-A", false),
		h(1, metrics.TxnOutcome, "", false),
		h(1, metrics.TxnApply, "$DP-A", false),
	}
	ops := []Op{{Txn: 1, File: "TRADES", Key: 10, Shard: "$DP-A"}}
	// The row leaked into the image despite the abort.
	vis := visSet([2]interface{}{"TRADES", uint64(10)})
	res := Check(events, ops, vis)
	if rules(res)["aborted-row-visible"] != 1 {
		t.Fatalf("want aborted-row-visible, got %v", res.Violations)
	}
}

func TestCommittedTxnRowsMustAllBeVisible(t *testing.T) {
	events := []metrics.TxnEvent{
		h(1, metrics.TxnBegin, "", false),
		h(1, metrics.TxnOutcome, "", true),
		h(1, metrics.TxnApply, "$DP-A", true),
		h(1, metrics.TxnApply, "$DP-B", true),
	}
	ops := []Op{
		{Txn: 1, File: "TRADES", Key: 10, Shard: "$DP-A"},
		{Txn: 1, File: "TRADES", Key: 11, Shard: "$DP-B"},
	}
	// Only one of the two rows survived.
	vis := visSet([2]interface{}{"TRADES", uint64(10)})
	res := Check(events, ops, vis)
	if rules(res)["committed-row-missing"] != 1 {
		t.Fatalf("want committed-row-missing, got %v", res.Violations)
	}
}

func TestNoOutcomeMustBeAllOrNothing(t *testing.T) {
	// Coordinator died mid-protocol: prepares recorded, no outcome event.
	events := []metrics.TxnEvent{
		h(1, metrics.TxnBegin, "", false),
		h(1, metrics.TxnPrepare, "$DP-A", false),
		h(1, metrics.TxnPrepare, "$DP-B", false),
	}
	ops := []Op{
		{Txn: 1, File: "TRADES", Key: 10, Shard: "$DP-A"},
		{Txn: 1, File: "TRADES", Key: 11, Shard: "$DP-B"},
	}

	// Torn: one shard kept the row, the other lost it.
	res := Check(events, ops, visSet([2]interface{}{"TRADES", uint64(10)}))
	if rules(res)["torn-transaction"] != 1 {
		t.Fatalf("want torn-transaction, got %v", res.Violations)
	}

	// All visible (recovery found the durable outcome record): fine, and
	// the transaction counts as committed in the serial order.
	res = Check(events, ops, visSet(
		[2]interface{}{"TRADES", uint64(10)}, [2]interface{}{"TRADES", uint64(11)}))
	if !res.Ok() {
		t.Fatalf("fully visible in-doubt txn flagged: %v", res.Violations)
	}
	if len(res.SerialOrder) != 1 || res.SerialOrder[0] != 1 {
		t.Fatalf("order=%v", res.SerialOrder)
	}

	// None visible (presumed abort): also fine, not in the serial order.
	res = Check(events, ops, visSet())
	if !res.Ok() {
		t.Fatalf("fully absent in-doubt txn flagged: %v", res.Violations)
	}
	if len(res.SerialOrder) != 0 {
		t.Fatalf("order=%v", res.SerialOrder)
	}
}

func TestProtocolGrammarViolations(t *testing.T) {
	events := []metrics.TxnEvent{
		h(1, metrics.TxnApply, "$DP-A", true), // apply before any outcome
		h(1, metrics.TxnBegin, "", false),
		h(1, metrics.TxnOutcome, "", true),
		h(1, metrics.TxnPrepare, "$DP-B", false), // prepare after outcome
		h(1, metrics.TxnOutcome, "", true),       // duplicate outcome
		h(1, metrics.TxnApply, "$DP-B", false),   // direction mismatch
	}
	res := Check(events, nil, nil)
	got := rules(res)
	for _, want := range []string{
		"apply-before-outcome", "prepare-after-outcome", "multiple-outcomes", "apply-direction",
	} {
		if got[want] == 0 {
			t.Errorf("missing rule %s in %v", want, res.Violations)
		}
	}
}

func TestApplyWithoutOutcome(t *testing.T) {
	events := []metrics.TxnEvent{
		h(1, metrics.TxnBegin, "", false),
		h(1, metrics.TxnApply, "$DP-A", true),
	}
	res := Check(events, nil, nil)
	if rules(res)["apply-without-outcome"] != 1 {
		t.Fatalf("want apply-without-outcome, got %v", res.Violations)
	}
}

func TestSerializabilityWitnessFollowsApplyOrder(t *testing.T) {
	// Txn 2 applies before txn 1 on the shard owning the contended row,
	// so the witnessed order must place 2 first even though ids say
	// otherwise.
	events := []metrics.TxnEvent{
		h(1, metrics.TxnBegin, "", false),
		h(2, metrics.TxnBegin, "", false),
		h(2, metrics.TxnOutcome, "", true),
		h(2, metrics.TxnApply, "$DP-A", true),
		h(1, metrics.TxnOutcome, "", true),
		h(1, metrics.TxnApply, "$DP-A", true),
	}
	ops := []Op{
		{Txn: 1, File: "TRADES", Key: 10, Shard: "$DP-A"},
		{Txn: 2, File: "TRADES", Key: 10, Shard: "$DP-A"},
	}
	vis := visSet([2]interface{}{"TRADES", uint64(10)})
	res := Check(events, ops, vis)
	if !res.Ok() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.SerialOrder) != 2 || res.SerialOrder[0] != 2 || res.SerialOrder[1] != 1 {
		t.Fatalf("order=%v, want [2 1]", res.SerialOrder)
	}
}

func TestSerializationCycleDetected(t *testing.T) {
	// Two rows on two shards with opposite apply orders: txn 1 before
	// txn 2 on $DP-A's row, txn 2 before txn 1 on $DP-B's row. No serial
	// order satisfies both.
	events := []metrics.TxnEvent{
		h(1, metrics.TxnOutcome, "", true),
		h(2, metrics.TxnOutcome, "", true),
		h(1, metrics.TxnApply, "$DP-A", true),
		h(2, metrics.TxnApply, "$DP-B", true),
		h(2, metrics.TxnApply, "$DP-A", true),
		h(1, metrics.TxnApply, "$DP-B", true),
	}
	ops := []Op{
		{Txn: 1, File: "TRADES", Key: 10, Shard: "$DP-A"},
		{Txn: 2, File: "TRADES", Key: 10, Shard: "$DP-A"},
		{Txn: 1, File: "TRADES", Key: 20, Shard: "$DP-B"},
		{Txn: 2, File: "TRADES", Key: 20, Shard: "$DP-B"},
	}
	vis := visSet([2]interface{}{"TRADES", uint64(10)}, [2]interface{}{"TRADES", uint64(20)})
	res := Check(events, ops, vis)
	if rules(res)["serialization-cycle"] != 1 {
		t.Fatalf("want serialization-cycle, got %v", res.Violations)
	}
}

func TestDisjointKeysImposeNoOrder(t *testing.T) {
	// Same interleaving as the cycle test but on disjoint rows: no
	// conflict, no cycle, id-ordered witness.
	events := []metrics.TxnEvent{
		h(1, metrics.TxnOutcome, "", true),
		h(2, metrics.TxnOutcome, "", true),
		h(1, metrics.TxnApply, "$DP-A", true),
		h(2, metrics.TxnApply, "$DP-B", true),
		h(2, metrics.TxnApply, "$DP-A", true),
		h(1, metrics.TxnApply, "$DP-B", true),
	}
	ops := []Op{
		{Txn: 1, File: "TRADES", Key: 10, Shard: "$DP-A"},
		{Txn: 2, File: "TRADES", Key: 11, Shard: "$DP-A"},
		{Txn: 1, File: "TRADES", Key: 20, Shard: "$DP-B"},
		{Txn: 2, File: "TRADES", Key: 21, Shard: "$DP-B"},
	}
	vis := visSet(
		[2]interface{}{"TRADES", uint64(10)}, [2]interface{}{"TRADES", uint64(11)},
		[2]interface{}{"TRADES", uint64(20)}, [2]interface{}{"TRADES", uint64(21)})
	res := Check(events, ops, vis)
	if !res.Ok() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.SerialOrder) != 2 || res.SerialOrder[0] != 1 || res.SerialOrder[1] != 2 {
		t.Fatalf("order=%v, want [1 2]", res.SerialOrder)
	}
}
