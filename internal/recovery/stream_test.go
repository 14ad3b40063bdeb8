package recovery

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"persistmem/internal/audit"
	"persistmem/internal/btree"
	"persistmem/internal/ods"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

// readThenScan is the recovery the streamed pipeline replaced, kept as the
// tests' oracle: each trail's replicas read whole, one after another, the
// one whose valid prefix scans furthest kept (of equal ones the lower
// replica's); then one serial pass notes every stream's outcome evidence in
// stream order, the in-doubt transactions are resolved, and a second serial
// pass redoes every committed data record in stream order. It returns the
// report recoverLogs gives for the same trails, but for MTTR, and the image.
func readThenScan(trails [][][]byte, tcb map[audit.TxnID]uint8, opts Options) (Report, []string) {
	opts.defaults()
	capacity := fixtureCapacity(trails)
	var rep Report
	rep.UsedTCB = tcb != nil
	an := new(analysis)
	for txn, state := range tcb {
		an.decide(txn, state)
	}
	streams := make([][]byte, len(trails))
	for i, reps := range trails {
		best, bestRep := -1, 0
		for k := range reps {
			r := (i + k) % len(reps)
			media := make([]byte, capacity)
			copy(media, reps[r])
			sc := new(scratch)
			valid, n, err := readStream(sc, int64(capacity), opts, func(off int64, buf []byte) error {
				copy(buf, media[off:])
				return nil
			})
			if err != nil {
				panic(err)
			}
			rep.BytesRead += n
			if valid > best || valid == best && r < bestRep {
				best, bestRep, streams[i] = valid, r, bytes.Clone(sc.buf[:valid])
			}
		}
	}
	for _, stream := range streams {
		for s := audit.NewScanner(stream); s.Next(); {
			rec := s.Record()
			if isData(rec) {
				rep.RecordsScanned++
			} else {
				an.note(rec)
			}
			if tcb == nil {
				rep.RecordsScanned++
			}
		}
	}
	resolveInDoubt(an, &rep)
	files := map[string]*btree.Tree[[]byte]{}
	for _, stream := range streams {
		for s := audit.NewScanner(stream); s.Next(); {
			rec := s.Record()
			if !isData(rec) {
				continue
			}
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
			if state != tmf.TCBCommitted {
				continue
			}
			t := files[rec.File]
			if t == nil {
				t = btree.New[[]byte]()
				files[rec.File] = t
			}
			if rec.Type == audit.RecDelete {
				t.Delete(rec.Key)
				continue
			}
			t.Set(rec.Key, bytes.Clone(rec.Body))
			rep.RowsRedone++
		}
	}
	var names []string
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []string
	for _, name := range names {
		files[name].Ascend(0, ^uint64(0), func(it btree.Item[[]byte]) bool {
			rows = append(rows, fmt.Sprintf("%s/%d=%s", name, it.Key, it.Value))
			return true
		})
	}
	return rep, rows
}

// logOf appends, for each transaction of txns, an insert of key 10·txn with
// body prefix-txn, and then its commit record, to log.
func logOf(log []byte, prefix string, txns ...audit.TxnID) []byte {
	for _, txn := range txns {
		log = audit.AppendRecord(log, &audit.Record{Type: audit.RecInsert, Txn: txn, File: "TRADES", Key: 10 * uint64(txn), Body: []byte(fmt.Sprintf("%s-%d", prefix, txn))})
		log = audit.AppendRecord(log, &audit.Record{Type: audit.RecCommit, Txn: txn})
	}
	return log
}

// span lists the transactions from..to.
func span(from, to audit.TxnID) []audit.TxnID {
	var txns []audit.TxnID
	for txn := from; txn <= to; txn++ {
		txns = append(txns, txn)
	}
	return txns
}

// committedTCBs is a TCB table naming every transaction of txns committed.
func committedTCBs(txns ...audit.TxnID) map[audit.TxnID]uint8 {
	tcb := map[audit.TxnID]uint8{}
	for _, txn := range txns {
		tcb[txn] = tmf.TCBCommitted
	}
	return tcb
}

// streamFixture is a set of hand-built trails recovered in small chunks that
// arrive over time, so each worker's read-ahead delivers several segments
// and the worker redoes early what the TCB table decides.
type streamFixture struct {
	name   string
	trails [][][]byte
	tcb    map[audit.TxnID]uint8
}

// streamOpts reads the fixtures a few records at a time.
var streamOpts = Options{ChunkBytes: 256}

// streamPerRead is how long each fixture read takes: long enough that a
// worker redoes a segment before the next lands.
const streamPerRead = 50 * sim.Microsecond

// silentRow is transaction 90's one insert, key 900: the trail-committed
// fixtures' TCB table names no state for transaction 90, as when a later
// transaction took its slot of the ring.
func silentRow() []byte {
	return audit.AppendRecord(nil, &audit.Record{Type: audit.RecInsert, Txn: 90, File: "TRADES", Key: 900, Body: []byte("t-90")})
}

// fixtures builds the streamed fixtures: replicas that agree and that
// disagree, a key whose records straddle a deferred one, a transaction the
// TCB table names committed that a later trail does and does not abort, and
// a transaction the table does not name whose commit one trail shows — and
// then aborts, or loses to a replica without it — while another trail redoes
// its row early.
func fixtures() []streamFixture {
	var fs []streamFixture
	for _, agree := range []bool{true, false} {
		// Trail 0 reads replica 0 first and redoes it as it lands; the longer
		// replica 1 wins. Trail 1 reads replica 1 first, which is longer and
		// wins too. Disagreeing, each trail's other replica has other rows
		// inside the common prefix: transaction 11's and 31's.
		tail, other := "a", "a"
		if !agree {
			tail, other = "b", "y"
		}
		fs = append(fs, streamFixture{
			name: fmt.Sprintf("replicas agree=%v", agree),
			trails: [][][]byte{
				{logOf(nil, "a", span(1, 20)...), logOf(logOf(nil, "a", span(1, 10)...), tail, span(11, 25)...)},
				{logOf(nil, other, span(31, 40)...), logOf(nil, "a", span(31, 45)...)},
			},
			tcb: committedTCBs(span(1, 45)...),
		})
	}
	// Transaction 70, which the TCB table does not name, inserts key 700; the
	// committed transaction 71 then updates it, and its records pass through
	// the trail only behind 70's, which wait for the barrier.
	keyed := logOf(nil, "a", span(61, 69)...)
	keyed = audit.AppendRecord(keyed, &audit.Record{Type: audit.RecInsert, Txn: 70, File: "TRADES", Key: 700, Body: []byte("first")})
	keyed = audit.AppendRecord(keyed, &audit.Record{Type: audit.RecCommit, Txn: 70})
	keyed = audit.AppendRecord(keyed, &audit.Record{Type: audit.RecUpdate, Txn: 71, File: "TRADES", Key: 700, Body: []byte("second")})
	keyed = audit.AppendRecord(keyed, &audit.Record{Type: audit.RecCommit, Txn: 71})
	keyed = logOf(keyed, "a", span(72, 80)...)
	fs = append(fs, streamFixture{
		name:   "a key's later record waits behind its deferred one",
		trails: [][][]byte{{keyed}},
		tcb:    committedTCBs(append(span(61, 69), span(71, 80)...)...),
	})
	for _, abort := range []bool{false, true} {
		late := logOf(nil, "z", span(50, 60)...)
		if abort {
			// A rollback after a failed master commit writes an abort to
			// every involved log; here one lands behind the TCB's verdict.
			late = audit.AppendRecord(late, &audit.Record{Type: audit.RecAbort, Txn: 5})
		}
		fs = append(fs, streamFixture{
			name:   fmt.Sprintf("TCB-committed txn aborted later=%v", abort),
			trails: [][][]byte{{logOf(nil, "a", span(1, 20)...)}, {late}},
			tcb:    committedTCBs(span(1, 60)...),
		})
	}
	// Neither transaction 70 nor 71 has a TCB; trail 0 holds 70's insert of
	// key 700 and 71's update of it, both deferred once trail 0's first chunk
	// is in. Trail 1 shows 71's commit in its second chunk and 70's later:
	// the retry that 71's commit sets off must keep 71's update behind 70's
	// insert, which still waits.
	keyed = audit.AppendRecord(nil, &audit.Record{Type: audit.RecInsert, Txn: 70, File: "TRADES", Key: 700, Body: []byte("first")})
	keyed = audit.AppendRecord(keyed, &audit.Record{Type: audit.RecUpdate, Txn: 71, File: "TRADES", Key: 700, Body: []byte("second")})
	keyed = logOf(keyed, "a", span(61, 69)...)
	shows := logOf(nil, "z", span(50, 53)...)
	shows = audit.AppendRecord(shows, &audit.Record{Type: audit.RecCommit, Txn: 71})
	shows = logOf(shows, "z", span(54, 58)...)
	shows = audit.AppendRecord(shows, &audit.Record{Type: audit.RecCommit, Txn: 70})
	shows = logOf(shows, "z", span(59, 60)...)
	fs = append(fs, streamFixture{
		name:   "a key's later record waits behind its deferred one on a retry",
		trails: [][][]byte{{keyed}, {shows}},
		tcb:    committedTCBs(append(span(50, 60), span(61, 69)...)...),
	})
	commit90 := audit.AppendRecord(nil, &audit.Record{Type: audit.RecCommit, Txn: 90})
	for _, abort := range []bool{false, true} {
		// Trail 0 shows transaction 90's commit only at its end, long after
		// trail 1 is in, so trail 1's worker waits for it with the row
		// deferred and then redoes the row early on that word; aborted, a
		// rollback after a failed master commit wrote the abort behind the
		// durable commit record.
		shown := append(logOf(nil, "a", span(1, 40)...), commit90...)
		if abort {
			shown = audit.AppendRecord(shown, &audit.Record{Type: audit.RecAbort, Txn: 90})
		}
		fs = append(fs, streamFixture{
			name:   fmt.Sprintf("trail-committed txn aborted later=%v", abort),
			trails: [][][]byte{{shown}, {logOf(silentRow(), "z", span(50, 69)...)}},
			tcb:    committedTCBs(append(span(1, 40), span(50, 69)...)...),
		})
	}
	for _, agree := range []bool{true, false} {
		// Trail 0's first replica shows transaction 90's commit inside the
		// prefix both replicas hold, and trail 1 redoes its row early on that
		// word; the longer replica 1 wins, and disagreeing it has no such
		// commit, so transaction 90 never committed.
		first := logOf(append(logOf(nil, "a", span(1, 5)...), commit90...), "a", span(6, 20)...)
		winner := logOf(nil, "a", span(1, 5)...)
		if agree {
			winner = append(winner, commit90...)
		}
		winner = logOf(winner, "a", span(6, 25)...)
		fs = append(fs, streamFixture{
			name:   fmt.Sprintf("trail-shown commit replicas agree=%v", agree),
			trails: [][][]byte{{first, winner}, {logOf(silentRow(), "z", span(50, 69)...)}},
			tcb:    committedTCBs(append(span(1, 25), span(50, 69)...)...),
		})
	}
	return fs
}

// recoverFixtureStreamed recovers a fixture through recoverStreams, spread
// over the node's CPUs or serial on one.
func recoverFixtureStreamed(t *testing.T, f streamFixture, serial bool) (Report, []string) {
	t.Helper()
	rep, rb, err := recoverLogs(f.trails, f.tcb, streamOpts, streamPerRead, serial)
	if err != nil {
		t.Fatal(err)
	}
	return rep, image(rb)
}

// TestStreamedRecoveryDiscardsEarlyWork drives the cases that throw a trail's
// early redo away through recoverStreams: mirrored replicas that differ
// inside their common valid prefix, a transaction the TCB table names
// committed that a trail later aborts, and the two ways a commit one trail
// showed, for a transaction the table does not name, fails another trail
// that redid its row early: an abort behind the commit, and a winning replica
// without it. Each must rebuild what the read-then-scan oracle rebuilds —
// here without the aborted or uncommitted transaction's row and with the
// winning replica's "b" rows — and must pay for it: the discarded trail's
// records are redone again after the barrier, so the recovery takes longer
// than the same trails without the disagreement or the abort, whose early
// redo stands and leaves nothing for after the barrier. A key whose later
// record is decided early must still wait behind its earlier, deferred one.
func TestStreamedRecoveryDiscardsEarlyWork(t *testing.T) {
	byName := map[string]streamFixture{}
	for _, f := range fixtures() {
		byName[f.name] = f
	}
	for _, pair := range [][2]string{
		{"replicas agree=true", "replicas agree=false"},
		{"TCB-committed txn aborted later=false", "TCB-committed txn aborted later=true"},
		{"trail-committed txn aborted later=false", "trail-committed txn aborted later=true"},
		{"trail-shown commit replicas agree=true", "trail-shown commit replicas agree=false"},
	} {
		clean, discard := byName[pair[0]], byName[pair[1]]
		t.Run(discard.name, func(t *testing.T) {
			cleanRep, _ := recoverFixtureStreamed(t, clean, false)
			if cleanRep.RedoneAfterBarrier != 0 {
				t.Errorf("%s: %d records redone after the barrier, want all of them early", clean.name, cleanRep.RedoneAfterBarrier)
			}
			rep, rows := recoverFixtureStreamed(t, discard, false)
			wantRep, want := readThenScan(discard.trails, discard.tcb, streamOpts)
			if !slices.Equal(rows, want) {
				t.Errorf("image %q, read-then-scan rebuilds %q", rows, want)
			}
			if !sameButMTTR(rep, wantRep) {
				t.Errorf("report %+v, read-then-scan %+v", rep, wantRep)
			}
			// 20 rows redone early, and once more after the barrier.
			if extra := rep.MTTR - cleanRep.MTTR; extra < 20*2*sim.Microsecond {
				t.Errorf("MTTR %v against %v without the discard: the early work was not redone", rep.MTTR, cleanRep.MTTR)
			}
		})
	}
	for _, tc := range []struct {
		fixture    string
		want, lost string
	}{
		{"replicas agree=false", "TRADES/110=b-11", "TRADES/110=a-11"},
		{"TCB-committed txn aborted later=true", "TRADES/40=a-4", "TRADES/50=a-5"},
		{"a key's later record waits behind its deferred one", "TRADES/700=second", "TRADES/700=first"},
		{"a key's later record waits behind its deferred one on a retry", "TRADES/700=second", "TRADES/700=first"},
		{"trail-committed txn aborted later=true", "TRADES/500=z-50", "TRADES/900=t-90"},
		{"trail-shown commit replicas agree=false", "TRADES/250=a-25", "TRADES/900=t-90"},
	} {
		if _, rows := recoverFixtureStreamed(t, byName[tc.fixture], false); !slices.Contains(rows, tc.want) || slices.Contains(rows, tc.lost) {
			t.Errorf("%s: want row %s and not %s in %q", tc.fixture, tc.want, tc.lost, rows)
		}
	}
}

// TestTrailCommitsRedoneBeforeBarrier recovers the 4000-transaction crash of
// Claim C2 on both TCB paths. The TCB ring holds 2 730 slots, so the 1 270
// oldest transactions have lost theirs; their records must still be redone
// before the barrier, on the commits the trails show, leaving after it only
// what no outcome decides: nothing on PM + TCBs, and on PM direct + TCBs the
// in-flight transaction's four records, which reached its DP2s' logs.
func TestTrailCommitsRedoneBeforeBarrier(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    ods.Durability
		want int64
	}{
		{"pm/tcb=true", ods.PMDurability, 0},
		{"pmdirect/tcb=true", ods.PMDirectDurability, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := RunScenario(tc.d, 4000, 1)
			defer res.Store.Eng.Shutdown()
			rep, rb, err := res.RecoverPM(Options{}, true)
			if err != nil {
				t.Fatal(err)
			}
			if rb.Rows() != len(res.Committed) {
				t.Fatalf("%d rows recovered, %d committed", rb.Rows(), len(res.Committed))
			}
			if rep.RedoneAfterBarrier != tc.want {
				t.Errorf("%d data records redone after the barrier, want %d", rep.RedoneAfterBarrier, tc.want)
			}
		})
	}
}

// TestShownCommitWakesWaitingWorkers holds that a commit one trail shows
// wakes a worker whose own trail is already in: trail 1 holds the rows of
// transactions 101–120, which the TCB table does not name, and is in after
// four reads; trail 0 shows their commits a few reads later and streams on
// for another ten. The waiting worker must redo the rows as soon as their
// commits show, behind trail 0's reads, so the recovery ends when it would
// if the TCB table named them committed — not a retry's worth of redo after
// trail 0's last read.
func TestShownCommitWakesWaitingWorkers(t *testing.T) {
	var rows, commits []byte
	for txn := audit.TxnID(101); txn <= 120; txn++ {
		rows = audit.AppendRecord(rows, &audit.Record{Type: audit.RecInsert, Txn: txn, File: "TRADES", Key: 10 * uint64(txn), Body: []byte("r")})
		commits = audit.AppendRecord(commits, &audit.Record{Type: audit.RecCommit, Txn: txn})
	}
	trails := [][][]byte{{logOf(append(logOf(nil, "a", span(1, 10)...), commits...), "a", span(11, 40)...)}, {rows}}
	silent := committedTCBs(span(1, 40)...)
	named := committedTCBs(append(span(1, 40), span(101, 120)...)...)

	rep, rb, err := recoverLogs(trails, silent, streamOpts, streamPerRead, false)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, want := readThenScan(trails, silent, streamOpts)
	if got := image(rb); !slices.Equal(got, want) || !sameButMTTR(rep, wantRep) {
		t.Errorf("streamed %+v %q, read-then-scan %+v %q", rep, got, wantRep, want)
	}
	namedRep, _, err := recoverLogs(trails, named, streamOpts, streamPerRead, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoneAfterBarrier != 0 || rep.MTTR != namedRep.MTTR {
		t.Errorf("MTTR %v with %d records after the barrier; with the TCB table naming every commit, %v", rep.MTTR, rep.RedoneAfterBarrier, namedRep.MTTR)
	}
}
