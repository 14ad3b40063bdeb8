package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"persistmem/internal/audit"
	"persistmem/internal/btree"
	"persistmem/internal/cluster"
	"persistmem/internal/ods"
	"persistmem/internal/pmclient"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

// readStreamReference is the algorithm readStream replaced, kept as the
// test's reference: a fresh buffer per chunk, appended to the stream, and
// the whole stream rescanned from offset 0 after every chunk.
func readStreamReference(capacity int64, opts Options, readChunk func(off int64, buf []byte) error) ([]byte, int64, error) {
	var data []byte
	var off int64
	for off < capacity && off < opts.MaxLogBytes {
		n := int64(opts.ChunkBytes)
		if off+n > capacity {
			n = capacity - off
		}
		buf := make([]byte, n)
		if err := readChunk(off, buf); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrNoLog, err)
		}
		data = append(data, buf...)
		off += n
		s := audit.NewScanner(data)
		for s.Next() {
		}
		if s.Err() == nil && s.Offset() < len(data)-opts.ChunkBytes/2 {
			break
		}
	}
	return data, off, nil
}

// buildLog appends frames with bodyLen-byte bodies until the log is exactly
// size bytes long; the last frame's body is cut to fit.
func buildLog(t *testing.T, size, bodyLen int) []byte {
	t.Helper()
	empty := audit.EncodedSize(&audit.Record{File: "TRADES"})
	var log []byte
	for i := 0; len(log) < size; i++ {
		rec := audit.Record{Type: audit.RecInsert, Txn: audit.TxnID(i + 1), File: "TRADES", Key: uint64(i), Body: bytes.Repeat([]byte{byte(i + 1)}, bodyLen)}
		// Leave room for one more whole frame, or end exactly at size.
		if rest := size - len(log) - empty; rest < bodyLen+empty {
			if rest < 0 {
				t.Fatalf("cannot end a log at %d bytes with %d written", size, len(log))
			}
			rec.Body = rec.Body[:0]
			rec.Body = append(rec.Body, bytes.Repeat([]byte{0xEE}, rest)...)
		}
		log = audit.AppendRecord(log, &rec)
	}
	if len(log) != size {
		t.Fatalf("built %d bytes, want %d", len(log), size)
	}
	return log
}

type readCall struct {
	Off int64
	Len int
}

// device serves chunk reads from a zero-padded byte image, recording each.
func device(image []byte, capacity int, reads *[]readCall) func(off int64, buf []byte) error {
	media := make([]byte, capacity)
	copy(media, image)
	return func(off int64, buf []byte) error {
		*reads = append(*reads, readCall{off, len(buf)})
		copy(buf, media[off:int(off)+len(buf)])
		return nil
	}
}

func TestReadStreamMatchesRescanningReference(t *testing.T) {
	for _, chunk := range []int{64, 4 << 10, 1 << 20} {
		body := chunk / 9 // frames that do not divide a chunk
		type tc struct {
			name     string
			log      []byte
			capacity int
			maxLog   int64
		}
		straddle := buildLog(t, 2*chunk+chunk/2, body)
		torn := append([]byte(nil), straddle...)
		torn[len(torn)-6] ^= 0xFF // inside the last frame's body or CRC
		cases := []tc{
			{name: "record straddles a chunk boundary, zero tail", log: straddle, capacity: 6 * chunk},
			{name: "torn tail", log: torn, capacity: 6 * chunk},
			{name: "torn tail at the end of the device", log: torn[:len(torn)-3], capacity: len(torn) - 3},
			{name: "log ends exactly on a chunk boundary", log: buildLog(t, 2*chunk, body), capacity: 6 * chunk},
			{name: "log ends just inside the stop margin", log: buildLog(t, chunk+chunk/2, body), capacity: 6 * chunk},
			{name: "empty log", log: nil, capacity: 6 * chunk},
			{name: "log fills a device that is not a whole number of chunks", log: buildLog(t, 3*chunk+chunk/3, body), capacity: 3*chunk + chunk/3},
			{name: "MaxLogBytes cuts the read short", log: buildLog(t, 4*chunk, body), capacity: 6 * chunk, maxLog: int64(2 * chunk)},
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("chunk=%d/%s", chunk, c.name), func(t *testing.T) {
				opts := Options{ChunkBytes: chunk, MaxLogBytes: c.maxLog}
				opts.defaults()

				var wantReads []readCall
				wantData, wantRead, err := readStreamReference(int64(c.capacity), opts, device(c.log, c.capacity, &wantReads))
				if err != nil {
					t.Fatal(err)
				}
				ref := audit.NewScanner(wantData)
				for ref.Next() {
				}
				wantStream := wantData[:ref.Offset()]

				// A scratch an earlier, longer stream left dirty: nothing
				// stale in it may reach the scan.
				sc := &scratch{buf: bytes.Repeat([]byte{0xFF}, c.capacity+chunk)}
				stale := audit.AppendRecord(nil, &audit.Record{Type: audit.RecCommit, Txn: 99})
				for off := 0; off+len(stale) <= len(sc.buf); off += chunk {
					copy(sc.buf[off:], stale) // a whole frame wherever a read can end
				}
				var reads []readCall
				valid, read, err := readStream(sc, int64(c.capacity), opts, device(c.log, c.capacity, &reads))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sc.buf[:valid], wantStream) {
					t.Errorf("stream: %d valid bytes, reference %d", valid, len(wantStream))
				}
				if read != wantRead {
					t.Errorf("bytes read = %d, reference %d", read, wantRead)
				}
				if !reflect.DeepEqual(reads, wantReads) {
					t.Errorf("reads issued = %v, reference %v", reads, wantReads)
				}

				// And from a cold scratch, which grows chunk by chunk.
				cold := new(scratch)
				reads = reads[:0]
				valid, read, err = readStream(cold, int64(c.capacity), opts, device(c.log, c.capacity, &reads))
				if err != nil || !bytes.Equal(cold.buf[:valid], wantStream) || read != wantRead || !reflect.DeepEqual(reads, wantReads) {
					t.Errorf("cold scratch: valid %d read %d reads %v err %v; reference %d %d %v", valid, read, reads, err, len(wantStream), wantRead, wantReads)
				}
			})
		}
	}
}

func TestReadStreamReportsUnreadableLog(t *testing.T) {
	opts := Options{}
	opts.defaults()
	_, _, err := readStream(new(scratch), 1<<20, opts, func(int64, []byte) error { return fmt.Errorf("device down") })
	if !errors.Is(err, ErrNoLog) {
		t.Errorf("err = %v, want ErrNoLog", err)
	}
}

// recoveryPaths are the three ways a trail is read: off the audit disks, and
// out of PM with and without the TCB region.
var recoveryPaths = []struct {
	name   string
	d      ods.Durability
	useTCB bool
}{
	{"disk", ods.DiskDurability, false},
	{"pm/tcb=true", ods.PMDurability, true},
	{"pm/tcb=false", ods.PMDurability, false},
}

// TestRebuiltOwnsItsBytes scribbles over the recovery's scratch buffer once
// FromDisk/FromPM have returned: the rebuilt image must not alias it (nor,
// through the analysis, the streams copied out of it).
func TestRebuiltOwnsItsBytes(t *testing.T) {
	scribble := func(t *testing.T, sc *scratch) {
		t.Helper()
		if len(sc.buf) == 0 {
			t.Fatal("recovery did not use its scratch")
		}
		for i := range sc.buf {
			sc.buf[i] = 0xFF
		}
	}
	for _, tc := range recoveryPaths {
		t.Run(tc.name, func(t *testing.T) {
			res := RunScenario(tc.d, 12, 1)
			defer res.Store.Eng.Shutdown()
			sc := new(scratch)
			_, rb := recoverWith(t, res, tc.useTCB, sc)
			scribble(t, sc)
			checkGroundTruth(t, rb, res)
		})
	}
}

// recoverWith runs the durability mode's recovery of a crashed scenario over
// the given scratch, through the unexported entry points FromDisk and FromPM
// wrap.
func recoverWith(t *testing.T, res ScenarioResult, useTCB bool, sc *scratch) (rep Report, rb *Rebuilt) {
	t.Helper()
	var err error
	if res.Store.Opts.Durability == ods.DiskDurability {
		res.Store.Eng.Spawn("recover-disk", func(p *sim.Proc) {
			rep, rb, err = fromDisk(p, res.Store.AuditVolumes, Options{}, sc)
		})
	} else {
		res.Reboot()
		res.Store.Cl.CPU(2).Spawn("recover-pm", func(p *cluster.Process) {
			tcb := ""
			if useTCB {
				tcb = tmf.TCBRegionName
			}
			rep, rb, err = fromPM(p, pmclient.Attach(res.Store.Cl, ods.PMVolumeName), res.logRegions(), tcb, Options{}, sc)
		})
	}
	res.Store.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, rb
}

// image flattens a rebuilt database into "file/key=body" lines, files and
// keys in order.
func image(rb *Rebuilt) []string {
	var files []string
	for name := range rb.Files {
		files = append(files, name)
	}
	sort.Strings(files)
	var rows []string
	for _, name := range files {
		rb.Files[name].Ascend(0, ^uint64(0), func(it btree.Item[[]byte]) bool {
			rows = append(rows, fmt.Sprintf("%s/%d=%s", name, it.Key, it.Value))
			return true
		})
	}
	return rows
}

// TestDirtyScratchRecoversTheSameImage is the entry side of
// TestRebuiltOwnsItsBytes: a recovery is handed whatever buffer the last
// reader in the process left behind, so what that buffer holds — 0xFF
// throughout, or the whole valid trail of a longer run of another store —
// must not reach the report or the image. Each crashed store is recovered
// once, from a scratch no reader has touched, as the reference.
func TestDirtyScratchRecoversTheSameImage(t *testing.T) {
	for _, tc := range recoveryPaths {
		t.Run(tc.name, func(t *testing.T) {
			crashed := func(txns int, seed int64) ScenarioResult {
				res := RunScenario(tc.d, txns, seed)
				if len(res.Errs) > 0 {
					t.Fatalf("workload errors: %v", res.Errs)
				}
				t.Cleanup(res.Store.Eng.Shutdown)
				return res
			}
			ref := crashed(12, 1)
			wantRep, wantRb := recoverWith(t, ref, tc.useTCB, &scratch{buf: []byte{}})
			checkGroundTruth(t, wantRb, ref)
			want := image(wantRb)

			// The longer trail: five times the transactions, another seed.
			used := &scratch{buf: []byte{}}
			long := crashed(60, 2)
			_, longRb := recoverWith(t, long, tc.useTCB, used)
			checkGroundTruth(t, longRb, long)

			for name, sc := range map[string]*scratch{
				"0xFF":                         {buf: bytes.Repeat([]byte{0xFF}, 3<<20)},
				"left by a longer valid trail": used,
			} {
				res := crashed(12, 1)
				rep, rb := recoverWith(t, res, tc.useTCB, sc)
				if rep != wantRep {
					t.Errorf("%s scratch: report %+v, from an untouched scratch %+v", name, rep, wantRep)
				}
				if got := image(rb); !reflect.DeepEqual(got, want) {
					t.Errorf("%s scratch: image of %d rows differs from the untouched scratch's %d", name, len(got), len(want))
				}
			}
		})
	}
}

// TestConcurrentRecoveriesShareOneSpare runs eight crash-and-recover
// scenarios on eight goroutines, as bench's worker pool does: whoever
// finishes hands its buffer on through the process's one spare slot, whoever
// starts next takes it or allocates, and every image is its own store's
// ground truth. Under -race it also holds that a buffer is never in two
// recoveries at once.
func TestConcurrentRecoveriesShareOneSpare(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				d := ods.DiskDurability
				if g%2 == 1 {
					d = ods.PMDurability
				}
				res := RunScenario(d, 4+2*g+round, int64(1+g))
				var rb *Rebuilt
				var err error
				if d == ods.DiskDurability {
					_, rb, err = res.RecoverDisk(Options{})
				} else {
					_, rb, err = res.RecoverPM(Options{}, g%4 == 1)
				}
				switch {
				case len(res.Errs) > 0:
					t.Errorf("goroutine %d round %d: workload errors: %v", g, round, res.Errs)
				case err != nil:
					t.Errorf("goroutine %d round %d: %v", g, round, err)
				default:
					checkGroundTruth(t, rb, res)
					if rb.Rows() != len(res.Committed) {
						t.Errorf("goroutine %d round %d: %d rows recovered, %d committed", g, round, rb.Rows(), len(res.Committed))
					}
				}
				res.Store.Eng.Shutdown()
			}
		}(g)
	}
	wg.Wait()
}
