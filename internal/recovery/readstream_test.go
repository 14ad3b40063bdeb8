package recovery

import (
	"bytes"
	"encoding/binary"
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
	"persistmem/internal/stable"
	"persistmem/internal/tmf"
)

// readStream reads a whole log area with step, as a trail's reader reads
// each replica, and returns the length of the valid record prefix
// (sc.buf[:valid] is the stream) and the bytes read.
func readStream(sc *scratch, capacity int64, opts Options, readChunk func(off int64, buf []byte) error) (valid int, read int64, err error) {
	var c audit.Cursor
	for c.Off < capacity {
		settled, err := step(&c, sc, capacity, opts, chunkFunc(readChunk))
		if err != nil {
			return 0, 0, err
		}
		if settled {
			break
		}
	}
	return c.Valid, c.Off, nil
}

// chunkFunc is an audit.ChunkReader that is a function.
type chunkFunc func(off int64, buf []byte) error

func (f chunkFunc) ReadChunk(off int64, buf []byte) error { return f(off, buf) }

// lengthPrefix is the size of an audit frame's u32 length prefix, which the
// stop-rule checks below read the media by.
const lengthPrefix = 4

// readStreamReference is the algorithm the chunk reads replaced, kept as the
// test's oracle for the stream bytes: a fresh buffer per chunk, appended to
// the stream, the whole stream rescanned from offset 0 after every chunk, and
// a stop only once the trail's end lies half a chunk inside what was read (a
// torn tail reads to the device's end).
func readStreamReference(capacity int64, opts Options, readChunk func(off int64, buf []byte) error) ([]byte, int64, error) {
	var data []byte
	var off int64
	for off < capacity {
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

// frameWithin returns the offset of log's first frame that lies wholly in
// [lo, hi).
func frameWithin(t *testing.T, log []byte, lo, hi int) int {
	t.Helper()
	s := audit.NewScanner(log)
	for s.Next() {
		if int(s.LSN()) >= lo && s.Offset() <= hi {
			return int(s.LSN())
		}
	}
	t.Fatalf("no frame lies wholly in [%d, %d)", lo, hi)
	return 0
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

// reachedEdge reports whether a scan that stops at valid, over media read up
// to edge, had to read on: fewer than a frame header left before the edge,
// or a frame that runs past it.
func reachedEdge(media []byte, valid, edge int) bool {
	if edge-valid < lengthPrefix {
		return true
	}
	return valid+lengthPrefix+int(binary.LittleEndian.Uint32(media[valid:])) > edge
}

func TestReadStreamMatchesRescanningReference(t *testing.T) {
	// reachedEdge reads audit's frame length prefix itself: hold the two to
	// one layout.
	if f := audit.AppendRecord(nil, &audit.Record{File: "TRADES"}); lengthPrefix+int(binary.LittleEndian.Uint32(f)) != len(f) {
		t.Fatalf("a %d-byte frame declares %d bytes after a %d-byte prefix", len(f), binary.LittleEndian.Uint32(f), lengthPrefix)
	}
	for _, chunk := range []int{64, 4 << 10, 64 << 10, 1 << 20} {
		body := chunk / 9 // frames that do not divide a chunk
		type tc struct {
			name     string
			log      []byte
			capacity int
			// reads and refReads, when set, are the exact numbers of reads
			// the stop rule and the reference issue.
			reads, refReads int
		}
		straddle := buildLog(t, 2*chunk+chunk/2, body)
		torn := append([]byte(nil), straddle...)
		torn[len(torn)-6] ^= 0xFF // inside the last frame's body or CRC

		// A torn frame wholly inside the third chunk, with log behind it.
		inside := buildLog(t, 4*chunk, body)
		tear := frameWithin(t, inside, 2*chunk, 3*chunk)
		inside[tear+lengthPrefix+2] ^= 0xFF

		// A length prefix claiming more than the device holds.
		huge := binary.LittleEndian.AppendUint32(buildLog(t, chunk+chunk/2, body), uint32(8*chunk))

		cases := []tc{
			{name: "record straddles a chunk boundary, zero tail", log: straddle, capacity: 6 * chunk},
			{name: "torn tail", log: torn, capacity: 6 * chunk},
			{name: "torn tail at the end of the device", log: torn[:len(torn)-3], capacity: len(torn) - 3},
			{name: "log ends exactly on a chunk boundary", log: buildLog(t, 2*chunk, body), capacity: 6 * chunk, reads: 3},
			{name: "log ends just inside the stop margin", log: buildLog(t, chunk+chunk/2, body), capacity: 6 * chunk, reads: 2}, // the reference's half chunk
			{name: "empty log", log: nil, capacity: 6 * chunk, reads: 1},
			{name: "log fills a device that is not a whole number of chunks", log: buildLog(t, 3*chunk+chunk/3, body), capacity: 3*chunk + chunk/3, reads: 4},
			{name: "tear wholly inside a chunk", log: inside, capacity: 6 * chunk, reads: tear/chunk + 1, refReads: 6},
			{name: "zero header 3 bytes before the chunk edge", log: buildLog(t, 2*chunk-3, body), capacity: 6 * chunk, reads: 3},
			{name: "zero header wholly inside the chunk's last 4 bytes", log: buildLog(t, 2*chunk-4, body), capacity: 6 * chunk, reads: 2},
			{name: "length runs past the device", log: huge, capacity: 6 * chunk, reads: 2, refReads: 6},
			{name: "log ends 2 bytes short of a chunk boundary", log: buildLog(t, 2*chunk-2, body), capacity: 6 * chunk, reads: 3},
			{name: "log ends 2 bytes short of the device's end", log: buildLog(t, 3*chunk-2, body), capacity: 3 * chunk, reads: 3},
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("chunk=%d/%s", chunk, c.name), func(t *testing.T) {
				opts := Options{ChunkBytes: chunk}
				opts.defaults()

				var refReads []readCall
				wantData, refRead, err := readStreamReference(int64(c.capacity), opts, device(c.log, c.capacity, &refReads))
				if err != nil {
					t.Fatal(err)
				}
				if c.refReads != 0 && len(refReads) != c.refReads {
					t.Errorf("the reference issued %d reads, want %d", len(refReads), c.refReads)
				}
				ref := audit.NewScanner(wantData)
				for ref.Next() {
				}
				wantStream := wantData[:ref.Offset()]
				media := make([]byte, c.capacity)
				copy(media, c.log)

				check := func(t *testing.T, sc *scratch) {
					t.Helper()
					var reads []readCall
					valid, read, err := readStream(sc, int64(c.capacity), opts, device(c.log, c.capacity, &reads))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(sc.buf[:valid], wantStream) {
						t.Errorf("stream: %d valid bytes, reference %d", valid, len(wantStream))
					}
					var sum int64
					for _, r := range reads {
						sum += int64(r.Len)
					}
					if sum != read {
						t.Errorf("bytes read = %d, the reads issued %v add up to %d", read, reads, sum)
					}
					// At most one chunk past the valid prefix, unless the
					// read before the last left the scan at its edge.
					if prev := int(read) - reads[len(reads)-1].Len; read > int64(valid+chunk) && !reachedEdge(media, valid, prev) {
						t.Errorf("read %d bytes for a %d-byte stream in %d reads: more than one chunk past it", read, valid, len(reads))
					}
					if read > refRead {
						t.Errorf("read %d bytes, more than the reference's %d", read, refRead)
					}
					if c.reads != 0 && len(reads) != c.reads {
						t.Errorf("%d reads, want %d", len(reads), c.reads)
					}
				}

				// A scratch an earlier, longer stream left dirty: nothing
				// stale in it may reach the scan.
				sc := &scratch{buf: bytes.Repeat([]byte{0xFF}, c.capacity+chunk)}
				stale := audit.AppendRecord(nil, &audit.Record{Type: audit.RecCommit, Txn: 99})
				for off := 0; off+len(stale) <= len(sc.buf); off += chunk {
					copy(sc.buf[off:], stale) // a whole frame wherever a read can end
				}
				check(t, sc)
				// And from a cold scratch, which grows as the reads need.
				check(t, new(scratch))
			})
		}
	}
}

// TestScratchGrowsByDoubling holds reserve's growth: from a floor of
// scratchFloor, doubling, keeping what was read.
func TestScratchGrowsByDoubling(t *testing.T) {
	sc := &scratch{buf: []byte{}}
	sc.reserve(0, 64<<10)
	if len(sc.buf) != scratchFloor {
		t.Fatalf("first reservation: %d bytes, want the floor %d", len(sc.buf), scratchFloor)
	}
	sc.buf[scratchFloor-1] = 7
	sc.reserve(scratchFloor, scratchFloor+1)
	if len(sc.buf) != 2*scratchFloor || sc.buf[scratchFloor-1] != 7 {
		t.Errorf("grown to %d bytes, kept byte %d: want %d and 7", len(sc.buf), sc.buf[scratchFloor-1], 2*scratchFloor)
	}
	sc.reserve(0, 5*scratchFloor)
	if len(sc.buf) != 8*scratchFloor {
		t.Errorf("grown to %d bytes, want %d", len(sc.buf), 8*scratchFloor)
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

// recoveryPaths are Claim C2's four recovery paths: off the audit disks, out
// of the PM audit trails with and without the TCB region, and out of the
// per-DP2 PM logs with it.
var recoveryPaths = []struct {
	name   string
	d      ods.Durability
	useTCB bool
}{
	{"disk", ods.DiskDurability, false},
	{"pm/tcb=true", ods.PMDurability, true},
	{"pm/tcb=false", ods.PMDurability, false},
	{"pmdirect/tcb=true", ods.PMDirectDurability, true},
}

// drainSpares empties the process's spare read buffers and returns them.
func drainSpares() [][]byte {
	var bufs [][]byte
	for b := stable.TakeScratch(); b != nil; b = stable.TakeScratch() {
		bufs = append(bufs, b)
	}
	return bufs
}

// scribbleSpares fills every spare read buffer of the process with 0xFF and
// hands each back, returning how many there were.
func scribbleSpares() int {
	bufs := drainSpares()
	for _, b := range bufs {
		for i := range b {
			b[i] = 0xFF
		}
		stable.HandOn(b)
	}
	return len(bufs)
}

// TestRebuiltOwnsItsBytes scribbles over every read buffer the recovery
// handed on — the recovering process's and each trail reader's, all back
// among the process's spares — once FromDisk/FromPM have returned: the
// rebuilt image must not alias any of them (nor, through the analysis, the
// segments copied out of them).
func TestRebuiltOwnsItsBytes(t *testing.T) {
	for _, tc := range recoveryPaths {
		t.Run(tc.name, func(t *testing.T) {
			res := RunScenario(tc.d, 12, 1)
			defer res.Store.Eng.Shutdown()
			drainSpares() // every spare left afterwards is one this recovery read into
			_, rb := recoverWith(t, res, tc.useTCB, false)
			if scribbleSpares() == 0 {
				t.Fatal("the recovery handed on no read buffer")
			}
			checkGroundTruth(t, rb, res)
		})
	}
}

// recoverWith runs the durability mode's recovery of a crashed scenario
// through the unexported entry points FromDisk and FromPM wrap, with the
// workers on every CPU of the node — or, serial, all on the recovering
// process's own CPU, one after another.
func recoverWith(t *testing.T, res ScenarioResult, useTCB bool, serial bool) (rep Report, rb *Rebuilt) {
	t.Helper()
	res.Reboot()
	cl := res.Store.Cl
	cpus := nodeCPUs(cl)
	if serial {
		cpus = []*cluster.CPU{cl.CPU(2)}
	}
	var err error
	cl.CPU(2).Spawn("recover", func(p *cluster.Process) {
		if res.Store.Opts.Durability == ods.DiskDurability {
			rep, rb, err = fromDisk(p, res.Store.AuditVolumes, Options{}, cpus)
			return
		}
		tcb := ""
		if useTCB {
			tcb = tmf.TCBRegionName
		}
		rep, rb, err = fromPM(p, pmclient.Attach(cl, ods.PMVolumeName), res.Store.LogRegions(), tcb, Options{}, cpus)
	})
	res.Store.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, rb
}

// image flattens a rebuilt database into "file/key=body" lines, files and
// keys in order, whichever trail's trees hold them.
func image(rb *Rebuilt) []string {
	var files []string
	for name := range rb.files {
		files = append(files, name)
	}
	sort.Strings(files)
	var rows []string
	for _, name := range files {
		var items []btree.Item[[]byte]
		for _, t := range rb.files[name] {
			if t != nil {
				t.Ascend(0, ^uint64(0), func(it btree.Item[[]byte]) bool {
					items = append(items, it)
					return true
				})
			}
		}
		sort.Slice(items, func(i, j int) bool { return items[i].Key < items[j].Key })
		for _, it := range items {
			rows = append(rows, fmt.Sprintf("%s/%d=%s", name, it.Key, it.Value))
		}
	}
	return rows
}

// dirtySpares is how many buffers a test leaves among the process's spares
// to be sure a recovery reads into nothing else: more than the recovering
// process and the four trails' readers take.
const dirtySpares = 8

// TestDirtyScratchRecoversTheSameImage is the entry side of
// TestRebuiltOwnsItsBytes: every reader of a recovery is handed whatever
// buffer an earlier reader in the process left behind, so what those buffers
// hold — 0xFF throughout, or the whole valid trails of a longer run of
// another store — must not reach the report or the image. Each crashed store
// is recovered once, with no spares to take, as the reference.
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
			drainSpares()
			wantRep, wantRb := recoverWith(t, ref, tc.useTCB, false)
			checkGroundTruth(t, wantRb, ref)
			want := image(wantRb)

			for _, dirty := range []struct {
				name string
				fill func()
			}{
				{"0xFF", func() {
					for range dirtySpares {
						stable.HandOn(bytes.Repeat([]byte{0xFF}, scratchFloor))
					}
				}},
				{"left by a longer valid trail", func() {
					// Five times the transactions, another seed.
					long := crashed(60, 2)
					_, longRb := recoverWith(t, long, tc.useTCB, false)
					checkGroundTruth(t, longRb, long)
				}},
			} {
				drainSpares()
				dirty.fill()
				res := crashed(12, 1)
				rep, rb := recoverWith(t, res, tc.useTCB, false)
				if rep != wantRep {
					t.Errorf("%s spares: report %+v, with none %+v", dirty.name, rep, wantRep)
				}
				if got := image(rb); !reflect.DeepEqual(got, want) {
					t.Errorf("%s spares: image of %d rows differs from the reference's %d", dirty.name, len(got), len(want))
				}
			}
		})
	}
}

// TestConcurrentRecoveriesShareTheSpares runs eight crash-and-recover
// scenarios on eight goroutines, as bench's worker pool does: every reader
// that finishes — a recovering process or a trail's reader — hands its
// buffer on through the process's spare slots, every reader that starts
// takes one or allocates, and every image is its own store's ground truth.
// Under -race it also holds that a buffer is never in two readers at once.
func TestConcurrentRecoveriesShareTheSpares(t *testing.T) {
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

// TestReadSizeChangesOnlyTheCost recovers the same crashed store at three
// read sizes on each recovery path: the size moves MTTR, the bytes read and
// how much redo waits for the barrier, never the image or what the analysis
// found. At 4 KiB the TCB image takes
// several reads.
func TestReadSizeChangesOnlyTheCost(t *testing.T) {
	for _, tc := range recoveryPaths {
		t.Run(tc.name, func(t *testing.T) {
			var want []string
			var wantRep Report
			for i, chunk := range []int{4 << 10, 64 << 10, 1 << 20} {
				res := RunScenario(tc.d, 60, 1)
				var rep Report
				var rb *Rebuilt
				var err error
				if tc.d == ods.DiskDurability {
					rep, rb, err = res.RecoverDisk(Options{ChunkBytes: chunk})
				} else {
					rep, rb, err = res.RecoverPM(Options{ChunkBytes: chunk}, tc.useTCB)
				}
				res.Store.Eng.Shutdown()
				if err != nil {
					t.Fatal(err)
				}
				checkGroundTruth(t, rb, res)
				rep.MTTR, rep.BytesRead, rep.RedoneAfterBarrier = 0, 0, 0
				if i == 0 {
					want, wantRep = image(rb), rep
					continue
				}
				if rep != wantRep {
					t.Errorf("chunk %d: report %+v, at 4 KiB %+v", chunk, rep, wantRep)
				}
				if got := image(rb); !reflect.DeepEqual(got, want) {
					t.Errorf("chunk %d: image of %d rows differs from 4 KiB's %d", chunk, len(got), len(want))
				}
			}
		})
	}
}
