package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"persistmem/internal/audit"
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
	t.Run("disk", func(t *testing.T) {
		res := RunScenario(ods.DiskDurability, 12, 1)
		defer res.Store.Eng.Shutdown()
		sc := new(scratch)
		var rb *Rebuilt
		var err error
		res.Store.Eng.Spawn("recover-disk", func(p *sim.Proc) {
			_, rb, err = fromDisk(p, res.Store.AuditVolumes, Options{}, sc)
		})
		res.Store.Eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		scribble(t, sc)
		checkGroundTruth(t, rb, res)
	})
	for _, useTCB := range []bool{true, false} {
		t.Run(fmt.Sprintf("pm/tcb=%v", useTCB), func(t *testing.T) {
			res := RunScenario(ods.PMDurability, 12, 1)
			defer res.Store.Eng.Shutdown()
			res.Reboot()
			sc := new(scratch)
			var rb *Rebuilt
			var err error
			res.Store.Cl.CPU(2).Spawn("recover-pm", func(p *cluster.Process) {
				tcb := ""
				if useTCB {
					tcb = tmf.TCBRegionName
				}
				_, rb, err = fromPM(p, pmclient.Attach(res.Store.Cl, ods.PMVolumeName), res.logRegions(), tcb, Options{}, sc)
			})
			res.Store.Eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			scribble(t, sc)
			checkGroundTruth(t, rb, res)
		})
	}
}
