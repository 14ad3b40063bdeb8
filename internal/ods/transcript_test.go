package ods_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/hotstock"
	"persistmem/internal/metrics"
	"persistmem/internal/ods"
	"persistmem/internal/sim"
)

// transcript hashes every event an engine dispatches — its (at, seq) key,
// the spawn id of the process it targets (0 for a callback) and the park
// stamp it carries — in dispatch order.
type transcript struct {
	h      hash.Hash64
	events int
	buf    [32]byte
}

func watch(eng *sim.Engine) *transcript {
	tr := &transcript{h: fnv.New64a()}
	eng.SetDispatchObserver(func(at sim.Time, seq uint64, p *sim.Proc, stamp uint64) {
		var id uint64
		if p != nil {
			id = p.ID()
		}
		binary.LittleEndian.PutUint64(tr.buf[0:], uint64(at))
		binary.LittleEndian.PutUint64(tr.buf[8:], seq)
		binary.LittleEndian.PutUint64(tr.buf[16:], id)
		binary.LittleEndian.PutUint64(tr.buf[24:], stamp)
		tr.h.Write(tr.buf[:])
		tr.events++
	})
	return tr
}

func (tr *transcript) digest() string { return fmt.Sprintf("%016x/%d", tr.h.Sum64(), tr.events) }

// hotstockTranscript runs 200 hot-stock transactions (2 drivers, 8 x 4 KB)
// under d and returns the run's transcript digest.
func hotstockTranscript(t *testing.T, d ods.Durability) string {
	opts := ods.DefaultOptions()
	opts.Durability = d
	s := ods.Build(opts)
	tr := watch(s.Eng)
	r := hotstock.RunOn(s, hotstock.Params{Drivers: 2, RecordsPerDriver: 100 * 8, InsertsPerTxn: 8})
	s.Shutdown()
	if got := r.Drivers[0].Txns + r.Drivers[1].Txns; got != 200 {
		t.Fatalf("%v: %d of 200 transactions committed", d, got)
	}
	return tr.digest()
}

// crossShardTranscript runs two clients committing two-phase transactions
// over both partitions of a file on a PM store. They insert the same keys, so
// one waits on the other's row locks (the DP2's conflict path), meets a
// duplicate key, and aborts; every fifth transaction of the second client
// aborts on purpose. All 200 of the second client's inserts wait on a row
// lock, and the run fails unless they did: each wait ends with the insert
// handed back to the DP2 primary, which meets the duplicate key.
func crossShardTranscript(t *testing.T) string {
	opts := ods.DefaultOptions()
	opts.Files = []ods.FileSpec{{Name: "TRADES", Partitions: 2}}
	opts.DataVolumes = 2
	opts.Durability = ods.PMDurability
	opts.Metrics = metrics.NewRegistry() // passive: it moves no event
	s := ods.Build(opts)
	tr := watch(s.Eng)
	commits := 0
	for c := 0; c < 2; c++ {
		c := c
		s.Cl.CPU(2+c).Spawn(fmt.Sprintf("client%d", c), func(p *cluster.Process) {
			se := s.NewSession(p)
			se.SetTwoPhase(true)
			body := []byte("cross-shard")
			for i := 0; i < 50; i++ {
				txn, err := se.Begin()
				if err != nil {
					t.Errorf("client%d: Begin: %v", c, err)
					return
				}
				for k := uint64(0); k < 4; k++ {
					txn.InsertAsync("TRADES", uint64(i)*4+k+1, body)
				}
				if c == 1 && i%5 == 4 {
					txn.Abort()
					continue
				}
				if txn.Commit() == nil {
					commits++
				}
			}
		})
	}
	s.Eng.Run()
	s.Shutdown()
	if commits == 0 {
		t.Fatalf("no cross-shard transaction committed")
	}
	if waits := opts.Metrics.Locks.Enters.Value(); waits < 200 {
		t.Fatalf("%d inserts waited on a row lock, want at least 200: the run no longer takes the conflict path", waits)
	}
	return tr.digest()
}

// TestScheduleTranscriptsPinned pins the whole schedule of four runs at event
// grain: every dispatched event's key, target and park stamp, hashed in
// dispatch order. A change to how processes are switched — a request path
// turned into a script the dispatcher walks, a blocking call made one park —
// must leave every digest where it is: it may remove switches, never move,
// add or drop an event.
func TestScheduleTranscriptsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) string
		want string
	}{
		{"hotstock-disk", func(t *testing.T) string { return hotstockTranscript(t, ods.DiskDurability) }, "ebee22b36438ce49/84244"},
		{"hotstock-pm", func(t *testing.T) string { return hotstockTranscript(t, ods.PMDurability) }, "24eff63172b98ed3/78294"},
		{"hotstock-pmdirect", func(t *testing.T) string { return hotstockTranscript(t, ods.PMDirectDurability) }, "7bbcc5bb0b64638a/73858"},
		{"crossshard-pm", crossShardTranscript, "b9bf32e46e66b0bb/16762"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			t.Logf("transcript digest/events %s", got)
			if got != tc.want {
				t.Errorf("transcript %s, want %s: the schedule moved", got, tc.want)
			}
		})
	}
}
