package loadgen

import (
	"testing"

	"persistmem/internal/ods"
)

// TestPartitionOfZipfDistributionPinned pins the routing property every
// sharded sweep (and the cross-shard two-phase mix) rides on. Under the
// harness's Zipf(1.2, 1) skew at seed scale, ods.Store.PartitionOf must
// spread the key *space* evenly — no shard owns more than 2x its fair
// share of the distinct keys drawn, at every count from 1 to 16 — while
// keeping the skew itself visible in draw mass: shard 0 holds key 0,
// the hottest key, and must be the strictly hottest shard. Were the
// distinct-key spread ever to concentrate, the shard sweep's scaling
// and the cross-shard sweep's round-robin participant choice would both
// silently degenerate to single-shard traffic.
func TestPartitionOfZipfDistributionPinned(t *testing.T) {
	const draws = 200_000
	for _, shards := range []int{1, 2, 4, 8, 16} {
		opts := ods.DefaultOptions()
		opts.Files = []ods.FileSpec{{Name: "TRADES", Partitions: shards}}
		opts.PMRegionBytes = 8 << 20
		s := ods.Build(opts)
		keys := NewZipfKeys(s.Eng.DeriveRand("loadgen-keys"), zipfS, zipfV, keyspace)
		mass := make([]int, shards)
		distinct := make([]int, shards)
		seen := make(map[uint64]bool, draws)
		for i := 0; i < draws; i++ {
			k := keys.Next()
			sh := s.PartitionOf("TRADES", k)
			mass[sh]++
			if !seen[k] {
				seen[k] = true
				distinct[sh]++
			}
		}
		fair := len(seen) / shards
		for sh, n := range distinct {
			if n == 0 {
				t.Errorf("%d shards: shard %d owns no drawn keys", shards, sh)
			}
			if n > 2*fair {
				t.Errorf("%d shards: shard %d owns %d of %d distinct keys (> 2x fair share %d)",
					shards, sh, n, len(seen), fair)
			}
		}
		if shards > 1 {
			for sh := 1; sh < shards; sh++ {
				if mass[sh] >= mass[0] {
					t.Errorf("%d shards: shard %d (%d draws) at least as hot as shard 0 (%d) — Zipf skew invisible",
						shards, sh, mass[sh], mass[0])
				}
			}
		}
	}
}
