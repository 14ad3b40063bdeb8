// The arrival process and key distribution for the open-loop harness.
//
// An open-loop generator decides *when* the next transaction arrives
// independently of when earlier transactions complete, which is what
// lets offered load exceed the store's capacity and expose the
// saturation knee. Every source of randomness is a *rand.Rand derived
// via Engine.DeriveRand, so arrival schedules are a pure function of
// the simulation seed.
package loadgen

import (
	"fmt"
	"math/rand"

	"persistmem/internal/sim"
)

// Poisson is a stationary Poisson arrival process: independent
// exponentially distributed inter-arrival gaps with mean 1/rate.
type Poisson struct {
	rng     *rand.Rand
	meanGap float64 // mean inter-arrival gap in virtual nanoseconds
}

// NewPoisson returns a Poisson process offering rate arrivals per
// virtual second. rng must come from Engine.DeriveRand.
func NewPoisson(rng *rand.Rand, rate float64) *Poisson {
	if rate <= 0 {
		panic(fmt.Sprintf("loadgen: Poisson rate %v must be positive", rate))
	}
	return &Poisson{rng: rng, meanGap: float64(sim.Second) / rate}
}

// Next draws the next inter-arrival gap.
//
//simlint:hotpath
func (p *Poisson) Next() sim.Time {
	return sim.Time(p.rng.ExpFloat64() * p.meanGap)
}

// Keys draws skewed logical keys: a Zipf distribution over
// [0, keyspace), so key 0 is the hottest. Routed through
// ods.Store.PartitionOf, low keys concentrate load on low-numbered
// shards — the skew-induced hot-shard scenario.
type Keys struct {
	z *rand.Zipf
}

// NewZipfKeys returns a Zipf(s, v) sampler over [0, keyspace). s must
// be > 1 and v >= 1 (math/rand's parameterization: P(k) ∝ (v+k)^-s).
func NewZipfKeys(rng *rand.Rand, s, v float64, keyspace uint64) *Keys {
	if keyspace == 0 {
		panic("loadgen: zero keyspace")
	}
	z := rand.NewZipf(rng, s, v, keyspace-1)
	if z == nil {
		panic(fmt.Sprintf("loadgen: invalid Zipf parameters s=%v v=%v (need s>1, v>=1)", s, v))
	}
	return &Keys{z: z}
}

// Next draws the next logical key.
//
//simlint:hotpath
func (k *Keys) Next() uint64 { return k.z.Uint64() }
