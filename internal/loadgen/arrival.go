// Arrival processes and key distributions for the open-loop harness.
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

// Arrivals is a deterministic arrival process. Next returns the gap in
// virtual time between the previous arrival and the next one.
type Arrivals interface {
	Next() sim.Time
}

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

// MMPP is a two-state Markov-modulated Poisson process — the standard
// on/off bursty-traffic model. The process alternates between an "on"
// state offering onRate and an "off" state offering offRate (possibly
// zero: silence between bursts); sojourn times in each state are
// exponential with the configured means.
type MMPP struct {
	rng             *rand.Rand
	onGap, offGap   float64 // mean inter-arrival gap per state (ns); <= 0 means silent
	onMean, offMean float64 // mean state sojourn (ns)
	on              bool
	left            float64 // time remaining in the current state (ns)
}

// NewMMPP returns an on/off modulated Poisson process. onRate must be
// positive; offRate may be zero (fully silent gaps). The process starts
// in the on state with a freshly drawn sojourn.
func NewMMPP(rng *rand.Rand, onRate, offRate float64, onMean, offMean sim.Time) *MMPP {
	if onRate <= 0 {
		panic(fmt.Sprintf("loadgen: MMPP on-rate %v must be positive", onRate))
	}
	if offRate < 0 {
		panic(fmt.Sprintf("loadgen: MMPP off-rate %v must be non-negative", offRate))
	}
	if onMean <= 0 || offMean <= 0 {
		panic("loadgen: MMPP sojourn means must be positive")
	}
	m := &MMPP{
		rng:     rng,
		onGap:   float64(sim.Second) / onRate,
		onMean:  float64(onMean),
		offMean: float64(offMean),
		on:      true,
	}
	if offRate > 0 {
		m.offGap = float64(sim.Second) / offRate
	}
	m.left = m.rng.ExpFloat64() * m.onMean
	return m
}

// MeanRate returns the process's long-run offered load in arrivals per
// virtual second (the duty-cycle-weighted average of the two states).
func (m *MMPP) MeanRate() float64 {
	onRate := float64(sim.Second) / m.onGap
	offRate := 0.0
	if m.offGap > 0 {
		offRate = float64(sim.Second) / m.offGap
	}
	return (onRate*m.onMean + offRate*m.offMean) / (m.onMean + m.offMean)
}

// Next draws the next inter-arrival gap, crossing state boundaries as
// needed (a gap can span several silent off periods).
//
//simlint:hotpath
func (m *MMPP) Next() sim.Time {
	var gap float64
	for {
		cur := m.offGap
		if m.on {
			cur = m.onGap
		}
		if cur > 0 {
			draw := m.rng.ExpFloat64() * cur
			if draw <= m.left {
				m.left -= draw
				return sim.Time(gap + draw)
			}
		}
		// No arrival before the state flips: consume the remaining
		// sojourn and redraw in the other state.
		gap += m.left
		m.on = !m.on
		mean := m.offMean
		if m.on {
			mean = m.onMean
		}
		m.left = m.rng.ExpFloat64() * mean
	}
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
