package analysis

import "strings"

// modulePath is the root import path of this repository's module.
const modulePath = "persistmem"

// Classify maps an import path to its simlint posture.
//
// Everything under persistmem/internal/ runs inside (or produces the inputs
// of) the deterministic simulation, so it is sim-critical: no wall clock,
// no global randomness, no unordered map walks, no real concurrency.
// Commands are drivers *around* the simulation — they time wall-clock
// runs, write files, and parse flags — so they are exempt.
//
// internal/bench is the one sim-critical package allowed real concurrency:
// its worker pool fans independent engines out across OS threads, which is
// sound because distinct Engine instances share no state.
func Classify(importPath string) (simCritical, realConcOK bool) {
	// go vet hands test variants paths like "persistmem/internal/sim.test"
	// or "persistmem/internal/sim [persistmem/internal/sim.test]"; simlint
	// checks only non-test sources (tests may use locally seeded rand and
	// real concurrency freely), so those are classified non-critical.
	if strings.Contains(importPath, ".test") || strings.Contains(importPath, " [") {
		return false, false
	}
	if !strings.HasPrefix(importPath, modulePath+"/internal/") {
		return false, false
	}
	simCritical = true
	realConcOK = importPath == modulePath+"/internal/bench"
	return simCritical, realConcOK
}
