package analysis_test

import (
	"testing"

	"persistmem/internal/analysis"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		path                    string
		simCritical, realConcOK bool
	}{
		{"persistmem/internal/sim", true, false},
		{"persistmem/internal/ods", true, false},
		{"persistmem/internal/bench", true, true},
		{"persistmem/cmd/figures", false, false},
		{"persistmem/cmd/simlint", false, false},
		{"persistmem", false, false},
		{"fmt", false, false},
		// go vet test-variant spellings must never be sim-critical: simlint
		// checks non-test sources only.
		{"persistmem/internal/sim.test", false, false},
		{"persistmem/internal/sim [persistmem/internal/sim.test]", false, false},
		{"persistmem/internal/bench.test", false, false},
	}
	for _, c := range cases {
		sc, rc := analysis.Classify(c.path)
		if sc != c.simCritical || rc != c.realConcOK {
			t.Errorf("Classify(%q) = (%v, %v), want (%v, %v)",
				c.path, sc, rc, c.simCritical, c.realConcOK)
		}
	}
}
