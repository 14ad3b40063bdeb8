package analysis_test

import (
	"testing"

	"persistmem/internal/analysis"
	"persistmem/internal/analysis/analysistest"
)

func TestGoroutineKernel(t *testing.T) {
	analysistest.Run(t, "testdata/goroutine/kernel", analysis.Goroutine,
		analysistest.Config{SimCritical: true})
}

// TestGoroutinePool checks the bench exemption: the same real-concurrency
// constructs are silent under RealConcOK.
func TestGoroutinePool(t *testing.T) {
	analysistest.Run(t, "testdata/goroutine/pool", analysis.Goroutine,
		analysistest.Config{SimCritical: true, RealConcOK: true})
}
