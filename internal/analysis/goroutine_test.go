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

// TestGoroutineSpare holds the one exemption outside the kernel to its own
// line: stable's annotated sync/atomic import passes, the same import
// without a directive elsewhere in the package does not.
func TestGoroutineSpare(t *testing.T) {
	analysistest.Run(t, "testdata/goroutine/spare", analysis.Goroutine,
		analysistest.Config{SimCritical: true})
}
