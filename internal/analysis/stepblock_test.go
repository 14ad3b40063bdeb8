package analysis_test

import (
	"testing"

	"persistmem/internal/analysis"
	"persistmem/internal/analysis/analysistest"
)

func TestStepblock(t *testing.T) {
	analysistest.Run(t, "testdata/stepblock/step", analysis.Stepblock, analysistest.Config{SimCritical: true})
}
