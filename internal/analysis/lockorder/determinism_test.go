package lockorder_test

import (
	"testing"

	"dyndbscan/internal/analysis/atest"
	"dyndbscan/internal/analysis/holdblock"
	"dyndbscan/internal/analysis/lockorder"
)

// TestHelperUnlockDeterministic runs the analyzers over the helper-method
// unlock fixture many times: lock summaries reach a fixpoint however deep the
// helper chain, so every run must give exactly the expected diagnostics.
func TestHelperUnlockDeterministic(t *testing.T) {
	for i := 0; i < 50 && !t.Failed(); i++ {
		atest.Run(t, "../testdata/src/helperunlock", lockorder.Analyzer, holdblock.Analyzer)
	}
}
