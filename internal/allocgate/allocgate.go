// Package allocgate is the shared allocation gate of the serving path's
// tests: testing.AllocsPerRun against a bound, skipped on builds whose
// instrumentation itself allocates on the measured path.
package allocgate

import (
	"testing"

	"ibr/internal/mem"
)

// Check fails t if f allocates more than max times per run, averaged over
// runs after one warm-up call. It skips under the race detector (which
// instruments allocation and makes sync.Pool drop items at random) and
// under ibrdebug (which gives every reservation bracket a fresh Guard).
func Check(t *testing.T, max float64, f func()) {
	t.Helper()
	switch {
	case raceEnabled:
		t.Skip("race detector: instrumentation allocates on the measured path")
	case mem.DebugChecks:
		t.Skip("ibrdebug: every reservation bracket allocates its Guard")
	}
	if got := testing.AllocsPerRun(200, f); got > max {
		t.Fatalf("%v allocs per run, want at most %v", got, max)
	}
}
