// Package allocbudget holds a call's allocations to a committed budget, the
// way the Go standard library pins its allocation-free paths with
// testing.AllocsPerRun. Each package keeps its own budget table beside the
// benchmark whose calls it counts; Check is the one rule they share.
package allocbudget

import "testing"

// Warmup calls precede every count, so no budget pays a one-time fill (a
// pool, an intern table, a grown buffer) on behalf of the calls after it.
const Warmup = 100

// Check counts op's allocations per call over 100 calls after Warmup
// calls, and compares the count with budget: a rise fails t, and a fall
// passes with a reminder to lower the budget, so the gain is kept. Under
// the race detector, whose sync.Pool drops pooled buffers at random, it
// skips.
func Check(t *testing.T, budget float64, op func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	for i := 0; i < Warmup; i++ {
		op()
	}
	switch got := testing.AllocsPerRun(100, op); {
	case got > budget:
		t.Errorf("%s allocates %v times per call, over its budget of %v", t.Name(), got, budget)
	case got < budget:
		t.Logf("%s allocates %v times per call, under its budget of %v: lower the budget", t.Name(), got, budget)
	}
}
