package mat

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// drainPool retires every worker and rearms the lazy start, so tests can
// count goroutines hermetically and prove the pool leaks none. It must be
// called only while no kernel is running — trySubmit on a draining pool
// would send on a closed channel. Production code never stops the pool.
func drainPool() {
	if poolCh == nil {
		return // never started
	}
	close(poolCh)
	poolWorkers.Wait()
	poolCh = nil
	poolOnce = new(sync.Once)
	poolInFlight.Store(0)
	poolPeak.Store(0)
}

// poolRoundTrip pushes one job through the pool (inline if every worker is
// busy) and waits for it, guaranteeing the lazy start has run.
func poolRoundTrip() {
	var wg sync.WaitGroup
	wg.Add(1)
	if !trySubmit(func() {}, &wg) {
		wg.Done()
	}
	wg.Wait()
}

// TestPoolDrainStopsWorkers proves the test-only drain hook retires every
// worker — the goroutine count returns to the pre-pool baseline — and
// rearms the lazy start so the next kernel restarts the pool transparently.
func TestPoolDrainStopsWorkers(t *testing.T) {
	drainPool() // quiesce whatever earlier tests started
	base := runtime.NumGoroutine()

	poolRoundTrip()
	if PoolPeakWorkers() == 0 && runtime.NumGoroutine() <= base {
		t.Fatalf("pool did not start any workers")
	}

	drainPool()
	// poolWorkers.Wait() has returned, but the runtime's goroutine
	// accounting can lag the final worker exits briefly.
	got := runtime.NumGoroutine()
	for i := 0; i < 400 && got > base; i++ {
		time.Sleep(5 * time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got > base {
		t.Fatalf("pool leaked goroutines: %d after drain, baseline %d", got, base)
	}
	if PoolPeakWorkers() != 0 {
		t.Fatalf("drain did not reset the peak, got %d", PoolPeakWorkers())
	}

	// The pool restarts after a drain and is drainable again.
	poolRoundTrip()
	if poolCh == nil {
		t.Fatalf("pool did not restart after drain")
	}
	drainPool()
}

// TestPoolBudgetBounded re-proves the budget invariant through a restart
// cycle: after a drain, the restarted pool's concurrent high-water mark
// still never exceeds the budget.
func TestPoolBudgetBounded(t *testing.T) {
	drainPool()
	var wg sync.WaitGroup
	for i := 0; i < 4*PoolBudget(); i++ {
		wg.Add(1)
		if !trySubmit(func() { time.Sleep(time.Millisecond) }, &wg) {
			wg.Done()
		}
	}
	wg.Wait()
	if peak := PoolPeakWorkers(); peak > PoolBudget() {
		t.Fatalf("pool peak %d exceeds budget %d", peak, PoolBudget())
	}
	drainPool()
}
