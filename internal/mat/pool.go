package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the shared bounded worker pool behind every parallel
// kernel. The simulated cluster runs P rank goroutines concurrently, and each
// rank may call a parallel kernel; spawning goroutines per call would explode
// to P×Workers runnable goroutines. Instead all kernels share one
// process-wide pool of poolBudget persistent workers:
//
//   - The budget is GOMAXPROCS at init: pool workers can never oversubscribe
//     the cores beyond what the runtime schedules anyway, no matter how many
//     ranks call kernels at once.
//   - Submission is non-blocking (trySubmit): if every worker is busy the
//     caller runs the chunk inline. A kernel invoked from inside a pool
//     worker (nested parallelism) therefore degrades to serial instead of
//     deadlocking — there is no wait-for-a-worker anywhere.
//   - Workers are started once, lazily, on first parallel call; an idle
//     program pays nothing.

// poolBudget is the global concurrency budget: the number of persistent pool
// workers, fixed at GOMAXPROCS when the pool starts.
var poolBudget = runtime.GOMAXPROCS(0)

// poolJob is one chunk of kernel work handed to a worker.
type poolJob struct {
	fn func()
	wg *sync.WaitGroup
}

var (
	poolOnce     = new(sync.Once)
	poolCh       chan poolJob
	poolWorkers  sync.WaitGroup
	poolInFlight atomic.Int64
	poolPeak     atomic.Int64
)

func poolStart() {
	poolCh = make(chan poolJob)
	poolWorkers.Add(poolBudget)
	for i := 0; i < poolBudget; i++ {
		go poolWorker()
	}
}

func poolWorker() {
	defer poolWorkers.Done()
	for job := range poolCh {
		n := poolInFlight.Add(1)
		for {
			p := poolPeak.Load()
			if n <= p || poolPeak.CompareAndSwap(p, n) {
				break
			}
		}
		job.fn()
		poolInFlight.Add(-1)
		job.wg.Done()
	}
}

// trySubmit offers fn to an idle pool worker. It returns false — without
// blocking — when every worker is busy; the caller must then run fn (and
// call wg.Done) itself. On true, the pool calls wg.Done when fn returns.
func trySubmit(fn func(), wg *sync.WaitGroup) bool {
	poolOnce.Do(poolStart)
	select {
	case poolCh <- poolJob{fn: fn, wg: wg}:
		return true
	default:
		return false
	}
}

// PoolBudget returns the shared pool's worker count (the global concurrency
// budget for parallel kernels).
func PoolBudget() int { return poolBudget }

// PoolPeakWorkers returns the high-water mark of pool workers that were
// executing kernel chunks at the same instant since the last reset. It can
// never exceed PoolBudget — the assertion the budget tests rely on.
func PoolPeakWorkers() int { return int(poolPeak.Load()) }

// ResetPoolPeak clears the high-water mark. Test instrumentation.
func ResetPoolPeak() { poolPeak.Store(0) }
