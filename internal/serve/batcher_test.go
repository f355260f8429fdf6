package serve

import (
	"math"
	"testing"
	"time"

	"extdict/internal/cluster"
	"extdict/internal/cluster/clustertest"
	"extdict/internal/mat"
	"extdict/internal/omp"
	"extdict/internal/rng"
)

// newUnstartedShard builds a shard whose batcher is not running yet, so the
// test controls what is queued before the first panel opens.
func newUnstartedShard(d *mat.Dense, cfg Config) *shard {
	cfg = cfg.withDefaults()
	return newShard("d", d, &cfg)
}

// startBatcher starts sh's batcher and registers a cleanup that drains the
// shard and waits, under the watchdog, for the batcher to exit. The
// returned channel closes when it has.
func startBatcher(t *testing.T, sh *shard) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		sh.run()
	}()
	t.Cleanup(func() {
		sh.close()
		clustertest.Watchdog(t, func() { <-done })
	})
	return done
}

// submitN submits n fresh requests built from the signal stream and returns
// them. Every submit must be accepted.
func submitN(t *testing.T, sh *shard, r *rng.RNG, n int) []*request {
	t.Helper()
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = &request{kind: kindEncode, signal: randSignal(r, sh.rows), done: make(chan struct{})}
		if _, err := sh.submit(reqs[i]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	return reqs
}

// waitAll blocks, under the watchdog, until every request has been answered.
func waitAll(t *testing.T, reqs []*request) {
	t.Helper()
	clustertest.Watchdog(t, func() {
		for _, r := range reqs {
			<-r.done
		}
	})
}

// TestBatcherMatchesSerialUnderSeededArrivals is the core batching
// property: for seeded arrival patterns, every panel's results are
// bit-identical to coding the same signals one at a time, batch sizes never
// exceed BatchMax, and every accepted request is answered. Each trial's
// first burst is queued before the batcher starts, so it opens with a full
// or backlog-sized panel; later bursts land on a running batcher and are
// split however the race with the coder falls.
func TestBatcherMatchesSerialUnderSeededArrivals(t *testing.T) {
	const batchMax = 4
	r := rng.New(101)
	d := unitDictionary(r, 16, 48)
	ref := omp.NewBatchCoder(d)
	ws := &omp.Workspace{}

	for trial := 0; trial < 20; trial++ {
		sh := newUnstartedShard(d, Config{BatchMax: batchMax, QueueCap: 64, Tol: 0.05, Workers: 2})
		var all []*request
		// A seeded arrival pattern: bursts of 1..2·batchMax requests, each
		// answered before the next one arrives.
		for burst := 0; burst < 4; burst++ {
			n := 1 + r.Intn(2*batchMax)
			reqs := submitN(t, sh, r, n)
			if burst == 0 {
				startBatcher(t, sh)
			}
			waitAll(t, reqs)
			all = append(all, reqs...)
		}

		for i, req := range all {
			if req.batch < 1 || req.batch > batchMax {
				t.Fatalf("trial %d: request %d rode a panel of %d columns (max %d)", trial, i, req.batch, batchMax)
			}
			want := ref.Encode(req.signal, 0.05, 0, ws)
			if req.res.Iters != want.Iters ||
				math.Float64bits(req.res.Resid2) != math.Float64bits(want.Resid2) {
				t.Fatalf("trial %d: request %d differs from serial encode", trial, i)
			}
			for k := range want.Idx {
				if req.res.Idx[k] != want.Idx[k] ||
					math.Float64bits(req.res.Coef[k]) != math.Float64bits(want.Coef[k]) {
					t.Fatalf("trial %d: request %d coef/idx differ from serial encode", trial, i)
				}
			}
		}
		if got := sh.inflight.Load(); got != 0 {
			t.Fatalf("trial %d: %d requests still in flight after completion", trial, got)
		}
		var coded int64
		for b1 := range sh.stats.hist {
			n := sh.stats.hist[b1].Load()
			coded += int64(b1+1) * n
		}
		if coded != int64(len(all)) {
			t.Fatalf("trial %d: histogram codes %d signals, want %d", trial, coded, len(all))
		}
	}
}

// TestBatcherCodesBacklogInFullPanels proves the panel cap and that the
// batcher takes the whole backlog without waiting: 2·BatchMax+1 requests
// queued before it starts are coded in panels of BatchMax, BatchMax, 1, in
// arrival order.
func TestBatcherCodesBacklogInFullPanels(t *testing.T) {
	const batchMax = 4
	r := rng.New(55)
	d := unitDictionary(r, 8, 24)
	sh := newUnstartedShard(d, Config{BatchMax: batchMax, QueueCap: 64})
	reqs := submitN(t, sh, r, 2*batchMax+1)
	startBatcher(t, sh)
	waitAll(t, reqs)
	for i, req := range reqs {
		want := batchMax
		if i == 2*batchMax {
			want = 1
		}
		if req.batch != want {
			t.Fatalf("request %d rode a panel of %d, want %d", i, req.batch, want)
		}
	}
	if full, lone := sh.stats.hist[batchMax-1].Load(), sh.stats.hist[0].Load(); full != 2 || lone != 1 {
		t.Fatalf("panel histogram: %d full panels and %d singletons, want 2 and 1", full, lone)
	}
}

// TestLoneRequestCodedAtOnce proves the batcher is work-conserving: a
// single request on an idle shard is coded with no other arrival and no
// timer to fire.
func TestLoneRequestCodedAtOnce(t *testing.T) {
	r := rng.New(57)
	d := unitDictionary(r, 8, 24)
	sh := newUnstartedShard(d, Config{BatchMax: 32, QueueCap: 64})
	startBatcher(t, sh)
	reqs := submitN(t, sh, r, 1)
	waitAll(t, reqs)
	if reqs[0].batch != 1 {
		t.Fatalf("lone request rode a panel of %d, want 1", reqs[0].batch)
	}
}

// TestAdmissionTraceReplays proves admission is a pure function of the
// submit sequence: two fresh shards driven with the same seeded signals
// produce bitwise-identical accept/shed decisions and modeled latencies.
func TestAdmissionTraceReplays(t *testing.T) {
	const n = 40
	d := unitDictionary(rng.New(5), 16, 48)
	plat := cluster.NewPlatform(1, 4)
	// A budget that the model itself crosses at depth 21, so the trace has a
	// real accept→shed transition whatever the platform constants are.
	budget := time.Duration(ModeledLatency(d.Rows, d.Cols, 20, n, 0, plat) * float64(time.Second))

	type decision struct {
		modeledBits uint64
		err         error
	}
	drive := func() []decision {
		// With the batcher not started nothing leaves the queue, so its
		// depth during the submit run is exactly the accepted count —
		// deterministic.
		sh := newUnstartedShard(d, Config{
			BatchMax: n, QueueCap: n, LatencyBudget: budget, Platform: plat,
		})
		r := rng.New(77)
		trace := make([]decision, n)
		for i := range trace {
			req := &request{kind: kindEncode, signal: randSignal(r, sh.rows), done: make(chan struct{})}
			m, err := sh.submit(req)
			trace[i] = decision{modeledBits: math.Float64bits(m), err: err}
		}
		return trace
	}

	a, b := drive(), drive()
	accepted, shed := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between replays: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].err != nil {
			shed++
		} else {
			accepted++
		}
	}
	if accepted == 0 || shed == 0 {
		t.Fatalf("schedule should mix accepts and sheds: %d accepted, %d shed", accepted, shed)
	}
}

// TestQueueCapSheds proves the queue bound: with no batcher draining the
// channel, exactly QueueCap submits are accepted and the rest shed with
// ErrShedQueue — a deterministic count.
func TestQueueCapSheds(t *testing.T) {
	const qcap = 4
	r := rng.New(23)
	d := unitDictionary(r, 8, 24)
	sh := newUnstartedShard(d, Config{QueueCap: qcap}) // the queue only fills

	shed := 0
	for i := 0; i < 3*qcap; i++ {
		req := &request{kind: kindEncode, signal: randSignal(r, sh.rows), done: make(chan struct{})}
		if _, err := sh.submit(req); err == ErrShedQueue {
			shed++
		} else if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if shed != 2*qcap {
		t.Fatalf("shed %d submits, want exactly %d", shed, 2*qcap)
	}
	if got := sh.stats.shedQueue.Load(); got != int64(shed) {
		t.Fatalf("shedQueue counter %d, want %d", got, shed)
	}
}

// TestDrainCompletesAcceptedRequests proves the no-drop guarantee:
// requests accepted before close are all coded, in one panel, by a batcher
// that starts only after the drain began, which then exits; later submits
// fail with ErrClosed.
func TestDrainCompletesAcceptedRequests(t *testing.T) {
	r := rng.New(31)
	d := unitDictionary(r, 8, 24)
	sh := newUnstartedShard(d, Config{BatchMax: 16, QueueCap: 64})

	reqs := submitN(t, sh, r, 5)
	sh.close()
	exited := startBatcher(t, sh)
	waitAll(t, reqs)
	clustertest.Watchdog(t, func() { <-exited })
	for i, req := range reqs {
		if len(req.res.Idx) == 0 && req.res.Iters == 0 {
			t.Fatalf("request %d drained without being coded", i)
		}
		if req.batch != len(reqs) {
			t.Fatalf("request %d rode a panel of %d, want the whole backlog of %d", i, req.batch, len(reqs))
		}
	}
	late := &request{kind: kindEncode, signal: randSignal(r, sh.rows), done: make(chan struct{})}
	if _, err := sh.submit(late); err != ErrClosed {
		t.Fatalf("post-drain submit: %v, want ErrClosed", err)
	}
}
