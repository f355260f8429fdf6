package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"extdict/internal/cluster"
	"extdict/internal/mat"
	"extdict/internal/omp"
	"extdict/internal/perf"
)

// snapshot is one immutable published version of a shard's dictionary: the
// matrix, its precomputed Batch-OMP Gram structures, and the epoch that
// names this version in responses. Snapshots are never mutated after
// publication — hot reload builds a fresh one and swaps the pointer — so
// the encode path reads them without any lock.
type snapshot struct {
	dict  *mat.Dense      // M×L, unit-norm columns
	coder *omp.BatchCoder // Gram structures built once per snapshot
	epoch uint64
}

// reqKind selects what the batcher does with a coded request.
type reqKind int

const (
	kindEncode reqKind = iota
	kindDenoise
)

// request is one accepted client signal travelling from an HTTP handler to
// the shard's batcher. Ownership transfers over the request channel: after
// submit succeeds the handler only waits on done, and the batcher populates
// the result fields before closing it.
type request struct {
	kind   reqKind
	signal []float64
	done   chan struct{}

	// Written by the batcher, readable after done is closed.
	res      omp.Result
	denoised []float64
	epoch    uint64
	batch    int
}

// shardStats are a shard's monotone serving counters. All fields are
// atomics: handlers and the batcher bump them concurrently, statsz reads
// them without stopping the world.
type shardStats struct {
	accepted    atomic.Int64
	shedLatency atomic.Int64 // 429: modeled latency exceeded the budget
	shedQueue   atomic.Int64 // 429: queue at capacity
	rejected    atomic.Int64 // 503: submitted after the shard began draining
	batches     atomic.Int64
	encoded     atomic.Int64
	depthPeak   atomic.Int64
	hist        []atomic.Int64 // hist[b-1] counts panels of exactly b columns
}

// shard is one served dictionary: an epoch-swapped snapshot, a bounded
// request queue, and a single batcher goroutine that coalesces queued
// requests into Batch-OMP panels.
type shard struct {
	name     string
	wireName []byte // name as encoding/json writes a string, for the 200 bodies
	rows     int    // signal dimension M, fixed for the shard's lifetime
	cfg      *Config

	snap   atomic.Pointer[snapshot]
	swapMu sync.Mutex // serializes swaps so epochs increment exactly once

	mu     sync.Mutex // guards closed and the closed-vs-send race on reqCh
	closed bool
	reqCh  chan *request

	// inflight counts accepted requests not yet responded to — the queue
	// depth the admission controller prices.
	inflight atomic.Int64
	stats    shardStats
}

// Sentinel submit errors; the HTTP layer maps them to status codes.
var (
	// ErrClosed reports a submit after the shard began draining (503).
	ErrClosed = errors.New("serve: shard is draining; server shutting down")
	// ErrShedLatency reports an admission shed: the modeled completion
	// latency at the current queue depth exceeds the budget (429).
	ErrShedLatency = errors.New("serve: modeled latency exceeds the budget; retry later")
	// ErrShedQueue reports a full request queue (429).
	ErrShedQueue = errors.New("serve: request queue full; retry later")
)

// newShard builds a shard around an already-validated dictionary and
// publishes epoch 1.
func newShard(name string, d *mat.Dense, cfg *Config) *shard {
	wireName, _ := json.Marshal(name) // a string always marshals
	sh := &shard{
		name:     name,
		wireName: wireName,
		rows:     d.Rows,
		cfg:      cfg,
		reqCh:    make(chan *request, cfg.QueueCap),
	}
	sh.stats.hist = make([]atomic.Int64, cfg.BatchMax)
	sh.snap.Store(&snapshot{dict: d, coder: omp.NewBatchCoder(d), epoch: 1})
	return sh
}

// submit runs admission and enqueues the request. It returns the modeled
// completion latency in seconds (whatever the decision) and nil on accept,
// or one of the sentinel errors. The closed check and the channel send
// happen under one mutex so a send can never race the drain's close; the
// send itself is non-blocking — a full queue sheds instead of stalling the
// handler on a held lock.
func (sh *shard) submit(req *request) (float64, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		sh.stats.rejected.Add(1)
		return 0, ErrClosed
	}
	depth := int(sh.inflight.Load())
	modeled := sh.modeledLatency(depth + 1)
	if budget := sh.cfg.LatencyBudget; budget > 0 && modeled > budget.Seconds() {
		sh.stats.shedLatency.Add(1)
		return modeled, ErrShedLatency
	}
	select {
	case sh.reqCh <- req:
	default:
		sh.stats.shedQueue.Add(1)
		return modeled, ErrShedQueue
	}
	n := sh.inflight.Add(1)
	sh.stats.accepted.Add(1)
	for {
		p := sh.stats.depthPeak.Load()
		if n <= p || sh.stats.depthPeak.CompareAndSwap(p, n) {
			break
		}
	}
	return modeled, nil
}

// modeledLatency prices the queue for the admission decision against the
// current snapshot's shape. It is a pure function of the queue depth and
// the (snapshot, config, platform) constants — replaying the same submit
// sequence replays the same accept/shed trace bit for bit.
func (sh *shard) modeledLatency(queued int) float64 {
	snap := sh.snap.Load()
	return ModeledLatency(snap.dict.Rows, snap.dict.Cols, queued,
		sh.cfg.BatchMax, sh.cfg.MaxAtoms, sh.cfg.Platform)
}

// ModeledLatency is the serving layer's admission formula: the Eq. 2
// predicted seconds until a request admitted with `queued` requests in
// flight (itself included) leaves the encoder. The queue drains in
// ⌈queued/batchMax⌉ panels, each priced by perf.PredictEncodeBatch — full
// panels of batchMax columns plus one remainder panel.
func ModeledLatency(m, l, queued, batchMax, maxAtoms int, plat cluster.Platform) float64 {
	if queued < 1 {
		queued = 1
	}
	if batchMax < 1 {
		batchMax = 1
	}
	full := queued / batchMax
	t := float64(full) * perf.PredictEncodeBatch(m, l, batchMax, maxAtoms, plat).Time
	if rem := queued % batchMax; rem > 0 {
		t += perf.PredictEncodeBatch(m, l, rem, maxAtoms, plat).Time
	}
	return t
}

// swap publishes a new dictionary snapshot and returns its epoch. The Gram
// precompute happens before the swap lock, so concurrent encodes keep
// streaming against the old snapshot until the single atomic store; they
// see either the old version or the new one, never a mix.
func (sh *shard) swap(d *mat.Dense) (uint64, error) {
	if d == nil || d.Rows != sh.rows || d.Cols < 1 {
		return 0, fmt.Errorf("serve: replacement dictionary for %q must be %d×L with L ≥ 1", sh.name, sh.rows)
	}
	coder := omp.NewBatchCoder(d)
	sh.swapMu.Lock()
	defer sh.swapMu.Unlock()
	next := sh.snap.Load().epoch + 1
	sh.snap.Store(&snapshot{dict: d, coder: coder, epoch: next})
	return next, nil
}

// close marks the shard draining: later submits fail with ErrClosed (the
// handler's 503) and the request channel closes, so the batcher encodes
// every already-accepted request and exits — no accepted request is ever
// dropped. Idempotent.
func (sh *shard) close() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return
	}
	sh.closed = true
	close(sh.reqCh)
}

// run is the shard's batcher: the single goroutine that owns the consuming
// end of the request queue. It is work-conserving: each panel opens with
// the first queued request (blocking only while the queue is empty), takes
// every request already buffered behind it up to batchMax without waiting,
// and is coded at once in one omp.BatchCoder pass over the shared mat pool.
// Requests that arrive meanwhile make up the next panel. When the queue
// closes, the buffered requests still encode before the goroutine exits.
func (sh *shard) run() {
	// The batcher's steady state is allocation-free (hotalloc's serve
	// contract): the request and column scratch live for the goroutine's
	// lifetime and each panel fills them by index.
	buf := make([]*request, sh.cfg.BatchMax)
	cols := make([][]float64, sh.cfg.BatchMax)
	for {
		first, ok := <-sh.reqCh
		if !ok {
			return
		}
		buf[0] = first
		n := 1
	fill:
		for n < sh.cfg.BatchMax {
			select {
			case r, open := <-sh.reqCh:
				if !open {
					break fill
				}
				buf[n] = r
				n++
			default:
				break fill
			}
		}
		sh.encodeBatch(buf[:n], cols[:n])
	}
}

// encodeBatch codes one coalesced panel against a single atomically-loaded
// snapshot and completes every request in it. cols is the batcher's reused
// column-pointer scratch.
func (sh *shard) encodeBatch(buf []*request, cols [][]float64) {
	snap := sh.snap.Load()
	for i, r := range buf {
		cols[i] = r.signal
	}
	results := snap.coder.EncodePanel(cols, sh.cfg.Tol, sh.cfg.MaxAtoms, sh.cfg.Workers)

	b := len(buf)
	sh.stats.batches.Add(1)
	sh.stats.encoded.Add(int64(b))
	sh.stats.hist[b-1].Add(1)
	for i, r := range buf {
		r.res = results[i]
		r.epoch = snap.epoch
		r.batch = b
		if r.kind == kindDenoise {
			r.denoised = reconstruct(snap.dict, results[i])
		}
		sh.inflight.Add(-1)
		close(r.done)
	}
}

// reconstruct returns D·γ for one sparse code — the denoised signal of the
// paper's first application (§VIII-A), served.
func reconstruct(d *mat.Dense, r omp.Result) []float64 {
	y := make([]float64, d.Rows)
	for i, jj := range r.Idx {
		c := r.Coef[i]
		for row := 0; row < d.Rows; row++ {
			y[row] += c * d.At(row, jj)
		}
	}
	return y
}
