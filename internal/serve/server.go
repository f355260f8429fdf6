// Package serve is ExtDict-as-a-service: a long-running HTTP server that
// holds hot dictionaries in memory as epoch-swapped immutable snapshots and
// answers encode/denoise traffic from many concurrent clients.
//
// Each dictionary shard runs one work-conserving batcher goroutine: it
// blocks for the first queued request, takes whatever else is already
// queued (up to a panel-size cap) without waiting, and codes that panel at
// once in a single omp.BatchCoder pass. Requests that arrive while a panel
// codes form the next one, so panels grow with the backlog under load and
// an idle coder never waits. Waiting to fill a panel would buy nothing: the
// Gram matrix is built once per snapshot, not per panel, so the paper's
// Eq. 2 encode price (perf.PredictEncodeBatch) is linear in the panel size
// and a bigger panel adds only parallel fan-out. Admission is that model
// turned live scheduler: every submit prices the queue with the Eq. 2
// prediction and sheds with 429 when the modeled completion latency exceeds
// the configured budget.
//
// Concurrency shape (machine-checked by extdict-lint's sharedstate /
// lockorder analyzers): snapshots are immutable and published through an
// atomic pointer, so the encode path takes no lock; requests transfer
// ownership over a bounded channel; the only mutex on the request path
// guards the closed-vs-send race during drain. The package never reads the
// wall clock (the noclock invariant): batching is driven by the queue
// alone.
package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"extdict/internal/cluster"
	"extdict/internal/exd"
	"extdict/internal/mat"
)

// Config tunes the serving layer. The zero value is usable: every field
// falls back to the documented default.
type Config struct {
	// BatchMax caps the columns per coded panel (default 32). The batcher
	// never waits to fill a panel; the cap bounds how much backlog one
	// panel takes.
	BatchMax int
	// QueueCap bounds each shard's queued-request count; submits beyond it
	// shed with 429 (default 256).
	QueueCap int
	// LatencyBudget sheds requests whose modeled completion latency
	// (ModeledLatency at the current queue depth) exceeds it. Zero
	// disables latency shedding; the queue cap still bounds load.
	LatencyBudget time.Duration
	// Tol is the OMP relative residual tolerance (default 0.1).
	Tol float64
	// MaxAtoms caps the OMP support size (0 = min(M, L)).
	MaxAtoms int
	// Workers is the panel-encode parallelism over the shared mat pool
	// (0 = mat.Workers).
	Workers int
	// Platform prices the admission model's Eq. 2 terms. The zero value
	// becomes a single node with mat.Workers cores — the process itself.
	Platform cluster.Platform
}

// withDefaults returns cfg with every unset field at its default.
func (c Config) withDefaults() Config {
	if c.BatchMax < 1 {
		c.BatchMax = 32
	}
	if c.QueueCap < 1 {
		c.QueueCap = 256
	}
	if c.Tol <= 0 {
		c.Tol = 0.1
	}
	if c.Workers < 1 {
		c.Workers = mat.Workers
	}
	if c.Platform.Topology.P() < 1 {
		c.Platform = cluster.NewPlatform(1, mat.Workers)
	}
	return c
}

// Server serves one or more dictionaries over HTTP. Construct with New,
// mount Mux on an http.Server (or use Start), and Close to drain.
type Server struct {
	cfg    Config
	shards map[string]*shard // frozen after New
	names  []string          // sorted shard names, frozen after New
	mux    *http.ServeMux
	wg     sync.WaitGroup

	// maxRows is the largest served M and bodyCap the encode/denoise body
	// cap derived from it (codeBodyCap); both frozen after New, since a
	// shard's M never changes.
	maxRows int
	bodyCap int
	// bufs pools the *[]byte wire buffers of the encode/denoise 200 path;
	// none larger than bodyCap is put back.
	bufs sync.Pool
}

// New builds a server holding the given dictionaries (name → M×L matrix
// with unit-norm columns; the server takes ownership — callers must not
// mutate a dictionary after handing it over) and starts one batcher
// goroutine per shard. Close releases them.
func New(dicts map[string]*mat.Dense, cfg Config) (*Server, error) {
	if len(dicts) == 0 {
		return nil, fmt.Errorf("serve: no dictionaries to serve")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		shards: make(map[string]*shard, len(dicts)),
		names:  make([]string, 0, len(dicts)),
	}
	for name := range dicts {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	for _, name := range s.names {
		d := dicts[name]
		if name == "" {
			return nil, fmt.Errorf("serve: empty dictionary name")
		}
		if d == nil || d.Rows < 1 || d.Cols < 1 {
			return nil, fmt.Errorf("serve: dictionary %q is empty", name)
		}
		s.shards[name] = newShard(name, d, &s.cfg)
		s.maxRows = max(s.maxRows, d.Rows)
	}
	s.bodyCap = codeBodyCap(s.maxRows)
	s.mux = s.routes()
	for _, name := range s.names {
		sh := s.shards[name]
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sh.run()
		}()
	}
	return s, nil
}

// minColumnNorm is √(smallest normal float64). A nonzero column whose norm
// lies below it has a subnormal squared norm: NormalizeColumns then scales
// it inexactly (a lone 2e-162 entry scales to 0.90) or, once the square
// underflows to 0, zeroes it.
const minColumnNorm = 0x1p-511

// NormalizeDict scales every column of d to unit Euclidean norm in place,
// the form New and Swap expect, and fails when a nonzero column cannot get
// there: it holds a NaN, its squared norm overflows (an Inf entry, or
// finite entries as large as 1e200), which would zero the column or fill
// it with NaN, or it underflows. All-zero columns stay zero. On error d is
// left partly scaled and must be discarded.
func NormalizeDict(d *mat.Dense) error {
	live := make([]bool, d.Cols)
	for i := 0; i < d.Rows; i++ {
		for j, v := range d.Row(i) {
			live[j] = live[j] || v != 0
		}
	}
	for j, n := range d.NormalizeColumns() {
		if math.IsNaN(n) || math.IsInf(n, 0) || (live[j] && n < minColumnNorm) {
			return fmt.Errorf("serve: dictionary column %d has norm %g and cannot be scaled to unit norm", j, n)
		}
	}
	return nil
}

// ReadDict decodes a transform file, as exd's WriteTo and `extdict fit
// -out` write it, and returns its dictionary D after NormalizeDict. It is
// the one loader behind extdict-serve's -dict files and /v1/reloadz
// bodies.
func ReadDict(r io.Reader) (*mat.Dense, error) {
	tr, err := exd.ReadTransform(r)
	if err != nil {
		return nil, err
	}
	if err := NormalizeDict(tr.D); err != nil {
		return nil, err
	}
	return tr.D, nil
}

// Names returns the served dictionary names in sorted order.
func (s *Server) Names() []string { return s.names }

// shardFor resolves a request's dictionary name; an empty name selects the
// single loaded dictionary when there is exactly one.
func (s *Server) shardFor(name string) (*shard, error) {
	if name == "" {
		if len(s.names) == 1 {
			name = s.names[0]
		} else {
			return nil, fmt.Errorf("serve: request names no dictionary and %d are loaded; set \"dict\"", len(s.names))
		}
	}
	sh, ok := s.shards[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown dictionary %q", name)
	}
	return sh, nil
}

// Swap hot-reloads one dictionary: it precomputes the Gram structures for
// d outside any lock, then atomically publishes a new snapshot under the
// next epoch. In-flight panels finish against the snapshot they loaded;
// every response names the epoch that coded it. The server takes ownership
// of d. Returns the new epoch.
func (s *Server) Swap(name string, d *mat.Dense) (uint64, error) {
	sh, err := s.shardFor(name)
	if err != nil {
		return 0, err
	}
	return sh.swap(d)
}

// Epoch returns the currently published epoch of one dictionary.
func (s *Server) Epoch(name string) (uint64, error) {
	sh, err := s.shardFor(name)
	if err != nil {
		return 0, err
	}
	return sh.snap.Load().epoch, nil
}

// Close drains every shard and waits for the batchers to exit. Every
// request accepted before Close completes normally; submits during and
// after the drain fail with 503. Idempotent.
func (s *Server) Close() {
	for _, name := range s.names {
		s.shards[name].close()
	}
	s.wg.Wait()
}
