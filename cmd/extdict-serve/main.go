// Command extdict-serve is ExtDict-as-a-service: it loads the dictionaries
// of one or more transforms written by `extdict fit -out` and serves
// encode/denoise traffic over HTTP, coding whatever requests are queued as
// one Batch-OMP panel the moment the coder is free, and admission-
// controlling them with the paper's Eq. 2 performance model.
//
//	extdict-serve -dict m.exd
//	extdict-serve -dict salinas=m1.exd -dict pavia=m2.exd -addr :8347 \
//	    -batch-max 32 -latency-budget 50ms
//
// Endpoints:
//
//	POST /v1/encode   {"dict":"salinas","signal":[...]} → sparse code
//	POST /v1/denoise  same body → reconstruction D·γ
//	POST /v1/reloadz?dict=salinas  (transform body) → hot swap
//	GET  /v1/healthz  liveness + served dictionary names
//	GET  /v1/statsz   batching / admission / pool counters
//
// The process exits cleanly on SIGINT/SIGTERM: the listener stops, in-
// flight requests finish coding, and the batchers drain.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"extdict/internal/cluster"
	"extdict/internal/mat"
	"extdict/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "extdict-serve:", err)
		os.Exit(1)
	}
}

// dictFlag accumulates repeated -dict values: "path" (name derived from the
// file) or "name=path".
type dictFlag struct {
	specs []string
}

func (d *dictFlag) String() string { return strings.Join(d.specs, ",") }

func (d *dictFlag) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty -dict value")
	}
	d.specs = append(d.specs, v)
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("extdict-serve", flag.ContinueOnError)
	var dicts dictFlag
	fs.Var(&dicts, "dict", "transform whose dictionary to serve (written by extdict fit -out), as name=path or path; repeatable, required")
	addr := fs.String("addr", ":8347", "listen address")
	batchMax := fs.Int("batch-max", 32, "max queued signals coded per panel")
	queueCap := fs.Int("queue-cap", 256, "per-dictionary queued-request bound")
	latencyBudget := fs.Duration("latency-budget", 0, "shed requests whose Eq. 2 modeled completion latency exceeds this (0 = queue bound only)")
	tol := fs.Float64("tol", 0.1, "OMP relative residual tolerance")
	maxAtoms := fs.Int("max-atoms", 0, "OMP support cap (0 = min(M, L))")
	workers := fs.Int("workers", 0, "panel-encode parallelism (0 = all cores)")
	nodes, cores := fs.Int("nodes", 1, "admission model platform: nodes"),
		fs.Int("cores", 0, "admission model platform: cores per node (0 = host cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(dicts.specs) == 0 {
		return fmt.Errorf("at least one -dict is required")
	}

	loaded := make(map[string]*mat.Dense, len(dicts.specs))
	for _, spec := range dicts.specs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			path = spec
			name = dictBaseName(spec)
		}
		if name == "" || path == "" {
			return fmt.Errorf("bad -dict %q: want name=path or path", spec)
		}
		if _, dup := loaded[name]; dup {
			return fmt.Errorf("duplicate dictionary name %q", name)
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		d, err := serve.ReadDict(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		loaded[name] = d
		fmt.Printf("loaded %s: %dx%d from %s\n", name, d.Rows, d.Cols, path)
	}

	if *cores < 1 {
		*cores = mat.Workers
	}
	srv, err := serve.New(loaded, serve.Config{
		BatchMax:      *batchMax,
		QueueCap:      *queueCap,
		LatencyBudget: *latencyBudget,
		Tol:           *tol,
		MaxAtoms:      *maxAtoms,
		Workers:       *workers,
		Platform:      cluster.NewPlatform(*nodes, *cores),
	})
	if err != nil {
		return err
	}
	h, err := serve.Start(*addr, srv)
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Printf("serving %s on %s (batch-max %d, budget %v)\n",
		strings.Join(srv.Names(), ", "), h.Addr(), *batchMax, *latencyBudget)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("caught %v; draining\n", got)
	return h.Close()
}

// dictBaseName derives a dictionary name from a path: the file name without
// its extension.
func dictBaseName(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return base
}
