// Command extdict-bench regenerates the paper's evaluation artifacts (every
// table and figure of §VIII) and prints them as text tables.
//
// Usage:
//
//	extdict-bench -exp fig7              # one experiment
//	extdict-bench -exp all -scale 0.5    # everything, half-size datasets
//
// Experiments: fig4 fig5 fig6 tab2 fig7 tab3 fig8 fig9 fig10 fig11 fig12.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"extdict/internal/experiments"
	"extdict/internal/perf"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "extdict-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("extdict-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (fig4..fig12, tab2, tab3) or 'all'")
	scale := fs.Float64("scale", 1, "dataset size multiplier (1 = paper-shaped laptop scale)")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "preprocessing workers (0 = GOMAXPROCS)")
	trials := fs.Int("trials", 10, "random-dictionary trials for fig4")
	components := fs.Int("components", 10, "eigenvalues for fig10/fig12")
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg := registry(*trials, *components)
	ids := keys(reg)
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
			if _, ok := reg[ids[i]]; !ok {
				return fmt.Errorf("unknown experiment %q (have: %s)", ids[i], strings.Join(keys(reg), ", "))
			}
		}
	}

	cfg := experiments.Config{Scale: *scale, Seed: *seed, Workers: *workers}
	for _, id := range ids {
		sw := perf.StartWall()
		art, err := reg[id](cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(w, art.Table)
		fmt.Fprintf(w, "[%s completed in %v]\n\n", id, sw.Elapsed().Round(time.Millisecond))
	}
	return nil
}

// keys returns the registry's experiment ids in sorted order.
func keys(m map[string]runner) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
