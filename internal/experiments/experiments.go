// Package experiments contains one driver per table and figure of the
// paper's evaluation (§VIII). Each driver generates its workload from the
// dataset presets, runs the relevant pipeline on the simulated platforms,
// and returns a typed result with a Table() renderer that prints the same
// rows/series the paper reports. The cmd/extdict-bench binary is their one
// runner; its metrics golden pins every deterministic number they return.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"extdict/internal/dataset"
	"extdict/internal/rng"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Scale multiplies every preset's column count (1 = default laptop
	// scale; tests use ~0.1 for speed). Trends are scale-free.
	Scale float64
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds preprocessing parallelism (0 = GOMAXPROCS).
	Workers int
}

func (c Config) filled() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// loadPreset generates the named dataset preset at the config's scale.
func loadPreset(name string, cfg Config) (*dataset.Union, error) {
	p, err := dataset.Preset(name, cfg.Scale)
	if err != nil {
		return nil, err
	}
	return dataset.GenerateUnion(p, rng.New(cfg.Seed^hashName(name)))
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// lGridFor returns a reasonable sweep of dictionary sizes for a dataset of
// n columns whose minimal basis is around lMin. The sweep is capped at a
// multiple of L_min rather than at N, matching the paper's plotted ranges
// (its figures stop around 2000 of N = 54129): beyond that regime α has
// flattened and a fit at L ≈ N would cost O(N²) Gram storage/compute for no
// information.
func lGridFor(lMin, n, points int) []int {
	lo := lMin
	if lo < 8 {
		lo = 8
	}
	if lo > n {
		lo = n
	}
	hi := 16 * lMin
	if hi < 128 {
		hi = 128
	}
	if hi > n {
		hi = n
	}
	return geometric(lo, hi, points)
}

func geometric(lo, hi, points int) []int {
	if points < 2 || lo >= hi {
		return []int{lo}
	}
	out := []int{}
	ratio := math.Pow(float64(hi)/float64(lo), 1/float64(points-1))
	v := float64(lo)
	for i := 0; i < points; i++ {
		iv := int(v + 0.5)
		if len(out) == 0 || iv > out[len(out)-1] {
			out = append(out, iv)
		}
		v *= ratio
	}
	if out[len(out)-1] != hi {
		out = append(out, hi)
	}
	return out
}

// tableWriter accumulates aligned text tables.
type tableWriter struct {
	header []string
	rows   [][]string
}

func (t *tableWriter) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *tableWriter) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
