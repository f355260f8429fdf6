package main

import (
	"extdict/internal/dataset"
	"extdict/internal/mat"
	"extdict/internal/perf"
	"extdict/internal/rng"
)

// epsilon is the transformation error tolerance of every workload, the
// paper's ε = 0.1.
const epsilon = 0.1

// timings holds the wall time of every operation of a run, in seconds.
type timings struct {
	plain  []float64 // untraced operations
	traced []float64 // traced operations, root span included
	roots  []int     // root span id of each traced operation
}

// op runs one operation on input in and returns a check to run once the
// clock has stopped: it reports the operation's error or a wrong output.
type op func(in int, t *tracer) (check func() error)

// measure runs whole passes over the workload's inputs and stops at the
// pass boundary nearest the budget, so a pass that takes about as long as
// the budget runs once on every host. A traced run follows every untraced
// operation with a traced one on the same input, so the two are compared on
// equal work.
func measure(cfg config, t *tracer, inputs int, run op) (timings, error) {
	var tm timings
	budget := perf.StartWall()
	for {
		pass := perf.StartWall()
		for in := 0; in < inputs; in++ {
			sw := perf.StartWall()
			check := run(in, nil)
			tm.plain = append(tm.plain, sw.Elapsed().Seconds())
			if err := check(); err != nil {
				return tm, err
			}
			if t == nil {
				continue
			}
			root := t.begin("op")
			sw = perf.StartWall()
			check = run(in, t)
			tm.traced = append(tm.traced, sw.Elapsed().Seconds())
			t.end(root)
			tm.roots = append(tm.roots, root)
			if err := check(); err != nil {
				return tm, err
			}
		}
		if budget.Elapsed().Seconds()+pass.Elapsed().Seconds()/2 >= cfg.seconds {
			return tm, nil
		}
	}
}

// overhead is the traced operations' median time relative to the untraced
// ones', minus one.
func (tm timings) overhead() float64 { return median(tm.traced)/median(tm.plain) - 1 }

// opsPerSecond is the untraced operations completed per second of their
// own wall time.
func (tm timings) opsPerSecond() float64 {
	total := 0.0
	for _, s := range tm.plain {
		total += s
	}
	return float64(len(tm.plain)) / total
}

// setup runs build cfg.setups times and returns each wall time in seconds.
func setup(cfg config, build func() error) ([]float64, error) {
	out := make([]float64, cfg.setups)
	for i := range out {
		sw := perf.StartWall()
		if err := build(); err != nil {
			return nil, err
		}
		out[i] = sw.Elapsed().Seconds()
	}
	return out, nil
}

// subSeed derives the seed of one input from the run's seed.
func subSeed(seed uint64, in int) uint64 {
	return rng.New(seed*0x9e3779b97f4a7c15 + uint64(in)).Uint64()
}

// datasetSeed generates every preset. The presets stand in for the paper's
// fixed datasets, and a workload's cost follows the data closely (the
// tuner's L, the power method's iteration count), so the data stay fixed and
// the run's seed draws the algorithms' random choices and the load.
const datasetSeed = 7

// generate builds the named dataset preset.
func generate(t *tracer, preset string, cfg config) (*mat.Dense, error) {
	p, err := dataset.Preset(preset, cfg.scale)
	if err != nil {
		return nil, err
	}
	var u *dataset.Union
	t.do("dataset.GenerateUnion", func() { u, err = dataset.GenerateUnion(p, rng.New(datasetSeed)) })
	if err != nil {
		return nil, err
	}
	return u.A, nil
}

// spanMedian is the median length in seconds of the spans with that name.
func spanMedian(t *tracer, name string) float64 { return median(t.durations(name, -1)) }

// perRoot sums the named spans under each traced operation and returns the
// median of those sums, in seconds.
func perRoot(t *tracer, tm timings, name string) float64 {
	sums := make([]float64, len(tm.roots))
	for i, root := range tm.roots {
		for _, d := range t.durations(name, root) {
			sums[i] += d
		}
	}
	return median(sums)
}

// probe times f repeatedly for about the given number of seconds (at least
// three times) inside spans of the given name and returns the median in
// microseconds.
func probe(t *tracer, name string, seconds float64, f func()) float64 {
	budget := perf.StartWall()
	var us []float64
	for len(us) < 3 || budget.Elapsed().Seconds() < seconds {
		id := t.begin(name)
		sw := perf.StartWall()
		f()
		us = append(us, float64(sw.Elapsed().Nanoseconds())/1e3)
		t.end(id)
	}
	return median(us)
}
