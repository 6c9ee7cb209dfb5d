// Package experiments implements one driver per table and figure of
// the paper's evaluation (Sections 6 and 7), as listed in README.md.
// Each driver returns structured rows and has a text renderer that
// prints the same layout the paper reports. The bench harness
// (bench_test.go) and the gmark-bench command both call into this
// package.
package experiments

import (
	"fmt"
	"io"
	"time"

	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/stats"
	"gmark/internal/usecases"
)

// Options configures an experiment run. The zero value gives the
// laptop-scale defaults; Full selects the paper-scale parameters.
type Options struct {
	// Sizes overrides the default graph-size sweep (number of nodes).
	Sizes []int
	// Seed drives all generation; runs with equal options are
	// reproducible.
	Seed int64
	// QueriesPerClass is the number of queries per selectivity class in
	// the quality experiments (the paper uses 10).
	QueriesPerClass int
	// Budget bounds each single query evaluation; exceeding it records
	// a failure, mirroring the paper's timeouts.
	Budget eval.Budget
	// Progress, when non-nil, receives one line per completed step.
	Progress io.Writer
	// Full selects the paper-scale sweeps (up to 32K-node instances for
	// quality experiments, multi-million-node instances for Table 3).
	Full bool
	// Runs selects the engine measurement protocol: 1 (default) times a
	// single evaluation; values >= 3 apply the Section 7.1 protocol —
	// one discarded cold run, then Runs warm runs of which the fastest
	// and slowest are dropped and the rest averaged.
	Runs int
	// Parallelism is the graph-generation worker count (0 = all
	// cores). Generated instances are identical for any value at a
	// fixed seed.
	Parallelism int
	// EvalWorkers is the evaluation worker count for the parallel
	// evaluation study (0 = all cores, 1 = sequential; counts are
	// identical for any value).
	EvalWorkers int
	// SpillCompress selects the shard encoding for experiments that
	// write CSR spills ("" = the default, varint). The cold-eval study
	// sweeps encodings itself and ignores this.
	SpillCompress string
}

// spillCompression resolves the SpillCompress option to a shard
// encoding, defaulting to delta-varint like the spill writers do.
func (o Options) spillCompression() (graphgen.SpillCompression, error) {
	if o.SpillCompress == "" {
		return graphgen.SpillCompressVarint, nil
	}
	return graphgen.ParseSpillCompression(o.SpillCompress)
}

// measureEngine runs one engine evaluation under the configured
// protocol and returns the representative duration, the count, and the
// first error (an error on any run fails the measurement).
func measureEngine(opt Options, evaluate func() (int64, error)) (time.Duration, int64, error) {
	if opt.Runs < 3 {
		start := time.Now()
		count, err := evaluate()
		return time.Since(start), count, err
	}
	// Cold run, excluded from the average (Section 7.1).
	count, err := evaluate()
	if err != nil {
		return 0, 0, err
	}
	times := make([]float64, 0, opt.Runs)
	for i := 0; i < opt.Runs; i++ {
		start := time.Now()
		if _, err := evaluate(); err != nil {
			return 0, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return time.Duration(stats.TrimmedMean(times) * float64(time.Second)), count, nil
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.QueriesPerClass == 0 {
		if o.Full {
			o.QueriesPerClass = 10
		} else {
			o.QueriesPerClass = 5
		}
	}
	if o.Budget.MaxPairs == 0 {
		o.Budget.MaxPairs = 50_000_000
	}
	if o.Budget.Timeout == 0 {
		o.Budget.Timeout = 60 * time.Second
	}
	return o
}

// qualitySizes returns the instance-size sweep for the selectivity
// quality experiments (paper: 2K to 32K).
func (o Options) qualitySizes() []int {
	if len(o.Sizes) > 0 {
		return o.Sizes
	}
	if o.Full {
		return []int{2000, 4000, 8000, 16000, 32000}
	}
	return []int{1000, 2000, 4000, 8000}
}

// engineSizes returns the instance-size sweep for the engine
// comparison experiments (paper: 2K to 16K).
func (o Options) engineSizes() []int {
	if len(o.Sizes) > 0 {
		return o.Sizes
	}
	if o.Full {
		return []int{2000, 4000, 8000, 16000}
	}
	return []int{500, 1000, 2000, 4000}
}

func (o Options) progressf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// buildGraph generates one use-case instance through the unified
// pipeline.
func buildGraph(usecase string, n int, seed int64, parallelism int) (*graph.Graph, error) {
	cfg, err := usecases.ByName(usecase, n)
	if err != nil {
		return nil, err
	}
	return graphgen.Generate(cfg, graphgen.Options{Seed: seed, Parallelism: parallelism})
}

// buildGraphs generates one instance per size, reporting progress.
func buildGraphs(o Options, usecase string, sizes []int) (map[int]*graph.Graph, error) {
	graphs := make(map[int]*graph.Graph, len(sizes))
	for _, n := range sizes {
		g, err := buildGraph(usecase, n, o.Seed, o.Parallelism)
		if err != nil {
			return nil, fmt.Errorf("%s at %d nodes: %w", usecase, n, err)
		}
		graphs[n] = g
		o.progressf("generated %s instance: %d nodes, %d edges", usecase, g.NumNodes(), g.NumEdges())
	}
	return graphs, nil
}

// classWorkload generates per-class query sets with the Section 6.2
// protocol: QueriesPerClass queries for each of the three selectivity
// classes.
func classWorkload(gen *querygen.Generator, perClass int) (map[query.SelectivityClass][]*query.Query, error) {
	out := make(map[query.SelectivityClass][]*query.Query, 3)
	for _, class := range []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic} {
		for i := 0; i < perClass; i++ {
			q, err := gen.GenerateWithClass(class)
			if err != nil {
				return nil, err
			}
			out[class] = append(out[class], q)
		}
	}
	return out, nil
}

// classes lists the three classes in table order.
var classes = []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic}
