package main

import (
	"fmt"
	"sync"

	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/graphgen"
)

// probeSeconds is roughly how long each layer probe measures.
const probeSeconds = 0.25

// runProbes runs the two layer probes over the eval instance: the warm
// Neighbors sweep over the in-memory graph and over a SpillSource on
// the spill in dir, at 1 and nproc goroutines, and the LoadShardSized
// decode sweep over every shard of that spill.
func runProbes(r *run, g *graph.Graph, dir string) error {
	src, err := eval.OpenSpillSource(dir, 0)
	if err != nil {
		return err
	}
	preds := g.NumPredicates()
	want := neighborsSweep(g, g.NumNodes(), preds, 1, 1)
	for _, s := range []struct {
		prefix string
		src    eval.Source
	}{{"graph.neighbors_ns", g}, {"eval.spill.neighbors_ns", src}} {
		release := eval.AcquireSourceReader(s.src)
		got := neighborsSweep(s.src, g.NumNodes(), preds, 1, 1) // warms the source
		reps := probeReps(func() { neighborsSweep(s.src, g.NumNodes(), preds, 1, 1) })
		id := r.tr.begin(s.prefix+".w1", 0, 0)
		w1 := timedSweep(s.src, g.NumNodes(), preds, 1, reps)
		r.tr.end(id)
		id = r.tr.begin(s.prefix+".wN", 0, 0)
		wN := timedSweep(s.src, g.NumNodes(), preds, r.nproc, reps)
		r.tr.end(id)
		release()
		r.check(got == want, "%s sweep sees the in-memory graph's %d adjacency entries (got %d)", s.prefix, want, got)
		r.layers[s.prefix+".w1"] = w1
		r.layers[s.prefix+".wN"] = wN
	}
	r.check(src.Err() == nil, "spill source reports no shard-load error")
	return decodeProbe(r, dir, g.NumEdges())
}

// probeReps calibrates how many repetitions of f fill probeSeconds.
func probeReps(f func()) int {
	t0 := now()
	f()
	one := since(t0)
	return max(1, int(probeSeconds/max(one, 1e-9)))
}

// neighborsSweep calls Neighbors for every node, predicate and
// direction, reps times on each of workers goroutines, and returns the
// adjacency entries one goroutine saw in one sweep.
func neighborsSweep(src eval.Source, n, preds, workers, reps int) int {
	seen := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			total := 0
			for rep := 0; rep < reps; rep++ {
				for v := 0; v < n; v++ {
					for p := 0; p < preds; p++ {
						total += len(src.Neighbors(graph.NodeID(v), graph.PredID(p), false))
						total += len(src.Neighbors(graph.NodeID(v), graph.PredID(p), true))
					}
				}
			}
			seen[w] = total / reps
		}(w)
	}
	wg.Wait()
	return seen[0]
}

// timedSweep returns the warm per-call cost of Neighbors in ns, as one
// of workers concurrent sweepers sees it.
func timedSweep(src eval.Source, n, preds, workers, reps int) float64 {
	t0 := now()
	neighborsSweep(src, n, preds, workers, reps)
	calls := float64(reps) * float64(n) * float64(preds) * 2
	return since(t0) * 1e9 / calls
}

// decodeProbe times CSRSpill.LoadShardSized over every shard of the
// spill in dir and reports the decode cost per adjacency entry.
func decodeProbe(r *run, dir string, edges int) error {
	spill, err := graphgen.OpenCSRSpill(dir)
	if err != nil {
		return err
	}
	var shards []graphgen.CSRShard
	for _, p := range spill.Manifest.Predicates {
		shards = append(shards, p.Fwd...)
		shards = append(shards, p.Bwd...)
	}
	sweep := func() (int, error) {
		total := 0
		for _, sh := range shards {
			_, adj, _, err := spill.LoadShardSized(sh)
			if err != nil {
				return 0, err
			}
			total += len(adj)
		}
		return total, nil
	}
	entries, err := sweep()
	if err != nil {
		return err
	}
	r.check(entries == 2*edges, "decode sweep reads every edge in both directions (%d entries, %d edges)", entries, edges)
	reps := probeReps(func() { _, _ = sweep() })
	id := r.tr.begin("graphgen.shard.decode", 0, 0)
	t0 := now()
	for i := 0; i < reps; i++ {
		if _, err := sweep(); err != nil {
			return fmt.Errorf("decode sweep: %w", err)
		}
	}
	secs := since(t0)
	r.tr.end(id)
	r.layers["graphgen.shard.decode_ns_per_edge"] = secs * 1e9 / float64(reps*entries)
	return nil
}
