package eval

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/testutil"
)

// neighborsSink keeps the benchmarked Neighbors calls observable.
var neighborsSink atomic.Int64

// BenchmarkSpillNeighbors measures the warm per-call cost of Neighbors
// over a SpillSource whose shards are all resident: direct calls, each
// one locked ShardCache lookup, against a worker view, whose calls
// after the first touch of a shard are an array index. Each of 1 or 2
// goroutines cycles through every (node, predicate, direction) of an
// 8000-node bib spill; ns/op is wall time per call over all of them,
// so contention on the cache mutex shows at 2 goroutines.
//
//	go test -run '^$' -bench SpillNeighbors -cpu 2 ./internal/eval/
func BenchmarkSpillNeighbors(b *testing.B) {
	g, dir := testutil.SpillComp(b, "bib", 8000, 250, evalFixtureSeed, graphgen.SpillCompressVarint)
	src, err := OpenSpillSource(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	n, preds := g.NumNodes(), g.NumPredicates()
	sweep := func(rd Source, calls int) int {
		total, v, p := 0, 0, 0
		for i := 0; i < calls; i++ {
			inv := i&1 == 1
			total += len(rd.Neighbors(graph.NodeID(v), graph.PredID(p), inv))
			if inv {
				if p++; p == preds {
					p = 0
					if v++; v == n {
						v = 0
					}
				}
			}
		}
		return total
	}
	sweep(src, 2*n*preds) // load every shard before timing
	for _, mode := range []string{"direct", "view"} {
		for _, goroutines := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", mode, goroutines), func(b *testing.B) {
				var wg sync.WaitGroup
				for w := 0; w < goroutines; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						rd, release := Source(src), func() {}
						if mode == "view" {
							rd, release = workerView(src)
						}
						defer release()
						neighborsSink.Add(int64(sweep(rd, b.N/goroutines)))
					}()
				}
				wg.Wait()
			})
		}
	}
	if err := src.Err(); err != nil {
		b.Fatal(err)
	}
}
