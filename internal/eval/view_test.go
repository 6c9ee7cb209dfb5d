package eval

import (
	"strings"
	"testing"

	"gmark/internal/graph"
	"gmark/internal/graphgen"
)

// assertUnpinned fails when any cache entry still holds a pin: every
// evaluation entry point must release its views before returning.
func assertUnpinned(t *testing.T, c *ShardCache, what string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if e.pins != 0 {
			t.Errorf("%s: shard %+v still holds %d pins", what, k, e.pins)
		}
	}
}

// TestWorkerViewCountsUnderCachePressure is the identity property of
// the per-worker views: counts over a spill equal the in-memory counts
// for bib and lsn, over varint, deflate and raw shards (raw both
// decoded and mapped), at workers 1 and 2, under a 64 KiB budget that
// forces evictions between ranges and under the default budget. After
// every evaluation all pins are dropped, so residency is back at or
// under the budget.
func TestWorkerViewCountsUnderCachePressure(t *testing.T) {
	type layout struct {
		comp graphgen.SpillCompression
		mmap bool
	}
	layouts := []layout{
		{graphgen.SpillCompressVarint, false},
		{graphgen.SpillCompressDeflate, false},
		{graphgen.SpillCompressRaw, false},
		{graphgen.SpillCompressRaw, true},
	}
	// The smallest instances whose queries read more than 64 KiB of
	// decoded shards.
	sizes := map[string]int{"bib": 4000, "lsn": 3000}
	for _, uc := range []string{"bib", "lsn"} {
		for _, lay := range layouts {
			g, dir := buildSpillComp(t, uc, sizes[uc], 200, lay.comp)
			probe, err := OpenSpillSource(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			var preds []string
			for _, p := range probe.Manifest().Predicates {
				preds = append(preds, p.Name)
			}
			qs := spillTestQueries(preds)
			want := make([]int64, len(qs))
			for i, q := range qs {
				if want[i], err = Count(g, q, Budget{}); err != nil {
					t.Fatal(err)
				}
			}
			for _, budget := range []int64{64 << 10, 0} {
				for _, workers := range []int{1, 2} {
					src, err := OpenSpillSourceWith(dir, SpillSourceOptions{CacheBytes: budget, Mmap: lay.mmap})
					if err != nil {
						t.Fatal(err)
					}
					limit := budget
					if limit <= 0 {
						limit = DefaultSpillCacheBytes
					}
					what := uc + "/" + lay.comp.String()
					if lay.mmap {
						what += "+mmap"
					}
					for i, q := range qs {
						got, err := CountOverSpillWith(src, q, Budget{}, EvalOptions{Workers: workers})
						if err != nil {
							t.Fatalf("%s budget=%d workers=%d q%d: %v", what, budget, workers, i, err)
						}
						if got != want[i] {
							t.Errorf("%s budget=%d workers=%d q%d: spill=%d in-memory=%d for\n%s",
								what, budget, workers, i, got, want[i], q)
						}
						assertUnpinned(t, src.Cache(), what)
						if st := src.CacheStats(); st.BytesUsed > limit {
							t.Errorf("%s budget=%d workers=%d q%d: %d bytes resident after the evaluation returned",
								what, budget, workers, i, st.BytesUsed)
						}
					}
					if st := src.CacheStats(); budget > 0 && st.Evictions == 0 {
						t.Errorf("%s budget=%d workers=%d: no evictions (%+v)", what, budget, workers, st)
					}
				}
			}
		}
	}
}

// TestWorkerViewMatchesNeighbors: a view answers every (node,
// predicate, direction) exactly as SpillSource.Neighbors does, and
// pins each shard once however often it is read.
func TestWorkerViewMatchesNeighbors(t *testing.T) {
	g, dir := buildSpillComp(t, "bib", 400, 25, graphgen.SpillCompressVarint)
	src, err := OpenSpillSource(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	gv, release := workerView(src)
	v := gv.(*spillView)
	before := src.CacheStats()
	for rep := 0; rep < 2; rep++ {
		for n := 0; n < g.NumNodes(); n++ {
			for p := 0; p < g.NumPredicates(); p++ {
				for _, inv := range []bool{false, true} {
					want := g.Neighbors(graph.NodeID(n), graph.PredID(p), inv)
					got := v.Neighbors(graph.NodeID(n), graph.PredID(p), inv)
					if len(got) != len(want) {
						t.Fatalf("node %d pred %d inv %v: view %v, graph %v", n, p, inv, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("node %d pred %d inv %v: view %v, graph %v", n, p, inv, got, want)
						}
					}
				}
			}
		}
	}
	shards := 0
	for _, c := range src.shardCounts {
		shards += c
	}
	after := src.CacheStats()
	if lookups := after.Hits + after.Loads + after.DedupHits - before.Hits - before.Loads - before.DedupHits; lookups != int64(shards) {
		t.Errorf("view made %d cache lookups, want one per shard (%d)", lookups, shards)
	}
	release()
	release() // idempotent
	assertUnpinned(t, src.Cache(), "after release")
	if src.Err() != nil {
		t.Fatal(src.Err())
	}
}

// TestSpillSourceNegativePredicate: a negative predicate id is outside
// the manifest, like one past the end — an error, never an index
// panic — through the direct path and through a worker view.
func TestSpillSourceNegativePredicate(t *testing.T) {
	_, dir := buildSpillComp(t, "bib", 100, 25, graphgen.SpillCompressVarint)
	for _, viaView := range []bool{false, true} {
		src, err := OpenSpillSource(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.shardMeta(shardKey{pred: -1}); err == nil || !strings.Contains(err.Error(), "no predicate -1") {
			t.Fatalf("shardMeta(pred -1) = %v, want a no-predicate error", err)
		}
		g := Source(src)
		release := func() {}
		if viaView {
			g, release = workerView(src)
		}
		if adj := g.Neighbors(0, -1, false); adj != nil {
			t.Errorf("view=%v: Neighbors(pred -1) = %v, want nil", viaView, adj)
		}
		release()
		if err := src.Err(); err == nil || !strings.Contains(err.Error(), "no predicate -1") {
			t.Errorf("view=%v: sticky error = %v, want a no-predicate error", viaView, err)
		}
	}
}
