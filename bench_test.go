// Benchmarks regenerating the paper's tables and figures (README.md
// names them), plus ablations of the design choices ARCHITECTURE.md
// describes. Benchmarks use laptop-scale parameters; the
// cmd/gmark-bench tool runs the full paper-scale sweeps.
package gmark_test

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gmark/internal/dist"
	"gmark/internal/engines"
	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/regpath"
	"gmark/internal/schema"
	"gmark/internal/selectivity"
	"gmark/internal/translate"
	"gmark/internal/usecases"
)

// newBenchRand returns a deterministic RNG for sampling benchmarks.
func newBenchRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

func mustGraph(b *testing.B, usecase string, n int) *graph.Graph {
	b.Helper()
	cfg, err := usecases.ByName(usecase, n)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graphgen.Generate(cfg, graphgen.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func mustGenerator(b *testing.B, usecase string, n int, kind string) *querygen.Generator {
	b.Helper()
	cfg, err := usecases.ByName(usecase, n)
	if err != nil {
		b.Fatal(err)
	}
	wcfg, err := usecases.Workload(kind, cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := querygen.New(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	return gen
}

// BenchmarkTable3GraphGeneration regenerates Table 3: graph generation
// time per use case and size (the full 100K-100M sweep runs via
// cmd/gmark-bench -exp table3).
func BenchmarkTable3GraphGeneration(b *testing.B) {
	for _, usecase := range []string{"bib", "lsn", "wd", "sp"} {
		for _, n := range []int{10_000, 100_000} {
			if usecase == "wd" && n > 10_000 {
				continue // WD is ~40x denser; keep the bench suite fast
			}
			b.Run(fmt.Sprintf("%s/%d", usecase, n), func(b *testing.B) {
				cfg, err := usecases.ByName(usecase, n)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				var edges int
				for i := 0; i < b.N; i++ {
					g, err := graphgen.Generate(cfg, graphgen.Options{Seed: int64(i)})
					if err != nil {
						b.Fatal(err)
					}
					edges = g.NumEdges()
				}
				b.ReportMetric(float64(edges), "edges")
			})
		}
	}
}

// BenchmarkTable2SelectivityAccuracy regenerates one Table 2 cell per
// class: workload generation plus evaluation of a class-constrained
// query on a Bib instance.
func BenchmarkTable2SelectivityAccuracy(b *testing.B) {
	g := mustGraph(b, "bib", 2000)
	gen := mustGenerator(b, "bib", 2000, "con")
	for _, class := range []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic} {
		b.Run(class.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q, err := gen.GenerateWithClass(class)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eval.Count(g, q, eval.Budget{MaxPairs: 50_000_000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11EstimatedSelectivities regenerates a Fig. 11 point:
// counting |Q(G)| for one query per class across two Bib sizes.
func BenchmarkFig11EstimatedSelectivities(b *testing.B) {
	graphs := []*graph.Graph{mustGraph(b, "bib", 1000), mustGraph(b, "bib", 2000)}
	gen := mustGenerator(b, "bib", 1000, "len")
	queries := make([]*query.Query, 0, 3)
	for _, class := range []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic} {
		q, err := gen.GenerateWithClass(class)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			for _, q := range queries {
				if _, err := eval.Count(g, q, eval.Budget{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFig10SP2BenchComparison regenerates Fig. 10's series: the
// fixed SP2Bench-style queries vs gMark-generated queries of the same
// class on an SP instance.
func BenchmarkFig10SP2BenchComparison(b *testing.B) {
	g := mustGraph(b, "sp", 2000)
	gen := mustGenerator(b, "sp", 2000, "con")
	org := map[query.SelectivityClass]*query.Query{}
	for class, q := range sp2benchQueries() {
		org[class] = q
	}
	for _, class := range []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic} {
		gq, err := gen.GenerateWithClass(class)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("org/"+class.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Count(g, org[class], eval.Budget{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("gmark/"+class.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Count(g, gq, eval.Budget{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sp2benchQueries mirrors experiments.SP2BenchQueries without
// importing the experiments package into the bench namespace.
func sp2benchQueries() map[query.SelectivityClass]*query.Query {
	mk := func(expr string, class query.SelectivityClass) *query.Query {
		return &query.Query{
			HasClass: true, Class: class,
			Rules: []query.Rule{{
				Head: []query.Var{0, 1},
				Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse(expr)}},
			}},
		}
	}
	return map[query.SelectivityClass]*query.Query{
		query.Constant:  mk("publishedIn-.cites.publishedIn", query.Constant),
		query.Linear:    mk("partOf.editorOf-", query.Linear),
		query.Quadratic: mk("cites-.cites", query.Quadratic),
	}
}

// BenchmarkFig12EngineComparison regenerates Fig. 12 bars: each engine
// evaluating the same non-recursive workload queries on Bib.
func BenchmarkFig12EngineComparison(b *testing.B) {
	g := mustGraph(b, "bib", 2000)
	gen := mustGenerator(b, "bib", 2000, "con")
	queries := map[query.SelectivityClass]*query.Query{}
	for _, class := range []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic} {
		q, err := gen.GenerateWithClass(class)
		if err != nil {
			b.Fatal(err)
		}
		queries[class] = q
	}
	budget := eval.Budget{MaxPairs: 50_000_000, Timeout: 30 * time.Second}
	for _, eng := range engines.All() {
		for _, class := range []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic} {
			b.Run(eng.Name()+"/"+class.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := eng.Evaluate(g, queries[class], budget); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable4RecursiveQueries regenerates Table 4: the two fixed
// recursive queries per engine on a small Bib instance (P and S
// exhibit their recursion cliff at larger sizes; D completes).
func BenchmarkTable4RecursiveQueries(b *testing.B) {
	g := mustGraph(b, "bib", 1000)
	q1 := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("(heldIn-.heldIn)*")}},
	}}}
	q2 := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("(authors-.authors)*")}},
	}}}
	budget := eval.Budget{MaxPairs: 50_000_000, Timeout: 60 * time.Second}
	for qi, q := range []*query.Query{q1, q2} {
		for _, eng := range engines.All() {
			b.Run(fmt.Sprintf("q%d/%s", qi+1, eng.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := eng.Evaluate(g, q, budget); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkQueryGenerationScalability regenerates the Section 6.2
// workload-generation numbers: queries generated per second per use
// case.
func BenchmarkQueryGenerationScalability(b *testing.B) {
	for _, usecase := range []string{"bib", "lsn", "sp", "wd"} {
		b.Run(usecase, func(b *testing.B) {
			gen := mustGenerator(b, usecase, 100_000, "con")
			classes := []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gen.GenerateWithClass(classes[i%3]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTranslationScalability regenerates the Section 6.2
// translation numbers: one query into all four syntaxes per iteration.
func BenchmarkTranslationScalability(b *testing.B) {
	gen := mustGenerator(b, "bib", 10_000, "con")
	q, err := gen.GenerateWithClass(query.Linear)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range translate.Syntaxes {
			if _, err := translate.To(s, q, translate.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGenerateParallelism measures the unified pipeline's
// constraint-emission stage sequentially versus across all cores. The
// outputs are identical for any worker count at a fixed seed, so this
// is a pure throughput comparison.
func BenchmarkGenerateParallelism(b *testing.B) {
	cfg, err := usecases.ByName("bib", 200_000)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		par  int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var edges int
			for i := 0; i < b.N; i++ {
				g, err := graphgen.Generate(cfg, graphgen.Options{Seed: 1, Parallelism: mode.par})
				if err != nil {
					b.Fatal(err)
				}
				edges = g.NumEdges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkGenerateSharded measures intra-constraint sharding on a
// single-dominant-constraint schema — the shape that serialized the
// pre-shard pipeline on one worker regardless of Parallelism. Each
// granularity fixes its own instance; rows record throughput per
// shard size (sharding off / auto / fine).
func BenchmarkGenerateSharded(b *testing.B) {
	cfg := &schema.GraphConfig{
		Nodes: 200_000,
		Schema: schema.Schema{
			Types:      []schema.NodeType{{Name: "user", Occurrence: schema.Proportion(1)}},
			Predicates: []schema.Predicate{{Name: "knows", Occurrence: schema.Proportion(1)}},
			Constraints: []schema.EdgeConstraint{
				{Source: "user", Target: "user", Predicate: "knows",
					In: dist.NewZipfian(2.0), Out: dist.NewGaussian(5, 2)},
			},
		},
	}
	for _, mode := range []struct {
		name       string
		shardEdges int
	}{{"shard-off", -1}, {"shard-auto", 0}, {"shard-16K", 16 << 10}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var edges int
			for i := 0; i < b.N; i++ {
				g, err := graphgen.Generate(cfg, graphgen.Options{Seed: 1, ShardEdges: mode.shardEdges})
				if err != nil {
					b.Fatal(err)
				}
				edges = g.NumEdges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkSinkAblation isolates the sink cost of the pipeline: the
// in-memory GraphSink (builds CSR adjacency) against the streaming
// WriterSink (formats the textual edge list into io.Discard).
func BenchmarkSinkAblation(b *testing.B) {
	cfg, err := usecases.ByName("bib", 100_000)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("graph-sink", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graphgen.Generate(cfg, graphgen.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("writer-sink", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graphgen.Stream(cfg, graphgen.Options{Seed: 1}, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWorkload measures the query-workload pipeline end to end:
// planning plus emission of a 200-query mixed-shape, mixed-class
// workload, sequentially and across all cores, plus the streaming
// profile sink. Workloads are identical for any worker count at a
// fixed seed, so seq-vs-parallel is a pure throughput comparison.
func BenchmarkWorkload(b *testing.B) {
	cfg, err := usecases.ByName("bib", 100_000)
	if err != nil {
		b.Fatal(err)
	}
	wcfg, err := usecases.Workload("con", cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	wcfg.Count = 200
	wcfg.Shapes = []query.Shape{query.Chain, query.Star, query.Cycle, query.StarChain}
	wcfg.Classes = []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic}
	gen, err := querygen.New(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		par  int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gen.Emit(querygen.Options{Parallelism: mode.par}, querygen.DiscardSink{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("profile-sink", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gen.Emit(querygen.Options{}, querygen.NewProfileSink()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation benchmarks: each names the design choice it measures ---

// BenchmarkAblationGaussianFastPath compares the optimized
// partial-shuffle pairing against the Fig. 5-literal full shuffle.
func BenchmarkAblationGaussianFastPath(b *testing.B) {
	cfg, err := usecases.ByName("bib", 50_000)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"optimized", false}, {"naive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graphgen.Generate(cfg, graphgen.Options{Seed: int64(i), NaiveShuffle: mode.naive}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSemiNaive compares D's semi-naive closure against
// S's naive rematerializing closure on the same recursive query.
func BenchmarkAblationSemiNaive(b *testing.B) {
	g := mustGraph(b, "bib", 1000)
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("(authors-.authors)*")}},
	}}}
	budget := eval.Budget{MaxPairs: 100_000_000, Timeout: 120 * time.Second}
	b.Run("semi-naive", func(b *testing.B) {
		eng := engines.NewDatalog()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Evaluate(g, q, budget); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		eng := engines.NewTripleStore()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Evaluate(g, q, budget); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDistanceMatrix compares selectivity-walk path
// sampling with and without the distance-matrix pruning of
// Section 5.2.3(b) on requests that are mostly unsatisfiable.
func BenchmarkAblationDistanceMatrix(b *testing.B) {
	cfg, err := usecases.ByName("lsn", 1000)
	if err != nil {
		b.Fatal(err)
	}
	est, err := selectivity.NewEstimator(&cfg.Schema)
	if err != nil {
		b.Fatal(err)
	}
	sg := selectivity.NewSchemaGraph(est)
	rng := newBenchRand()
	numNodes := len(sg.Nodes)
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			from, to := i%numNodes, (i*7)%numNodes
			sg.SamplePathBetween(rng, from, to, 1, 3)
		}
	})
	b.Run("unpruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			from, to := i%numNodes, (i*7)%numNodes
			sg.SamplePathBetweenSets(rng, from, func(v int) bool { return v == to }, 1, 3)
		}
	})
}

// BenchmarkAblationRelaxation compares class-constrained generation
// with a comfortable path-length window against a window so tight the
// generator must climb its relaxation ladder.
func BenchmarkAblationRelaxation(b *testing.B) {
	base, err := usecases.ByName("bib", 1000)
	if err != nil {
		b.Fatal(err)
	}
	mk := func(lmin, lmax int) *querygen.Generator {
		wcfg, err := usecases.Workload("con", base, 1)
		if err != nil {
			b.Fatal(err)
		}
		wcfg.Size.Length = query.Interval{Min: lmin, Max: lmax}
		gen, err := querygen.New(wcfg)
		if err != nil {
			b.Fatal(err)
		}
		return gen
	}
	b.Run("loose-window", func(b *testing.B) {
		gen := mk(1, 4)
		for i := 0; i < b.N; i++ {
			if _, err := gen.GenerateWithClass(query.Quadratic); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tight-window", func(b *testing.B) {
		gen := mk(1, 1) // quadratic needs 2 symbols on Bib: forces relaxation
		for i := 0; i < b.N; i++ {
			if _, err := gen.GenerateWithClass(query.Quadratic); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvalStreamingSparse measures the streaming evaluator on a
// chain whose first expression starts from a sparse predicate: most
// sources cannot make the first step, so the per-source skip (shared
// with evalCompiled) decides whether the scan is O(active sources) or
// O(all nodes) bitset resets. Recorded in BENCH_generate.json.
func BenchmarkEvalStreamingSparse(b *testing.B) {
	g := mustGraph(b, "bib", 50_000)
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("heldIn.heldIn-")}},
	}}}
	b.ReportAllocs()
	var n int64
	for i := 0; i < b.N; i++ {
		var err error
		n, err = eval.Count(g, q, eval.Budget{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "tuples")
}

// BenchmarkSpillEval compares the same Count over the in-memory graph
// and over its CSR spill: warm (shards resident under the default
// budget) and cold (a cache too small for the working set, so shards
// reload from disk mid-query). The spill is written once per run.
func BenchmarkSpillEval(b *testing.B) {
	g := mustGraph(b, "bib", 20_000)
	dir := b.TempDir()
	if err := graphgen.WriteCSRSpillFromGraph(dir, g, 1024); err != nil {
		b.Fatal(err)
	}
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("authors-.authors")}},
	}}}
	b.Run("in-memory", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eval.Count(g, q, eval.Budget{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spill-warm", func(b *testing.B) {
		src, err := eval.OpenSpillSource(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eval.CountOverSpill(src, q, eval.Budget{}); err != nil {
			b.Fatal(err) // warm the cache
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eval.CountOverSpill(src, q, eval.Budget{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spill-cold", func(b *testing.B) {
		src, err := eval.OpenSpillSource(dir, 32<<10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eval.CountOverSpill(src, q, eval.Budget{}); err != nil {
				b.Fatal(err)
			}
		}
		st := src.CacheStats()
		b.ReportMetric(float64(st.Evictions)/float64(b.N), "evictions/op")
	})
}

// BenchmarkColdEval measures the cold first pass of the same count
// over each residency tier: varint shards decoded on demand, raw
// shards through the zero-copy mapping path, and raw+mmap with the
// background prefetcher warming two ranges ahead. Every iteration
// opens a fresh source, so ns/op is the true cold cost including
// shard I/O. Recorded in BENCH_generate.json.
func BenchmarkColdEval(b *testing.B) {
	g := mustGraph(b, "bib", 20_000)
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("authors-.authors")}},
	}}}
	dirs := map[graphgen.SpillCompression]string{}
	for _, comp := range []graphgen.SpillCompression{graphgen.SpillCompressVarint, graphgen.SpillCompressRaw} {
		dir := b.TempDir()
		if err := graphgen.WriteCSRSpillFromGraphWith(dir, g, 1024, comp); err != nil {
			b.Fatal(err)
		}
		dirs[comp] = dir
	}
	cases := []struct {
		name     string
		comp     graphgen.SpillCompression
		mmap     bool
		prefetch int
	}{
		{"varint-decode", graphgen.SpillCompressVarint, false, 0},
		{"raw-mmap", graphgen.SpillCompressRaw, true, 0},
		{"raw-mmap-prefetch", graphgen.SpillCompressRaw, true, 2},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src, err := eval.OpenSpillSourceWith(dirs[c.comp], eval.SpillSourceOptions{Mmap: c.mmap})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eval.CountOverSpillWith(src, q, eval.Budget{}, eval.EvalOptions{Workers: 1, Prefetch: c.prefetch}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpillLoadV3 measures cold shard decode for each on-disk
// encoding: every iteration loads and decodes every shard of the
// instance, so ns/op is the full cold sweep and disk-bytes/op shows
// what each codec actually reads. Recorded in BENCH_generate.json.
func BenchmarkSpillLoadV3(b *testing.B) {
	g := mustGraph(b, "bib", 20_000)
	for _, comp := range []graphgen.SpillCompression{
		graphgen.SpillCompressNone, graphgen.SpillCompressVarint, graphgen.SpillCompressDeflate,
	} {
		dir := b.TempDir()
		if err := graphgen.WriteCSRSpillFromGraphWith(dir, g, 1024, comp); err != nil {
			b.Fatal(err)
		}
		spill, err := graphgen.OpenCSRSpill(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(comp.String(), func(b *testing.B) {
			b.ReportAllocs()
			var disk, decoded int64
			for i := 0; i < b.N; i++ {
				disk, decoded = 0, 0
				for _, p := range spill.Manifest.Predicates {
					for _, shards := range [][]graphgen.CSRShard{p.Fwd, p.Bwd} {
						for _, sh := range shards {
							off, adj, diskBytes, err := spill.LoadShardSized(sh)
							if err != nil {
								b.Fatal(err)
							}
							disk += diskBytes
							decoded += 4 * int64(len(off)+len(adj))
						}
					}
				}
			}
			b.ReportMetric(float64(disk), "disk-bytes/op")
			b.ReportMetric(float64(decoded)/float64(disk), "compression-x")
		})
	}
}

// BenchmarkParallelEval measures the range-sharded parallel evaluator
// against the sequential scan, in memory and over a warm spill. Counts
// are identical by construction (pinned by TestParallelCountMatches-
// Sequential); this records the throughput difference. On a single-core
// container expect ~1x. Recorded in BENCH_generate.json.
func BenchmarkParallelEval(b *testing.B) {
	g := mustGraph(b, "bib", 20_000)
	dir := b.TempDir()
	if err := graphgen.WriteCSRSpillFromGraph(dir, g, 1024); err != nil {
		b.Fatal(err)
	}
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("authors-.authors")}},
	}}}
	modes := []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}}
	for _, m := range modes {
		b.Run("in-memory/"+m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: m.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, m := range modes {
		b.Run("spill-warm/"+m.name, func(b *testing.B) {
			src, err := eval.OpenSpillSource(dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eval.CountOverSpill(src, q, eval.Budget{}); err != nil {
				b.Fatal(err) // warm the cache
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.CountOverSpillWith(src, q, eval.Budget{}, eval.EvalOptions{Workers: m.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvalFleet reproduces the N-concurrent-evaluations scenario
// the shared cache exists for: four goroutines counting four distinct
// queries with overlapping working sets over one spill. The private
// mode gives each evaluator its own LRU with a quarter of the total
// byte budget (the pre-shared-cache architecture), so each starves and
// pays the reload cliff; the shared mode pools the same total budget in
// one cache. The loads/op metric is the cliff: private reloads shards
// every iteration, shared loads each shard once across the whole run.
// Recorded in BENCH_generate.json.
func BenchmarkEvalFleet(b *testing.B) {
	g := mustGraph(b, "bib", 20_000)
	dir := b.TempDir()
	if err := graphgen.WriteCSRSpillFromGraph(dir, g, 1024); err != nil {
		b.Fatal(err)
	}
	spill, err := graphgen.OpenCSRSpill(dir)
	if err != nil {
		b.Fatal(err)
	}
	exprs := []string{"authors", "authors-", "authors-.authors", "authors.authors-"}
	queries := make([]*query.Query, len(exprs))
	for i, e := range exprs {
		queries[i] = &query.Query{Rules: []query.Rule{{
			Head: []query.Var{0, 1},
			Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse(e)}},
		}}}
	}
	// Calibrate the fleet's union working set, then size the total
	// budget just above it: the shared cache fits, a quarter of it
	// (one private LRU) does not.
	calib := eval.NewSpillSource(spill, 0)
	for _, q := range queries {
		if _, err := eval.CountOverSpill(calib, q, eval.Budget{}); err != nil {
			b.Fatal(err)
		}
	}
	budget := calib.CacheStats().PeakBytes
	budget += budget / 8

	fleet := func(b *testing.B, sources []*eval.SpillSource) {
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for k := range queries {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					if _, err := eval.CountOverSpill(sources[k], queries[k], eval.Budget{}); err != nil {
						b.Error(err)
					}
				}(k)
			}
			wg.Wait()
		}
	}
	b.Run("private-lru", func(b *testing.B) {
		sources := make([]*eval.SpillSource, len(queries))
		for k := range sources {
			sources[k] = eval.NewSpillSource(spill, budget/int64(len(queries)))
		}
		b.ResetTimer()
		fleet(b, sources)
		var loads int64
		for _, s := range sources {
			loads += s.CacheStats().Loads
		}
		b.ReportMetric(float64(loads)/float64(b.N), "loads/op")
	})
	b.Run("shared-cache", func(b *testing.B) {
		shared := eval.NewSpillSource(spill, budget)
		sources := make([]*eval.SpillSource, len(queries))
		for k := range sources {
			sources[k] = shared
		}
		b.ResetTimer()
		fleet(b, sources)
		st := shared.CacheStats()
		b.ReportMetric(float64(st.Loads)/float64(b.N), "loads/op")
		b.ReportMetric(float64(st.DedupHits)/float64(b.N), "dedup/op")
	})
}

// BenchmarkEngineSpill measures the simulated engines over a CSR spill
// against the same engines in memory: the per-engine cost of staying
// out of core, warm (working set resident) and cold (cache starved so
// shards reload mid-evaluation). D's recursive run also exercises the
// bitmap-backed StarDomain — the epsilon mask costs zero shard loads.
// Recorded in BENCH_generate.json.
func BenchmarkEngineSpill(b *testing.B) {
	g := mustGraph(b, "bib", 20_000)
	dir := b.TempDir()
	if err := graphgen.WriteCSRSpillFromGraph(dir, g, 1024); err != nil {
		b.Fatal(err)
	}
	join := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("authors-.authors")}},
	}}}
	rec := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("(heldIn-.heldIn)*")}},
	}}}
	cases := []struct {
		name string
		eng  engines.Engine
		q    *query.Query
	}{
		{"S-join", engines.NewTripleStore(), join},
		{"D-join", engines.NewDatalog(), join},
		{"D-star", engines.NewDatalog(), rec},
	}
	for _, c := range cases {
		b.Run(c.name+"/in-memory", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.eng.Evaluate(g, c.q, eval.Budget{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/spill-warm", func(b *testing.B) {
			src, err := eval.OpenSpillSource(dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.eng.Evaluate(src, c.q, eval.Budget{}); err != nil {
				b.Fatal(err) // warm the cache
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.eng.Evaluate(src, c.q, eval.Budget{}); err != nil {
					b.Fatal(err)
				}
			}
			if err := src.Err(); err != nil {
				b.Fatal(err)
			}
			st := src.CacheStats()
			b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Loads)*100, "hit%")
		})
		b.Run(c.name+"/spill-cold", func(b *testing.B) {
			src, err := eval.OpenSpillSource(dir, 32<<10)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.eng.Evaluate(src, c.q, eval.Budget{}); err != nil {
					b.Fatal(err)
				}
			}
			if err := src.Err(); err != nil {
				b.Fatal(err)
			}
			st := src.CacheStats()
			b.ReportMetric(float64(st.Evictions)/float64(b.N), "evictions/op")
		})
	}
}
